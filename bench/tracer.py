"""Per-layer spans recorded from the benchmark's side of each layer boundary.

Each layer function is replaced, where its callers look it up, by a wrapper
that records a span (id, parent id, command id, layer, start, end) in memory.
The program itself is not changed; ``Tracer.installed()`` puts every original
back when it exits.

``poly.mul`` and ``poly.divmod`` are kernels: a kernel called from inside a
kernel (the coefficient arithmetic of the Q[t][x] tower, or the exact
divisions a tower division makes) belongs to the outer kernel's span and
records nothing, so a count is the number of polynomial operations the
higher layers asked for.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

# (layer, module, attribute) for every binding that is wrapped.
BINDINGS = (
    ("poly.gcd", "ratfunc", "poly_gcd"),
    ("poly.gcd", "poly", "poly_gcd"),
    ("poly.divmod", "poly", "Poly.__divmod__"),
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.mul", "poly", "Poly.__rmul__"),
    ("ratfunc.init", "ratfunc", "RatFunc.__init__"),
    ("parsing.parse", "curves", "parse_poly"),
    ("parsing.parse", "curves", "parse_ratfunc"),
    ("parsing.format", "curves", "format_poly"),
    ("parsing.format", "curves", "format_ratfunc"),
    ("parsing.format", "cli", "format_poly"),
    ("parsing.format", "cli", "format_ratfunc"),
    ("curves.identity", "family", "verify_cover_identity"),
    ("curves.identity", "cli", "verify_cover_identity"),
    ("curves.identity", "degeneration", "verify_cover_identity"),
    ("curves.ramification", "family", "ramification_report"),
    ("curves.ramification", "cli", "ramification_report"),
    ("curves.pullback", "curves", "pullback_invariant_differential"),
    ("curves.pullback", "cli", "pullback_invariant_differential"),
    ("family.build", "family", "build_family"),
    ("degeneration.solve", "degeneration", "solve_deformation"),
    ("degeneration.assemble", "degeneration", "assemble_deformation_system"),
    ("degeneration.deform", "degeneration", "deform"),
    ("linalg.solve", "degeneration", "solve_exact"),
)
PACKAGE = "origami_covers"
ROOT = "cli.main"
KERNELS = frozenset({"poly.mul", "poly.divmod"})
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BINDINGS))


def coeff_bits(p) -> int:
    """Largest numerator or denominator bit length among p's coefficients."""
    best = 0
    for c in p.coeffs:
        if hasattr(c, "coeffs"):
            best = max(best, coeff_bits(c))
        else:
            best = max(best, c.numerator.bit_length(),
                       c.denominator.bit_length())
    return best


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []      # (id, parent, command, layer, start, end)
        self.stack = [0]     # open span ids; 0 is "no span"
        self.layer_of = {0: None}
        self.command = 0
        self.gcd_useful = 0
        self.gcd_attempts = 0
        self.divmod_bits = 0
        self.unbound = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer):
        sid = len(self.layer_of)
        self.layer_of[sid] = layer
        self.stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid, layer, start):
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append((sid, self.stack[-1], self.command, layer, start,
                           end))

    def _wrap(self, layer, fn, after=None):
        kernel = layer in KERNELS

        def wrapper(*args, **kwargs):
            if kernel and self.layer_of[self.stack[-1]] in KERNELS:
                return fn(*args, **kwargs)
            sid, start = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, layer, start)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_divmod(self, result):
        q, r = result
        self.divmod_bits = max(self.divmod_bits, coeff_bits(q), coeff_bits(r))

    def _after_ratfunc_gcd(self, result):
        self.gcd_attempts += 1
        if result.degree() > 0:
            self.gcd_useful += 1

    def command_span(self, fn, *args):
        """Run fn(*args) as the root span of a new command."""
        self.command += 1
        sid, start = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(sid, ROOT, start)

    # -- installing ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS; restore the originals on exit."""
        hooks = {("poly", "Poly.__divmod__"): self._after_divmod,
                 ("ratfunc", "poly_gcd"): self._after_ratfunc_gcd}
        restore = []
        try:
            for layer, mod_name, attr in BINDINGS:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, name, None)
                if fn is None:
                    self.unbound.append(f"{mod_name}.{attr}")
                    continue
                restore.append((owner, name, fn))
                setattr(owner, name, self._wrap(
                    layer, fn, hooks.get((mod_name, attr))))
            yield self
        finally:
            for owner, name, fn in reversed(restore):
                setattr(owner, name, fn)

    # -- reading ----------------------------------------------------------

    def reset(self):
        """Forget the recorded spans and counters; call with no span open."""
        self.spans.clear()
        self.layer_of = {0: None}
        self.gcd_useful = self.gcd_attempts = self.divmod_bits = 0

    def summary(self) -> dict:
        """Per-layer calls, inclusive time and self time of the recorded spans,
        with the divmod and gcd counters.

        Inclusive time counts a span only when no ancestor has the same
        layer, so recursion is not counted twice.
        """
        child_time = {}
        for sid, parent, _, _, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        parent_of = {sid: parent for sid, parent, *_ in self.spans}
        out = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for layer in (ROOT,) + LAYERS}
        for sid, parent, _, layer, start, end in self.spans:
            agg = out[layer]
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child_time.get(sid, 0.0)
            up = parent
            while up and self.layer_of[up] != layer:
                up = parent_of.get(up, 0)
            if not up:
                agg["s"] += end - start
        return {
            "layers": out,
            "calls": {layer: agg["calls"] for layer, agg in out.items()},
            "divmod_bits": self.divmod_bits,
            "gcd_useful": self.gcd_useful,
            "gcd_attempts": self.gcd_attempts,
        }

    def write(self, path: str):
        """Write the recorded spans as one JSON object per line."""
        keys = ("id", "parent", "command", "layer", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
