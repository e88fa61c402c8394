"""Benchmark of the origami-covers CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload generate-ladder --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout and driven in-process:
``origami_covers.cli.main(argv)`` runs with stdout captured, one command after
another (a closed loop with one client, no extra threads).  A pass runs the
workload's whole command list; passes repeat until the next one would end
after ``--seconds``.  Every output is checked against known answers that
``oracle.py`` computes without the program.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the last line reports
the per-layer metrics of the traced passes (see ``tracer.py``); the spans of
the last traced pass are written to ``bench/out/``.  Other lines of stdout are
a human-readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import oracle
from tracer import PACKAGE, ROOT, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT = os.path.join(BENCH_DIR, "out")

COMMAND_LIMIT_S = 30.0   # a command running longer counts as a timeout
DEADLINE_S = 150.0       # no command runs past this point of the process
SETUP_REPEATS = 5

# Machine speed drifts by up to a third over minutes on a shared host (both
# wall and CPU time), so every time metric is scaled to a fixed reference
# speed: a calibration kernel runs before and after each stretch of commands
# and a command's latency is multiplied by REF_CAL_S over the mean of the two
# kernel timings around it.  Each timing is the fastest of CAL_RUNS runs.
REF_CAL_S = 0.016
CAL_RUNS = 3
CAL_EVERY_S = 0.5


class CommandTimeout(BaseException):
    """Raised by the signal timer; a BaseException so the program's own
    ``except Exception`` handlers cannot swallow it."""


@dataclass(frozen=True)
class Case:
    argv: list
    kind: str
    genus: int
    check: Callable[[str, str], str | None]   # (outcome, stdout) -> problem


class Pass(NamedTuple):
    wall: float          # sum of the scaled latencies
    latencies: list      # per case, at the reference speed
    raw_wall: float      # sum of the unscaled latencies


# -- known-answer checks -----------------------------------------------------


def _doc(outcome, out, expect="exit 0"):
    if outcome != expect:
        return None, f"{outcome}, expected {expect}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, "stdout is not one JSON document"


def _all_passed(doc):
    return all(c.get("passed") is True for c in doc.get("checks", [None]))


def _check_generate(g):
    cover, cert = oracle.cover(g), oracle.certificate(g)

    def check(outcome, out):
        doc, problem = _doc(outcome, out)
        if problem:
            return problem
        if doc.get("inputs") != {"genus": g} or doc.get("cover") != cover:
            return "cover differs from the closed form"
        if doc.get("certificate") != cert or not _all_passed(doc):
            return "certificate differs from the closed form"
        return None
    return check


def _check_degenerate(g):
    coefficients = oracle.deformation_coefficients(g)
    curve = oracle.cover(g)["source_rhs"]

    def check(outcome, out):
        doc, problem = _doc(outcome, out)
        if problem:
            return problem
        if doc.get("coefficients") != coefficients:
            return "solved coefficients differ from the closed form"
        if doc.get("exact") is not True or doc.get("curve") != curve:
            return "deformed curve differs from the closed form"
        if not _all_passed(doc):
            return "a check failed"
        return None
    return check


def _check_verify(expect):
    def check(outcome, out):
        if expect == 2:
            if outcome != "exit 2":
                return f"{outcome}, expected exit 2"
            return "output on stdout" if out else None
        doc, problem = _doc(outcome, out, f"exit {expect}")
        if problem:
            return problem
        if doc.get("command") != "verify" or _all_passed(doc) != (expect == 0):
            return "checks disagree with the exit status"
        return None
    return check


# -- workloads ---------------------------------------------------------------


def _generate_ladder(seed):
    return [Case(["generate", "--genus", str(g)], "generate", g,
                 _check_generate(g)) for g in range(2, 15, 2)]


def _degenerate_ladder(seed):
    return [Case(["degenerate", "--genus", str(g)], "degenerate", g,
                 _check_degenerate(g)) for g in range(2, 9)]


def _verify_corpus(seed):
    """Writes the seeded corpus under bench/out and returns one case per file."""
    folder = os.path.join(OUT, f"corpus-seed{seed}")
    os.makedirs(folder, exist_ok=True)
    cases = []
    for doc in oracle.build_corpus(seed):
        path = os.path.join(folder, doc["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc["text"])
        cases.append(Case(["verify", path], doc["kind"], doc["genus"],
                          _check_verify(doc["expect"])))
    return cases


# name -> (case builder, kind and genus of the top case)
WORKLOADS = {
    "generate-ladder": (_generate_ladder, ("generate", 14)),
    "verify-corpus": (_verify_corpus, ("valid-canonical", 12)),
    "degenerate-ladder": (_degenerate_ladder, ("degenerate", 8)),
}


def corpus_digest(seed) -> str:
    h = hashlib.sha256()
    for doc in oracle.build_corpus(seed):
        h.update(doc["name"].encode() + b"\0" + doc["text"].encode() + b"\0")
    return h.hexdigest()[:16]


# -- running -----------------------------------------------------------------


def calibration_kernel():
    """Euclid over Q on two fixed dense polynomials, about 16 ms.

    The same kind of work as the program (Fraction arithmetic on growing
    integers), written here so that no change to the program can move it.
    """
    a = [Fraction(((i * 7919) % 97) - 48) for i in range(35)]
    b = [Fraction(((i * 104729) % 89) - 44) for i in range(34)]
    while b:
        r = list(a)
        while len(r) >= len(b):
            f = r[-1] / b[-1]
            s = len(r) - len(b)
            for i, c in enumerate(b):
                r[s + i] -= f * c
            r.pop()
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return a


def calibrate():
    """(when it ended, fastest of CAL_RUNS kernel runs)."""
    fastest = float("inf")
    for _ in range(CAL_RUNS):
        start = time.perf_counter()
        calibration_kernel()
        end = time.perf_counter()
        fastest = min(fastest, end - start)
    return end, fastest


def scaled(seconds, before, after):
    """``seconds`` at the reference speed, from the kernel timings around it."""
    return seconds * REF_CAL_S / ((before + after) / 2)


def _on_alarm(signum, frame):
    raise CommandTimeout


def load_program():
    """Import the CLI from src/ of this checkout, afresh."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"{PACKAGE} was not imported from {SRC}")
    return cli


def known_defect(kind, problem) -> bool:
    """True when a failed check is the known defect recorded for its kind."""
    known = oracle.KNOWN_DEFECTS.get(kind)
    return known is not None and problem.startswith(known + ",")


class Runner:
    """Runs cases one at a time and tallies their outcomes."""

    def __init__(self, cli, started):
        self.cli = cli
        self.started = started
        self.attempted = 0
        self.failures = {}     # (kind, problem) -> count
        self.unexpected = 0
        signal.signal(signal.SIGALRM, _on_alarm)

    def run_case(self, case, tracer=None):
        """Run one command under the time limit; returns its latency."""
        limit = min(COMMAND_LIMIT_S,
                    DEADLINE_S - (time.perf_counter() - self.started))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            if limit <= 0:
                raise CommandTimeout
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    if tracer is None:
                        code = self.cli.main(case.argv)
                    else:
                        code = tracer.command_span(self.cli.main, case.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = f"exit {code}"
        except SystemExit as exc:
            outcome = f"exit {exc.code}"
        except CommandTimeout:
            outcome = "timeout"
        except Exception as exc:  # a crash is counted, not fatal
            outcome = f"crash {type(exc).__name__}"
        latency = time.perf_counter() - start
        self.record(case, outcome, out.getvalue())
        return latency

    def record(self, case, outcome, stdout):
        """Check one command's outcome and output against the oracle."""
        self.attempted += 1
        problem = case.check(outcome, stdout)
        if problem is not None:
            key = (case.kind, problem)
            self.failures[key] = self.failures.get(key, 0) + 1
            if not known_defect(case.kind, problem):
                self.unexpected += 1

    def run_pass(self, cases, tracer=None) -> Pass:
        """Run every case once.

        The kernel runs before the first command, before any command that
        starts CAL_EVERY_S after the last kernel run, and after the last
        command; its own time is not part of any latency.
        """
        cals = [calibrate()]
        raw, before = [], []
        for case in cases:
            if time.perf_counter() - cals[-1][0] >= CAL_EVERY_S:
                cals.append(calibrate())
            before.append(len(cals) - 1)
            raw.append(self.run_case(case, tracer))
        cals.append(calibrate())
        latencies = [scaled(lat, cals[i][1], cals[i + 1][1])
                     for lat, i in zip(raw, before)]
        return Pass(sum(latencies), latencies, sum(raw))


def measure(runner, cases, seconds, tracer=None):
    """Repeat passes until the next one would end after ``seconds``.

    Without a tracer every pass is untraced.  With one, untraced and traced
    passes alternate, starting untraced, and at least one of each runs.
    Returns (untraced passes, traced passes, per-layer summaries).
    """
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.reset()
            with tracer.installed():
                traced.append(runner.run_pass(cases, tracer))
            layers.append(tracer.summary())
        else:
            plain.append(runner.run_pass(cases))
        next_s = statistics.median(p.raw_wall for p in plain + traced)
        need_trace = tracer is not None and not traced
        if not need_trace and time.perf_counter() - start + next_s > seconds:
            return plain, traced, layers


# -- metrics -----------------------------------------------------------------


def end_to_end(setups, plain, top_index):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall for p in plain), "s"),
        "top_case_s": (
            statistics.median(p.latencies[top_index] for p in plain), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain, traced, summaries):
    """Counts of the first traced pass; times are medians over traced passes."""
    def med(layer, field):
        return statistics.median(s["layers"][layer][field] for s in summaries)

    first = summaries[0]
    calls = first["layers"]
    out = {}
    for layer in ("poly.gcd", "poly.divmod", "poly.mul", "ratfunc.init",
                  "curves.identity", "curves.ramification", "family.build",
                  "degeneration.deform", "linalg.solve"):
        out[f"{layer}_calls"] = (calls[layer]["calls"], "count")
        out[f"{layer}_s"] = (med(layer, "s"), "s")
    attempts = first["gcd_attempts"]
    out.update({
        "poly.divmod_max_coeff_bits": (first["divmod_bits"], "bits"),
        "ratfunc.reducing_share": (
            first["gcd_useful"] / attempts if attempts else 0.0, "share"),
        "parsing.parse_calls": (calls["parsing.parse"]["calls"], "count"),
        "parsing.parse_s": (med("parsing.parse", "s"), "s"),
        "parsing.format_s": (med("parsing.format", "s"), "s"),
        "curves.pullback_calls": (calls["curves.pullback"]["calls"], "count"),
        "degeneration.solve_calls": (
            calls["degeneration.solve"]["calls"], "count"),
        "degeneration.assemble_s": (med("degeneration.assemble", "s"), "s"),
        "cli.self_s": (med(ROOT, "self_s"), "s"),
        "trace.overhead_s": (
            statistics.median(p.wall for p in traced)
            - statistics.median(p.wall for p in plain), "s"),
    })
    return out


# -- main --------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    build_cases, (top_kind, top_genus) = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        _, before = calibrate()
        t0 = time.perf_counter()
        cli = load_program()
        cases = build_cases(args.seed)
        setup = time.perf_counter() - t0
        setups.append(scaled(setup, before, calibrate()[1]))
    top_index = next(i for i, c in enumerate(cases)
                     if (c.kind, c.genus) == (top_kind, top_genus))

    runner = Runner(cli, started)
    tracer = Tracer() if args.trace else None
    plain, traced, summaries = measure(runner, cases, args.seconds, tracer)

    walls = sorted(p.wall for p in plain)
    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} commands"
          f" per pass, {len(plain)} untraced + {len(traced)} traced passes")
    if args.workload == "verify-corpus":
        print(f"corpus digest {corpus_digest(args.seed)}")
    print(f"pass wall_s at reference speed: median"
          f" {statistics.median(walls):.4f}, max {walls[-1]:.4f} over"
          f" {len(walls)} untraced passes; unscaled median"
          f" {statistics.median(p.raw_wall for p in plain):.4f}")
    tops = sorted(p.latencies[top_index] for p in plain)
    print(f"top case at reference speed: median {statistics.median(tops):.4f},"
          f" max {tops[-1]:.4f}")
    failed = sum(runner.failures.values())
    print(f"failed_share {failed / runner.attempted:.4f}"
          f" ({failed} of {runner.attempted} commands)")
    for (kind, problem), n in sorted(runner.failures.items()):
        label = "known defect" if known_defect(kind, problem) else "UNEXPECTED"
        print(f"  {n} x {kind}: {problem} [{label}]")

    if tracer is None:
        metrics = end_to_end(setups, plain, top_index)
    else:
        metrics = per_layer(plain, traced, summaries)
        if any(s["calls"] != summaries[0]["calls"] for s in summaries):
            print("warning: call counts differ between traced passes")
        if tracer.unbound:
            print(f"not traced (missing): {', '.join(tracer.unbound)}")
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        print(f"{len(tracer.spans)} spans of the last traced pass in {spans}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
