"""Known answers for the benchmark, computed without the program under test.

Everything here works on plain integer coefficient lists (lowest degree
first) and renders text in the program's canonical syntax with its own
printer.  Nothing is imported from ``origami_covers``, so a wrong answer from
the program can never be copied into the expected value.

For genus g the family is

    C_t : y^2 = x (x+1) (x^(2g-1) + t j^2),   f1 = x^(2g-1) / j^2,
    f2 = x^(g-1) k / j^3,                     E_t : y^2 = x (x+1) (x+t),

with j = sum_i C(2g-1, 2i) (x+1)^i and k = sum_i C(2g-1, 2i+1) (x+1)^i.
"""

from __future__ import annotations

import json
import random
from math import comb

TARGET_RHS = "x^3 + (1 + t)*x^2 + t*x"


# -- integer polynomials ---------------------------------------------------


def companions(g: int) -> tuple[list[int], list[int]]:
    """(j, k) expanded from integer binomials: C(i, m) is [x^m] (x+1)^i."""
    n = 2 * g - 1
    j = [sum(comb(n, 2 * i) * comb(i, m) for i in range(m, g))
         for m in range(g)]
    k = [sum(comb(n, 2 * i + 1) * comb(i, m) for i in range(m, g))
         for m in range(g)]
    return j, k


def mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def shift(a: list[int], n: int) -> list[int]:
    """a * x^n."""
    return [0] * n + list(a)


# -- printing in the program's canonical syntax ------------------------------


def _xpart(e: int) -> str:
    return "" if e == 0 else ("x" if e == 1 else f"x^{e}")


def _join(pieces: list[tuple[str, str]]) -> str:
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def _scalar_term(c: int, xpart: str) -> tuple[str, str]:
    sign = "-" if c < 0 else "+"
    c = abs(c)
    if not xpart:
        return sign, str(c)
    return sign, xpart if c == 1 else f"{c}*{xpart}"


def render_poly(coeffs: list[int]) -> str:
    """An integer polynomial in x, highest degree first."""
    pieces = [_scalar_term(c, _xpart(e))
              for e, c in reversed(list(enumerate(coeffs))) if c]
    return _join(pieces) if pieces else "0"


def render_tower(coeffs: list[tuple[int, int]]) -> str:
    """A polynomial in x whose coefficient of x^e is c0 + c1*t."""
    pieces = []
    for e in range(len(coeffs) - 1, -1, -1):
        c0, c1 = coeffs[e]
        xpart = _xpart(e)
        if not c1:
            if c0:
                pieces.append(_scalar_term(c0, xpart))
        elif not c0:
            sign, body = _scalar_term(c1, "t")
            pieces.append((sign, f"{body}*{xpart}" if xpart else body))
        else:
            tsign, tbody = _scalar_term(c1, "t")
            inner = _join([_scalar_term(c0, ""), (tsign, tbody)])
            body = f"({inner})"
            pieces.append(("+", f"{body}*{xpart}" if xpart else body))
    return _join(pieces) if pieces else "0"


def render_ratfunc(num: list[int], den: list[int]) -> str:
    """num/den, with the denominator always parenthesized."""
    if den == [1]:
        return render_poly(num)
    text = render_poly(num)
    if sum(1 for c in num if c) > 1 or text.startswith("-"):
        text = f"({text})"
    return f"{text}/({render_poly(den)})"


# -- the family in closed form ----------------------------------------------


def source_t_part(g: int) -> list[int]:
    """(x^2 + x) j^2, the coefficient of t in the source right-hand side."""
    j, _ = companions(g)
    return mul([0, 1, 1], mul(j, j))


def source_tower(g: int) -> list[tuple[int, int]]:
    """x^(2g+1) + x^(2g) + t (x^2 + x) j^2 as (c0, c1) pairs."""
    tpart = source_t_part(g)
    coeffs = [(0, c) for c in tpart] + [(0, 0)]
    coeffs[2 * g] = (1, coeffs[2 * g][1])
    coeffs[2 * g + 1] = (1, 0)
    return coeffs


def cover_parts(g: int) -> dict:
    """Integer numerators and denominators of the map, already coprime.

    j is primitive (its leading coefficient 2g-1 is odd and j(0) = 2^(2g-2)),
    so j^2 and j^3 are the canonical denominators, and the companion
    identity (x+1) k^2 = j^2 + x^(2g-1) makes them coprime to the numerators.
    """
    j, k = companions(g)
    j2 = mul(j, j)
    return {
        "f1_num": shift([1], 2 * g - 1), "f1_den": j2,
        "f2_num": shift(k, g - 1), "f2_den": mul(j2, j),
    }


def cover(g: int) -> dict:
    """The cover document exactly as the program prints it."""
    p = cover_parts(g)
    return {
        "source_rhs": render_tower(source_tower(g)),
        "target_rhs": TARGET_RHS,
        "f1": render_ratfunc(p["f1_num"], p["f1_den"]),
        "f2": render_ratfunc(p["f2_num"], p["f2_den"]),
        "degree": 2 * g - 1,
    }


def certificate(g: int) -> dict:
    return {
        "identity_ok": True,
        "pullback": render_poly(shift([2 * g - 1], g - 1)),
        "ramification_index": 2 * g - 1,
        "rh_balanced": True,
    }


def ansatz_names(g: int) -> tuple[list[str], list[str], list[str]]:
    """Curve, denominator and numerator unknowns of the deformation ansatz."""
    if g == 2:
        return ["a", "b", "c", "d"], ["e", "f"], ["g"]
    return ([f"a{i}" for i in range(1, 2 * g + 1)],
            [f"e{i}" for i in range(g - 1, -1, -1)],
            [f"n{i}" for i in range(g - 2, -1, -1)])


def deformation_coefficients(g: int) -> dict:
    """Solved unknowns: a_i is the t-coefficient of x^(2g+1-i); map ones are 0."""
    curve, den, num = ansatz_names(g)
    tpart = source_t_part(g)
    out = {name: str(tpart[2 * g + 1 - i])
           for i, name in enumerate(curve, start=1)}
    out.update({name: "0" for name in den + num})
    return out


# -- the verify corpus ------------------------------------------------------

CORPUS_GENERA = range(2, 13)
WRONG_DEGREE_GENERA = (2, 3, 4, 5, 6)
ZERO_SOURCE_GENERA = (2, 7, 12)
JSON_MALFORMED = 3

# Kinds whose known answer the program gets wrong today, with the outcome it
# gives instead.  Such a mismatch is still counted as a failure; it only
# keeps ``correct`` true, so that any other wrong verdict stands out.
KNOWN_DEFECTS = {
    "wrong-degree": "exit 0",          # the declared degree is never checked
    "zero-source": "crash InvalidCurve",  # escapes the exit-2 error handling
}

_F1_BREAKS = (
    lambda f: f[:-1],            # unbalanced parenthesis
    lambda f: f + " $ 1",        # character outside the grammar
    lambda f: f + " +",          # dangling operator
    lambda f: f.replace("^", "^^", 1),  # doubled operator
)


def _noncanonical_tower(coeffs) -> str:
    """Ascending, unspaced, with every t-term written separately."""
    terms = []
    for e, (c0, c1) in enumerate(coeffs):
        xpart = _xpart(e)
        for c, var in ((c0, ""), (c1, "t")):
            if c:
                factors = [str(c)] + ([var] if var else [])
                factors += [xpart] if xpart else []
                terms.append("*".join(factors))
    return "+".join(terms)


def _unreduced_f1(g: int, c: int) -> str:
    """f1 with numerator and denominator both multiplied by (x + c)."""
    p = cover_parts(g)
    num = mul(p["f1_num"], [c, 1])
    den = mul(p["f1_den"], [c, 1])
    return f"({render_poly(num)})/({render_poly(den)})"


def _mutant(g: int, rng: random.Random) -> dict:
    """One coefficient changed by a positive amount, so the identity breaks.

    Adding delta > 0 to a coefficient of a polynomial with nonnegative
    coefficients cannot give back the same polynomial or its negative.
    """
    doc = cover(g)
    delta = rng.randint(1, 9)
    if rng.random() < 0.5:
        coeffs = source_tower(g)
        e = rng.randint(1, 2 * g)
        c0, c1 = coeffs[e]
        coeffs[e] = (c0, c1 + delta)
        doc["source_rhs"] = render_tower(coeffs)
    else:
        p = cover_parts(g)
        num = list(p["f2_num"])
        e = rng.randrange(g - 1, len(num))
        num[e] += delta
        doc["f2"] = render_ratfunc(num, p["f2_den"])
    return doc


def build_corpus(seed: int) -> list[dict]:
    """The seeded verify corpus: one entry per document.

    Each entry has ``name``, ``kind``, ``genus``, ``text`` (the file bytes as
    a string) and ``expect`` (the known exit status).  The classes and their
    genera are fixed, so every seed costs about the same; the seed picks the
    mutated coefficient, the shared factor, the malformation and the wrong
    degree.
    """
    rng = random.Random(seed)
    docs = []

    def add(kind, g, text, expect):
        docs.append({"name": f"{kind}-g{g}-{len(docs):03d}", "kind": kind,
                     "genus": g, "text": text, "expect": expect})

    for g in CORPUS_GENERA:
        if g % 2 == 0:
            add("valid-canonical", g,
                json.dumps({"cover": cover(g)}, indent=2) + "\n", 0)
        else:
            loose = dict(cover(g),
                         source_rhs=_noncanonical_tower(source_tower(g)),
                         f1=_unreduced_f1(g, rng.randint(1, 9)))
            add("valid-unreduced", g, json.dumps(loose), 0)
        add("mutant", g, json.dumps(_mutant(g, rng)), 1)
        bad = cover(g)
        bad["f1"] = rng.choice(_F1_BREAKS)(bad["f1"])
        add("malformed-field", g, json.dumps(bad), 2)
    for g in WRONG_DEGREE_GENERA:
        wrong = dict(cover(g), degree=2 * g - 1 + 2 * rng.randint(1, 3))
        add("wrong-degree", g, json.dumps(wrong), 1)
    for g in ZERO_SOURCE_GENERA:
        add("zero-source", g, json.dumps(dict(cover(g), source_rhs="0")), 2)
    for _ in range(JSON_MALFORMED):
        g = rng.choice(CORPUS_GENERA)
        text = json.dumps(cover(g))
        field = rng.choice(["source_rhs", "target_rhs", "f1", "f2", "degree"])
        missing = {k: v for k, v in cover(g).items() if k != field}
        add("malformed-json", g, rng.choice([
            text[:rng.randrange(1, len(text) - 1)],
            json.dumps(missing),
            json.dumps([g, 2 * g - 1]),
        ]), 2)
    return docs
