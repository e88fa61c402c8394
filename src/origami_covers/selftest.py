"""End-to-end verification battery behind the ``selftest`` CLI command.

Each check returns a named pass/fail result with a short witness string; the
battery is deterministic (fixed RNG seed) so repeated runs are byte-identical.
"""

from __future__ import annotations

import random
from collections import namedtuple

from . import degeneration, family, origami
from .curves import (
    genus_geometric,
    pullback_invariant_differential,
    specialize_t,
    verify_cover_identity,
)
from .errors import InvalidGenus, NotDivisible
from .parsing import format_poly, parse_poly
from .poly import Poly

_RNG_SEED = 20130405


class CheckResult(namedtuple("CheckResult", "name ok detail")):
    """One check of the battery: its name, whether it passed, and a short
    witness string."""

    __slots__ = ()


def _result(name, ok, detail=""):
    return CheckResult(name=name, ok=bool(ok), detail=detail)


# -- the individual criteria ----------------------------------------------


def check_family_identity(families, max_genus: int):
    for g in range(1, max_genus + 1):
        if not verify_cover_identity(families[g].cover):
            return _result("family_cover_identity", False, f"failed at g={g}")
    return _result("family_cover_identity", True, f"g=1..{max_genus}")


def check_pullback(families, max_genus: int):
    for g in range(1, max_genus + 1):
        lam = pullback_invariant_differential(families[g].cover)
        if lam != Poly.monomial(2 * g - 1, g - 1):
            return _result("pullback_law", False, f"failed at g={g}")
    return _result("pullback_law", True, f"(2g-1)*x^(g-1) for g=1..{max_genus}")


def check_reference_curves(families):
    expected = {
        2: "x^5 + (1 + 9*t)*x^4 + 33*t*x^3 + 40*t*x^2 + 16*t*x",
        3: ("x^7 + (1 + 25*t)*x^6 + 225*t*x^5 + 760*t*x^4 + 1200*t*x^3"
            " + 896*t*x^2 + 256*t*x"),
    }
    for g, text in expected.items():
        got = families[g].cover.source.rhs
        if got != parse_poly(text):
            return _result(
                "reference_curves", False,
                f"g={g}: got {format_poly(got)}",
            )
    return _result("reference_curves", True, "g=2 and g=3 coefficients")


def check_deformation(families, max_genus: int):
    report = degeneration.deformation_report(2)
    expected = {"a": 9, "b": 33, "c": 40, "d": 16, "e": 0, "f": 0, "g": 0}
    for name, value in expected.items():
        if report.solution[name] != value:
            return _result(
                "deformation_rederivation", False,
                f"g=2 solved {name}={report.solution[name]}, expected {value}",
            )
    if not report.exact:
        return _result("deformation_rederivation", False,
                       "g=2 exactness certificate failed")
    top = min(max_genus, 8)
    for g in range(2, top + 1):
        if g > 2:
            report = degeneration.deformation_report(g)
        if report.instance != families[g]:
            return _result("deformation_rederivation", False,
                           f"deform({g}) != build_family({g})")
    return _result("deformation_rederivation", True,
                   f"g=2 coefficients and deform==family for g=2..{top}")


def check_origami(max_genus: int):
    d = origami.OrigamiDiagram(
        n=3,
        right=origami.Permutation.from_cycles(3, [(2, 3)]),
        up=origami.Permutation.from_cycles(3, [(1, 2)]),
    )
    c = origami.commutator(d)
    if c.cycle_string() != "(1 3 2)":
        return _result("origami_conformance", False,
                       f"commutator is {c.cycle_string()}")
    if origami.vertex_count(d) != 1 or origami.genus(d) != 2:
        return _result("origami_conformance", False, "L-diagram vertex/genus")
    top = max(max_genus, 20)
    for g in range(1, top + 1):
        s = origami.staircase(g)
        if (origami.monodromy_cycle_type(s) != (max(2 * g - 1, 1),)
                or origami.vertex_count(s) != 1
                or origami.genus(s) != g):
            return _result("origami_conformance", False,
                           f"staircase({g}) data wrong")
    rng = random.Random(_RNG_SEED)
    for n in (3, 5, 7):
        base = origami.staircase((n + 1) // 2)
        base_type = origami.monodromy_cycle_type(base)
        for _ in range(100):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            sigma = origami.Permutation(images)
            relabeled = origami.OrigamiDiagram(
                n=n,
                right=base.right.conjugate(sigma),
                up=base.up.conjugate(sigma),
            )
            if origami.monodromy_cycle_type(relabeled) != base_type:
                return _result("origami_conformance", False,
                               f"conjugation changed cycle type at n={n}")
    return _result("origami_conformance", True,
                   f"staircases g=1..{top}, 100 relabelings per n in 3,5,7")


def check_specializations(families, max_genus: int):
    top = min(max_genus, 8)
    for g in range(2, top + 1):
        source = families[g].cover.source
        at0 = specialize_t(source, 0)
        if at0.rhs != degeneration.degenerate_source_rhs(g):
            return _result("degenerate_specializations", False,
                           f"t=0 curve wrong at g={g}")
        if genus_geometric(at0) != 0:
            return _result("degenerate_specializations", False,
                           f"t=0 geometric genus nonzero at g={g}")
        gm1 = genus_geometric(specialize_t(source, -1))
        if gm1 != 0:
            return _result(
                "degenerate_specializations", False,
                f"t=-1 specialization at g={g} has geometric genus {gm1}",
            )
    return _result("degenerate_specializations", True, f"g=2..{top}")


def check_fibre_at_one(families, max_genus: int):
    """At t = 1 the inner factor is x^(2g-1) + j^2 = (x+1) k^2, so the fibre
    is y^2 = x (x+1)^2 k^2, whose smooth model y^2 = x is rational."""
    top = min(max_genus, 8)
    for g in range(2, top + 1):
        inst = families[g]
        at1 = specialize_t(inst.cover.source, 1)
        if at1.rhs != (Poly([1, 2, 1]) * inst.k * inst.k).shift(1):
            return _result("fibre_at_one", False, f"t=1 curve wrong at g={g}")
        genus = genus_geometric(at1)
        if genus != 0:
            return _result("fibre_at_one", False,
                           f"t=1 geometric genus {genus} at g={g}")
    return _result("fibre_at_one", True,
                   f"x(x+1)^2*k^2 of geometric genus 0 for g=2..{top}")


def check_two_branch_map():
    z = Poly.variable()
    expected3 = degeneration.two_branch_map(3)
    if expected3.num != z**3 + 3 * z or expected3.den != 3 * z * z + 1:
        return _result("two_branch_map", False, "n=3 map wrong")
    for n in (1, 3, 5, 7, 9):
        m = degeneration.two_branch_map(n)
        num, den = m.num, m.den
        if not den(1) or num(1) != den(1):
            return _result("two_branch_map", False, f"n={n} does not fix +1")
        if not den(-1) or num(-1) != -den(-1):
            return _result("two_branch_map", False, f"n={n} does not fix -1")
        # The numerator of (num/den)' with its denominator den^2 cleared.
        dnum = num.derivative() * den - num * den.derivative()
        try:
            monomial = dnum.exact_div((z * z - 1) ** (n - 1))
        except NotDivisible:
            return _result("two_branch_map", False,
                           f"n={n} derivative numerator not (z^2-1)^(n-1)")
        if monomial.degree() > 0:
            return _result("two_branch_map", False,
                           f"n={n} derivative numerator shape wrong")
    return _result("two_branch_map", True, "n in 1,3,5,7,9")


def check_companion_oracle(families, max_genus: int):
    """Each family's certificate holds, and its j and k, built from their
    closed forms, are the (B, A) that the rediscovery pipeline pushes down
    from the two-branch map's binomial expansion by Pascal rows, a
    derivation independent of those closed forms."""
    for g in range(1, max_genus + 1):
        if not families[g].certificate:
            return _result("companion_identities", False,
                           f"identity failed at g={g}")
        oracle_k, oracle_j = degeneration._map_polys(g)
        if families[g].j != oracle_j or families[g].k != oracle_k:
            return _result("companion_identities", False,
                           f"oracle mismatch at g={g}")
    return _result("companion_identities", True,
                   f"identities and oracle for g=1..{max_genus}")


def run_selftest(max_genus: int = 12):
    """Run every check; returns the list of :class:`CheckResult`.

    Each family is built once per run, for g = 1..max(max_genus, 3) (the
    reference curves need g = 3), and the checks that need a family read it
    from that table; its cover identity is checked once by expansion, by
    :func:`check_family_identity`, and the certificate ``family_from`` gave
    it is read by :func:`check_companion_oracle`, which also compares each
    family's j and k with the maps ``degeneration._map_polys`` derives.

    ``max_genus`` must be at least 2: below that the checks that start at
    g = 2 would pass over empty ranges.
    """
    if max_genus < 2:
        raise InvalidGenus(f"max_genus must be >= 2, got {max_genus!r}")
    families = {
        g: family.family_instance(g) for g in range(1, max(max_genus, 3) + 1)
    }
    return [
        check_family_identity(families, max_genus),
        check_pullback(families, max_genus),
        check_reference_curves(families),
        check_deformation(families, max_genus),
        check_origami(max_genus),
        check_specializations(families, max_genus),
        check_fibre_at_one(families, max_genus),
        check_two_branch_map(),
        check_companion_oracle(families, max_genus),
    ]
