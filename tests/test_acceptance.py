"""Acceptance battery: one test per headline criterion, exact arithmetic only.

Criteria 1-5 and 7-9 are defined once, as the ``selftest`` checks: each test
here reads the result of its check from one ``run_selftest(12)`` run, whose
bounds are g=1..12 for criteria 1, 2 and 8, g=2..8 for criteria 4 and 9, and
staircases g=1..20 for criterion 5.  Criterion 6 is the one test with its own
body.  Every test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``-v -s`` or in captured output on failure) and then asserts.  All
comparisons are exact; there are no numerical tolerances anywhere.
"""

from fractions import Fraction

import pytest

from origami_covers import family
from origami_covers.curves import genus_geometric, specialize_t
from origami_covers.poly import Poly
from origami_covers.selftest import run_selftest

x = Poly.variable()


@pytest.fixture(scope="module")
def selftest():
    """Check name -> (ok, detail) from one run of the selftest battery."""
    return {r.name: (r.ok, r.detail) for r in run_selftest(12)}


def _criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_cover_identity(selftest):
    """The formal cover identity holds for every genus from 1 to 12."""
    _criterion("criterion 1: cover identity",
               *selftest["family_cover_identity"])


def test_criterion_2_pullback_formula(selftest):
    """The pulled-back invariant differential is (2g-1) x^(g-1) dx/y."""
    _criterion("criterion 2: pullback", *selftest["pullback_law"])


def test_criterion_3_reference_curves(selftest):
    """The genus 2 and genus 3 source curves match their known coefficients."""
    _criterion("criterion 3: reference curves", *selftest["reference_curves"])


def test_criterion_4_deformation_rederivation(selftest):
    """First-order deformation resolves exactly and reproduces the family."""
    _criterion("criterion 4: deformation rederivation",
               *selftest["deformation_rederivation"])


def test_criterion_5_origami_conformance(selftest):
    """Staircase diagrams have one vertex and genus g; invariants survive
    relabeling."""
    _criterion("criterion 5: origami conformance",
               *selftest["origami_conformance"])


def test_criterion_6_degenerate_specializations():
    """Setting the parameter to 0 or -1 degenerates the source to genus 0.

    The t=0 half holds: the curve becomes y^2 = x^(2g)(x+1), which is
    rational.  The t=-1 half is asserted as stated but does not hold: the
    inner factor x^(2g-1) - j(x)^2 stays squarefree and coprime to x(x+1),
    so the specialized curve is smooth of genus g and its geometric genus
    never drops.  The assertion is kept exact and is expected to fail.
    """
    failures = []
    for g in range(2, 9):
        source = family.build_family(g).cover.source
        at0 = specialize_t(source, 0)
        if at0.rhs != x ** (2 * g) * (x + 1) or genus_geometric(at0) != 0:
            failures.append((g, 0, genus_geometric(at0)))
        gm1 = genus_geometric(specialize_t(source, Fraction(-1)))
        if gm1 != 0:
            failures.append((g, -1, gm1))
    _criterion(
        "criterion 6: specializations t=0 and t=-1 have genus 0, g=2..8",
        not failures,
        f"nonzero geometric genus at (g, t, genus)={failures}"
        if failures else "",
    )


def test_criterion_7_two_branch_map(selftest):
    """The odd-degree two-branch self-maps of the line behave as stated."""
    _criterion("criterion 7: two-branch map", *selftest["two_branch_map"])


def test_criterion_8_companion_identities(selftest):
    """The companion polynomials satisfy their identities and match an
    independent binomial-expansion oracle for every genus from 1 to 12."""
    _criterion("criterion 8: companion identities",
               *selftest["companion_identities"])


def test_criterion_9_fibre_at_one(selftest):
    """At t = 1 the source is y^2 = x (x+1)^2 k(x)^2, of geometric genus 0."""
    _criterion("criterion 9: t=1 fibre", *selftest["fibre_at_one"])
