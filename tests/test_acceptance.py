"""Acceptance battery: one test per headline criterion, exact arithmetic only.

Every test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-v -s``
or in captured output on failure) and then asserts.  All comparisons are
exact; there are no numerical tolerances anywhere.
"""

import random
from fractions import Fraction

from origami_covers import degeneration, family, origami
from origami_covers.curves import (
    genus_geometric,
    pullback_invariant_differential,
    specialize_t,
    verify_cover_identity,
)
from origami_covers.parsing import parse_poly
from origami_covers.poly import Poly
from origami_covers.selftest import _oracle_companions, check_fibre_at_one

x = Poly.variable()


def _criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_cover_identity():
    """The formal cover identity holds for every genus from 1 to 12."""
    bad = [
        g for g in range(1, 13)
        if not verify_cover_identity(family.build_family(g).cover)
    ]
    _criterion(
        "criterion 1: cover identity g=1..12",
        not bad,
        f"failed at g={bad}" if bad else "exact identity over Q[t]",
    )


def test_criterion_2_pullback_formula():
    """The pulled-back invariant differential is (2g-1) x^(g-1) dx/y."""
    bad = []
    for g in range(1, 13):
        lam = pullback_invariant_differential(family.build_family(g).cover)
        if lam != (2 * g - 1) * x ** (g - 1):
            bad.append(g)
    _criterion(
        "criterion 2: pullback (2g-1)*x^(g-1) for g=1..12",
        not bad,
        f"failed at g={bad}" if bad else "",
    )


def test_criterion_3_reference_curves():
    """The genus 2 and genus 3 source curves match their known coefficients."""
    expected = {
        2: "x^5 + (1 + 9*t)*x^4 + 33*t*x^3 + 40*t*x^2 + 16*t*x",
        3: ("x^7 + (1 + 25*t)*x^6 + 225*t*x^5 + 760*t*x^4 + 1200*t*x^3"
            " + 896*t*x^2 + 256*t*x"),
    }
    ok = all(
        family.build_family(g).cover.source.rhs == parse_poly(text)
        for g, text in expected.items()
    )
    _criterion("criterion 3: reference curves g=2,3", ok)


def test_criterion_4_deformation_rederivation():
    """First-order deformation resolves exactly and reproduces the family."""
    report = degeneration.deformation_report(2)
    expected = {"a": 9, "b": 33, "c": 40, "d": 16, "e": 0, "f": 0, "g": 0}
    coeffs_ok = all(
        report.solution[name] == value for name, value in expected.items()
    )
    agree_ok = all(
        degeneration.deform(g) == family.build_family(g)
        for g in range(2, 9)
    )
    _criterion(
        "criterion 4: deformation rederivation",
        coeffs_ok and report.exact and agree_ok,
        f"g=2 coefficients {'ok' if coeffs_ok else 'WRONG'},"
        f" exact={report.exact}, deform==family g=2..8: {agree_ok}",
    )


def test_criterion_5_origami_conformance():
    """Staircase diagrams have one vertex and genus g; invariants survive
    relabeling."""
    l_diagram = origami.OrigamiDiagram(
        n=3,
        right=origami.Permutation.from_cycles(3, [(2, 3)]),
        up=origami.Permutation.from_cycles(3, [(1, 2)]),
    )
    convention_ok = origami.commutator(l_diagram).cycle_string() == "(1 3 2)"
    staircase_ok = all(
        origami.vertex_count(origami.staircase(g)) == 1
        and origami.genus(origami.staircase(g)) == g
        and origami.monodromy_cycle_type(origami.staircase(g))
        == (max(2 * g - 1, 1),)
        for g in range(1, 21)
    )
    rng = random.Random(20130405)
    relabel_ok = True
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
            relabel_ok &= (
                origami.monodromy_cycle_type(relabeled) == base_type
            )
    _criterion(
        "criterion 5: origami conformance",
        convention_ok and staircase_ok and relabel_ok,
        f"convention={convention_ok}, staircases g=1..20: {staircase_ok},"
        f" relabelings: {relabel_ok}",
    )


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


def test_criterion_7_two_branch_map():
    """The odd-degree two-branch self-maps of the line behave as stated."""
    z = Poly.variable("z")
    m3 = degeneration.two_branch_map(3)
    form_ok = m3.num == z**3 + 3 * z and m3.den == 3 * z * z + 1
    laws_ok = True
    for n in (1, 3, 5, 7, 9):
        m = degeneration.two_branch_map(n)
        one = Poly.constant(1, "z")
        laws_ok &= m.compose(one) == 1 and m.compose(-one) == -1
        quotient = m.derivative().num.exact_div((z * z - 1) ** (n - 1))
        laws_ok &= quotient.is_constant()
    _criterion(
        "criterion 7: two-branch map n=1,3,5,7,9",
        form_ok and laws_ok,
        f"n=3 closed form: {form_ok}, fixed points and branching: {laws_ok}",
    )


def test_criterion_8_companion_identities():
    """The companion polynomials satisfy their identities and match an
    independent binomial-expansion oracle for every genus from 1 to 12."""
    bad = []
    for g in range(1, 13):
        cert = family.companion_identities(g)
        oracle_j, oracle_k = _oracle_companions(g)
        if not cert or family.j_poly(g) != oracle_j \
                or family.k_poly(g) != oracle_k:
            bad.append(g)
    _criterion(
        "criterion 8: companion identities and oracle g=1..12",
        not bad,
        f"failed at g={bad}" if bad else "",
    )


def test_criterion_9_fibre_at_one():
    """At t = 1 the source is y^2 = x (x+1)^2 k(x)^2, of geometric genus 0."""
    result = check_fibre_at_one(8)
    _criterion("criterion 9: t=1 fibre", result.ok, result.detail)
