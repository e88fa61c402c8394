import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from origami_covers import cli, curves, degeneration, family, poly, ratfunc
from origami_covers.cli import main
from origami_covers.curves import (
    CoverMap,
    HyperellipticCurve,
    pullback_invariant_differential,
    ramification_report,
    specialize_t,
    verify_cover_identity,
)
from origami_covers.degeneration import _map_polys
from origami_covers.errors import InvalidGenus, OrigamiCoversError
from origami_covers.family import (
    build_family,
    family_from,
    family_instance,
    is_family_instance,
    j_poly,
    k_poly,
    legendre_curve,
)
from origami_covers.parsing import format_poly, parse_poly
from origami_covers.poly import Poly, TPoly
from origami_covers.ratfunc import RatFunc

x = Poly.variable()

genera = st.integers(min_value=1, max_value=9)


class TestCompanionPolynomials:
    def test_small_values(self):
        assert j_poly(1) == 1
        assert k_poly(1) == 1
        assert j_poly(2) == 3 * x + 4
        assert k_poly(2) == x + 4
        assert j_poly(3) == 5 * x * x + 20 * x + 16
        assert k_poly(3) == x * x + 12 * x + 16

    def test_bad_genus(self):
        for bad in (0, -1, "2"):
            with pytest.raises(InvalidGenus):
                j_poly(bad)

    @given(g=genera)
    def test_shape(self, g):
        j = j_poly(g)
        k = k_poly(g)
        assert j.degree() == k.degree() == g - 1
        assert j.coefficient(j.degree()) == 2 * g - 1
        assert k.coefficient(k.degree()) == 1
        assert j.coefficient(0) == k.coefficient(0) == Fraction(4) ** (g - 1)

    @given(g=genera)
    def test_identities(self, g):
        cert = family_instance(g).certificate
        assert cert.ok
        assert (cert.product_identity and cert.derivative_identity
                and cert.source_shape)

    @pytest.mark.parametrize("g", [1, 2, 3, 6])
    @pytest.mark.parametrize("change, failed", [
        (lambda j, k, s: (j, k + Poly.monomial(1, k.degree()), s),
         {"product_identity", "derivative_identity"}),
        # The source is built from the family's j, not from 2j.
        (lambda j, k, s: (2 * j, k, s),
         {"product_identity", "derivative_identity", "source_shape"}),
        (lambda j, k, s: (j, k, TPoly([s.parts[0], 2 * s.parts[1]])),
         {"source_shape"}),
    ], ids=["k-one-coefficient", "j-doubled", "source-2t"])
    def test_wrong_instance_declined(self, g, change, failed):
        # The certificate covers the instance's own j, k and source, so a
        # cover built from wrong ones fails it, and names what failed.
        inst = family_instance(g)
        cert = family_from(
            g, *change(inst.j, inst.k, inst.cover.source.rhs)).certificate
        assert not cert
        assert {name for name in cert._fields[1:]
                if not getattr(cert, name)} == failed

    @settings(max_examples=60, deadline=None)
    @given(g=st.integers(min_value=1, max_value=8),
           which=st.sampled_from(["j", "k", "t0", "t1"]),
           place=st.integers(min_value=0, max_value=20),
           delta=st.integers(min_value=-3, max_value=3).filter(bool))
    def test_certificate_decides_cover_identity(self, g, which, place, delta):
        """Against the expanded identity: with one coefficient of j, of k
        or of a source part moved, the certificate's product identity and
        source shape hold exactly when the cover identity does."""
        inst = family_instance(g)
        t0, t1 = inst.cover.source.rhs.parts
        parts = {"j": inst.j, "k": inst.k, "t0": t0, "t1": t1}
        old = parts[which]
        parts[which] = old + Poly.monomial(delta, place % (old.degree() + 2))
        assume(parts["j"] and parts["k"])
        moved = family_from(g, parts["j"], parts["k"],
                            TPoly([parts["t0"], parts["t1"]]))
        cert = moved.certificate
        assert ((cert.product_identity and cert.source_shape)
                == bool(verify_cover_identity(moved.cover)))


def binomial_companions(g):
    """j and k as the binomial sums of their definition, expanded by
    Horner's rule in x+1."""
    n, x_plus_1 = 2 * g - 1, Poly([1, 1])
    return tuple(Poly([math.comb(n, 2 * i + odd) for i in range(g)])
                 .compose(x_plus_1) for odd in (0, 1))


def dickson_companions(g):
    """D_n(2, -x) / 2 and E_(n-1)(2, -x) for n = 2g-1, by the recurrences
    P_m = 2 P_(m-1) + x P_(m-2) from D_0 = 2, D_1 = 2 and E_0 = 1, E_1 = 2."""
    def dickson(first, m):
        before, current = first, Poly([2])
        for _ in range(m - 1):
            before, current = current, 2 * current + before.shift(1)
        return current if m else first
    n = 2 * g - 1
    return dickson(Poly([2]), n) * Fraction(1, 2), dickson(Poly([1]), n - 1)


class TestClosedForms:
    """``j_poly`` and ``k_poly`` build their closed forms; these are the
    companion polynomials by three other derivations."""

    def test_binomial_sums_and_oracle(self):
        for g in range(1, 129):
            closed = j_poly(g), k_poly(g)
            assert closed == binomial_companions(g), g
            assert closed == _map_polys(g)[::-1], g

    def test_push_down_at_genus_256(self):
        assert _map_polys(256) == (k_poly(256), j_poly(256))

    @settings(max_examples=20)
    @given(g=st.integers(min_value=1, max_value=256))
    def test_dickson_recurrences(self, g):
        assert (j_poly(g), k_poly(g)) == dickson_companions(g)

    @pytest.mark.parametrize("argv, gcds, composes", [
        (["generate", "--genus", "12"], 0, 0),
        # certify_nullity's gcd, and no composition: the rediscovery route
        # is _map_polys's Pascal-row push-down, independent of the closed
        # forms.
        (["degenerate", "--genus", "8"], 1, 0),
    ], ids=["generate", "degenerate"])
    def test_command_counts(self, monkeypatch, capsys, argv, gcds, composes):
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted
        gcd = counting("poly_gcd", poly.poly_gcd)
        for module in (poly, ratfunc, curves, degeneration):
            monkeypatch.setattr(module, "poly_gcd", gcd)
        monkeypatch.setattr(Poly, "compose",
                            counting("compose", Poly.compose))
        assert main(argv) == 0
        capsys.readouterr()
        assert (calls["poly_gcd"], calls["compose"]) == (gcds, composes)


class TestLowestTerms:
    """``family_from`` skips the gcd only when its lemma's hypotheses hold;
    either way its fractions are the reduced ones."""

    @staticmethod
    def build(monkeypatch, g, j, k):
        calls = []

        def counted(a, b, _gcd=ratfunc.poly_gcd):
            calls.append((a, b))
            return _gcd(a, b)
        monkeypatch.setattr(ratfunc, "poly_gcd", counted)
        inst = family_from(g, j, k, family_instance(g).cover.source.rhs)
        gcds = len(calls)
        f = inst.cover.map
        assert f.f1 == RatFunc(Poly.monomial(1, 2 * g - 1), j * j)
        assert f.f2 == RatFunc(k.shift(g - 1), j * j * j)
        return gcds

    @pytest.mark.parametrize("g", [1, 2, 3, 6, 16])
    def test_family_takes_no_gcd(self, monkeypatch, g):
        assert self.build(monkeypatch, g, j_poly(g), k_poly(g)) == 0

    @pytest.mark.parametrize("g", [2, 3, 6])
    @pytest.mark.parametrize("change", [
        lambda j, k: (x * j, k),
        lambda j, k: (j, k + Poly.monomial(1, k.degree())),
        lambda j, k: (j, k + 1),
        lambda j, k: (j, j),
    ], ids=["j-at-zero", "k-one-coefficient", "k-constant", "k-equals-j"])
    def test_broken_hypothesis_takes_the_gcd(self, monkeypatch, g, change):
        assert self.build(monkeypatch, g, *change(j_poly(g), k_poly(g))) == 2

    @pytest.mark.parametrize("n", range(1, 32, 2))
    def test_two_branch_map_in_lowest_terms(self, n):
        m = degeneration.two_branch_map(n)
        assert m == RatFunc(m.num, m.den)


class TestCurves:
    def test_legendre_curve(self):
        curve = legendre_curve()
        assert specialize_t(curve, 1).rhs == x * (x + 1) * (x + 1)
        assert specialize_t(curve, 0).rhs == x * x * (x + 1)

    def test_genus_two_source(self):
        got = family_instance(2).cover.source.rhs
        assert got == parse_poly(
            "x^5 + (1 + 9*t)*x^4 + 33*t*x^3 + 40*t*x^2 + 16*t*x"
        )

    def test_genus_three_source(self):
        got = family_instance(3).cover.source.rhs
        assert got == parse_poly(
            "x^7 + (1 + 25*t)*x^6 + 225*t*x^5 + 760*t*x^4 + 1200*t*x^3"
            " + 896*t*x^2 + 256*t*x"
        )

    @given(g=genera)
    def test_source_specializes_to_degenerate(self, g):
        rhs = specialize_t(family_instance(g).cover.source, 0).rhs
        assert rhs == x ** (2 * g) * (x + 1)


class TestBuildFamily:
    def test_degree_and_maps(self):
        inst = build_family(2)
        assert inst.cover.degree == 3
        assert format_poly(inst.cover.map.f1.num) == "x^3"
        assert format_poly(inst.cover.map.f1.den) == "9*x^2 + 24*x + 16"

    @given(g=genera)
    def test_identity_and_pullback(self, g):
        inst = build_family(g)
        assert verify_cover_identity(inst.cover)
        lam = pullback_invariant_differential(inst.cover)
        assert lam == (2 * g - 1) * x ** (g - 1)

    @given(g=genera)
    def test_ramification(self, g):
        report = ramification_report(build_family(g).cover)
        assert report.ramification_index == 2 * g - 1
        assert report.vanishing_order_at_origin == 2 * (g - 1)
        assert report.riemann_hurwitz_balanced

    def test_identity_survives_specialization(self):
        # Cross-check at a concrete parameter value: identity in Q, not Q[t].
        inst = build_family(2)
        for value in (Fraction(1), Fraction(-2), Fraction(3, 7)):
            p = specialize_t(inst.cover.source, value).rhs
            q = specialize_t(inst.cover.target, value).rhs
            f1, f2 = inst.cover.map.f1, inst.cover.map.f2
            lhs = f2.num * f2.num * p * f1.den**3
            rhs = (
                q.coefficient(3) * f1.num**3
                + q.coefficient(2) * f1.num**2 * f1.den
                + q.coefficient(1) * f1.num * f1.den**2
                + q.coefficient(0) * f1.den**3
            ) * f2.den * f2.den
            assert lhs == rhs


class TestFamilyPredicate:
    """``is_family_instance`` against building the family and comparing."""

    @pytest.mark.parametrize("g", [1, 2, 3, 6])
    @pytest.mark.parametrize("change, is_family", [
        (lambda j, k, s: (j, k, s), True),
        (lambda j, k, s: (j + 1, k, s), False),
        (lambda j, k, s: (j, 2 * k, s), False),
        (lambda j, k, s: (j, k, s + x), False),
        (lambda j, k, s: (j, k, s + TPoly([Poly(), x])), False),
    ], ids=["true", "j", "k", "source-t0", "source-t1"])
    def test_agrees_with_equality(self, g, change, is_family):
        source = family_instance(g).cover.source.rhs
        inst = family_from(g, *change(j_poly(g), k_poly(g), source))
        assert is_family_instance(inst, g) == is_family
        assert (inst == family_instance(g)) == is_family
        assert not is_family_instance(inst, g + 1)
        assert inst != family_instance(g + 1)


class TestBuiltOnce:
    """Each command builds the companion polynomials once per genus."""

    @pytest.mark.parametrize("argv, genera", [
        (["generate", "--genus", "5"], [5]),
        (["selftest", "--max-genus", "3"], [1, 2, 3]),
        (["degenerate", "--genus", "3"], [3]),
    ], ids=["generate", "selftest", "degenerate"])
    def test_j_and_k_built_once(self, monkeypatch, capsys, argv, genera):
        calls = {"j_poly": Counter(), "k_poly": Counter()}
        for name, counter in calls.items():
            def counted(g, build=getattr(family, name), counter=counter):
                counter[g] += 1
                return build(g)
            monkeypatch.setattr(family, name, counted)
        main(argv)
        capsys.readouterr()
        assert calls == {name: Counter(genera) for name in calls}


def document_cover(cover):
    """The cover as ``verify`` reads it: printed, then parsed."""
    return curves.cover_from_json(json.dumps(curves.cover_to_dict(cover)))


def verify_outcome(cover):
    """``verify``'s checks on the cover, or the error it exits 2 with."""
    try:
        return cli._verify_checks(cover)
    except (OrigamiCoversError, ValueError) as exc:
        return repr(exc)


class TestRecognise:
    """``verify`` proves family-shaped documents by the lemma
    (``family.recognise``) and expands every other one."""

    def test_accepts_every_generated_document(self, monkeypatch):
        # Without dividing: j is read off k by the derivative identity.  A
        # division of f2's denominator by this b, whose leading coefficient
        # has 4000 bits, would run for minutes.
        n, g = 341, 171
        b = Poly([3] * n + [2**4000 + 1])
        hostile = document_cover(family_instance(2).cover)._replace(
            map=CoverMap(RatFunc(Poly.monomial(1, n), b),
                         RatFunc(k_poly(g).shift(g - 1),
                                 Poly([5] * 510 + [1]))))

        def refuse(*args):
            raise AssertionError("recognise divided a polynomial")
        monkeypatch.setattr(Poly, "__divmod__", refuse)
        assert family.recognise(hostile) is None
        for g in range(1, 65):
            cert = family.recognise(document_cover(family_instance(g).cover))
            assert cert and cert.ok, g

    @pytest.mark.parametrize("g", [1, 2, 5, 16])
    def test_lemma_route_gives_the_expansion_checks(self, monkeypatch, g):
        cover = document_cover(family_instance(g).cover)
        for declared in (2 * g - 1, 2 * g + 3):
            moved = cover._replace(degree=declared)
            lemma = verify_outcome(moved)
            with monkeypatch.context() as patch:
                patch.setattr(family, "recognise", lambda cover: None)
                assert verify_outcome(moved) == lemma

    # Moves that only the map's own checks catch: a != x^N, f2's numerator
    # below x^(g-1), and f2's denominator alone.
    @example(g=2, which="a", place=0, delta=1)
    @example(g=3, which="n", place=0, delta=1)
    @example(g=2, which="d", place=0, delta=1)
    @settings(max_examples=80, deadline=None)
    @given(g=st.integers(min_value=1, max_value=8),
           which=st.sampled_from(["j", "k", "t0", "t1", "q0", "q1",
                                  "a", "b", "n", "d"]),
           place=st.integers(min_value=0, max_value=20),
           delta=st.integers(min_value=-3, max_value=3).filter(bool))
    def test_moved_coefficient_checks_match_expansion(self, g, which, place,
                                                      delta):
        """With one coefficient moved, of j, of k, of a source part, of a
        target part or of f1 = a/b or f2 = n/d as printed, ``verify``'s
        checks are those of forced expansion."""
        def move(p):
            return p + Poly.monomial(delta, place % (p.degree() + 2))

        inst = family_instance(g)
        t0, t1 = inst.cover.source.rhs.parts
        q0, q1 = legendre_curve().rhs.parts
        parts = {"j": inst.j, "k": inst.k, "t0": t0, "t1": t1,
                 "q0": q0, "q1": q1}
        if which in parts:
            parts[which] = move(parts[which])
        assume(parts["j"] and parts["k"])
        built = family_from(g, parts["j"], parts["k"],
                            TPoly([parts["t0"], parts["t1"]])).cover
        f1, f2 = built.map
        ends = {"a": f1.num, "b": f1.den, "n": f2.num, "d": f2.den}
        if which in ends:
            ends[which] = move(ends[which])
        assume(ends["b"] and ends["d"])
        cover = document_cover(built._replace(
            target=HyperellipticCurve(TPoly([parts["q0"], parts["q1"]])),
            map=CoverMap(RatFunc(ends["a"], ends["b"]),
                         RatFunc(ends["n"], ends["d"]))))
        lemma = verify_outcome(cover)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(family, "recognise", lambda cover: None)
            assert verify_outcome(cover) == lemma
