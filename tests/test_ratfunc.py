from fractions import Fraction

import pytest
from hypothesis import given

from conftest import nonzero_polys, polys
from origami_covers import ratfunc
from origami_covers.errors import DivisionByZero
from origami_covers.poly import Poly
from origami_covers.ratfunc import PRIME, RatFunc, coprime_mod_p

x = Poly.variable()


class TestCanonicalForm:
    def test_reduces_common_factor(self):
        r = RatFunc(x * x - 1, x - 1)
        assert r == x + 1

    def test_denominator_primitive_positive(self):
        r = RatFunc(x, Fraction(-1, 2) * x + 1)
        assert r.den == x - 2
        assert r.num == -2 * x

    def test_zero_numerator_normalizes(self):
        r = RatFunc(Poly([]), x * x + 7)
        assert not r
        assert r.den == 1

    def test_zero_denominator_raises(self):
        with pytest.raises(DivisionByZero):
            RatFunc(x, Poly([]))

    def test_expanded_square_denominator(self):
        # x^3 / (3x+4)^2 keeps its denominator expanded, not monic.
        r = RatFunc(x**3, (3 * x + 4) ** 2)
        assert r.den == 9 * x * x + 24 * x + 16

    @given(a=polys(), b=nonzero_polys(), c=nonzero_polys())
    def test_common_factor_invisible(self, a, b, c):
        assert RatFunc(a * c, b * c) == RatFunc(a, b)


class TestModularCertificate:
    def test_coprime_pair_needs_no_gcd(self, monkeypatch):
        monkeypatch.setattr(ratfunc, "poly_gcd", None)
        r = RatFunc(x**5, (3 * x + 4) ** 2)
        assert r.num == x**5 and r.den == 9 * x * x + 24 * x + 16

    @pytest.mark.parametrize("num, den, canonical_num, canonical_den", [
        # PRIME divides a coefficient denominator.
        ((x + Fraction(1, PRIME)) * (x + 3), (x + 3) * (2 * x + 4),
         Fraction(1, 2) * x + Fraction(1, 2 * PRIME), x + 2),
        (x + 3, Fraction(1, PRIME) * x + 1, PRIME * x + 3 * PRIME,
         x + PRIME),
        # PRIME divides the cleared leading coefficient.
        ((PRIME * x + 1) * (x - 1), (x - 1) * (3 * x + 6),
         Fraction(PRIME, 3) * x + Fraction(1, 3), x + 2),
        (2 * x + 1, PRIME * x * x + 1, 2 * x + 1, PRIME * x * x + 1),
        # Coprime over Q, with the common root 0 modulo PRIME.
        (x + PRIME, -2 * x, -Fraction(1, 2) * x - Fraction(PRIME, 2), x),
    ], ids=["denominator", "denominator-of-den", "leading-coefficient",
            "leading-coefficient-of-den", "common-root-mod-prime"])
    def test_declines_and_falls_back(self, monkeypatch, num, den,
                                     canonical_num, canonical_den):
        assert not coprime_mod_p(num, den)
        calls = []

        def counted(a, b, _gcd=ratfunc.poly_gcd):
            calls.append((a, b))
            return _gcd(a, b)
        monkeypatch.setattr(ratfunc, "poly_gcd", counted)
        r = RatFunc(num, den)
        assert calls == [(num, den)]
        assert r.num == canonical_num
        assert r.den == canonical_den
