from fractions import Fraction

import pytest
from hypothesis import assume, given

from conftest import nonzero_polys, polys
from origami_covers import poly, ratfunc
from origami_covers.errors import DivisionByZero
from origami_covers.poly import Poly
from origami_covers.ratfunc import RatFunc

x = Poly.variable()
# The first prime of poly_gcd's images.
PRIME = 2**61 - 1


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
        # One image over GF(PRIME) settles it, with no lift to Q.
        images = []

        def counted(a, b, p, _gcd=poly.gcd_mod_p):
            images.append(p)
            return _gcd(a, b, p)
        monkeypatch.setattr(poly, "gcd_mod_p", counted)
        monkeypatch.setattr(poly, "_rational", None)
        r = RatFunc(x**5, (3 * x + 4) ** 2)
        assert r.num == x**5 and r.den == 9 * x * x + 24 * x + 16
        assert images == [PRIME]

    # Pairs at the edges of the first image: where a content or a leading
    # coefficient is divisible by PRIME, or a coprime pair shares a root
    # modulo PRIME.  Each takes one gcd and reaches the canonical form.
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
        calls = []

        def counted(a, b, _gcd=ratfunc.poly_gcd):
            calls.append((a, b))
            return _gcd(a, b)
        monkeypatch.setattr(ratfunc, "poly_gcd", counted)
        r = RatFunc(num, den)
        assert calls == [(num, den)]
        assert r.num == canonical_num
        assert r.den == canonical_den


class TestCoprime:
    """``RatFunc.coprime`` takes no gcd and builds ``RatFunc``'s pair."""

    @pytest.fixture(autouse=True)
    def no_gcd(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("RatFunc.coprime took a gcd")
        monkeypatch.setattr(ratfunc, "poly_gcd", refuse)

    @staticmethod
    def reduced(num, den):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ratfunc, "poly_gcd", poly.poly_gcd)
            return RatFunc(num, den)

    @pytest.mark.parametrize("num, den", [
        (x, -2 * x + 1),
        (3 * x * x - 1, 6 * x + 4),
        (Fraction(5, 7) * x, Fraction(-9, 4) * x * x + Fraction(3, 2)),
        (x ** 5, (3 * x + 4) ** 2),
        (Poly([]), -4 * x * x + 2),
        (Poly([6]), Poly([-4])),
        (-2 * x + 6, Poly([Fraction(-3, 5)])),
    ], ids=["negative", "non-primitive", "rational", "family", "zero",
            "constants", "constant-den"])
    def test_matches_reduced_pair(self, num, den):
        r, expected = RatFunc.coprime(num, den), self.reduced(num, den)
        assert (r.num, r.den) == (expected.num, expected.den)

    @given(num=polys(), den=nonzero_polys())
    def test_random_coprime_pairs(self, num, den):
        assume(poly.poly_gcd(num, den).degree() <= 0)
        r, expected = RatFunc.coprime(num, den), self.reduced(num, den)
        assert (r.num, r.den) == (expected.num, expected.den)

    def test_zero_denominator_raises(self):
        with pytest.raises(DivisionByZero):
            RatFunc.coprime(x, Poly([]))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            RatFunc.coprime(x, x + 1).num = x
