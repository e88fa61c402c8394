from fractions import Fraction

import pytest
from hypothesis import given

from conftest import nonzero_polys, polys, rationals
from origami_covers.errors import InvalidInput, NotDivisible
from origami_covers.poly import (
    NEG_INF,
    TVAR,
    Poly,
    binomial,
    poly_gcd,
    squarefree_part,
)

x = Poly.variable()


class TestBasics:
    def test_zero_polynomial(self):
        assert Poly([]).degree() == NEG_INF
        assert not Poly([0, 0])
        assert Poly([0, 0]) == Poly([])

    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))

    def test_difference_of_squares(self):
        assert (x + 1) * (x - 1) == x * x - 1

    def test_compose(self):
        assert (x * x).compose(x + 1) == x * x + 2 * x + 1

    def test_exact_divide(self):
        assert (x**3 + 3 * x).exact_div(x) == x * x + 3

    def test_exact_divide_remainder_raises(self):
        with pytest.raises(NotDivisible):
            (x * x + 1).exact_div(x)

    def test_derivative(self):
        assert (x**3 + 2 * x).derivative() == 3 * x * x + 2

    def test_evaluation(self):
        p = x * x - 3
        assert p(Fraction(2)) == 1

    def test_immutable(self):
        with pytest.raises(AttributeError):
            x.coeffs = ()


class TestVariableRule:
    def test_cross_variable_arithmetic_raises(self):
        t = Poly.variable(TVAR)
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(ValueError):
                op(x, t)
            with pytest.raises(ValueError):
                op(t, x)

    def test_cross_variable_constants_raise(self):
        with pytest.raises(ValueError):
            x + Poly.constant(1, var=TVAR)
        with pytest.raises(ValueError):
            Poly.constant(2, var=TVAR) * x

    def test_cross_variable_equality_is_false(self):
        assert Poly.variable("x") != Poly.variable("z")
        assert not Poly.variable("x") == Poly.variable("z")
        assert Poly.constant(1) != Poly.constant(1, var=TVAR)

    def test_coefficients_are_rational(self):
        with pytest.raises(TypeError):
            Poly([Poly([0, 1], var=TVAR)])


class TestProduct:
    def test_zero_coefficients_are_skipped(self):
        products = []

        class Counting(Fraction):
            def __mul__(self, other):
                products.append(other)
                return Fraction(self) * Fraction(other)

            __rmul__ = __mul__

        assert (Poly.monomial(Counting(3), 5) * Poly.monomial(Counting(2), 7)
                == Poly.monomial(6, 12))
        assert len(products) == 1


class TestPower:
    def test_no_squaring_after_last_bit(self, monkeypatch):
        calls = []
        mul = Poly.__mul__

        def counting(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        assert (x + 1) ** 4 == Poly([1, 4, 6, 4, 1])
        assert len(calls) <= 3

    @given(a=polys(max_size=3))
    def test_matches_repeated_product(self, a):
        expected = Poly.constant(1)
        for n in range(7):
            assert a**n == expected
            expected = expected * a


class TestGcd:
    def test_common_linear_factor(self):
        assert poly_gcd(x * x - 1, x - 1) == x - 1

    def test_coprime(self):
        assert poly_gcd(x, x + 1) == Poly([1])

    def test_shared_power(self):
        # Euclid by hand: gcd(x^5 + x^4, x^4) = x^4.
        assert poly_gcd(x**5 + x**4, x**4) == x**4

    def test_both_zero_raises(self):
        with pytest.raises(InvalidInput):
            poly_gcd(Poly([]), Poly([]))

    @given(a=nonzero_polys(), b=nonzero_polys())
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert a.exact_div(g) * g == a
        assert b.exact_div(g) * g == b


class TestSquarefree:
    def test_quartic_times_linear(self):
        assert squarefree_part(x**5 + x**4) == x * x + x

    def test_already_squarefree(self):
        assert squarefree_part(x * x - 1) == x * x - 1

    def test_sixth_power_times_linear(self):
        assert squarefree_part(x**6 * (x + 1)) == x * x + x

    def test_zero_raises(self):
        with pytest.raises(InvalidInput):
            squarefree_part(Poly([]))

    @given(a=nonzero_polys(max_size=4))
    def test_square_has_same_squarefree_part(self, a):
        assert squarefree_part(a * a) == squarefree_part(a)


class TestRingAxioms:
    @given(a=polys(), b=polys(), c=polys())
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)

    @given(a=polys(), b=polys(), c=polys())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=polys(), b=polys())
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(a=polys(), b=nonzero_polys())
    def test_divmod_reconstructs(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree() or not r


class TestNormalForms:
    @given(a=nonzero_polys())
    def test_monic_idempotent(self, a):
        assert a.monic().monic() == a.monic()
        assert a.monic().leading_coefficient() == 1

    @given(a=nonzero_polys())
    def test_content_primitive_product(self, a):
        content, primitive = a.content_and_primitive()
        assert content * primitive == a
        assert primitive.leading_coefficient() > 0
        assert all(c.denominator == 1 for c in primitive.coeffs)


class TestBinomial:
    def test_small_values(self):
        assert binomial(3, 2) == 3
        assert binomial(5, 2) == 10
        assert binomial(2, 5) == 0

    def test_negative_raises(self):
        with pytest.raises(InvalidInput):
            binomial(-1, 0)

    def test_even_entry_row_sum(self):
        # Sum over even k of C(2g-1, k) is 4^(g-1); for g = 3: 1 + 10 + 5.
        for g in range(1, 8):
            total = sum(binomial(2 * g - 1, 2 * i) for i in range(g))
            assert total == 4 ** (g - 1)


class TestRationalScalars:
    @given(c=rationals, a=polys())
    def test_scalar_multiplication(self, c, a):
        assert c * a == a * c
        assert (c * a).degree() == (a.degree() if c else NEG_INF)
