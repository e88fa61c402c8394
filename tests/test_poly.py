import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import nonzero_polys, polys, rationals, tpolys
from math_oracle import compose, squarefree_part
from origami_covers import poly
from origami_covers.errors import InvalidInput, NotDivisible
from origami_covers.poly import NEG_INF, Poly, TPoly, poly_gcd

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
        assert compose(x * x, x + 1) == x * x + 2 * x + 1

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
    def test_coefficients_are_rational(self):
        with pytest.raises(TypeError):
            Poly([Poly([0, 1])])


class TestProduct:
    def test_zero_coefficients_are_skipped(self):
        products = []

        class Counting(Fraction):
            def __mul__(self, other):
                products.append(other)
                return Fraction(self) * Fraction(other)

            __rmul__ = __mul__

        # The parser builds x^k densely; its zeros must cost nothing, and
        # the integer kernel multiplies no Fraction at all.
        for i, j in ((5, 7), (512, 512)):
            assert (Poly.monomial(Counting(3), i) * Poly.monomial(Counting(2), j)
                    == Poly.monomial(6, i + j))
        assert products == []


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


class TestShift:
    @given(p=polys(), n=st.integers(min_value=0, max_value=40))
    @example(p=Poly([]), n=7)
    @example(p=Poly([Fraction(-2, 3), 0, Fraction(5, 6)]), n=40)
    def test_matches_product_by_monomial(self, p, n):
        shifted = p.shift(n)
        assert shifted == p * Poly.monomial(1, n)
        assert (shifted.ints, shifted.content) == ((0,) * n + p.ints
                                                   if p else (), p.content)

    @pytest.mark.parametrize("n", [-1, -2, 1.0, Fraction(2), "3"])
    def test_refuses_a_negative_or_non_int_exponent(self, n):
        with pytest.raises(ValueError, match="nonnegative integer"):
            (x + 1).shift(n)
        with pytest.raises(ValueError, match="nonnegative integer"):
            Poly.monomial(1, n)


class TestGcd:
    def test_common_linear_factor(self):
        assert poly_gcd(x * x - 1, x - 1) == x - 1

    def test_coprime(self):
        assert poly_gcd(x, x + 1) == Poly([1])

    def test_shared_power(self):
        # Euclid by hand: gcd(x^5 + x^4, x^4) = x^4.
        assert poly_gcd(x**5 + x**4, x**4) == x**4

    def test_lift_needs_several_primes(self):
        # The lift is 3x - (2^200 + 1), which needs a modulus above 2^201:
        # four primes.
        c = x - Fraction(2**200 + 1, 3)
        assert poly_gcd(c * (x + 1), c * (x + 2)) == c

    def test_lift_scaled_past_the_gcds_leading_coefficient(self):
        # gamma = gcd(6, 18) = 6 while lc G = 2, so each scaled image is
        # 3 * (2x + 3) mod p, whose primitive part is the gcd.
        a, b = (2 * x + 3) * (3 * x + 1), (2 * x + 3) * (9 * x + 7)
        assert poly_gcd(a, b) == x + Fraction(3, 2)

    def test_lift_needs_few_images(self, monkeypatch):
        # h is primitive and gamma = lc(h), so the scaled images lift to h
        # itself, whose coefficients have up to 999 bits.  The modulus must
        # pass twice the largest, about 2^1000: 16 primes just below 2^61
        # give 976 bits and 17 give 1037.
        rng = random.Random(61)
        h = Poly([rng.getrandbits(1000) - 2**999 for _ in range(80)]
                 + [rng.getrandbits(1000) | 1])
        images = []

        def counted(a, b, p, _gcd=poly.gcd_mod_p):
            images.append(p)
            return _gcd(a, b, p)
        monkeypatch.setattr(poly, "gcd_mod_p", counted)
        assert poly_gcd(h * (x**3 + 5), h * (x**2 + 3)) == h.monic()
        assert len(images) <= 17

    def test_unlucky_prime_is_discarded(self):
        # Modulo p = 2^61 - 1, the first prime tried, x + p is x, so the
        # first image is x^2 + x; it does not divide, and the next prime's
        # image has lower degree.
        p = 2**61 - 1
        assert poly_gcd((x + 1) * (x + p), (x + 1) * x) == x + 1

    def test_both_zero_raises(self):
        with pytest.raises(InvalidInput):
            poly_gcd(Poly([]), Poly([]))

    def test_primes_largest_first(self):
        assert [poly._prime(i) for i in range(3)] == [
            2**61 - 1, 2**61 - 31, 2**61 - 45]

    def test_each_prime_is_found_once_per_process(self, monkeypatch):
        c = x - Fraction(2**200 + 1, 3)
        several = (c * (x + 1), c * (x + 2))
        assert poly_gcd(*several) == c
        assert poly_gcd(x, x + 1) == 1

        def no_more_tests(n):
            raise AssertionError(f"primality of {n} tested again")
        monkeypatch.setattr(poly, "_is_prime", no_more_tests)
        assert poly_gcd(*several) == c
        assert poly_gcd(x, x + 1) == 1

    @given(a=nonzero_polys(), b=nonzero_polys())
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert a.exact_div(g) * g == a
        assert b.exact_div(g) * g == b


def pairwise_product(a: TPoly, b: TPoly) -> TPoly:
    """a * b with one Poly product per pair of parts."""
    out = [Poly([])] * max(len(a.parts) + len(b.parts) - 1, 0)
    for i, p in enumerate(a.parts):
        for j, q in enumerate(b.parts):
            out[i + j] = out[i + j] + p * q
    return TPoly(out)


class TestTPolyProduct:
    @given(a=tpolys(max_parts=5), b=tpolys(max_parts=5))
    def test_matches_pairwise_product_of_parts(self, a, b):
        assert (a * b).parts == pairwise_product(a, b).parts

    def test_parts_of_unequal_degree(self):
        a = TPoly([Poly([]), Fraction(1, 3) * x**4, Poly([2])])
        b = TPoly([x + Fraction(1, 2), Poly([]), Poly([]), x**2])
        assert (a * b).parts == pairwise_product(a, b).parts


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


class TestExactDivision:
    """``exact_div`` divides the primitive integer parts and stops at the
    first step that shows the division is not exact; ``divmod`` over Q is
    its oracle."""

    @given(q=polys(), b=nonzero_polys(), r=st.one_of(st.just(Poly()),
                                                      polys(max_size=4)),
           lead=st.one_of(st.just(0), st.integers(min_value=2**200,
                                                  max_value=2**256)),
           sign=st.sampled_from((1, -1)))
    # A zero dividend, and a dividend below the divisor's degree.
    @example(q=Poly(), b=x**3 + 2, r=Poly(), lead=0, sign=1)
    @example(q=Poly(), b=x + 1, r=Poly([3]), lead=2**200, sign=-1)
    # Over Z the first step 3x / 2x is not integral; dividing anyway would
    # leave a zero remainder and the wrong quotient 1.
    @example(q=Poly(), b=2 * x + 1, r=3 * x + 1, lead=0, sign=1)
    # Every step is integral, but the quotient's coefficients pass
    # 2^41 * ||x^40 + 1||_1, which no factor of x^40 + 1 reaches.
    @example(q=Poly(), b=x - (2**2000 + 7), r=x**40 + 1, lead=0, sign=1)
    def test_matches_divmod(self, q, b, r, lead, sign):
        # A leading coefficient lead >= 2^200 put on b makes big divisors;
        # r = 0 makes divisible pairs.
        if lead:
            b = b + sign * lead * x ** (b.degree() + 1)
        a = q * b + r
        quotient, remainder = divmod(a, b)
        if remainder:
            with pytest.raises(NotDivisible):
                a.exact_div(b)
        else:
            assert a.exact_div(b) == quotient


class TestNormalForms:
    @given(a=nonzero_polys())
    def test_monic_idempotent(self, a):
        assert a.monic().monic() == a.monic()
        monic = a.monic()
        assert monic.coefficient(monic.degree()) == 1

    @given(a=nonzero_polys())
    def test_content_primitive_product(self, a):
        content, primitive = a.content_and_primitive()
        assert content * primitive == a
        assert primitive.coefficient(primitive.degree()) > 0
        assert all(c.denominator == 1 for c in primitive.coeffs)


class TestBinomial:
    def test_small_values(self):
        # math.comb, which the companion polynomials and the two-branch map
        # call directly, is 0 when k > n.
        assert math.comb(3, 2) == 3
        assert math.comb(5, 2) == 10
        assert math.comb(2, 5) == 0

    def test_even_entry_row_sum(self):
        # Sum over even k of C(2g-1, k) is 4^(g-1); for g = 3: 1 + 10 + 5.
        for g in range(1, 8):
            total = sum(math.comb(2 * g - 1, 2 * i) for i in range(g))
            assert total == 4 ** (g - 1)


class TestRationalScalars:
    @given(c=rationals, a=polys())
    def test_scalar_multiplication(self, c, a):
        assert c * a == a * c
        assert (c * a).degree() == (a.degree() if c else NEG_INF)
