"""Differential tests: the integer kernel of ``poly.Poly`` against the
schoolbook Fraction kernel in ``fraction_kernel``.

The coefficients mix small rationals, negative values, runs of zeros,
distinct denominators and magnitudes at +-(2^(8k) - 1) and +-2^(8k), where a
product's slot width in bytes changes, and operands may have length 1,
including a constant on either side of a product.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fraction_kernel as fk
from conftest import rationals
from origami_covers.poly import Poly, TPoly, poly_gcd

EDGES = [s * m for k in range(1, 5) for m in (2 ** (8 * k) - 1, 2 ** (8 * k))
         for s in (1, -1)]

coefficients = st.one_of(
    st.just(0),
    rationals,
    st.builds(Fraction, st.sampled_from(EDGES), st.sampled_from([1, 2, 3, 7])),
)

coefficient_lists = st.lists(
    st.one_of(st.lists(coefficients, min_size=1, max_size=3),
              st.integers(1, 6).map(lambda n: [0] * n)),
    min_size=1, max_size=4,
).map(lambda chunks: fk.trim(c for chunk in chunks for c in chunk))

nonzero_lists = coefficient_lists.filter(bool)

# An edge magnitude next to a coprime entry stays in the primitive part, and
# times a length-1 operand it is a product coefficient at its slot's limit.
EDGE_PAIRS = [((m, 1), (1,)) for m in EDGES] + [((1, m), (m, 1)) for m in EDGES]


@pytest.mark.parametrize("a, b", EDGE_PAIRS)
def test_product_at_slot_edges(a, b):
    assert (Poly(a) * Poly(b)).coeffs == fk.mul(fk.trim(a), fk.trim(b))


@given(a=coefficient_lists, b=coefficient_lists)
@example(a=fk.trim([-3, 0, 0, 0, 5]), b=fk.trim([Fraction(2, 7)]))
def test_product(a, b):
    product = Poly(a) * Poly(b)
    assert product.coeffs == fk.mul(a, b)
    assert all(type(c) is int for c in product.ints)


@given(a=coefficient_lists, c=coefficients.filter(bool))
@example(a=fk.trim([3, 0, -6]), c=Fraction(-1, 2))
def test_product_by_a_constant(a, c):
    # A constant's primitive part is (1,), and the product skips the kernel.
    assert (Poly(a) * Poly([c])).coeffs == fk.mul(a, [c])
    assert (Poly([c]) * Poly(a)).coeffs == fk.mul([c], a)


@given(a=coefficient_lists, b=coefficient_lists)
def test_sum_and_difference(a, b):
    assert (Poly(a) + Poly(b)).coeffs == fk.add(a, b)
    assert (Poly(a) - Poly(b)).coeffs == fk.add(a, fk.neg(b))


@given(a=coefficient_lists, b=nonzero_lists)
@example(a=fk.trim([1, 0, 0, 0, 0, 1]), b=fk.trim([Fraction(1, 3), 0, 7]))
def test_divmod(a, b):
    q, r = divmod(Poly(a), Poly(b))
    assert (q.coeffs, r.coeffs) == fk.divmod_(a, b)


@given(a=coefficient_lists)
def test_normal_forms(a):
    p = Poly(a)
    assert p.monic().coeffs == fk.monic(a)
    content, primitive = p.content_and_primitive()
    assert (content, primitive.coeffs) == fk.content_and_primitive(a)


@given(a=st.lists(coefficient_lists, max_size=3),
       b=st.lists(coefficient_lists, max_size=3))
def test_tpoly_product(a, b):
    product = TPoly([Poly(p) for p in a]) * TPoly([Poly(q) for q in b])
    assert [p.coeffs for p in product.parts] == fk.tmul(
        [fk.trim(p) for p in a], [fk.trim(q) for q in b])


@given(a=nonzero_lists, b=nonzero_lists, c=nonzero_lists)
def test_gcd(a, b, c):
    ours = poly_gcd(Poly(a) * Poly(c), Poly(b) * Poly(c))
    assert ours.coeffs == fk.gcd(fk.mul(a, c), fk.mul(b, c))
