"""Cross-checks of the gcd, squarefree and genus helpers, of RatFunc's
canonical form and coprimality certificate, and of Q[t][x] arithmetic and
text, against sympy.

sympy is an independent oracle for the tests only; the package itself has
no runtime dependency on it.
"""

import pytest
from hypothesis import given

from conftest import nonzero_polys, polys, tpolys
from origami_covers.curves import (
    HyperellipticCurve,
    genus_geometric,
    specialize_t,
)
from origami_covers.family import family_source_curve
from origami_covers.parsing import format_poly, parse_poly
from origami_covers.poly import Poly, TPoly, poly_gcd, squarefree_part
from origami_covers.ratfunc import RatFunc, coprime_mod_p

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
T = sympy.Symbol("t")


def to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator)
              for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], X, domain=sympy.QQ)


def tpoly_to_sympy(p: TPoly):
    """p as a sympy polynomial in x and t."""
    expr = sum((to_sympy(part).as_expr() * T**k
                for k, part in enumerate(p.parts)), sympy.Integer(0))
    return sympy.Poly(expr, X, T, domain=sympy.QQ)


def monic_coeffs(sp):
    return sp.monic().all_coeffs() if not sp.is_zero else [0]


def oracle_genus(p: Poly) -> int:
    """Genus of y^2 = p from the odd-multiplicity factors of sympy's
    squarefree decomposition."""
    _, factors = sympy.sqf_list(to_sympy(p))
    odd = sum(f.degree() for f, e in factors if e % 2)
    return max(odd - 1, 0) // 2


@given(a=nonzero_polys(max_size=4), b=nonzero_polys(max_size=4),
       c=nonzero_polys(max_size=3))
def test_gcd_matches_sympy_up_to_a_unit(a, b, c):
    # The shared factor c makes nontrivial gcds common.
    ours = poly_gcd(a * c, b * c)
    theirs = sympy.gcd(to_sympy(a * c), to_sympy(b * c))
    assert monic_coeffs(to_sympy(ours)) == monic_coeffs(theirs)


@given(a=polys(max_size=4), b=nonzero_polys(max_size=4),
       c=nonzero_polys(max_size=3))
def test_ratfunc_matches_sympy_cancel(a, b, c):
    num, den = sympy.fraction(sympy.cancel(
        to_sympy(a * c).as_expr() / to_sympy(b * c).as_expr()))
    num = sympy.Poly(num, X, domain=sympy.QQ)
    den = sympy.Poly(den, X, domain=sympy.QQ)
    # The canonical denominator: primitive over Z, positive leading
    # coefficient; the numerator takes the same scale.
    _, primitive = den.clear_denoms(convert=True)[1].primitive()
    scale = sympy.Rational(abs(int(primitive.LC()))) / den.LC()
    r = RatFunc(a * c, b * c)
    assert to_sympy(r.num) == num * scale
    assert to_sympy(r.den) == den * scale


@given(a=nonzero_polys(max_size=5), b=nonzero_polys(max_size=5),
       c=nonzero_polys(max_size=3))
def test_certified_coprime_pairs_have_gcd_one(a, b, c):
    for u, v in ((a, b), (a * c, b * c)):
        if coprime_mod_p(u, v):
            assert sympy.gcd(to_sympy(u), to_sympy(v)).degree() == 0


@given(a=nonzero_polys(max_size=3), b=nonzero_polys(max_size=3),
       c=nonzero_polys(max_size=3))
def test_squarefree_part_matches_sympy(a, b, c):
    p = a * b * b * c * c * c
    theirs = sympy.sqf_part(to_sympy(p))
    assert monic_coeffs(to_sympy(squarefree_part(p))) == monic_coeffs(theirs)


@given(a=nonzero_polys(max_size=3), b=nonzero_polys(max_size=3),
       c=nonzero_polys(max_size=3))
def test_geometric_genus_matches_sympy(a, b, c):
    p = a * b * b * c * c * c
    assert genus_geometric(HyperellipticCurve(p)) == oracle_genus(p)


@pytest.mark.parametrize("g", range(2, 9))
@pytest.mark.parametrize("t", [0, 1, -1])
def test_family_fibre_genus_matches_sympy(g, t):
    fibre = specialize_t(family_source_curve(g), t)
    assert genus_geometric(fibre) == oracle_genus(fibre.rhs)


@given(a=tpolys(), b=tpolys())
def test_tpoly_arithmetic_matches_sympy(a, b):
    sa, sb = tpoly_to_sympy(a), tpoly_to_sympy(b)
    assert tpoly_to_sympy(a + b) == sa + sb
    assert tpoly_to_sympy(a - b) == sa - sb
    assert tpoly_to_sympy(a * b) == sa * sb
    assert tpoly_to_sympy(a**2) == sa**2


@given(p=tpolys())
def test_tpoly_text_matches_sympy(p):
    # sympy reads the printed text as p, and the parser reads sympy's text
    # of p as p.
    ours = sympy.sympify(format_poly(p).replace("^", "**"),
                         locals={"x": X, "t": T})
    assert sympy.Poly(ours, X, T, domain=sympy.QQ) == tpoly_to_sympy(p)
    theirs = str(tpoly_to_sympy(p).as_expr()).replace("**", "^")
    assert parse_poly(theirs) == p
