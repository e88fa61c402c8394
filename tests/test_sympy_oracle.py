"""Cross-checks of the gcd, squarefree and genus helpers, of RatFunc's
canonical form, of the pullback differential, of Q[t][x] arithmetic and
text, and of the parser on random texts, against sympy.

sympy is an independent oracle for the tests only; the package itself has
no runtime dependency on it.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nonzero_polys, polys, rationals, tpolys
from math_oracle import squarefree_part
from origami_covers.curves import (
    Cover,
    CoverMap,
    HyperellipticCurve,
    genus_geometric,
    pullback_invariant_differential,
    specialize_t,
)
from origami_covers.family import build_family, family_instance
from origami_covers.parsing import (
    format_poly,
    format_ratfunc,
    parse_expression,
    parse_poly,
    parse_ratfunc,
)
from origami_covers.poly import Poly, TPoly, poly_gcd
from origami_covers.ratfunc import RatFunc

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


def canonical_pair(expr):
    """sympy's reduced fraction of expr, scaled to RatFunc's canonical form:
    the denominator primitive over Z with a positive leading coefficient,
    and the numerator at the same scale."""
    num, den = sympy.fraction(sympy.cancel(expr))
    num = sympy.Poly(num, X, domain=sympy.QQ)
    den = sympy.Poly(den, X, domain=sympy.QQ)
    _, primitive = den.clear_denoms(convert=True)[1].primitive()
    scale = sympy.Rational(abs(int(primitive.LC()))) / den.LC()
    return num * scale, den * scale


def as_pair(r: RatFunc):
    return to_sympy(r.num), to_sympy(r.den)


def poly_pair(p: Poly):
    """The polynomial p as the canonical pair (p, 1)."""
    return to_sympy(p), to_sympy(Poly.constant(1))


def pullback(f1: RatFunc, f2: RatFunc):
    """The pullback coefficient of the map (f1, f2*y); the curves play no
    part in it."""
    x = Poly.variable()
    return pullback_invariant_differential(Cover(
        source=HyperellipticCurve(x**5 + x),
        target=HyperellipticCurve(x**3 + 1),
        map=CoverMap(f1=f1, f2=f2),
        degree=2,
    ))


def sympy_pullback(f1: RatFunc, f2: RatFunc):
    """f1' / f2 by sympy's differentiation and cancellation."""
    a, b, n, d = (to_sympy(p).as_expr()
                  for p in (f1.num, f1.den, f2.num, f2.den))
    return canonical_pair(sympy.diff(a / b, X) / (n / d))


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
    expected = canonical_pair(
        to_sympy(a * c).as_expr() / to_sympy(b * c).as_expr())
    assert as_pair(RatFunc(a * c, b * c)) == expected


@given(a=polys(max_size=4), b=nonzero_polys(max_size=3),
       n=nonzero_polys(max_size=3), d=nonzero_polys(max_size=3))
def test_pullback_matches_sympy_on_the_remainder_branch(a, b, n, d):
    f1, f2 = RatFunc(a, b), RatFunc(n, d)
    lam = pullback(f1, f2)
    num, den = sympy_pullback(f1, f2)
    # b^2 n divides (a'b - ab')d exactly when the cancelled f1'/f2 has a
    # constant denominator; otherwise there is no polynomial pullback.
    if den.degree() > 0:
        assert lam is None
    else:
        assert poly_pair(lam) == (num, den)


@given(a=polys(max_size=4), b=nonzero_polys(max_size=3),
       c=rationals.filter(bool), e=nonzero_polys(max_size=3))
def test_pullback_matches_sympy_on_the_exact_branch(a, b, c, e):
    # f2 = c / (b^2 e) makes b^2 n a constant times b^2, which divides
    # (a'b - ab')d = (a'b - ab') b^2 e.
    f1 = RatFunc(a, b)
    f2 = RatFunc(c, f1.den * f1.den * e)
    lam = pullback(f1, f2)
    assert isinstance(lam, Poly)
    assert poly_pair(lam) == sympy_pullback(f1, f2)


@pytest.mark.parametrize("g", range(1, 13))
def test_family_pullback_matches_sympy(g):
    cover = build_family(g).cover
    lam = pullback_invariant_differential(cover)
    assert poly_pair(lam) == sympy_pullback(cover.map.f1, cover.map.f2)


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
    fibre = specialize_t(family_instance(g).cover.source, t)
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


# -- random texts for the parser ----------------------------------------------
#
# A sum of at most four terms, joined by + or - with loose or no spacing.  A
# term is an optional chain of unary signs, one or two factors joined by *,
# and an optional divisor.  Factors are integer literals, rationals such as
# 3/4, x, t, their powers, and (at depth 1) a sum in one or two pairs of
# parentheses or a small power of one.  A term's degree stays at most 24 in x
# and 8 in t, well inside the parser's caps, and divisors are nonzero, so
# every text parses.

SEPARATORS = st.sampled_from(["", " ", "  "])
SIGNS = st.sampled_from(["", "", "-", "--", "+", "+-", "- -"])


def sympy_of(text):
    return sympy.sympify(text.replace("^", "**"), locals={"x": X, "t": T})


def nonzero_text(text):
    return sympy.expand(sympy_of(text)) != 0


@st.composite
def factor_texts(draw, depth, with_t):
    kinds = ["int", "rational", "x", "x-power"]
    kinds += ["t", "t-power"] if with_t else []
    kinds += ["sum", "sum-power"] if depth else []
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return str(draw(st.integers(0, 12)))
    if kind == "rational":
        return f"{draw(st.integers(0, 9))}/{draw(st.integers(1, 9))}"
    if kind in ("x", "t"):
        return kind
    if kind == "x-power":
        return f"x^{draw(st.integers(0, 3))}"
    if kind == "t-power":
        return f"t^{draw(st.integers(0, 1))}"
    inner = f"({draw(sum_texts(depth - 1, with_t))})"
    if kind == "sum":
        return draw(st.sampled_from([inner, f"({inner})", f"(-{inner})"]))
    return f"{inner}^{draw(st.integers(0, 2))}"


@st.composite
def term_texts(draw, depth, with_t, divisors):
    """One term; its divisors are nonzero literals, or nonzero t-free sums
    when ``divisors`` is set."""
    sep = draw(SEPARATORS)
    text = draw(SIGNS) + draw(factor_texts(depth, with_t))
    if draw(st.booleans()):
        text += f"{sep}*{sep}{draw(factor_texts(depth, with_t))}"
    if draw(st.booleans()):
        if divisors:
            divisor = draw(sum_texts(0, False).filter(nonzero_text))
            text += f"{sep}/{sep}({divisor})"
        else:
            text += f"{sep}/{sep}{draw(st.integers(1, 9))}"
    return text


@st.composite
def sum_texts(draw, depth=1, with_t=True, divisors=False):
    terms = draw(st.lists(term_texts(depth, with_t, divisors),
                          min_size=1, max_size=4))
    sep = draw(SEPARATORS)
    text = terms[0]
    for term in terms[1:]:
        text += f"{sep}{draw(st.sampled_from('+-'))}{sep}{term}"
    return text


@given(text=sum_texts())
def test_parse_poly_matches_sympy(text):
    ours = parse_poly(text)
    assert tpoly_to_sympy(ours) == sympy.Poly(sympy_of(text), X, T,
                                              domain=sympy.QQ)
    assert parse_poly(format_poly(ours)) == ours


@given(terms=st.lists(term_texts(1, True, False), min_size=1, max_size=6),
       data=st.data())
def test_parse_poly_ignores_term_order(terms, data):
    # Repeated exponents are common among six short terms.
    shuffled = data.draw(st.permutations(terms))
    assert parse_poly(" + ".join(shuffled)) == parse_poly(" + ".join(terms))


@given(text=sum_texts(with_t=False, divisors=True))
def test_parse_ratfunc_matches_sympy(text):
    ours = parse_ratfunc(text)
    assert as_pair(ours) == canonical_pair(sympy_of(text))
    assert parse_ratfunc(format_ratfunc(ours)) == ours


# A chain of factors joined by * and /, each a literal, x or t with an
# optional sign and power: the texts a term's monomial run reads.  Divisors
# are nonzero, and a quotient by x or t is a rational function.

@st.composite
def chain_factor_texts(draw, divisor):
    atom = draw(st.sampled_from(["x", "t"])
                | st.integers(1 if divisor else 0, 12).map(str))
    if draw(st.booleans()):
        atom += f"^{draw(st.integers(0, 3))}"
    return draw(st.sampled_from(["", "", "-"])) + atom


@st.composite
def chain_texts(draw):
    text = draw(chain_factor_texts(False))
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from("*/"))
        text += op + draw(chain_factor_texts(op == "/"))
    return text


@given(text=chain_texts())
def test_product_chain_matches_sympy(text):
    expr = parse_expression(text)
    ours = (tpoly_to_sympy(expr.num).as_expr()
            / tpoly_to_sympy(expr.den).as_expr())
    assert sympy.cancel(ours - sympy_of(text)) == 0
