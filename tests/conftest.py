from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

# Exact-arithmetic checks on larger genera can legitimately take a while.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

from origami_covers.poly import Poly, TPoly

rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)


def polys(max_size=6, min_size=0):
    return st.builds(
        Poly, st.lists(rationals, min_size=min_size, max_size=max_size))


def nonzero_polys(max_size=6):
    return polys(max_size=max_size).filter(bool)


def tpolys(max_parts=3, max_size=5):
    """Polynomials in Q[t][x], given by their parts."""
    return st.builds(TPoly, st.lists(polys(max_size=max_size),
                                     max_size=max_parts))
