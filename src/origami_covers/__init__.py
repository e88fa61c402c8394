"""Exact construction, combinatorics, and certification of totally ramified
covers of Legendre-family elliptic curves.

The deformation pipeline, the origami combinatorics and the self-test
battery are not imported here, so that loading the package for ``generate``
and ``verify`` does not load them; import their names from
:mod:`origami_covers.degeneration`, :mod:`origami_covers.origami` and
:mod:`origami_covers.selftest`.
"""

__version__ = "0.1.0"

from .curves import (  # noqa: F401
    Cover,
    CoverMap,
    HyperellipticCurve,
    RamificationReport,
    genus_arithmetic,
    genus_geometric,
    pullback_invariant_differential,
    ramification_report,
    specialize_t,
    verify_cover_identity,
)
from .family import (  # noqa: F401
    FamilyInstance,
    build_family,
    j_poly,
    k_poly,
)
from .poly import Poly, poly_gcd  # noqa: F401
from .ratfunc import RatFunc  # noqa: F401
