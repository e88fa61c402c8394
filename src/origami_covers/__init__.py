"""Exact construction, combinatorics, and certification of totally ramified
covers of Legendre-family elliptic curves."""

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
from .degeneration import (  # noqa: F401
    deform,
    two_branch_map,
)
from .family import (  # noqa: F401
    FamilyInstance,
    build_family,
    companion_identities,
    j_poly,
    k_poly,
)
from .origami import (  # noqa: F401
    OrigamiDiagram,
    Permutation,
    commutator,
    genus,
    is_connected,
    monodromy_cycle_type,
    staircase,
    vertex_count,
)
from .poly import Poly, binomial, poly_gcd  # noqa: F401
from .ratfunc import RatFunc  # noqa: F401
