"""Combinatorial origami diagrams: pairs of gluing permutations on n squares.

Permutations act on {1..n} and compose left to right: (p * q)(i) = q(p(i)).
The convention is pinned by the three-square L diagram, whose commutator of
right = (2 3) and up = (1 2) must come out as the 3-cycle (1 3 2).
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .errors import InvalidGenus, NotConnected


class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(map(operator.index, images))
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection on 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *args):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """The permutation of 1..n with the given disjoint cycles; every
        entry, in a 1-cycle too, must lie in 1..n and occur once."""
        images = list(range(1, n + 1))
        seen = set()
        for cycle in cycles:
            cycle = tuple(map(operator.index, cycle))
            for a in cycle:
                if not 1 <= a <= n:
                    raise ValueError(f"cycle entry {a} outside 1..{n}")
                if a in seen:
                    raise ValueError(f"cycle entry {a} occurs twice")
                seen.add(a)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("permutation size mismatch")
        return Permutation(other(self(i)) for i in range(1, self.n + 1))

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            images[img - 1] = i
        return Permutation(images)

    def conjugate(self, sigma: "Permutation") -> "Permutation":
        """sigma^-1 * self * sigma (a relabeling of the squares)."""
        return sigma.inverse() * self * sigma

    def cycles(self):
        """Disjoint cycles, fixed points included, each starting at its
        minimum element; cycles ordered by that minimum."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cycle = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cycle.append(i)
                i = self(i)
            out.append(tuple(cycle))
        return out

    def cycle_type(self):
        """Multiset of cycle lengths, as a descending tuple."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)!r})"

    def cycle_string(self) -> str:
        """Disjoint-cycle notation; fixed points omitted, identity is ``()``."""
        parts = [
            "(" + " ".join(str(i) for i in c) + ")"
            for c in self.cycles()
            if len(c) > 1
        ]
        return "".join(parts) if parts else "()"


class OrigamiDiagram(namedtuple("OrigamiDiagram", "n right up")):
    """n unit squares glued by a right-step and an up-step permutation."""

    __slots__ = ()

    def __new__(cls, n: int, right: Permutation, up: Permutation):
        n = operator.index(n)
        if n < 1:
            raise ValueError("need at least one square")
        if right.n != n or up.n != n:
            raise ValueError("permutation size must match the square count")
        return super().__new__(cls, n, right, up)

    @classmethod
    def _make(cls, fields):
        """Build through ``__new__``, so that ``_replace`` validates too."""
        return cls(*fields)


def commutator(diagram: OrigamiDiagram) -> Permutation:
    """The local monodromy g^-1 h^-1 g h around the branch point."""
    g, h = diagram.right, diagram.up
    return g.inverse() * h.inverse() * g * h


def monodromy_cycle_type(diagram: OrigamiDiagram):
    return commutator(diagram).cycle_type()


def vertex_count(diagram: OrigamiDiagram) -> int:
    """Number of surface vertices = number of cycles of the monodromy."""
    return len(commutator(diagram).cycles())


def is_connected(diagram: OrigamiDiagram) -> bool:
    """True iff the group generated by right and up is transitive on squares."""
    reached = {1}
    frontier = [1]
    gens = (diagram.right, diagram.up,
            diagram.right.inverse(), diagram.up.inverse())
    while frontier:
        i = frontier.pop()
        for p in gens:
            j = p(i)
            if j not in reached:
                reached.add(j)
                frontier.append(j)
    return len(reached) == diagram.n


def genus(diagram: OrigamiDiagram) -> int:
    """Genus from Euler's formula with F = n faces and E = 2n edges."""
    if not is_connected(diagram):
        raise NotConnected("origami diagram is not connected")
    v = vertex_count(diagram)
    twice_genus = 2 - v + diagram.n
    assert twice_genus % 2 == 0, "Euler count is odd for a valid diagram"
    return twice_genus // 2


def staircase(g: int) -> OrigamiDiagram:
    """The staircase diagram on 2g-1 squares with a single vertex.

    right = (2 3)(4 5)...(2g-2 2g-1), up = (1 2)(3 4)...(2g-3 2g-2);
    for g = 1 both are the identity on one square.
    """
    if not isinstance(g, int) or g < 1:
        raise InvalidGenus(f"genus must be an integer >= 1, got {g!r}")
    n = 2 * g - 1
    right = Permutation.from_cycles(n, [(2 * k, 2 * k + 1) for k in range(1, g)])
    up = Permutation.from_cycles(n, [(2 * k - 1, 2 * k) for k in range(1, g)])
    return OrigamiDiagram(n=n, right=right, up=up)


# -- text serialization ----------------------------------------------------


def format_diagram(diagram: OrigamiDiagram) -> str:
    return (
        f"{diagram.n}; right={diagram.right.cycle_string()}; "
        f"up={diagram.up.cycle_string()}"
    )
