"""Exact linear solving by fraction-free (Bareiss-style) elimination, kept
as a differential oracle for ``degeneration.solve_exact``.

Rows are scaled to integers up front; the elimination then stays in integer
arithmetic, and the back-substitution produces exact rational solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class LinearSystem:
    """A matrix of rationals together with a right-hand side column."""

    matrix: tuple
    rhs: tuple

    def __init__(self, matrix, rhs):
        matrix = tuple(tuple(Fraction(c) for c in row) for row in matrix)
        rhs = tuple(Fraction(c) for c in rhs)
        if len(matrix) != len(rhs):
            raise ValueError("row count must equal rhs length")
        widths = {len(row) for row in matrix}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of :func:`solve_exact`.

    ``solution`` is None for inconsistent systems.  For underdetermined
    systems the free variables are pinned to zero and ``nullity`` reports the
    dimension of the solution space.
    """

    consistent: bool
    solution: tuple | None
    nullity: int
    rank: int
    free_columns: tuple = field(default=())


def _integer_rows(system: LinearSystem):
    rows = []
    for row, b in zip(system.matrix, system.rhs):
        dens = [c.denominator for c in row] + [b.denominator]
        scale = 1
        for d in dens:
            scale = scale * d // math.gcd(scale, d)
        rows.append([c.numerator * (scale // c.denominator) for c in row]
                    + [b.numerator * (scale // b.denominator)])
    return rows


def solve_exact(system: LinearSystem) -> LinearSolution:
    """Solve matrix * v = rhs exactly.

    Bareiss fraction-free forward elimination on the integer-scaled augmented
    matrix, then rational back-substitution.  Free variables are set to 0.
    """
    n_rows, n_cols = system.rows, system.cols
    m = _integer_rows(system)
    pivot_cols = []
    prev_pivot = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        for i in range(r + 1, n_rows):
            if all(v == 0 for v in m[i]):
                continue
            factor = m[i][c]
            for j in range(n_cols + 1):
                q, rem = divmod(pivot * m[i][j] - factor * m[r][j], prev_pivot)
                assert rem == 0, "fraction-free elimination lost exactness"
                m[i][j] = q
        prev_pivot = pivot
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    rank = len(pivot_cols)
    for i in range(rank, n_rows):
        if all(v == 0 for v in m[i][:n_cols]) and m[i][n_cols] != 0:
            return LinearSolution(
                consistent=False,
                solution=None,
                nullity=n_cols - rank,
                rank=rank,
                free_columns=tuple(
                    c for c in range(n_cols) if c not in pivot_cols
                ),
            )
    solution = [Fraction(0)] * n_cols
    for i in reversed(range(rank)):
        c = pivot_cols[i]
        acc = Fraction(m[i][n_cols])
        for j in range(c + 1, n_cols):
            acc -= m[i][j] * solution[j]
        solution[c] = acc / m[i][c]
    return LinearSolution(
        consistent=True,
        solution=tuple(solution),
        nullity=n_cols - rank,
        rank=rank,
        free_columns=tuple(c for c in range(n_cols) if c not in pivot_cols),
    )
