from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rationals
from linalg import LinearSystem, solve_exact


class TestConstruction:
    def test_coerces_ints(self):
        sys_ = LinearSystem([[1, 2], [3, 4]], [5, 6])
        assert sys_.matrix[0][1] == Fraction(2)
        assert sys_.rows == 2 and sys_.cols == 2

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            LinearSystem([[1, 2], [3]], [0, 0])

    def test_rhs_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearSystem([[1, 2]], [0, 0])


class TestSolve:
    def test_unique_solution(self):
        out = solve_exact(LinearSystem([[2, 1], [1, -1]], [3, 0]))
        assert out.consistent
        assert out.solution == (Fraction(1), Fraction(1))
        assert out.nullity == 0 and out.rank == 2

    def test_rational_pivots(self):
        out = solve_exact(
            LinearSystem([[Fraction(1, 2), Fraction(1, 3)]], [Fraction(1)])
        )
        assert out.consistent
        row = [Fraction(1, 2), Fraction(1, 3)]
        assert sum(c * v for c, v in zip(row, out.solution)) == 1

    def test_inconsistent(self):
        out = solve_exact(LinearSystem([[1, 1], [2, 2]], [1, 3]))
        assert not out.consistent
        assert out.solution is None

    def test_underdetermined_free_variable_zero(self):
        out = solve_exact(LinearSystem([[1, 1, 0]], [2]))
        assert out.consistent
        assert out.nullity == 2
        assert out.solution == (Fraction(2), Fraction(0), Fraction(0))
        assert out.free_columns == (1, 2)

    def test_needs_row_swap(self):
        out = solve_exact(LinearSystem([[0, 1], [1, 0]], [7, 5]))
        assert out.solution == (Fraction(5), Fraction(7))


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(rationals, min_size=n, max_size=n),
            min_size=1,
            max_size=5,
        ),
        st.lists(rationals, min_size=n, max_size=n),
    )
)


class TestSolveProperties:
    @given(data=matrices)
    def test_resubstitution(self, data):
        matrix, true_solution = data
        rhs = [
            sum(c * v for c, v in zip(row, true_solution)) for row in matrix
        ]
        out = solve_exact(LinearSystem(matrix, rhs))
        # Built from a known solution, so the system must be consistent and
        # the returned vector must satisfy it exactly.
        assert out.consistent
        for row, b in zip(matrix, rhs):
            assert sum(c * v for c, v in zip(row, out.solution)) == b

    @given(
        matrix=st.lists(
            st.lists(rationals, min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        ),
        rhs_source=st.lists(rationals, min_size=5, max_size=5),
    )
    def test_consistency_flag_honest(self, matrix, rhs_source):
        rhs = rhs_source[: len(matrix)]
        out = solve_exact(LinearSystem(matrix, rhs))
        if out.consistent:
            for row, b in zip(matrix, rhs):
                assert sum(c * v for c, v in zip(row, out.solution)) == b
        assert out.rank + out.nullity == 3
