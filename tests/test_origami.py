from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from math_oracle import parse_diagram
from origami_covers.errors import InvalidGenus, NotConnected, ParseError
from origami_covers.origami import (
    OrigamiDiagram,
    Permutation,
    commutator,
    format_diagram,
    genus,
    is_connected,
    monodromy_cycle_type,
    staircase,
    vertex_count,
)


def permutations(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


diagrams = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.builds(
        OrigamiDiagram, st.just(n), permutations(n), permutations(n)
    )
)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])

    @pytest.mark.parametrize("images", [
        [2.7, 1], ["3", "1", "2"], [Fraction(2), Fraction(1)]])
    def test_rejects_non_integer_images(self, images):
        with pytest.raises(TypeError):
            Permutation(images)

    def test_from_cycles_rejects_non_integer_entry(self):
        # Even in a 1-cycle, which moves nothing.
        with pytest.raises(TypeError):
            Permutation.from_cycles(3, [(2.5,)])

    @pytest.mark.parametrize("n, cycles", [
        (3, [(5,)]),
        (3, [(0,)]),
        (4, [(1, 2), (3, 1, 2)]),
    ], ids=["1-cycle-above", "1-cycle-zero", "repeated-across-cycles"])
    def test_from_cycles_rejects_bad_entry(self, n, cycles):
        # Out of range even in a 1-cycle, which moves nothing; and an entry
        # in two cycles, which used to give [2, 3, 1, 4] silently.
        with pytest.raises(ValueError):
            Permutation.from_cycles(n, cycles)

    def test_composition_left_to_right(self):
        p = Permutation.from_cycles(3, [(1, 2)])
        q = Permutation.from_cycles(3, [(2, 3)])
        assert (p * q)(1) == 3  # 1 -> 2 under p, then 2 -> 3 under q

    def test_inverse(self):
        p = Permutation([2, 3, 1])
        assert p * p.inverse() == Permutation(range(1, 4))

    def test_cycles_min_first(self):
        p = Permutation.from_cycles(5, [(3, 5, 4)])
        assert p.cycles() == [(1,), (2,), (3, 5, 4)]
        assert p.cycle_type() == (3, 1, 1)

    def test_cycle_string(self):
        assert Permutation.from_cycles(4, [(1, 3), (2, 4)]).cycle_string() \
            == "(1 3)(2 4)"
        assert Permutation(range(1, 4)).cycle_string() == "()"

    @given(n=st.integers(min_value=1, max_value=8), data=st.data())
    def test_inverse_involution(self, n, data):
        p = data.draw(permutations(n))
        assert p.inverse().inverse() == p

    @given(n=st.integers(min_value=2, max_value=8), data=st.data())
    def test_conjugation_preserves_cycle_type(self, n, data):
        p = data.draw(permutations(n))
        sigma = data.draw(permutations(n))
        assert p.conjugate(sigma).cycle_type() == p.cycle_type()


class TestConvention:
    def test_l_diagram_commutator(self):
        # The three-square L pins the composition convention.
        d = OrigamiDiagram(
            n=3,
            right=Permutation.from_cycles(3, [(2, 3)]),
            up=Permutation.from_cycles(3, [(1, 2)]),
        )
        assert commutator(d).cycle_string() == "(1 3 2)"
        assert vertex_count(d) == 1
        assert genus(d) == 2


class TestStaircase:
    def test_three_squares(self):
        d = staircase(2)
        assert d.n == 3
        assert d.right.cycle_string() == "(2 3)"
        assert d.up.cycle_string() == "(1 2)"

    def test_one_square(self):
        d = staircase(1)
        assert d.n == 1
        assert genus(d) == 1

    def test_bad_genus(self):
        with pytest.raises(InvalidGenus):
            staircase(0)

    @pytest.mark.parametrize("g", range(1, 21))
    def test_single_vertex_and_genus(self, g):
        d = staircase(g)
        assert is_connected(d)
        assert vertex_count(d) == 1
        assert genus(d) == g
        assert monodromy_cycle_type(d) == (d.n,)


class TestInvariance:
    @given(d=diagrams, data=st.data())
    def test_relabeling_preserves_everything(self, d, data):
        sigma = data.draw(permutations(d.n))
        relabeled = OrigamiDiagram(
            n=d.n,
            right=d.right.conjugate(sigma),
            up=d.up.conjugate(sigma),
        )
        assert monodromy_cycle_type(relabeled) == monodromy_cycle_type(d)
        assert vertex_count(relabeled) == vertex_count(d)
        assert is_connected(relabeled) == is_connected(d)


class TestGenus:
    def test_non_integer_square_count_raises(self):
        p = Permutation.from_cycles(3, [(2, 3)])
        with pytest.raises(TypeError):
            OrigamiDiagram(3.0, p, p)

    def test_disconnected_raises(self):
        d = OrigamiDiagram(
            n=2, right=Permutation(range(1, 3)), up=Permutation(range(1, 3))
        )
        with pytest.raises(NotConnected):
            genus(d)

    def test_torus(self):
        d = OrigamiDiagram(
            n=2,
            right=Permutation.from_cycles(2, [(1, 2)]),
            up=Permutation(range(1, 3)),
        )
        assert genus(d) == 1


class TestSerialization:
    def test_format(self):
        assert format_diagram(staircase(2)) == "3; right=(2 3); up=(1 2)"

    def test_roundtrip(self):
        for g in range(1, 6):
            d = staircase(g)
            assert parse_diagram(format_diagram(d)) == d

    @given(d=diagrams)
    def test_roundtrip_random(self, d):
        assert parse_diagram(format_diagram(d)) == d

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_diagram("3; right=(2 3)")
        with pytest.raises(ParseError):
            parse_diagram("x; right=(2 3); up=(1 2)")
        with pytest.raises(ParseError):
            parse_diagram("3; right=(2 9); up=(1 2)")
        with pytest.raises(ParseError):
            parse_diagram("3; right=(2 2); up=(1 2)")
