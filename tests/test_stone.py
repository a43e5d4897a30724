"""Finite Stone duality: atoms become points, elements become clopens."""

import pytest

from regopen import (
    EnumerationSpec,
    discrete,
    enumerate_topologies,
    regular_open_lattice,
    sierpinski,
    stone_space,
    x3,
)
from regopen.errors import NotBoolean


def test_x3_has_two_point_stone_space():
    lat = regular_open_lattice(x3())
    st = stone_space(lat)
    assert st.space == discrete(2)
    assert set(st.to_clopen) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }


def test_lattices_with_equal_atom_counts_share_one_stone_space():
    a = stone_space(regular_open_lattice(x3()))
    b = stone_space(regular_open_lattice(discrete(2)))
    assert a.space is b.space
    assert stone_space(regular_open_lattice(discrete(3))).space is not a.space


def test_sierpinski_collapses_to_a_point():
    st = stone_space(regular_open_lattice(sierpinski()))
    assert st.space.n == 1


def test_discrete_three_gives_three_points():
    st = stone_space(regular_open_lattice(discrete(3)))
    assert st.space.n == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stone_map_is_order_iso_onto_powerset(n):
    for t in enumerate_topologies(EnumerationSpec(n)):
        lat = regular_open_lattice(t)
        st = stone_space(lat)
        assert st.space.n == len(lat.atoms())
        assert len(set(st.to_clopen)) == lat.m == 1 << st.space.n
        for u in range(lat.m):
            for v in range(lat.m):
                assert lat.leq(u, v) == (st.to_clopen[u] <= st.to_clopen[v])


def test_doctored_lattice_rejected():
    # stone_space reads the order only; make discrete(2)'s four elements a chain
    lat = regular_open_lattice(discrete(2))
    lat.up = tuple(sum(1 << j for j in range(i, lat.m)) for i in range(lat.m))
    lat.down = tuple((1 << i + 1) - 1 for i in range(lat.m))
    with pytest.raises(NotBoolean):
        stone_space(lat)
