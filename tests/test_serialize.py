"""JSON interchange formats and DOT export."""

import json

import pytest

from regopen import discrete, regular_open_lattice, well_inside, x3
from regopen import serialize, topology
from regopen.errors import MissingEmptyOrFull, SizeGuardExceeded
from regopen.lattice import FiniteLattice, ge_relation, relation_pairs
from regopen.serialize import (
    canonical_json,
    lattice_to_dict,
    lattice_to_dot,
    space_from_dict,
    space_to_dict,
)


def test_space_round_trip():
    t = x3()
    d = space_to_dict(t)
    assert d == {"n": 3, "opens": [[], [0], [1], [0, 1], [0, 1, 2]]}
    assert space_from_dict(d) == t


def test_space_validation_on_load():
    with pytest.raises(MissingEmptyOrFull):
        space_from_dict({"n": 2, "opens": [[], [0]]})
    with pytest.raises(ValueError):
        space_from_dict({"n": 2, "opens": [[], [0, 1]], "labels": ["a"]})


def test_space_too_large_is_refused_before_any_open_is_encoded(monkeypatch):
    # a million points would make each open a million-bit mask
    encoded = []
    mask_of = topology.mask_of

    def spy(points, n):
        encoded.append(n)
        return mask_of(points, n)

    monkeypatch.setattr(topology, "mask_of", spy)
    # and any encoding the reader might do through its own import of the name
    monkeypatch.setattr(serialize, "mask_of", spy, raising=False)
    with pytest.raises(SizeGuardExceeded):
        space_from_dict({"n": 10**6, "opens": [[10**5], [2 * 10**5]]})
    assert encoded == []


def test_space_labels_carried():
    d = {**space_to_dict(discrete(2)), "labels": ["p", "q"]}
    assert space_from_dict(d) == discrete(2)


def test_lattice_round_trip_with_payloads_and_relation():
    # no verb reads a lattice back, so the written order is rebuilt through
    # FiniteLattice.from_leq, the constructor that validates an order
    lat = regular_open_lattice(x3())
    rel = well_inside(lat)
    d = lattice_to_dict(lat, rel)
    assert d["elements"] == 4
    assert d["payloads"] == [[], [0], [1], [0, 1, 2]]
    assert [sorted(lat.element(i)) for i in range(lat.m)] == d["payloads"]
    loaded = FiniteLattice.from_leq(d["elements"], [(i, j) for i, j in d["leq"]])
    assert frozenset((f, g) for f, g in d["gg"]) == rel
    assert loaded.m == lat.m
    for i in range(lat.m):
        for j in range(lat.m):
            assert loaded.leq(i, j) == lat.leq(i, j)
            assert loaded.meet[i][j] == lat.meet[i][j]
            assert loaded.join[i][j] == lat.join[i][j]


def test_lattice_without_payloads_supports_order_checks():
    lat = FiniteLattice.from_leq(2, [(0, 1)])
    assert lat.payload_masks is None
    assert relation_pairs(ge_relation(lat)) == frozenset({(0, 0), (1, 0), (1, 1)})
    assert not hasattr(lat, "element")  # only a RegularOpenLattice names its points
    assert lattice_to_dict(lat) == {"elements": 2, "leq": [[0, 1]]}


def test_canonical_json_is_stable():
    payload = {"b": [3, 1], "a": {"y": 2, "x": 1}}
    assert canonical_json(payload) == canonical_json(json.loads(canonical_json(payload)))


def test_dot_export_covering_edges_only():
    lat = regular_open_lattice(discrete(2))
    dot = lattice_to_dot(lat)
    # bottom-to-atom and atom-to-top edges only; no bottom-to-top shortcut
    assert "n0 -> n3;" not in dot
    assert dot.count("->") == 4
    assert dot.count('xlabel="atom"') == 2
    assert 'label="{0,1}"' in dot


def test_dot_export_without_payloads_uses_indices():
    lat = FiniteLattice.from_leq(2, [(0, 1)])
    dot = lattice_to_dot(lat)
    assert 'label="0"' in dot and 'label="1"' in dot
