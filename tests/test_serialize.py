"""JSON interchange formats and DOT export."""

import json

import pytest

from regopen import discrete, regular_open_lattice, well_inside, x3
from regopen.errors import MalformedLattice, MissingEmptyOrFull
from regopen.lattice import FiniteLattice, ge_relation
from regopen.serialize import (
    canonical_json,
    lattice_from_dict,
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


def test_space_labels_carried():
    d = {**space_to_dict(discrete(2)), "labels": ["p", "q"]}
    assert space_from_dict(d) == discrete(2)


def test_lattice_round_trip_with_payloads_and_relation():
    lat = regular_open_lattice(x3())
    rel = well_inside(lat)
    d = lattice_to_dict(lat, rel)
    assert d["elements"] == 4
    assert d["payloads"] == [[], [0], [1], [0, 1, 2]]
    loaded, loaded_rel = lattice_from_dict(d)
    assert loaded_rel == rel
    assert loaded.m == lat.m
    for i in range(lat.m):
        for j in range(lat.m):
            assert loaded.leq(i, j) == lat.leq(i, j)
            assert loaded.meet[i][j] == lat.meet[i][j]
            assert loaded.join[i][j] == lat.join[i][j]


def test_lattice_without_payloads_supports_order_checks():
    d = {"elements": 2, "leq": [[0, 1]]}
    lat, rel = lattice_from_dict(d)
    assert rel is None
    assert lat.payload_masks is None
    assert ge_relation(lat) == frozenset({(0, 0), (1, 0), (1, 1)})
    with pytest.raises(ValueError):
        lat.payload(0)


def test_lattice_dict_gg_range_checked():
    with pytest.raises(ValueError):
        lattice_from_dict({"elements": 2, "leq": [[0, 1]], "gg": [[0, 5]]})


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"elements": "2", "leq": [[0, 1]]},
        {"elements": True, "leq": [[0, 1]]},
        {"elements": 2},
        {"elements": 2, "leq": [[0, 1]], "payloads": [[0]]},
        {"elements": 2, "leq": [[0, 1]], "gg": [[0, 5]]},
        {"elements": 2, "leq": 5},
        {"elements": 2, "leq": [[0, 1]], "gg": 3},
        {"elements": 2, "leq": [[0, 1]], "payloads": 7},
        {"elements": 2, "leq": [["a", 1]]},
        {"elements": 2, "leq": [[0, 1.0]]},
        {"elements": 2, "leq": [[0, 1]], "payloads": [[0], "x"]},
        {"elements": 2, "leq": [[0]]},
        {"elements": 2, "leq": [[0, 1]], "gg": [[0]]},
        {"elements": 2, "leq": [[0, True]]},
        {"elements": 2, "leq": [[0, 1]], "gg": [[0, 1, 1]]},
    ],
)
def test_malformed_lattice_document_is_refused(doc):
    with pytest.raises(MalformedLattice):
        lattice_from_dict(doc)


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
