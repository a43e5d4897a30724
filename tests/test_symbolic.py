"""Finite/cofinite symbolic set algebra and the cofinite-topology operators."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regopen.cofinite import (
    COFINITE,
    EMPTY,
    FINITE,
    FULL,
    SymbolicSet,
    closure,
    cofinite,
    complement,
    finite,
    interior,
    intersect,
    is_dense,
    is_open,
    is_regular_open,
    is_subset,
    regular_opens,
    regularize,
    union,
)

from oracles import intersect_oracle, symbolic_identities_oracle


def test_algebra_examples():
    assert intersect(cofinite({1, 2}), cofinite({2, 3})) == cofinite({1, 2, 3})
    assert union(finite({1}), cofinite({1})) == FULL
    assert complement(EMPTY) == FULL
    assert union(finite({1, 2}), finite({3})) == finite({1, 2, 3})
    assert intersect(finite({1, 2}), cofinite({2})) == finite({1})


def test_intersect_matches_de_morgan_on_small_supports():
    # every finite and cofinite set with support inside range(4): 32 sets, 1024 pairs
    supports = [frozenset(c) for r in range(5) for c in itertools.combinations(range(4), r)]
    sets = [SymbolicSet(kind, s) for kind in (FINITE, COFINITE) for s in supports]
    assert len(sets) == 32
    for a in sets:
        for b in sets:
            assert intersect(a, b) == intersect_oracle(a, b)


def test_identities_hold_on_every_triple_of_small_supports():
    # every finite and cofinite set with support inside range(3): 16 sets, 4096 triples
    supports = [frozenset(c) for r in range(4) for c in itertools.combinations(range(3), r)]
    sets = [SymbolicSet(kind, s) for kind in (FINITE, COFINITE) for s in supports]
    assert len(sets) == 16
    for a, b, c in itertools.product(sets, repeat=3):
        assert symbolic_identities_oracle(a, b, c) is None, (a, b, c)


def test_interior_closure_examples():
    assert closure(cofinite({1, 2})) == FULL  # every nonempty open is dense
    assert interior(finite({5})) == EMPTY
    assert closure(finite({1, 2})) == finite({1, 2})
    assert interior(cofinite({4})) == cofinite({4})


def test_density_of_nonempty_opens():
    for a in (FULL, cofinite({0}), cofinite({1, 2, 3})):
        assert is_open(a) and is_dense(a)
    assert not is_dense(finite({0, 1}))


def test_regular_opens_two_element_family():
    family, traces = regular_opens()
    assert set(family) == {EMPTY, FULL}
    for tr in traces:
        if tr.queried not in (EMPTY, FULL):
            assert tr.regularization == FULL and not tr.regular
        else:
            assert tr.regular


def test_queried_regularization():
    assert regularize(cofinite({1, 2})) == FULL
    assert not is_regular_open(cofinite({1, 2}))
    assert is_regular_open(FULL) and is_regular_open(EMPTY)


def test_subset_table():
    # the four cases of the symbolic inclusion test
    assert is_subset(finite({1}), finite({1, 2}))
    assert not is_subset(finite({1, 3}), finite({1, 2}))
    assert is_subset(finite({1}), cofinite({2}))
    assert not is_subset(finite({2}), cofinite({2}))
    assert not is_subset(cofinite({1}), finite({1, 2, 3}))
    assert is_subset(cofinite({1, 2}), cofinite({1}))
    assert not is_subset(cofinite({1}), cofinite({1, 2}))


def test_json_round_trip():
    for a in (EMPTY, FULL, finite({3, 1}), cofinite({0, 7})):
        d = a.to_dict()
        assert SymbolicSet(d["kind"], d["support"]) == a
    assert finite({2, 1}).to_dict() == {"kind": "finite", "support": [1, 2]}


def test_kind_validation():
    with pytest.raises(ValueError):
        SymbolicSet("open", frozenset())
    with pytest.raises(ValueError):
        SymbolicSet(FINITE, frozenset({-1}))
    with pytest.raises(ValueError):
        SymbolicSet(COFINITE, [3, -2])
    assert SymbolicSet(FINITE, [2, 0]).support == frozenset({0, 2})


def test_public_constructors_refuse_bad_sets():
    bad = [
        ("open", frozenset()),  # no such kind
        (FINITE, 5),  # not a set of labels
        (FINITE, frozenset({"a"})),
        (COFINITE, frozenset({1.5})),
        (COFINITE, frozenset({0, -3})),  # negative label
    ]
    for kind, support in bad:
        with pytest.raises(ValueError):
            SymbolicSet(kind, support)


symbolic_sets = st.builds(
    SymbolicSet,
    st.sampled_from([FINITE, COFINITE]),
    st.frozensets(st.integers(min_value=0, max_value=9), max_size=5),
)


@given(symbolic_sets, symbolic_sets, symbolic_sets)
def test_boolean_identities(a, b, c):
    assert union(a, b) == union(b, a)
    assert intersect(a, b) == intersect(b, a)
    assert union(union(a, b), c) == union(a, union(b, c))
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))
    assert complement(complement(a)) == a
    assert complement(union(a, b)) == intersect(complement(a), complement(b))
    assert complement(intersect(a, b)) == union(complement(a), complement(b))
    assert union(a, intersect(a, b)) == a
    assert intersect(a, union(b, c)) == union(intersect(a, b), intersect(a, c))


@given(symbolic_sets, symbolic_sets)
def test_operation_results_pass_the_public_checks(a, b):
    for r in (union(a, b), intersect(a, b), complement(a), interior(a), closure(a)):
        assert type(r.support) is frozenset
        assert SymbolicSet(r.kind, r.support) == r


@given(symbolic_sets)
def test_interior_closure_duality(a):
    assert interior(a) == complement(closure(complement(a)))
    assert is_subset(interior(a), a) and is_subset(a, closure(a))
    assert regularize(regularize(a)) == regularize(a)


@given(symbolic_sets, symbolic_sets)
def test_subset_agrees_with_operations(a, b):
    # a <= b iff a | b == b iff a & b == a
    assert is_subset(a, b) == (union(a, b) == b) == (intersect(a, b) == a)
