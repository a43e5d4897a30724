"""Ideal/ultrafilter enumeration on powersets and the open-ideal bijection."""

import itertools

import pytest

from regopen import ideal_open_correspondence, ideals, maximal_ideals, ultrafilters
from regopen.errors import SizeGuardExceeded
from regopen.ideals import IdealFamily

from oracles import all_subsets


def brute_force_ideals(n: int) -> set[frozenset]:
    """Literal filter over every family of subsets containing the empty set."""
    middle = [s for s in all_subsets(n) if s]
    found = set()
    for picks in range(1 << len(middle)):
        fam = {frozenset()} | {s for i, s in enumerate(middle) if picks >> i & 1}
        if all(a | b in fam for a in fam for b in fam) and all(
            frozenset(sub) in fam
            for a in fam
            for r in range(len(a) + 1)
            for sub in itertools.combinations(sorted(a), r)
        ):
            found.add(frozenset(fam))
    return found


def test_n1_counts():
    assert len(ideals(1)) == 2
    assert len(maximal_ideals(1)) == 1
    assert len(ultrafilters(1)) == 1


def test_n2_maximal_ideals_are_point_complements():
    maxima = {i.maximum for i in maximal_ideals(2)}
    assert maxima == {frozenset({0}), frozenset({1})}
    for ideal in maximal_ideals(2):
        assert ideal.proper


def test_ultrafilters_principal():
    for n in range(1, 6):
        ufs = ultrafilters(n)
        assert len(ufs) == n
        for uf in ufs:
            # principal: exactly the sets through the point
            assert all(uf.point in a for a in uf.members)
            assert frozenset({uf.point}) in uf.members


@pytest.mark.parametrize("n", [1, 2, 3])
def test_construction_matches_brute_force(n):
    assert {i.members for i in ideals(n)} == brute_force_ideals(n)


def test_maximal_ideals_are_maximal():
    proper = [i for i in ideals(3) if i.proper]
    maxima = {i.members for i in maximal_ideals(3)}
    for ideal in proper:
        is_max = not any(ideal.members < other.members for other in proper)
        assert (ideal.members in maxima) == is_max


def test_ideal_family_validation():
    with pytest.raises(ValueError):
        IdealFamily(2, frozenset({frozenset({0})}))  # not downward closed
    with pytest.raises(ValueError):
        IdealFamily(
            2, frozenset({frozenset(), frozenset({0}), frozenset({1})})
        )  # not union closed


def test_size_guard():
    with pytest.raises(SizeGuardExceeded):
        ideals(6)
    with pytest.raises(SizeGuardExceeded):
        ultrafilters(6)


# -- the correspondence ---------------------------------------------------------


def test_correspondence_n2_examples():
    pairs = dict(ideal_open_correspondence(2).pairs)
    assert pairs[frozenset({0})].members == frozenset({frozenset(), frozenset({0})})
    assert pairs[frozenset()].members == frozenset({frozenset()})
    # maximal ideal down({0}) pairs with the maximal proper open {0}
    down_0 = IdealFamily.principal(2, frozenset({0})).members
    assert [w for w, ideal in pairs.items() if ideal.members == down_0] == [frozenset({0})]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_correspondence_preserves_inclusion_both_ways(n):
    corr = ideal_open_correspondence(n)
    assert len(corr.pairs) == 1 << n
    for (w, iw), (v, iv) in itertools.product(corr.pairs, repeat=2):
        assert (w <= v) == (iw.members <= iv.members)
        assert (w < v) == (iw.members < iv.members)


def test_correspondence_inverse_is_union():
    for w, ideal in ideal_open_correspondence(3).pairs:
        assert frozenset().union(*ideal.members) == w
