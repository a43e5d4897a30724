"""Enumeration fidelity: the one-point extension generator against the
brute-force and preorder oracles, canonical classes, dense subsets, and the
size guards."""

import hashlib
import itertools
from math import factorial

import pytest

from regopen import (
    EnumerationSpec,
    Topology,
    canonical_classes,
    canonical_open_masks,
    discrete,
    enumerate_dense_subsets,
    enumerate_topologies,
    indiscrete,
    sierpinski,
)
from regopen import enumeration
from regopen.cli import main as cli_main
from regopen.enumeration import dense_masks
from regopen.errors import BadEnumerationSpec, SizeGuardExceeded
from regopen.topology import permute_mask, set_of

from oracles import (
    brute_force_topologies,
    canonical_open_masks_oracle,
    dense_masks_oracle,
    dense_oracle,
    preorder_topologies,
)

LABELED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}
CLASS_COUNTS = {1: 1, 2: 3, 3: 9, 4: 33}

# sha256 of `regopen enumerate --n N --mode M --json`, per (N, M); n = 5 and 6
# run with --allow-n5.
ENUMERATE_SHA256 = {
    (4, "all"): "562aebf6f22554f87834b221a8ce8dce2c85eaa5cc88927fa785ee11ef4235c6",
    (4, "up-to-homeomorphism"): "eb644d1adc159d1c4e96518ac815a5dd42f3f1be1234cf1fc95fffc4476a1060",
    (5, "up-to-homeomorphism"): "c7605b45c8bfcb393fb63ab5d4a233ebaf4f285f7290c84c4fdce7a84c774bd3",
    (6, "up-to-homeomorphism"): "62046c4d2660555bdb3e4548b3b5baec754e16f369551e690c719b5a9ae0ac8d",
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labeled_counts_match_all_three_routes(n):
    main = list(enumerate_topologies(EnumerationSpec(n)))
    assert len(main) == LABELED_COUNTS[n]
    assert [t.open_masks for t in main] == [
        t.open_masks for t in brute_force_topologies(n)
    ]
    assert [t.open_masks for t in main] == [
        t.open_masks for t in preorder_topologies(n)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_counts(n):
    classes = list(enumerate_topologies(EnumerationSpec(n, mode="up-to-homeomorphism")))
    assert len(classes) == CLASS_COUNTS[n]
    # representatives are canonical, so distinct ones are not homeomorphic
    assert all(t.open_masks == canonical_open_masks_oracle(t) for t in classes)
    assert len({t.open_masks for t in classes}) == len(classes)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classes_are_the_distinct_canonical_forms_of_all_labeled_spaces(n):
    classes = [t.open_masks for t in enumerate_topologies(EnumerationSpec(n, mode="up-to-homeomorphism"))]
    labeled = {canonical_open_masks_oracle(t) for t in enumerate_topologies(EnumerationSpec(n))}
    assert classes == sorted(labeled, key=lambda f: (len(f), f))


def _automorphisms(t: Topology) -> int:
    return sum(
        tuple(sorted(permute_mask(m, perm) for m in t.open_masks)) == t.open_masks
        for perm in itertools.permutations(range(t.n))
    )


def test_n5_classes_are_canonical_and_their_orbits_cover_the_labeled_spaces():
    classes = list(enumerate_topologies(EnumerationSpec(5, mode="up-to-homeomorphism", allow_n5=True)))
    assert len(classes) == 139
    assert all(t.open_masks == canonical_open_masks_oracle(t) for t in classes)
    assert sum(factorial(5) // _automorphisms(t) for t in classes) == 6942


def test_class_mode_names_each_candidate_once(monkeypatch):
    # 736 candidates over the five growth steps, 605 of them on 5 points
    calls = []

    def counting_canonical(t):
        calls.append(t.n)
        return canonical_open_masks(t)

    monkeypatch.setattr(enumeration, "canonical_open_masks", counting_canonical)
    classes = list(enumerate_topologies(EnumerationSpec(5, mode="up-to-homeomorphism", allow_n5=True)))
    assert len(classes) == 139
    assert len(calls) == 736 and calls.count(5) == 605


def test_n5_labeled_families_are_distinct():
    families = {t.open_masks for t in enumerate_topologies(EnumerationSpec(5, allow_n5=True))}
    assert len(families) == 6942


def _enumerate_json_sha256(n, mode, tmp_path) -> str:
    out = tmp_path / "spaces.json"
    flags = ["--allow-n5"] if n >= 5 else []
    assert cli_main(["enumerate", "--n", str(n), "--mode", mode, *flags, "--json", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", ["all", "up-to-homeomorphism"])
def test_enumerate_n4_json_is_pinned(mode, tmp_path, capsys):
    assert _enumerate_json_sha256(4, mode, tmp_path) == ENUMERATE_SHA256[4, mode]


@pytest.mark.parametrize("n, classes", [(5, 139), (6, 718)])
def test_enumerate_classes_json_is_pinned(n, classes, tmp_path, capsys):
    digest = _enumerate_json_sha256(n, "up-to-homeomorphism", tmp_path)
    assert f"{classes} topologies on {n} points" in capsys.readouterr().out
    assert digest == ENUMERATE_SHA256[n, "up-to-homeomorphism"]


def test_n2_families_explicitly():
    fams = {t.open_masks for t in enumerate_topologies(EnumerationSpec(2))}
    assert fams == {
        (0b00, 0b11),
        (0b00, 0b01, 0b11),
        (0b00, 0b10, 0b11),
        (0b00, 0b01, 0b10, 0b11),
    }


def test_no_duplicates_and_all_validate():
    # the enumeration builds its spaces without validation; every family
    # with n <= 5, in either mode, is new and passes it, with the same opens
    # and least neighbourhoods
    for mode in enumeration.MODES:
        for n in (1, 2, 3, 4, 5):
            seen = set()
            for t in enumerate_topologies(EnumerationSpec(n, mode=mode, allow_n5=True)):
                assert t.open_masks not in seen
                seen.add(t.open_masks)
                checked = Topology(t.n, t.open_masks)
                assert (t.open_masks, t.min_nbhd_masks) == (checked.open_masks, checked.min_nbhd_masks)


def test_deterministic_order():
    a = [t.open_masks for t in enumerate_topologies(EnumerationSpec(3))]
    b = [t.open_masks for t in enumerate_topologies(EnumerationSpec(3))]
    assert a == b


def test_limit():
    assert len(list(enumerate_topologies(EnumerationSpec(3, limit=5)))) == 5


def test_guards():
    with pytest.raises(SizeGuardExceeded):
        EnumerationSpec(6)
    with pytest.raises(SizeGuardExceeded):
        EnumerationSpec(5)  # n = 5 needs the explicit flag
    EnumerationSpec(5, allow_n5=True)
    with pytest.raises(SizeGuardExceeded):
        canonical_classes(5)  # classes need the flag too, and canonical_classes never opts in
    with pytest.raises(SizeGuardExceeded):
        brute_force_topologies(5)
    with pytest.raises(SizeGuardExceeded):
        preorder_topologies(5)


def test_bad_mode_rejected():
    with pytest.raises(BadEnumerationSpec, match="mode must be one of"):
        EnumerationSpec(2, mode="classes")


@pytest.mark.parametrize("n", [0, -3])
def test_spec_without_points_rejected(n):
    with pytest.raises(BadEnumerationSpec, match="at least one point") as exc:
        EnumerationSpec(n)
    assert isinstance(exc.value, ValueError)


def test_dense_subsets_examples():
    assert enumerate_dense_subsets(discrete(2)) == [frozenset({0, 1})]
    assert enumerate_dense_subsets(sierpinski()) == [
        frozenset({0}),
        frozenset({0, 1}),
    ]
    assert set(enumerate_dense_subsets(indiscrete(2))) == {
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dense_subsets_match_oracle(n):
    from oracles import all_subsets

    for t in enumerate_topologies(EnumerationSpec(n)):
        expected = [y for y in all_subsets(n) if y and dense_oracle(t, y)]
        assert sorted(enumerate_dense_subsets(t), key=sorted) == sorted(
            expected, key=sorted
        )


def test_dense_masks_are_the_dense_subsets_as_masks():
    for n in (1, 2, 3, 4, 5):
        for t in enumerate_topologies(EnumerationSpec(n, allow_n5=True)):
            masks = dense_masks(t)
            assert masks == [t.to_mask(y) for y in enumerate_dense_subsets(t)]
            assert masks == [y for y in range(1, 1 << n) if dense_oracle(t, set_of(y))]


def test_dense_masks_from_a_closure_table_match_the_minimal_open_route():
    spaces = [t for n in range(1, 6) for t in enumerate_topologies(EnumerationSpec(n, allow_n5=True))]
    for t in spaces + [discrete(8), indiscrete(8)]:
        assert dense_masks(t) == dense_masks(t, t.closure_table()) == dense_masks_oracle(t)


def test_canonical_classes_ordering():
    reps = canonical_classes(3)
    assert [t.n for t in reps] == sorted(t.n for t in reps)
    assert len(reps) == 1 + 3 + 9
