"""Tests of the benchmark's own checkers and output checks.

Run with: python3 -m pytest perfbench

The expected answers for sierpinski, x3, discrete:3 and indiscrete:3 are
worked by hand in the comments. Each check is also fed a planted wrong
output and must report it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checkers
import workloads

HERE = Path(__file__).resolve().parent

# Opens as bitmasks: bit x set when point x is in the open set.
SIERPINSKI = (2, (0b00, 0b01, 0b11))
X3 = (3, (0b000, 0b001, 0b010, 0b011, 0b111))
DISCRETE3 = (3, tuple(range(8)))
INDISCRETE3 = (3, (0b000, 0b111))
HAND_SPACES = (SIERPINSKI, X3, DISCRETE3, INDISCRETE3)


# -- preorder enumerator ---------------------------------------------------------


def test_preorder_enumerator_counts_match_a000798():
    assert {n: len(checkers.preorder_spaces(n)) for n in range(1, 5)} == {
        n: checkers.LABELED_COUNTS[n] for n in range(1, 5)
    }


def test_preorder_enumerator_on_two_points():
    # Preorders on {0, 1}: none, 0 <= 1, 1 <= 0, both. Their up-sets give the
    # indiscrete space, the two Sierpinski spaces and the discrete space.
    assert checkers.preorder_spaces(2) == sorted(
        [(0, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]
    )


@pytest.mark.parametrize("space", HAND_SPACES)
def test_preorder_enumerator_contains_hand_spaces(space):
    n, opens = space
    assert checkers.is_topology(n, opens)
    assert opens in checkers.preorder_spaces(n)


def test_planted_non_topology_is_refused():
    # {0} and {1} open but not their union {0, 1}.
    planted = (0b000, 0b001, 0b010, 0b111)
    assert not checkers.is_topology(3, planted)
    assert planted not in checkers.preorder_spaces(3)


# -- regular opens and well-inside pairs from minimal neighbourhoods -------------

# Sierpinski: U_0 = {0}, U_1 = {0,1}; cl{0} = {0,1}, so only {} and X are
# regular. x3: U_0 = {0}, U_1 = {1}, U_2 = X; cl{0} = {0,2} has interior {0},
# cl{0,1} = X, so {0,1} is not regular. Discrete: every subset. Indiscrete:
# only {} and X.
REGULAR = {
    SIERPINSKI: [0b00, 0b11],
    X3: [0b000, 0b001, 0b010, 0b111],
    DISCRETE3: list(range(8)),
    INDISCRETE3: [0b000, 0b111],
}
ATOMS = {SIERPINSKI: 1, X3: 2, DISCRETE3: 3, INDISCRETE3: 1}
# (f, g) with cl(element g) inside element f. In x3 the closures of
# {}, {0}, {1}, X are {}, {0,2}, {1,2}, X: g = {} goes under everything and
# the rest only under X. In the discrete space closure is the identity, so
# the pairs are g inside f: 3^3 of them.
WELL_INSIDE = {
    SIERPINSKI: {(0, 0), (1, 0), (1, 1)},
    X3: {(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3)},
    DISCRETE3: {(f, g) for f in range(8) for g in range(8) if g & ~f == 0},
    INDISCRETE3: {(0, 0), (1, 0), (1, 1)},
}


@pytest.mark.parametrize("space", HAND_SPACES)
def test_regular_opens_atoms_and_well_inside(space):
    n, opens = space
    regs = checkers.regular_opens(n, opens)
    assert regs == REGULAR[space]
    assert checkers.atom_count(regs) == ATOMS[space]
    assert len(regs) == 1 << ATOMS[space]
    assert checkers.well_inside_pairs(n, opens, regs) == WELL_INSIDE[space]


def test_dense_subsets_of_x3():
    # Dense means meeting both open points 0 and 1.
    assert checkers.dense_subsets(*X3) == [0b011, 0b111]


def lattice_outputs(spaces):
    """What a correct program reports for each space, from the hand answers."""
    return {
        "spaces": [
            {
                "elements": list(REGULAR[s]),
                "r_lattice_passed": True,
                "well_inside": [list(pair) for pair in sorted(WELL_INSIDE[s])],
                "stone_points": ATOMS[s],
            }
            for s in spaces
        ]
    }


def lattice_check():
    spaces = [X3, DISCRETE3, INDISCRETE3]
    inputs = {"n": 3, "spaces": [list(opens) for _, opens in spaces]}
    return workloads.Check("lattices-n7", inputs), spaces


def test_lattice_check_accepts_correct_outputs():
    check, spaces = lattice_check()
    assert check.check(lattice_outputs(spaces)) == (3, 0, [])


@pytest.mark.parametrize(
    "plant, message",
    [
        (lambda out: out["elements"].remove(0b011), "not the regular opens"),
        (lambda out: out["elements"].append(0b011), "not the regular opens"),
        (lambda out: out.update(stone_points=2), "Stone space"),
        (lambda out: out.update(r_lattice_passed=False), "check_r_lattice"),
        (lambda out: out["well_inside"].remove([7, 7]), "well_inside"),
    ],
)
def test_lattice_check_reports_planted_errors(plant, message):
    check, spaces = lattice_check()
    outputs = lattice_outputs(spaces)
    plant(outputs["spaces"][1])  # the discrete space
    attempted, failed, problems = check.check(outputs)
    assert (attempted, failed) == (3, 0)
    assert any(message in p for p in problems), problems


def test_lattice_check_counts_failed_operations():
    check, spaces = lattice_check()
    outputs = lattice_outputs(spaces)
    outputs["spaces"][0] = {"error": "NotBoolean: planted"}
    assert check.check(outputs) == (3, 1, [])


# -- automorphisms and orbits by permutation scan --------------------------------

# Sierpinski: swapping the points moves {0} to {1}, so only the identity.
# x3: swapping 0 and 1 keeps the family. Discrete and indiscrete: all 3!.
AUTOMORPHISMS = {SIERPINSKI: 1, X3: 2, DISCRETE3: 6, INDISCRETE3: 6}


@pytest.mark.parametrize("space", HAND_SPACES)
def test_automorphism_count(space):
    assert checkers.automorphism_count(*space) == AUTOMORPHISMS[space]


def test_orbits_of_three_point_classes_cover_a000798():
    reps = sorted({checkers.canonical_form(3, f) for f in checkers.preorder_spaces(3)})
    assert len(reps) == checkers.CLASS_COUNTS[3]
    assert checkers.orbit_total(3, reps) == checkers.LABELED_COUNTS[3]
    assert checkers.canonical_form(*X3) in reps


def classes_check(tmp_path, families):
    path = tmp_path / "classes.json"
    reps = [{"n": 3, "opens": [[p for p in range(3) if o >> p & 1] for o in f]} for f in families]
    path.write_text(json.dumps(reps))
    inputs = {"argv": ["enumerate", "--n", "3", "--mode", "up-to-homeomorphism", "--json", str(path)]}
    return workloads.Check("classes-n5", inputs).check({"exit_code": 0, "stdout": ""})


def test_classes_check_accepts_correct_outputs(tmp_path):
    reps = sorted({checkers.canonical_form(3, f) for f in checkers.preorder_spaces(3)})
    assert classes_check(tmp_path, reps) == (1, 0, [])


def test_classes_check_reports_a_homeomorphic_pair(tmp_path):
    reps = sorted({checkers.canonical_form(3, f) for f in checkers.preorder_spaces(3)})
    # Swap in the mirror image of x3 (point 2 open, 0 and 1 not): a relabeled
    # copy of a representative is a second member of the same class.
    x3_index = reps.index(checkers.canonical_form(*X3))
    planted = list(reps)
    planted[(x3_index + 1) % len(reps)] = (0b000, 0b001, 0b100, 0b101, 0b111)
    _, _, problems = classes_check(tmp_path, planted)
    assert any("homeomorphic" in p for p in problems), problems


def test_classes_check_reports_a_missing_class(tmp_path):
    reps = sorted({checkers.canonical_form(3, f) for f in checkers.preorder_spaces(3)})
    reps.remove(checkers.canonical_form(*X3))
    _, _, problems = classes_check(tmp_path, reps)
    assert any("8 representatives" in p for p in problems), problems
    assert any("orbits cover 26" in p for p in problems), problems


# -- verify-n5 -------------------------------------------------------------------------


def verify_outputs(tmp_path, counts, failing=()):
    report = [
        {"suite": name, "instances": count, "failures": ["planted"] if name in failing else [],
         "passed": name not in failing}
        for name, count in sorted(counts.items())
    ]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    stdout = "".join(f"{name}: pass [{count} instances, 0.01s]\n" for name, count in sorted(counts.items()))
    inputs = {"argv": ["verify", "--suite", "all", "--n", "5", "--json", str(path)]}
    return inputs, {"exit_code": 0, "stdout": stdout}


@pytest.fixture(scope="module")
def verify_check():
    return workloads.Check("verify-n5", {"argv": []})


def test_verify_counts_from_preorders(verify_check):
    assert verify_check.labeled == checkers.LABELED_COUNTS
    # Hand count at n = 1: one space, one dense subset, two opens, two
    # subsets, regular opens {} and X with X not inside {} once.
    assert checkers.verify_instance_counts(1) == {
        "ux0": 1, "denso": 2, "uvw": 1, "regularity": 2,
        "boolean": 1, "rlattice": 1, "stone": 1 + 5,
    }


def all_suite_counts(verify_check):
    # The four suites without an independent count report any positive number.
    return dict(dict.fromkeys(workloads.SUITE_NAMES, 3), **verify_check.instances)


def test_verify_check_accepts_correct_outputs(tmp_path, verify_check):
    inputs, outputs = verify_outputs(tmp_path, all_suite_counts(verify_check))
    verify_check.inputs = inputs
    assert verify_check.check(outputs) == (11, 0, [])


def test_verify_check_reports_planted_errors(tmp_path, verify_check):
    counts = all_suite_counts(verify_check)
    counts["ux0"] -= 1
    counts["ideals"] = 0
    inputs, outputs = verify_outputs(tmp_path, counts)
    outputs["stdout"] = outputs["stdout"].replace("stone: pass", "stone: FAIL (1 failures)")
    verify_check.inputs = inputs
    _, failed, problems = verify_check.check(outputs)
    assert failed == 0
    assert any("ux0" in p for p in problems), problems
    assert any("stone" in p for p in problems), problems
    assert any("ideals checked no instance" in p for p in problems), problems


def test_verify_check_counts_missing_and_failing_suites(tmp_path, verify_check):
    counts = all_suite_counts(verify_check)
    del counts["metric"]
    inputs, outputs = verify_outputs(tmp_path, counts, failing={"recovery"})
    verify_check.inputs = inputs
    attempted, failed, problems = verify_check.check(outputs)
    assert (attempted, failed) == (11, 2)
    assert any("suite metric did not pass" in p for p in problems), problems
    assert any("suite recovery did not pass" in p for p in problems), problems
    assert any("suites reported" in p for p in problems), problems


# -- the lattices-n7 sample ----------------------------------------------------------


def test_lattice_sample_is_stratified_and_fixed_by_seed():
    sample = workloads.lattice_sample(3)
    assert sample == workloads.lattice_sample(3)
    assert sample != workloads.lattice_sample(4)
    assert len(set(sample)) == len(sample) == 57
    assert all(checkers.is_topology(7, s) for s in sample)
    for low, high, quotas in workloads.STRATA:
        band = [s for s in sample if low <= len(s) <= high]
        sizes = [len(checkers.regular_opens(7, s)) for s in band]
        assert {m: sizes.count(m) for m in set(sizes)} == quotas


# -- the traced round ------------------------------------------------------------------


def run_round(tmp_path, trace):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({"n": 3, "spaces": [list(X3[1]), list(DISCRETE3[1])]}))
    job = tmp_path / "job.json"
    result = tmp_path / "result.json"
    job.write_text(json.dumps({
        "workload": "lattices-n7", "inputs": str(inputs), "result": str(result),
        "run": True, "trace": trace,
    }))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job)], check=True, timeout=120)
    return json.loads(result.read_text())


def test_traced_rounds_repeat_their_counts(tmp_path):
    first = run_round(tmp_path, True)["layers"]
    second = run_round(tmp_path, True)["layers"]
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second.items() if not k.endswith("_s")}
    assert first["lattice.builds"] == first["stone.calls"] == 2
    assert first["lattice.builds_per_space"] == 1.0
    # The two inputs, then one discrete Stone space per lattice.
    assert first["topology.init_calls"] == 4


def test_untraced_round_reports_probe_scaled_times(tmp_path):
    record = run_round(tmp_path, False)
    assert "layers" not in record
    assert record["wall_s"] > 0 and record["setup_s"] > 0
    assert record["outputs"] == lattice_outputs([X3, DISCRETE3])
