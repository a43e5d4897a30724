"""The benchmark's workloads: their generated inputs and their output checks.

Each check compares regopen's outputs with ``checkers``, which computes the
same facts by other routes, or with properties the answer must have. None
compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import checkers

WORKLOADS = ("verify-n5", "classes-n5", "lattices-n7")

# The suites `regopen verify --suite all` must run.
SUITE_NAMES = (
    "boolean", "cofinite", "denso", "ideals", "metric", "recovery",
    "regularity", "rlattice", "stone", "uvw", "ux0",
)

N7 = 7

# Strata of the lattices-n7 sample: (fewest opens, most opens, {m: spaces}),
# where m is a space's number of regular opens. The cost of a space grows
# about as m cubed, so a plain random sample costs whatever its few
# near-discrete draws cost. Open count alone leaves m free (half the spaces
# with 80-95 opens have m = 64, half m = 32), so each open-count band also
# fixes how many spaces of each m it takes, and every seed draws the same
# mix of costs. 128 opens is only the discrete space; 96 opens (one related
# pair) is the next largest count a 7-point space can have.
STRATA = (
    (128, 128, {128: 1}),
    (96, 127, {64: 4}),
    (80, 95, {32: 2, 64: 2}),
    (64, 79, {32: 6}),
    (48, 63, {16: 5, 32: 3}),
    (32, 47, {8: 4, 16: 5, 32: 1}),
    (16, 31, {4: 4, 8: 6, 16: 2}),
    (2, 15, {2: 8, 4: 3, 8: 1}),
)
MAX_RANDOM_PAIRS = 20


def lattice_sample(seed: int) -> list[tuple[int, ...]]:
    """Distinct 7-point spaces from random preorders, stratified as in STRATA.

    Each draw relates a random number of random point pairs, closes the
    relation transitively and takes its up-sets as the opens. A draw is kept
    if its cell still has room, so the sample is fixed by ``seed``.
    """
    rng = random.Random(seed)
    room = {(low, high, m): count for low, high, quotas in STRATA for m, count in quotas.items()}
    chosen: dict[tuple, list[tuple[int, ...]]] = {cell: [] for cell in room}
    seen = set()
    while any(room.values()):
        up = [1 << i for i in range(N7)]
        for _ in range(rng.randint(0, MAX_RANDOM_PAIRS)):
            i, j = rng.sample(range(N7), 2)
            up[i] |= 1 << j
        opens = checkers.upsets(checkers.transitive_closure(up))
        if opens in seen:
            continue
        m = len(checkers.regular_opens(N7, opens))
        for low, high, cell_m in room:
            if low <= len(opens) <= high and cell_m == m and room[low, high, cell_m]:
                room[low, high, cell_m] -= 1
                chosen[low, high, cell_m].append(opens)
                seen.add(opens)
    return [opens for spaces in chosen.values() for opens in spaces]


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    if workload == "verify-n5":
        argv = ["verify", "--suite", "all", "--n", "5", "--allow-n5", "--seed", str(seed)]
        return {"argv": argv + ["--json", str(workdir / "report.json")]}
    if workload == "classes-n5":
        argv = ["enumerate", "--n", "5", "--mode", "up-to-homeomorphism", "--allow-n5"]
        return {"argv": argv + ["--json", str(workdir / "classes.json")]}
    return {"n": N7, "spaces": lattice_sample(seed)}


class Check:
    """Checks rounds' outputs of one workload against reference answers.

    The references are computed once per run, outside every timed region.
    ``check`` returns (operations attempted, operations failed, problems).
    """

    def __init__(self, workload: str, inputs: dict):
        self.workload = workload
        self.inputs = inputs
        if workload == "verify-n5":
            self.labeled = {n: len(checkers.preorder_spaces(n)) for n in range(1, 6)}
            self.instances = checkers.verify_instance_counts(5)
        elif workload == "lattices-n7":
            n = inputs["n"]
            self.regular = [checkers.regular_opens(n, opens) for opens in inputs["spaces"]]

    def check(self, outputs: dict) -> tuple[int, int, list[str]]:
        if self.workload == "verify-n5":
            return self._verify(outputs)
        if self.workload == "classes-n5":
            return self._classes(outputs)
        return self._lattices(outputs)

    def _verify(self, outputs: dict) -> tuple[int, int, list[str]]:
        """One operation per suite; a suite that is missing or did not pass failed."""
        problems = []
        if outputs["exit_code"] != 0:
            problems.append(f"exit code {outputs['exit_code']}")
        if self.labeled != checkers.LABELED_COUNTS:
            problems.append(f"preorder enumeration gives {self.labeled}, not A000798")
        lines = outputs["stdout"].splitlines()
        for line in lines:
            if not re.fullmatch(r"[a-z0-9]+: pass \[\d+ instances, [0-9.]+s\]", line):
                problems.append(f"suite line is not a pass: {line!r}")
        report = json.loads(Path(self.inputs["argv"][-1]).read_text())
        by_name = {r["suite"]: r for r in report}
        if sorted(r["suite"] for r in report) != sorted(SUITE_NAMES):
            problems.append(f"suites reported: {sorted(by_name)}, expected {sorted(SUITE_NAMES)}")
        failed = 0
        for name in SUITE_NAMES:
            r = by_name.get(name)
            if r is None or not r["passed"] or r["failures"]:
                failed += 1
                problems.append(f"suite {name} did not pass")
            elif r["instances"] < 1:
                problems.append(f"suite {name} checked no instance")
        for name, count in self.instances.items():
            got = by_name.get(name, {}).get("instances")
            if got != count:
                problems.append(f"suite {name}: {got} instances, expected {count}")
        if len(lines) != len(report):
            problems.append(f"{len(lines)} suite lines for {len(report)} reports")
        return len(SUITE_NAMES), failed, problems

    def _classes(self, outputs: dict) -> tuple[int, int, list[str]]:
        problems = []
        if outputs["exit_code"] != 0:
            problems.append(f"exit code {outputs['exit_code']}")
        argv = self.inputs["argv"]
        n = int(argv[argv.index("--n") + 1])
        reps = json.loads(Path(argv[-1]).read_text())
        families = []
        for rep in reps:
            fam = tuple(sorted(sum(1 << p for p in o) for o in rep["opens"]))
            if rep["n"] != n or not checkers.is_topology(n, fam):
                problems.append(f"not a topology on {n} points: {rep}")
                continue
            families.append(fam)
        if len(reps) != checkers.CLASS_COUNTS[n]:
            problems.append(f"{len(reps)} representatives, expected {checkers.CLASS_COUNTS[n]}")
        if len({checkers.canonical_form(n, fam) for fam in families}) != len(families):
            problems.append("two representatives are homeomorphic")
        total = checkers.orbit_total(n, families)
        if total != checkers.LABELED_COUNTS[n]:
            problems.append(f"orbits cover {total} labeled spaces, expected {checkers.LABELED_COUNTS[n]}")
        return 1, 0, problems

    def _lattices(self, outputs: dict) -> tuple[int, int, list[str]]:
        problems = []
        failed = 0
        n = self.inputs["n"]
        for k, (opens, regular, out) in enumerate(
            zip(self.inputs["spaces"], self.regular, outputs["spaces"])
        ):
            if "error" in out:
                failed += 1
                continue
            elements = out["elements"]
            atoms = checkers.atom_count(regular)
            if sorted(elements) != regular:
                problems.append(f"space {k}: lattice elements are not the regular opens")
            if len(elements) != 1 << atoms:
                problems.append(f"space {k}: m = {len(elements)} with {atoms} atoms")
            if out["stone_points"] != atoms:
                problems.append(f"space {k}: Stone space has {out['stone_points']} points, {atoms} atoms")
            if not out["r_lattice_passed"]:
                problems.append(f"space {k}: check_r_lattice with ge_relation failed")
            if {tuple(p) for p in out["well_inside"]} != checkers.well_inside_pairs(n, opens, elements):
                problems.append(f"space {k}: well_inside pairs differ")
        if len(outputs["spaces"]) != len(self.inputs["spaces"]):
            problems.append("not every space was processed")
        return len(self.inputs["spaces"]), failed, problems
