"""Paired benchmark runs of two revisions, written to a checked-in file.

Usage (from the root of a checkout):

    python3 tools/bench_pairs.py REV_A REV_B --workload verify-n5 --seed 1 --pairs 10

Each revision (anything ``git archive`` accepts: a commit, a tag, a tree)
is unpacked into its own temporary directory. Then each pair runs that
revision's own benchmark command from BENCHMARK.json once for each side,
one run at a time, with the run length BENCHMARK.json sets; the side that
runs first alternates from pair to pair. The end-to-end metrics of every
run go to BENCH_<workload>.json in the current directory, with each side's
median and quartiles per metric and the number of pairs in which REV_B
reads better, worse or the same. The script changes nothing in either
revision's benchmark.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("a", "b")


def unpack(rev: str, into: Path) -> str:
    """Extract ``git archive rev`` into ``into``; return the full object id of ``rev``."""
    object_id = subprocess.run(
        ["git", "rev-parse", "--verify", rev], check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", object_id], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return object_id


def run_once(root: Path, command: list[str]) -> dict:
    """One benchmark run in the checkout ``root``: the result its last line prints."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"benchmark failed in {root} with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, and the
    pairs in which side b reads better, worse or the same as side a."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        gaps = [sign * (a - b) for a, b in zip(values["a"], values["b"])]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: spread(values[side]) for side in SIDES},
            "b_wins": sum(gap > 0 for gap in gaps),
            "b_losses": sum(gap < 0 for gap in gaps),
            "ties": sum(gap == 0 for gap in gaps),
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("--pairs must be at least 2, for quartiles")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        roots = {side: Path(scratch) / side for side in SIDES}
        ids = {side: unpack(rev, roots[side]) for side, rev in zip(SIDES, (args.rev_a, args.rev_b))}
        spec = json.loads((roots["a"] / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            sys.exit(f"unknown workload {args.workload!r}")
        options = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(spec["run_seconds"])]
        commands = {
            side: json.loads((roots[side] / "BENCHMARK.json").read_text())["command"] + options for side in SIDES
        }
        runs = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run = {"pair": pair, "first": order[0]}
            for side in order:
                run[side] = run_once(roots[side], commands[side])
                print(f"pair {pair} {side}: {json.dumps(run[side]['metrics'])}", file=sys.stderr)
            runs.append(run)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "command": commands["a"],
        "revisions": {side: {"rev": rev, "id": ids[side]} for side, rev in zip(SIDES, (args.rev_a, args.rev_b))},
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()},
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    out = Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
