"""Benchmark for regopen: one command, three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-n5 --seed 1 --seconds 10 --trace 0

Each round is a fresh single-threaded interpreter (worker.py) that receives
only the generated inputs. Rounds repeat until their measured time reaches
--seconds; every round's outputs are checked outside the timed region. With
--trace 0 the last line of output reports the end-to-end metrics of
BENCHMARK.json: medians over the rounds of wall_s and peak_rss_mb, and the
median setup_s over the rounds and SETUP_REPEATS set-up-only interpreters.
With --trace 1 one traced round gives the per-layer metrics instead, and
the trace is also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 20
# Every worker must end before the run's 180-second limit.
DEADLINE_S = 170
RESULTS = HERE / "results"


def run_worker(job: dict, workdir: Path, started: float, fill_cache: bool = False) -> tuple[dict, float]:
    """Run one worker to completion; return its record and its elapsed time."""
    job_path = workdir / "job.json"
    job["result"] = str(workdir / "result.json")
    job_path.write_text(json.dumps(job))
    # Bytecode comes only from the run's own cache, never from the checkout's
    # or the system's, so whether those hold one cannot move setup_s. Only the
    # warm-up writes to it: a module first imported by a measured round would
    # otherwise be compiled in the first round only, which then reads higher
    # in time and memory than the rest.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
    if fill_cache:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, DEADLINE_S - (begin - started)),
    )
    elapsed = time.perf_counter() - begin
    if proc.returncode != 0:
        sys.exit(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(Path(job["result"]).read_text()), elapsed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "regopen" / "__init__.py").is_file():
        sys.exit(f"regopen sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, workdir)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        checker = workloads.Check(args.workload, inputs)
        job = {"workload": args.workload, "inputs": str(inputs_path), "run": True}
        # One untimed set-up fills the run's bytecode cache, so no measured
        # round compiles what set-up imports.
        run_worker(dict(job, run=False, trace=False), workdir, started, fill_cache=True)

        rounds, attempted, failed, problems = [], 0, 0, []
        measured = 0.0
        while not rounds or (not args.trace and measured < args.seconds):
            record, elapsed = run_worker(dict(job, trace=bool(args.trace)), workdir, started)
            measured += elapsed
            ops, bad, found = checker.check(record.pop("outputs"))
            attempted += ops
            failed += bad
            problems += found
            rounds.append(record)

        setups = [r["setup_s"] for r in rounds]
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                record, _ = run_worker(dict(job, run=False, trace=False), workdir, started)
                setups.append(record["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = rounds[0]["layers"]
        values = {name: layers.get(name, 0) for name in units}
        # Tracing's cost, against the last untraced run of the same inputs
        # in this checkout, if there was one. Both times are raw.
        untraced = RESULTS / f"{stem}.json"
        untraced_wall = json.loads(untraced.read_text())["raw_wall_s"] if untraced.is_file() else None
        traced_wall = rounds[0]["raw_wall_s"]
        trace = {
            "workload": args.workload,
            "seed": args.seed,
            "traced_raw_wall_s": traced_wall,
            "untraced_raw_wall_s": untraced_wall,
            "tracing_slowdown": traced_wall / untraced_wall if untraced_wall else None,
            "untraced_self_s": layers.get("untraced_s", 0.0),
            "layers": values,
        }
        (RESULTS / f"{stem}-trace.json").write_text(json.dumps(trace, indent=1) + "\n")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "setup_s": statistics.median(setups),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if not args.trace:
        raw_wall = statistics.median(r["raw_wall_s"] for r in rounds)
        detail = dict(result, raw_wall_s=raw_wall, rounds=rounds, setups=setups)
        (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
