"""One measured round of a workload, in a fresh interpreter.

Usage: python3 worker.py JOB.json

The job file names the workload, its generated inputs, where to write the
outputs, and whether this round only sets up or also runs (and whether it is
traced). Timing starts before ``import regopen``; interpreter start-up is
left out. The outputs are written after the timed region, and the checks run
in the parent, so neither is timed nor counted in this process's memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

clock = time.perf_counter

# On a shared virtual machine the CPU's speed can drift by up to 1.6x over
# seconds to minutes (measured on a 2-CPU VM), and CPU time drifts with it.
# So every timed region is also sampled by a fixed probe loop (pure
# interpreter work, no allocation, no regopen code) every PROBE_PERIOD_S, and
# times are reported at reference speed: the region's time less the probes'
# own time, scaled by REFERENCE_PROBE_S / (probe time).
PROBE_LOOPS = 2000
PROBE_PERIOD_S = 0.01
REFERENCE_PROBE_S = 0.0002
BURST = 20


def probe() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


class SpeedProbe:
    """Probe timings, each stored with the time it started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        start = clock()
        probe()
        self.samples.append((start, clock() - start))

    def burst(self) -> list[float]:
        """BURST probes back to back, outside any timed region."""
        first = len(self.samples)
        for _ in range(BURST):
            self.sample()
        return [d for _, d in self.samples[first:]]

    @contextlib.contextmanager
    def periodic(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def within(self, start: float, end: float) -> list[float]:
        return [d for t, d in self.samples if start <= t < end]


def probe_time(samples: list[float]) -> float:
    """Mean probe time, leaving out the slowest tenth of the probes.

    A probe that the hypervisor pauses reads many times slower than the
    rest. Pauses are rare, so a handful of probes would decide a plain mean;
    on a 2-CPU shared VM the trimmed mean tracked the workloads' own times
    about twice as closely.
    """
    kept = sorted(samples)[: len(samples) - len(samples) // 10]
    return sum(kept) / len(kept)


def at_reference_speed(raw_s: float, inside: list[float], speed: list[float]) -> float:
    return (raw_s - sum(inside)) * REFERENCE_PROBE_S / probe_time(speed)


def setup(workload: str, inputs: dict, tracer=None):
    """Import regopen and build the workload's inputs from the generated ones.

    A tracer's wrappers go in right after the import, so that building the
    inputs is traced too.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import regopen.cli  # noqa: F401
    from regopen.topology import Topology

    if tracer:
        tracer.install()
    if workload == "lattices-n7":
        return [Topology(inputs["n"], opens) for opens in inputs["spaces"]]
    return list(inputs["argv"])


def run_cli(argv: list[str]) -> dict:
    import regopen.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = regopen.cli.main(argv)
    return {"exit_code": code, "stdout": out.getvalue()}


def run_lattices(spaces) -> dict:
    from regopen.errors import RegOpenError
    from regopen.lattice import check_r_lattice, ge_relation, regular_open_lattice, well_inside
    from regopen.stone import stone_space

    results = []
    for t in spaces:
        try:
            lat = regular_open_lattice(t)
            report = check_r_lattice(lat, ge_relation(lat))
            rel = well_inside(lat)
            st = stone_space(lat)
        except RegOpenError as exc:
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append(
            {
                "elements": list(lat.payload_masks),
                "r_lattice_passed": report.passed,
                "well_inside": sorted(rel),
                "stone_points": st.space.n,
            }
        )
    return {"spaces": results}


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    workload = job["workload"]
    inputs = json.loads(Path(job["inputs"]).read_text())
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
    probes = SpeedProbe()
    before = probes.burst()
    with probes.periodic():
        t0 = clock()
        prepared = setup(workload, inputs, tracer)
        t1 = clock()
    after = probes.burst()
    inside = probes.within(t0, t1)
    record = {
        "raw_setup_s": t1 - t0,
        "setup_s": at_reference_speed(t1 - t0, inside, before + inside + after),
    }
    if job["run"]:
        # Traced rounds run unprobed: their self times should hold no probe time.
        with contextlib.nullcontext() if tracer else probes.periodic():
            t2 = clock()
            if workload == "lattices-n7":
                outputs = run_lattices(prepared)
            else:
                outputs = run_cli(prepared)
            t3 = clock()
        record["raw_wall_s"] = t3 - t2
        if not tracer:
            inside = probes.within(t2, t3)
            record["wall_s"] = at_reference_speed(t3 - t2, inside, inside + probes.burst())
        # ru_maxrss is in KiB on Linux.
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["outputs"] = outputs
        if tracer:
            record["layers"] = tracer.metrics()
    Path(job["result"]).write_text(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1])
