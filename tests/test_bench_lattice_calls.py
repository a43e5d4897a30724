"""The lattices-n7 benchmark calls ``regular_open_lattice``,
``check_r_lattice(lat, ge_relation(lat))``, ``well_inside`` and
``stone_space`` from ``perfbench/worker.py`` and checks their outputs in
``perfbench/workloads.py``. A change to what those functions take or return
would fail only the benchmark, so its seed-1 sample and the seed-11 one,
114 lattices in all, run here through the benchmark's own code. Nothing
under ``perfbench/`` is written."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_sample(monkeypatch, tmp_path, seed: int) -> tuple:
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports checkers
    worker, workloads = _load("worker"), _load("workloads")
    from regopen.topology import Topology

    inputs = workloads.make_inputs("lattices-n7", seed, tmp_path)
    outputs = worker.run_lattices([Topology(inputs["n"], opens) for opens in inputs["spaces"]])
    return workloads.Check("lattices-n7", inputs).check(outputs)


def test_lattices_n7_seed_1_passes_the_benchmark_check(monkeypatch, tmp_path):
    assert _check_sample(monkeypatch, tmp_path, 1) == (57, 0, [])


def test_lattices_n7_seed_11_passes_the_benchmark_check(monkeypatch, tmp_path):
    assert _check_sample(monkeypatch, tmp_path, 11) == (57, 0, [])
