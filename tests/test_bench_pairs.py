"""tools/bench_pairs.py: the summary of paired runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(a: float, b: float) -> dict:
    return {side: {"metrics": {"wall_s": {"value": v, "unit": "s"}}} for side, v in (("a", a), ("b", b))}


def test_summary_counts_wins_in_the_metric_s_better_direction():
    runs = [_run(2.0, 1.5), _run(2.2, 1.6), _run(1.9, 2.0), _run(2.1, 2.1)]
    lower = bench_pairs.summarize(runs, [{"name": "wall_s", "unit": "s", "better": "lower"}])["wall_s"]
    assert (lower["b_wins"], lower["b_losses"], lower["ties"]) == (2, 1, 1)
    higher = bench_pairs.summarize(runs, [{"name": "wall_s", "unit": "s", "better": "higher"}])["wall_s"]
    assert (higher["b_wins"], higher["b_losses"], higher["ties"]) == (1, 2, 1)
    assert lower["a"]["median"] == 2.05 and lower["b"]["median"] == 1.8
    assert lower["a"]["q1"] <= lower["a"]["median"] <= lower["a"]["q3"]
