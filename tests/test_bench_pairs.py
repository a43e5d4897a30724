"""tools/bench_pairs.py: where paired runs run, and their summary."""

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


def test_every_run_of_both_sides_runs_from_one_root_on_its_own_tree(monkeypatch, tmp_path):
    trees = {side: tmp_path / side for side in bench_pairs.SIDES}
    for side, tree in trees.items():
        tree.mkdir()
        (tree / "REV").write_text(side)
    seen = []

    def run_once(root, command):
        seen.append((root, (root / "REV").read_text(), command[0]))
        return {"metrics": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    root = tmp_path / "run"
    runs = bench_pairs.run_pairs(trees, {side: [side] for side in bench_pairs.SIDES}, 3, root)
    assert [run["first"] for run in runs] == ["a", "b", "a"]
    assert {r for r, _, _ in seen} == {root}
    assert [rev for _, rev, _ in seen] == [command for _, _, command in seen] == list("abbaab")
    assert not root.exists() and all((tree / "REV").read_text() == side for side, tree in trees.items())
