"""Every demo script runs to completion against the package in ``src``."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_found():
    assert len(DEMOS) == 9


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_cofinite_demo_fails_with_union_and_intersection_swapped(monkeypatch):
    # the demo binds the operations as it imports them, so the swap reaches it
    from regopen import cofinite

    union, intersect = cofinite.union, cofinite.intersect
    monkeypatch.setattr(cofinite, "union", intersect)
    monkeypatch.setattr(cofinite, "intersect", union)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "demos" / "08_cofinite_symbolic.py"), run_name="__main__")
    assert "should be" in str(exc.value)


def test_metric_demo_fails_when_the_combination_ignores_the_second_metric(monkeypatch):
    # the demo imports combine_metric from the package when it runs
    import regopen

    monkeypatch.setattr(regopen, "combine_metric", lambda dx, dy, tau: dx)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "demos" / "09_metric_combination.py"), run_name="__main__")
    assert "should be" in str(exc.value)
