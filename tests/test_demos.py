"""The demo scripts run to completion against the package under src/."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", ["walk_the_line.py",
                                    "weighted_bounds_tour.py",
                                    "boundary_decay_sweep.py"])
def test_demo_runs(script):
    run_demo(script)


def test_walk_the_line_snapshot():
    # the walk is deterministic: its output is a snapshot of the construction
    want = (ROOT / "tests" / "data" / "walk_the_line.out").read_text()
    assert run_demo("walk_the_line.py") == want


def test_weighted_bounds_tour_snapshot():
    # A_p, BMO, the maximal functions and the weighted bounds in both
    # worlds, on a fixed grid and seed: the output is a snapshot
    want = (ROOT / "tests" / "data" / "weighted_bounds_tour.out").read_text()
    assert run_demo("weighted_bounds_tour.py") == want
