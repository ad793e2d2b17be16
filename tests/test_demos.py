"""Smoke test: the fast demos run to completion against the source tree.

Each demo runs in its own interpreter with `src` on PYTHONPATH, from a
scratch working directory, and must exit 0.  Demos 05-07 run solver
descents and are left to the acceptance suite's end-to-end criteria.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = sorted(
    path.name for path in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_fast_demos_are_found():
    assert len(FAST_DEMOS) == 4


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
