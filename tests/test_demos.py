"""Smoke test: the fast demos and README's python blocks run to
completion against the source tree.

Each demo and each block runs in its own interpreter with `src` on
PYTHONPATH, from a scratch working directory, and must exit 0.  Demos
05-07 run solver descents and are left to the acceptance suite's
end-to-end criteria; demo 08 runs with two iterations per descent.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = sorted(
    path.name for path in (ROOT / "demos").glob("0[1-48]_*.py"))
DEMO_ARGS = {"08_exact_depth1_large.py": ["2"]}


def test_fast_demos_are_found():
    assert len(FAST_DEMOS) == 5
    assert set(DEMO_ARGS) <= set(FAST_DEMOS)


def _source_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo),
         *DEMO_ARGS.get(demo, [])], cwd=tmp_path,
        env=_source_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(),
                           flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_are_found():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", README_BLOCKS[index]], cwd=tmp_path,
        env=_source_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
