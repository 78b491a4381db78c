"""Each script under ``demos/`` runs against ``src`` and exits cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_readme_python_block_runs():
    """The README's python block runs clean against ``src``, warnings as errors."""
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert blocks, "README.md has no python block"
    code = "\n".join(block.split("```", 1)[0] for block in blocks)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
