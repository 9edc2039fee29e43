"""Smoke test: every narrative script under demos/ and every python block of
the README runs to completion."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)


def test_demos_found():
    assert DEMOS, "no scripts under demos/"


def run_python(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    completed = run_python([str(script)], tmp_path)
    assert completed.returncode == 0, completed.stderr


def test_readme_blocks_found():
    assert README_BLOCKS, "no python blocks in README.md"


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index, tmp_path):
    """Each python block of the README, in a fresh process: a removed or moved
    public name cannot leave the quickstart broken."""
    completed = run_python(["-c", README_BLOCKS[index]], tmp_path)
    assert completed.returncode == 0, completed.stderr
