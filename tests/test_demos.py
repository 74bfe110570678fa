"""Every demo script runs to completion against the checkout's package."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import src_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # The demos write their outputs beside themselves, so each runs from a copy.
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=src_env(),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
