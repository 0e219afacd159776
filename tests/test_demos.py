"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import symorders as so

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(so.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5
