"""Smoke test of the demos: each runs to completion in a fresh interpreter.

The demos call the public API directly, so a change that breaks one of
their calls fails here rather than only when someone runs the demo.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [d.name for d in DEMOS] == [
        "deduction_walkthrough.py",
        "hermitian_forms.py",
        "symbols_tour.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name == "hermitian_forms.py":
        lines = [ln.strip() for ln in proc.stdout.splitlines()]
        assert "clifford == delta: True" in lines
