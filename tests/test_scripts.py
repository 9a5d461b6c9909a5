"""The experiment scripts in scripts/ run end to end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, first_lines",
    [
        (
            "folner_decay.py",
            ["3"],
            ["# group=Z scheme=boxes C=ball(1)", "n,folner_size,boundary_size,ratio"],
        ),
        (
            "addition_suite.py",
            ["4"],
            ["pair                       e(M)     e(N)   e(M/N)     disc  checks"],
        ),
        (
            "zero_divisor_demo.py",
            ["3", "2"],
            ["e + s in GF3[ZxZ2]       verdict=zero-divisor"],
        ),
    ],
    ids=["folner_decay", "addition_suite", "zero_divisor_demo"],
)
def test_script_runs(script, args, first_lines):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for expected, line in zip(first_lines, lines):
        assert line.startswith(expected)
    assert len(lines) >= len(first_lines)
