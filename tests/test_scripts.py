"""The scripts under scripts/ still run against the package's public API."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TINY = ["--train-count", "300", "--test-count", "50", "--epochs", "1", "--hidden", "8"]


@pytest.mark.parametrize(
    "script, extra",
    [("run_demo.py", ["--frames", "120"]), ("reproduce_training.py", [])],
)
def test_script_runs_on_a_tiny_corpus(tmp_path, script, extra):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(tmp_path)] + TINY + extra,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
