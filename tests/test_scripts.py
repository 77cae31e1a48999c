"""The scripts under scripts/ still run against the package's public API."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TINY = ["--train-count", "300", "--epochs", "1", "--hidden", "8"]


@pytest.mark.parametrize(
    "script, extra",
    [("run_demo.py", ["--frames", "120"]), ("reproduce_training.py", ["--test-count", "50"])],
)
def test_script_runs_on_a_tiny_corpus(tmp_path, script, extra):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(tmp_path)] + TINY + extra,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "run_demo.py":
        assert "generating 300 training windows ..." in proc.stdout.splitlines()
        manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
        assert manifest["counts"]["test"] == 0
    if script == "reproduce_training.py":
        # scored by pipeline.score_windows on the tiny test split
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert math.isfinite(summary["mse_ratio"])
        assert math.isfinite(summary["correction_rate"])
        assert math.isfinite(summary["peak_rss_mb"]) and summary["peak_rss_mb"] > 0
        # the sizes given, and the library's default seed for the one not given
        assert (summary["train_count"], summary["test_count"]) == (300, 50)
        assert (summary["hidden"], summary["seed"], summary["epochs_run"]) == (8, 0, 1)


@pytest.mark.parametrize(
    "script, extra",
    [("run_demo.py", ["--frames", "120"]), ("reproduce_training.py", ["--test-count", "12"])],
)
def test_script_epoch_lines_omit_val_without_validation_windows(tmp_path, script, extra):
    # 4 training windows leave round(0.4) = 0 for validation, so val_mse is None
    small = ["--train-count", "4", "--epochs", "1", "--hidden", "2"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(tmp_path)] + small + extra,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    epochs = [line for line in proc.stdout.splitlines() if "epoch 0:" in line]
    assert len(epochs) == 1
    # the line of EpochStats.__str__, as `poserefine train` prints it
    assert re.fullmatch(r"epoch 0: train \d+\.\d{6} \(\d+\.\ds\)", epochs[0]), epochs[0]


@pytest.mark.parametrize(
    "script, argv, corpus_written",
    [
        # refused before the corpus is generated: there would be nothing to score
        ("reproduce_training.py", TINY + ["--test-count", "0"], False),
        # refused by generate_dataset
        ("reproduce_training.py", ["--train-count", "0"], False),
        # refused by the root smoother after training
        (
            "run_demo.py",
            ["--train-count", "4", "--epochs", "1", "--hidden", "2", "--frames", "2"],
            True,
        ),
    ],
    ids=["reproduce-no-test-windows", "reproduce-no-train-windows", "demo-two-frames"],
)
def test_script_refusal_exits_2_without_a_traceback(tmp_path, script, argv, corpus_written):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(tmp_path)] + argv,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error: " in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "corpus").exists() == corpus_written
