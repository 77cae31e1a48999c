"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    long_frames=(150, 170),
    short_frames=(40, 60),
    min_clips=3,
    corpus_windows=300,
    setup_repeats=1,
)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run_tiny(workload, seed, trace, tmp_path):
    return workloads.run(workload, seed, 0.0, trace, ROOT, TINY, work_root=str(tmp_path))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_workload_emits_every_metric(workload, trace, tmp_path):
    result = run_tiny(workload, 1, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    if trace:
        spans = json.loads((tmp_path / f"spans-{workload}-1.json").read_text())
        assert spans and set(spans[0]) == {"name", "start", "end", "parent", "item"}


def test_seed_changes_inputs_but_not_metric_names(tmp_path):
    a, again, b = (inputs.make_clip(s, 0, (40, 99)) for s in (1, 1, 2))
    assert np.array_equal(a.noisy.xy, again.noisy.xy)
    assert a.noisy.xy.shape != b.noisy.xy.shape or not np.array_equal(a.noisy.xy, b.noisy.xy)
    assert inputs.corpus_seed(1, 0) != inputs.corpus_seed(2, 0)
    first = run_tiny("refine_short", 1, False, tmp_path)["metrics"]
    second = run_tiny("refine_short", 2, False, tmp_path)["metrics"]
    assert first.keys() == second.keys()
    assert first["mse_ratio"]["value"] != second["mse_ratio"]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
