"""The three benchmark workloads, their metrics and their output checks.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one has finished, and no operation starts once the
run's --seconds would be overrun by an operation of the mean length so far
(but every run does at least its minimum number of operations).

  refine_long   one operation = `refine_keypoint_file` on a 3000-frame file
                (60 s at 50 fps); at the default stride 5 every frame is
                refined by 20 windows, so the refiner forward dominates.
                One file takes about 18 s on a 2-vCPU VM, so a 30 s run
                times a single file: its latency_p50_ms and latency_p90_ms
                are that one sample.
  refine_short  one operation = `refine_keypoint_file` on a 40-99 frame clip,
                shorter than the 100-frame window: one reflect-padded window
                and 12 forward calls of batch 1 per clip; stride is bypassed.
  train         one operation = `generate_dataset` (1536 windows, default
                stride, as the CLI and scripts/ call it) and then one
                epoch of `train_model` at batch 256, H=64.

End-to-end metrics (--trace 0).  Every workload reports the same set, so
each metric is defined for refine and train alike:
  setup_s           median of 5 fresh processes timing `import poserefine`,
                    plus `load_model` of the benchmark model on refine_*
  throughput_per_s  refine_*: input frames per second of refine_keypoint_file
                    wall time; train: training windows per second of
                    train_model wall time
  latency_p50_ms,   per operation: one refine_keypoint_file call (file in,
  latency_p90_ms    file out), or one train_model epoch
  mse_ratio         refine_*: wrapped angle MSE of the written output against
                    truth over that of the input; train: the epoch's mean
                    training loss over the MSE of the noisy windows
  peak_rss_mb       ru_maxrss of the benchmark process
The figures only one kind of workload has (correction rate at tau = 10 deg
and keypoint RMSE for refine_*, synthesis rate and validation MSE for train)
are printed in the record line before the result of every run, and are
per-layer metrics of the traced run.  Failed operations are the result's
`failed` out of `attempted`.

Per-layer metrics (--trace 1) come from a traced pass over the same
operations as an untraced pass in the same process; times and counts are
per operation, and a layer a workload does not run reports 0.  Predicted
effects of a layer change, by workload:
  refiner.forward_*, windows.*        -> throughput_per_s on refine_long
  refiner.forward_calls, conditioning.*, pipeline.*, refiner.load_s
                                      -> latency_* on refine_short
  refiner.grad_s, training.adam_s     -> throughput_per_s on train
  dataset.*                           -> dataset.windows_per_s on train
  conditioning.* outputs are guarded by quality.keypoint_rmse_px.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import inputs
import poserefine as pr
import tracing

WORKLOADS = ("refine_long", "refine_short", "train")
MODEL_FILE = "model_h64.jarm"
# Recipe: `python3 scripts/reproduce_training.py --out <dir>` with
# OPENBLAS_NUM_THREADS=1 (20,000/4,000 windows, 4 epochs, H=64, seed 0, about
# ten minutes on one core), then copy <dir>/model.jarm to perfbench/model_h64.jarm.
MODEL_SHA256 = "3f067f86be4bc5a574625656053961c79a464db62d2e9e706a600d677671e356"

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "mse_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "pipeline.parse_s": "s",
    "pipeline.write_s": "s",
    "skeleton.encode_s": "s",
    "skeleton.reconstruct_s": "s",
    "conditioning.savgol_s": "s",
    "conditioning.ratios_s": "s",
    "conditioning.limb_solve_s": "s",
    "conditioning.limb_solve_iters": "count",
    "conditioning.limb_solve_unconverged": "count",
    "windows.plan_merge_s": "s",
    "windows.count": "count",
    "windows.per_frame": "ratio",
    "refiner.load_s": "s",
    "refiner.forward_s": "s",
    "refiner.forward_calls": "count",
    "refiner.forward_gflop": "GFLOP",
    "refiner.forward_gflops": "GFLOP/s",
    "refiner.grad_s": "s",
    "refiner.grad_gflop": "GFLOP",
    "refiner.grad_gflops": "GFLOP/s",
    "training.adam_s": "s",
    "training.loop_s": "s",
    "training.steps": "count",
    "training.train_mse": "rad2",
    "training.val_mse": "rad2",
    "dataset.generate_s": "s",
    "dataset.bytes_written": "B",
    "dataset.load_s": "s",
    "dataset.windows_per_s": "1/s",
    "quality.correction_rate": "ratio",
    "quality.keypoint_rmse_px": "px",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the command line always uses the defaults."""

    long_frames: tuple = (3000, 3000)
    short_frames: tuple = (40, 99)
    min_clips: int = 100  # so that at least 10 clip latencies lie beyond p90
    corpus_windows: int = 1536  # 6 batches of 256
    setup_repeats: int = 5


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Tally:
    """Operations of one pass: outcomes, timings and quality sums."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    durations: list = field(default_factory=list)  # seconds per operation
    units: int = 0  # frames refined, or windows trained
    sq_out: float = 0.0
    sq_in: float = 0.0
    ratios: list = field(default_factory=list)
    n_erroneous: int = 0
    n_corrected: int = 0
    kp_sq: float = 0.0
    kp_n: int = 0
    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    synth_windows: int = 0
    synth_s: float = 0.0
    shard_bytes: int = 0


def closed_loop(seconds: float, min_ops: int, operation) -> list:
    """Call operation(i) for i = 0, 1, ... while the time budget lasts.

    operation returns the duration it timed, or None if it failed; returns
    the durations of the operations that succeeded.
    """
    started = time.perf_counter()
    spent: list[float] = []
    timed = []
    while len(spent) < min_ops or (
        time.perf_counter() - started + statistics.mean(spent) <= seconds
    ):
        t0 = time.perf_counter()
        took = operation(len(spent))
        spent.append(time.perf_counter() - t0)
        if took is not None:
            timed.append(took)
    return timed


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# refine workloads


def check_refined(tally: Tally, clip: inputs.Clip, output_path) -> None:
    """Parse the written file back, check it and add its quality to the tally."""
    out = pr.parse_keypoints(output_path)  # rejects non-finite coordinates
    if out.n_frames != clip.n_frames:
        raise CheckFailed(f"wrote {out.n_frames} frames for {clip.n_frames} input frames")
    angles = pr.pose_to_angles(out)
    report = pr.evaluate_metrics(angles, clip.truth, clip.erroneous)
    tally.sq_out += report.mse_aggregate * angles.size
    tally.sq_in += float(np.sum(pr.wrap_angle(clip.noisy_angles - clip.truth) ** 2))
    tally.n_erroneous += report.n_erroneous
    tally.n_corrected += report.n_corrected
    tally.kp_sq += float(np.sum((out.xy - clip.clean.xy) ** 2))
    tally.kp_n += out.xy.shape[0] * out.xy.shape[1]


def refine_pass(workload, seed, seconds, sizes, work, model_path, tracer=None):
    """Refine generated files with `refine_keypoint_file`.

    With a tracer, every file is refined a second time with its stages
    traced, which must reproduce the untraced output bit for bit.
    """
    frames = sizes.long_frames if workload == "refine_long" else sizes.short_frames
    tally = Tally()

    def operation(i):
        clip = inputs.make_clip(seed, i, frames)
        in_path = os.path.join(work, f"in-{i}.json")
        out_path = os.path.join(work, f"out-{i}.json")
        pr.write_keypoints(clip.noisy, in_path)
        tally.attempted += 1
        try:
            t0 = time.perf_counter()
            motion = pr.refine_keypoint_file(in_path, model_path, out_path)
            took = time.perf_counter() - t0
            check_refined(tally, clip, out_path)
            if tracer is not None:
                written = _sha256(out_path)
                tracer.item = i
                with tracer.span("item"), tracing.traced_refine(tracer):
                    traced = pr.refine_keypoint_file(in_path, model_path, out_path)
                if _sha256(out_path) != written or not all(
                    np.array_equal(getattr(motion, k), getattr(traced, k))
                    for k in ("base", "theta", "lengths")
                ):
                    raise CheckFailed("the traced refine_keypoint_file differs from the untraced one")
        except Exception as exc:  # a failed file is counted and the loop goes on
            tally.failed += 1
            tally.errors.append(f"{workload} item {i}: {exc!r}")
            return None
        finally:
            for path in (in_path, out_path):
                if os.path.exists(path):
                    os.remove(path)
        tally.units += clip.n_frames
        return took

    min_ops = 1 if workload == "refine_long" else sizes.min_clips
    tally.durations = closed_loop(seconds, min_ops, operation)
    return tally


# ---------------------------------------------------------------------------
# train workload


def train_once(manifest_dir, noise_seed, sizes, tracer=None):
    """generate_dataset, then one epoch of train_model; returns the timings too."""
    if tracer is None:
        span = traced = lambda *_: contextlib.nullcontext()
    else:
        span, traced = tracer.span, tracing.traced_training
    with span("item"):
        t0 = time.perf_counter()
        with span("dataset.generate"):
            manifest = pr.generate_dataset(
                manifest_dir,
                train_count=sizes.corpus_windows,
                test_count=0,
                noise=pr.NoiseSpec(seed=noise_seed),
            )
        t1 = time.perf_counter()
        with span("training.loop"), traced(tracer):
            model, log = pr.train_model(manifest, pr.TrainConfig(max_epochs=1, seed=0))
        t2 = time.perf_counter()
    return manifest, model, log, t1 - t0, t2 - t1


def train_pass(seed, seconds, sizes, work, tracer=None):
    """Train on generated corpora; with a tracer, every operation is traced
    a second time and must give the same model and losses."""
    tally = Tally()

    def operation(i):
        corpus = os.path.join(work, f"corpus-{i}")
        noise_seed = inputs.corpus_seed(seed, i)
        tally.attempted += 1
        try:
            manifest, model, log, synth_s, took = train_once(corpus, noise_seed, sizes)
            losses = [(e.train_mse, e.val_mse) for e in log.entries]
            if len(losses) != 1 or not all(map(math.isfinite, losses[0])):
                raise CheckFailed(f"training log is not one finite epoch: {log.entries}")
            train_mse, val_mse = losses[0]
            _, truth, noisy = pr.load_split(manifest, "train")
            if tracer is not None:
                shutil.rmtree(corpus)
                tracer.item = i
                _, again, log_again, _, _ = train_once(corpus, noise_seed, sizes, tracer)
                if [(e.train_mse, e.val_mse) for e in log_again.entries] != losses or not all(
                    np.array_equal(model.params[k], again.params[k]) for k in model.params
                ):
                    raise CheckFailed("the traced training run differs from the untraced one")
        except Exception as exc:  # a failed operation is counted and the loop goes on
            tally.failed += 1
            tally.errors.append(f"train item {i}: {exc!r}")
            return None
        finally:
            shutil.rmtree(corpus, ignore_errors=True)
        n_val = round(pr.TrainConfig().validation_fraction * len(noisy))
        tally.ratios.append(train_mse / float(np.mean((noisy - truth) ** 2)))
        tally.train_mse.append(train_mse)
        tally.val_mse.append(val_mse)
        tally.synth_windows += sizes.corpus_windows
        tally.synth_s += synth_s
        tally.shard_bytes += sum(size for _, _, size in manifest.shards["train"])
        tally.units += len(noisy) - n_val
        return took

    tally.durations = closed_loop(seconds, 1, operation)
    return tally


# ---------------------------------------------------------------------------
# metrics


def measure_setup(src: str, model_path: str | None, repeats: int) -> float:
    """Median wall time of importing poserefine (and loading the model) afresh."""
    load = f"poserefine.load_model({model_path!r})\n" if model_path else ""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path.insert(0, {src!r})\n"
        "import poserefine\n"
        f"{load}"
        "print(time.perf_counter() - t)\n"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, tally: Tally, setup_s: float) -> dict:
    if workload == "train":
        mse_ratio = statistics.mean(tally.ratios)
    else:
        mse_ratio = tally.sq_out / tally.sq_in
    return {
        "setup_s": setup_s,
        "throughput_per_s": tally.units / sum(tally.durations),
        "latency_p50_ms": 1e3 * statistics.median(tally.durations),
        "latency_p90_ms": 1e3 * percentile(tally.durations, 90),
        "mse_ratio": mse_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def quality(workload: str, tally: Tally) -> dict:
    if workload == "train":
        return {
            "training.train_mse": statistics.mean(tally.train_mse),
            "training.val_mse": statistics.mean(tally.val_mse),
            "dataset.windows_per_s": tally.synth_windows / tally.synth_s,
        }
    return {
        "quality.correction_rate": tally.n_corrected / tally.n_erroneous,
        "quality.keypoint_rmse_px": math.sqrt(tally.kp_sq / tally.kp_n),
    }


def per_layer(workload: str, tracer: tracing.Tracer, tally: Tally) -> dict:
    ops = len(tally.durations)
    self_s = tracer.self_times()
    counts = tracer.counts
    out = dict.fromkeys(PER_LAYER, 0.0)
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] = self_s.get(name[: -len("_s")], 0.0) / ops
        elif name in counts:
            out[name] = counts[name] / ops
    if counts["pipeline.frames"]:
        out["windows.per_frame"] = counts["windows.frames"] / counts["pipeline.frames"]
    if out["refiner.forward_s"]:
        out["refiner.forward_gflops"] = out["refiner.forward_gflop"] / out["refiner.forward_s"]
    if out["refiner.grad_s"]:
        out["refiner.grad_gflops"] = out["refiner.grad_gflop"] / out["refiner.grad_s"]
    out["dataset.bytes_written"] = tally.shard_bytes / ops
    out.update(quality(workload, tally))
    traced_s = tracer.total("item")
    out["trace.overhead"] = traced_s / (sum(tally.durations) + tally.synth_s)
    out["trace.coverage"] = 1.0 - self_s["item"] / traced_s
    return out


# ---------------------------------------------------------------------------
# machine and entry point


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run(workload, seed, seconds, trace, root, sizes=Sizes(), work_root=None) -> dict:
    """One benchmark run; returns the result object (and writes its records)."""
    model_path = os.path.join(root, "perfbench", MODEL_FILE)
    if _sha256(model_path) != MODEL_SHA256:
        raise CheckFailed(f"{model_path} is not the benchmark model")
    work_root = work_root or os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"run-{workload}-{seed}-{trace}-{os.getpid()}")
    os.makedirs(work)
    tracer = tracing.Tracer() if trace else None
    try:
        if workload == "train":
            tally = train_pass(seed, seconds, sizes, work, tracer)
        else:
            tally = refine_pass(workload, seed, seconds, sizes, work, model_path, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = per_layer(workload, tracer, tally)
        tracer.dump(os.path.join(work_root, f"spans-{workload}-{seed}.json"))
    else:
        src = os.path.join(root, "src")
        setup_s = measure_setup(
            src, None if workload == "train" else model_path, sizes.setup_repeats
        )
        metrics = end_to_end(workload, tally, setup_s)

    units = END_TO_END if not trace else PER_LAYER
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "operations": len(tally.durations),
        "details": {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in quality(workload, tally).items()
        },
        "errors": tally.errors,
    }
    with open(os.path.join(work_root, f"result-{workload}-{seed}-{trace}.json"), "w") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv, root) -> int:
    ap = argparse.ArgumentParser(description="poserefine benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0
