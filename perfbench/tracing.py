"""Spans recorded by the benchmark around calls into poserefine's modules.

The program itself is not instrumented.  A traced run calls the program's
own entry points (`refine_keypoint_file`, or `generate_dataset` and
`train_model`) with the public functions they call wrapped in spans.  The
wrappers are set on the modules that look those names up (`pipeline` and
`windows`, or `training`), so nothing else sees them, and the originals are
restored afterwards.  The traced result must equal the untraced one bit for
bit.

Operation counts of the network are computed from the tensor shapes, not
measured: only the matrix products are counted, two operations per
multiply-add; gate nonlinearities and element-wise updates are left out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import poserefine as pr


class Tracer:
    """In-memory spans (name, start, end, parent, item) plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Span name -> summed duration minus the time its child spans cover."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
            fh.write("\n")


def gru_gflop(batch: int, length: int, hidden: int, d_att: int) -> tuple:
    """Computed (forward, backward) GFLOP of one refiner pass over (batch, length)."""
    steps = batch * length
    forward = backward = 0.0
    for d_in in (1, 2 * hidden):  # l1, l2
        # per direction: input GEMM to 3 gates, then 3 recurrent H x H products
        forward += 2 * (2 * steps * d_in * 3 * hidden + 2 * steps * 3 * hidden * hidden)
        # per direction: dx, dW, dU and the recurrent dh products
        backward += 2 * (2 * 2 * steps * d_in * 3 * hidden + 2 * 2 * steps * 3 * hidden * hidden)
    # attention keys and query, scores, context; then the output head
    att = 2 * steps * 2 * hidden * d_att + 2 * batch * 2 * hidden * d_att
    att += 2 * steps * d_att + 2 * steps * 2 * hidden
    head = 2 * steps * 2 * hidden + 2 * batch * 2 * hidden
    forward += att + head
    backward += 2 * (att + head)
    return forward / 1e9, backward / 1e9


@contextmanager
def patched(replacements: dict):
    """Set each (owner, name) to its replacement; restore the originals on exit."""
    saved = {key: getattr(*key) for key in replacements}
    for (owner, name), fn in replacements.items():
        setattr(owner, name, fn)
    try:
        yield
    finally:
        for (owner, name), fn in saved.items():
            setattr(owner, name, fn)


def timed(tracer: Tracer, span: str, fn, count=None):
    """fn inside a span; count(result, *args) is called after it returns."""

    def wrapper(*args, **kwargs):
        with tracer.span(span):
            out = fn(*args, **kwargs)
        if count is not None:
            count(out, *args)
        return out

    return wrapper


def _count_forward(tracer: Tracer, count_windows: bool):
    def count(_out, noisy, model):
        batch, length = np.shape(noisy)
        tracer.counts["refiner.forward_calls"] += 1
        tracer.counts["refiner.forward_gflop"] += gru_gflop(
            batch, length, model.hidden, model.d_att
        )[0]
        if count_windows:
            tracer.counts["windows.count"] += batch
            tracer.counts["windows.frames"] += batch * length

    return count


@contextmanager
def traced_refine(tracer: Tracer):
    """Wrap what `refine_keypoint_file` calls, looked up through `pipeline`
    and `windows`; restore it on exit.  The refine_sequence span keeps, as
    its own time, the unwrapping, window planning, batch stacking and
    merging around the forward calls."""
    pipeline, windows = pr.pipeline, pr.windows

    def count_solve(solve, *_):
        tracer.counts["conditioning.limb_solve_iters"] += solve.iterations
        tracer.counts["conditioning.limb_solve_unconverged"] += not solve.converged

    def count_frames(_out, theta, *_):
        tracer.counts["pipeline.frames"] += np.size(theta)

    stages = {
        (pipeline, "parse_keypoints"): "pipeline.parse",
        (pipeline, "write_keypoints"): "pipeline.write",
        (pipeline, "load_model"): "refiner.load",
        (pipeline, "pose_to_angles"): "skeleton.encode",
        (pipeline, "pose_to_limb_lengths"): "skeleton.encode",
        (pipeline, "reconstruct_sequence"): "skeleton.reconstruct",
        (pipeline, "smooth_base_trajectory"): "conditioning.savgol",
        (pipeline, "estimate_ratios"): "conditioning.ratios",
        (pipeline, "optimize_limb_lengths"): "conditioning.limb_solve",
        (pipeline, "refine_sequence"): "windows.plan_merge",
        (windows, "refine_batch"): "refiner.forward",
    }
    counts = {
        (pipeline, "optimize_limb_lengths"): count_solve,
        (pipeline, "refine_sequence"): count_frames,
        (windows, "refine_batch"): _count_forward(tracer, count_windows=True),
    }
    with patched(
        {
            key: timed(tracer, span, getattr(*key), counts.get(key))
            for key, span in stages.items()
        }
    ):
        yield


@contextmanager
def traced_training(tracer: Tracer):
    """Wrap what `poserefine.training` calls; restore it on exit."""
    training = pr.training

    def count_grad(_out, noisy, _truth, model):
        fwd, bwd = gru_gflop(*np.shape(noisy), model.hidden, model.d_att)
        tracer.counts["refiner.grad_gflop"] += fwd + bwd

    def count_step(*_):
        tracer.counts["training.steps"] += 1

    with patched(
        {
            (training, "batch_gradients"): timed(
                tracer, "refiner.grad", training.batch_gradients, count_grad
            ),
            (training, "refine_batch"): timed(
                tracer,
                "refiner.forward",
                training.refine_batch,
                _count_forward(tracer, count_windows=False),
            ),
            (training, "load_split"): timed(tracer, "dataset.load", training.load_split),
            (training.Adam, "step"): timed(
                tracer, "training.adam", training.Adam.step, count_step
            ),
        }
    ):
        yield
