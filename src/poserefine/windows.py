"""Sliding-window execution: planning, refinement, centre-crop stitching.

A joint's full angle series rarely matches the refiner's fixed window
length, so the series is unwrapped along time with np.unwrap (frame 0 stays
and every value stays congruent to its input modulo 2*pi), cut into windows
that step by a third of a window, refined window by window, and stitched
back.  Each frame takes its value from the covering window whose centre is
nearest (the earlier window on a tie), so away from the ends of the series
each frame lies within about a sixth of a window of its window's centre,
where the refiner sees context on both sides.  A series no longer than the
window is refined whole, as one row per joint of its own length.

The windows of every joint are stacked into one (n_windows * n_joints, L)
array and refined by one refine_batch call, so a clip takes one call
instead of one per joint.  refine_batch splits the rows into memory-bounded
blocks and, for a long clip, runs them on every available core.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, ShapeError
from .refiner import RefinerModel, refine_batch


def plan_windows(n_frames: int, length: int) -> list:
    """Start indices of windows covering a series of n_frames >= length.

    Starts step by a third of a window, rounded up, with a final flush
    window so every frame is covered.
    """
    if length < 2:
        raise ShapeError("window length must be >= 2")
    if n_frames < length:
        raise InsufficientDataError(f"{n_frames} frames do not fill a {length}-frame window")
    starts = list(range(0, n_frames - length + 1, -(-length // 3)))
    if starts[-1] != n_frames - length:
        starts.append(n_frames - length)
    return starts


def stitch_windows(refined: np.ndarray, starts) -> np.ndarray:
    """Stitch (n_windows, length, n_joints) refined windows laid out at
    starts into the (starts[-1] + length, n_joints) series.

    Each frame takes the value of the window whose centre is nearest; a tie
    goes to the earlier window.  starts must begin at 0 and increase by at
    most length, so every frame is covered.
    """
    refined = np.asarray(refined, dtype=float)
    if refined.ndim != 3 or refined.shape[0] != len(starts):
        raise ShapeError(
            f"refined windows must be ({len(starts)}, length, n_joints), got {refined.shape}"
        )
    length = refined.shape[1]
    starts = np.asarray(starts)
    steps = np.diff(starts)
    if starts[0] != 0 or np.any(steps < 1) or np.any(steps > length):
        raise ShapeError(f"window starts must begin at 0 and step by 1 to {length}")
    frames = np.arange(starts[-1] + length)
    # window k owns the frames up to the midpoint between its centre and
    # the next window's; a frame on the midpoint stays with window k
    ends = (starts[:-1] + starts[1:] + length - 1) // 2 + 1
    owner = np.searchsorted(ends, frames, side="right")
    return refined[owner, frames - starts[owner]]


def refine_sequence(theta: np.ndarray, model: RefinerModel) -> np.ndarray:
    """Refine a (n_frames, 12) angle sequence.

    Series are unwrapped before windowing and stay unwrapped on output, so
    values may leave (-pi, pi]; they remain congruent modulo 2*pi.  A
    sequence of at most one window is one (n_joints, n_frames) batch, with
    no planning or stitching.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2:
        raise ShapeError(f"angle sequence must be 2-D, got shape {theta.shape}")
    n = theta.shape[0]
    if n < 1:
        raise InsufficientDataError("need at least one frame")
    unwrapped = np.unwrap(theta, axis=0)
    if n <= model.window:
        return refine_batch(unwrapped.T, model).T
    starts = plan_windows(n, model.window)
    # one row per (window, joint), window-major
    rows = sliding_window_view(unwrapped, model.window, axis=0)[starts]
    refined = refine_batch(rows.reshape(-1, model.window), model)
    refined = refined.reshape(len(starts), unwrapped.shape[1], model.window)
    return stitch_windows(refined.transpose(0, 2, 1), starts)
