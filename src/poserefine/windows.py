"""Sliding-window execution: planning, refinement, distance-weighted merge.

A joint's full angle series rarely matches the refiner's fixed window
length, so the series is unwrapped, cut into overlapping windows, refined
window by window, and merged back.  Each frame's merged value is the
weighted mean of every covering window's estimate, weighted by the inverse
distance between the frame and the window center (plus a small epsilon so
the centered window dominates without dividing by zero).  A series shorter
than the window is reflect-padded to one window first.

The windows of every joint are stacked into one (n_windows * n_joints, L)
array and refined in float32 in chunks of at most MAX_BATCH_ROWS rows, so
a short clip takes one forward call instead of one per joint and a long
one a few dozen.  Each joint's rows are then merged on their own.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, ShapeError
from .refiner import RefinerModel, refine_batch
from .skeleton import unwrap_joint_angles

# rows per forward call: the chunk bounds the forward pass's working memory
MAX_BATCH_ROWS = 256


def plan_windows(n_frames: int, length: int, stride: int) -> list:
    """Start indices of windows covering a series of n_frames >= length.

    Starts step by stride, with a final flush window so every frame is
    covered.
    """
    if length < 2 or stride < 1:
        raise ShapeError("window length must be >= 2 and stride >= 1")
    if stride > length:
        raise ShapeError(
            f"stride {stride} exceeds window length {length}; frames would go uncovered"
        )
    if n_frames < length:
        raise InsufficientDataError(f"{n_frames} frames do not fill a {length}-frame window")
    starts = list(range(0, n_frames - length + 1, stride))
    if starts[-1] != n_frames - length:
        starts.append(n_frames - length)
    return starts


def _center_weights(length: int, epsilon: float) -> np.ndarray:
    offsets = np.arange(length, dtype=float)
    distance = np.abs(offsets - (length - 1) / 2.0)
    return 1.0 / (distance + epsilon)


def merge_plan(refined: np.ndarray, starts, epsilon: float) -> np.ndarray:
    """Merge (n_windows, length) refined windows laid out at starts into the
    (starts[-1] + length,) series."""
    if not (epsilon > 0):
        raise ShapeError(f"epsilon must be positive, got {epsilon}")
    refined = np.asarray(refined, dtype=float)
    if refined.ndim != 2 or refined.shape[0] != len(starts):
        raise ShapeError(
            f"refined windows must be ({len(starts)}, length), got {refined.shape}"
        )
    length = refined.shape[1]
    n_frames = starts[-1] + length
    weights = _center_weights(length, epsilon)
    num = np.zeros(n_frames)
    den = np.zeros(n_frames)
    lo = np.full(n_frames, np.inf)
    hi = np.full(n_frames, -np.inf)
    for k, s in enumerate(starts):
        sl = slice(s, s + length)
        num[sl] += weights * refined[k]
        den[sl] += weights
        lo[sl] = np.minimum(lo[sl], refined[k])
        hi[sl] = np.maximum(hi[sl], refined[k])
    return np.clip(num / den, lo, hi)


def refine_sequence(
    theta: np.ndarray,
    model: RefinerModel,
    stride: int,
    epsilon: float,
) -> np.ndarray:
    """Refine a (n_frames, 12) angle sequence.

    Series are unwrapped before windowing and stay unwrapped on output, so
    values may leave (-pi, pi]; they remain congruent modulo 2*pi.  A
    sequence shorter than the window is refined as its reflection padded
    to one window, then cropped back.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2:
        raise ShapeError(f"angle sequence must be 2-D, got shape {theta.shape}")
    n = theta.shape[0]
    if n < 1:
        raise InsufficientDataError("need at least one frame")
    unwrapped = unwrap_joint_angles(theta)
    if n < model.window:
        unwrapped = np.pad(unwrapped, ((0, model.window - n), (0, 0)), mode="reflect")
    starts = plan_windows(unwrapped.shape[0], model.window, stride)
    n_joints = unwrapped.shape[1]
    # one row per (window, joint), window-major
    rows = sliding_window_view(unwrapped, model.window, axis=0)[starts]
    rows = rows.reshape(-1, model.window)
    refined = np.empty_like(rows)
    for lo in range(0, len(rows), MAX_BATCH_ROWS):
        part = slice(lo, lo + MAX_BATCH_ROWS)
        refined[part] = refine_batch(rows[part], model, dtype=np.float32)
    refined = refined.reshape(len(starts), n_joints, model.window)
    out = np.empty_like(unwrapped)
    for j in range(n_joints):
        out[:, j] = merge_plan(refined[:, j], starts, epsilon)
    return out[:n]
