"""Sliding-window execution: planning, refinement, distance-weighted merge.

A joint's full angle series rarely matches the refiner's fixed window
length, so the series is unwrapped, cut into overlapping windows, refined
window by window, and merged back.  Each frame's merged value is the
weighted mean of every covering window's estimate, weighted by the inverse
distance between the frame and the window center (plus a small epsilon so
the centered window dominates without dividing by zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ShapeError
from .refiner import RefinerModel, refine_batch
from .skeleton import unwrap_joint_angles


@dataclass(frozen=True)
class WindowPlan:
    """Window starts over a series, plus the reflect-padding map if any.

    For n_frames < length there is a single window and pad_map holds, for
    each window position, the source frame it mirrors; otherwise pad_map is
    None and starts step by stride with a final flush window so every frame
    is covered.
    """

    n_frames: int
    length: int
    starts: tuple
    pad_map: tuple | None = None

    @property
    def n_windows(self) -> int:
        return len(self.starts)


def _reflect_indices(n: int, length: int) -> tuple:
    """Source index for each of `length` positions over an n-frame series."""
    if n == 1:
        return (0,) * length
    period = 2 * (n - 1)
    idx = np.arange(length) % period
    idx = np.where(idx >= n, period - idx, idx)
    return tuple(int(i) for i in idx)


def plan_windows(n_frames: int, length: int, stride: int) -> WindowPlan:
    """Lay out covering windows for a series of n_frames."""
    if n_frames < 1:
        raise InsufficientDataError("need at least one frame")
    if length < 2 or stride < 1:
        raise ShapeError("window length must be >= 2 and stride >= 1")
    if stride > length:
        raise ShapeError(
            f"stride {stride} exceeds window length {length}; frames would go uncovered"
        )
    if n_frames < length:
        return WindowPlan(
            n_frames=n_frames,
            length=length,
            starts=(0,),
            pad_map=_reflect_indices(n_frames, length),
        )
    starts = list(range(0, n_frames - length + 1, stride))
    if starts[-1] != n_frames - length:
        starts.append(n_frames - length)
    return WindowPlan(n_frames=n_frames, length=length, starts=tuple(starts))


def _center_weights(length: int, epsilon: float) -> np.ndarray:
    offsets = np.arange(length, dtype=float)
    distance = np.abs(offsets - (length - 1) / 2.0)
    return 1.0 / (distance + epsilon)


def merge_plan(refined: np.ndarray, plan: WindowPlan, epsilon: float) -> np.ndarray:
    """Merge all frames at once; returns the (n_frames,) series."""
    if not (epsilon > 0):
        raise ShapeError(f"epsilon must be positive, got {epsilon}")
    refined = np.asarray(refined, dtype=float)
    if refined.shape != (plan.n_windows, plan.length):
        raise ShapeError(
            f"refined windows must be ({plan.n_windows}, {plan.length}), got {refined.shape}"
        )
    if plan.pad_map is not None:
        return refined[0, : plan.n_frames].copy()
    weights = _center_weights(plan.length, epsilon)
    num = np.zeros(plan.n_frames)
    den = np.zeros(plan.n_frames)
    lo = np.full(plan.n_frames, np.inf)
    hi = np.full(plan.n_frames, -np.inf)
    for k, s in enumerate(plan.starts):
        sl = slice(s, s + plan.length)
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
    """Refine a (n_frames, 12) angle sequence joint by joint.

    Series are unwrapped before windowing and stay unwrapped on output, so
    values may leave (-pi, pi]; they remain congruent modulo 2*pi.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2:
        raise ShapeError(f"angle sequence must be 2-D, got shape {theta.shape}")
    n, n_joints = theta.shape
    unwrapped = unwrap_joint_angles(theta)
    plan = plan_windows(n, model.window, stride)
    out = np.empty_like(unwrapped)
    for j in range(n_joints):
        series = unwrapped[:, j]
        if plan.pad_map is not None:
            batch = series[np.asarray(plan.pad_map)][None, :]
        else:
            batch = np.stack([series[s : s + plan.length] for s in plan.starts])
        refined = refine_batch(batch, model)
        out[:, j] = merge_plan(refined, plan, epsilon)
    return out
