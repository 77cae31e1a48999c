"""Trajectory conditioning: base smoothing and limb-length optimization.

Two preprocessing stages run before angle refinement.  The root (nose)
trajectory is smoothed with a quadratic sliding-window least-squares fit,
and the per-frame limb lengths are replaced by one length vector for the
clip, fitted to the median pairwise length ratios.  The limb fit is the
closed-form least-squares solution in log-length space: each limb's log
length is its row mean of the log ratio table, shifted so that the lengths'
geometric mean is that of the per-limb median lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLimbError, InsufficientDataError, ShapeError
from .skeleton import PoseSequence


def savgol_smooth(series: np.ndarray, half_width: int) -> np.ndarray:
    """Smooth a 1-D series by refitting a quadratic around every index.

    The window is [i - half_width, i + half_width], clamped at the series
    bounds.  Each output value is the fitted polynomial evaluated at its own
    index, so the output has the same length as the input and degree <= 2
    polynomials pass through unchanged.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ShapeError(f"series must be 1-D, got shape {y.shape}")
    return _savgol_columns(y[:, None], half_width)[:, 0]


def _savgol_columns(y: np.ndarray, half_width: int) -> np.ndarray:
    """savgol_smooth of each column of y (n, k), with the same bits.

    The columns share the interior kernel and the edge fits' moment sums
    and 3x3 solves, which depend only on n and half_width.
    """
    w = int(half_width)
    if w < 1:
        raise ShapeError(f"half_width must be >= 1, got {half_width}")
    n = len(y)
    if n < 3:
        raise InsufficientDataError(f"smoothing needs >= 3 frames, got {n}")
    out = np.empty(y.shape)

    if n >= 2 * w + 1:
        # interior: one projection row reused as a convolution kernel
        t = np.arange(-w, w + 1, dtype=float)
        cols = np.stack([np.ones_like(t), t, t * t], axis=1)
        kernel = np.linalg.solve(cols.T @ cols, cols.T)[0][::-1]
        for column, series in zip(out.T, y.T):
            column[w : n - w] = np.convolve(series, kernel, mode="valid")
        edge = np.r_[0:w, n - w : n]
    else:
        edge = np.arange(n)
    # a clamped window starts at index 0 or ends at n - 1; the latter are
    # fitted as windows that start at 0 on the reversed series
    left = edge <= w
    out[edge[left]] = _fits_from_start(y, edge[left], w)
    out[edge[~left]] = _fits_from_start(y[::-1], n - 1 - edge[~left], w)
    return out


def _fits_from_start(y: np.ndarray, at: np.ndarray, w: int) -> np.ndarray:
    """savgol_smooth's fits of each column of y (n, k) at the indices `at`,
    whose windows start at 0; returns (len(at), k).

    Index i fits y[0 : hi + 1], hi = min(i + w, n - 1), with degree
    min(2, hi), all indices and columns at once.  In the coordinate
    v = j / hi the normal matrix is about (hi + 1) times the 3x3 Hilbert
    matrix, so it is well conditioned, and each sum over a window [0, hi]
    is one entry of a running sum.  The value at i is
    a · [Σy, Σy·v, Σy·v²], where a solves M a = [1, v_i, v_i²]; a linear
    fit replaces M's quadratic row and column by the identity's and the
    target's last entry by 0, so a2 = 0.  M and a depend only on i, so
    the columns share them.
    """
    hi = np.minimum(at + w, len(y) - 1)
    top = int(hi.max(initial=0)) + 1
    powers = np.arange(top, dtype=float)[:, None] ** np.arange(5)
    scale = hi[:, None].astype(float) ** np.arange(5)
    moments = np.cumsum(powers, axis=0)[hi] / scale
    sums = np.cumsum(y[:top, :, None] * powers[:, None, :3], axis=0)[hi]
    sums /= scale[:, None, :3]
    normal = moments[:, np.add.outer(np.arange(3), np.arange(3))]
    v = at / hi
    target = np.stack([np.ones_like(v), v, v * v], axis=1)
    linear = hi < 2
    normal[linear, 2, :] = 0.0
    normal[linear, :, 2] = 0.0
    normal[linear, 2, 2] = 1.0
    target[linear, 2] = 0.0
    coef = np.linalg.solve(normal, target[:, :, None])[:, None, :, 0]
    return np.sum(coef * sums, axis=2)


def smooth_base_trajectory(seq: PoseSequence, half_width: int) -> np.ndarray:
    """Smooth the root keypoint trajectory; returns (n_frames, 2).

    x and y are each smoothed as savgol_smooth would, in one pass.
    """
    return _savgol_columns(seq.xy[:, 0, :], half_width)


def estimate_ratios(raw_lengths: np.ndarray) -> np.ndarray:
    """Median of per-frame length ratios over frames where both limbs exist.

    Returns the (n_limbs, n_limbs) table: table[i, j] is the median of
    limb i's length over limb j's, and table[j, i] = 1 / table[i, j].
    raw_lengths is (n_frames, n_limbs); zero-length entries are treated as
    missing.  A limb with no positive frame, or a pair with no common
    positive frame, cannot be ratio-calibrated and is an error.
    """
    raw = np.asarray(raw_lengths, dtype=float)
    if raw.ndim != 2:
        raise ShapeError(f"raw lengths must be 2-D, got shape {raw.shape}")
    n, m = raw.shape
    alive = raw > 0
    if not alive.any(axis=0).all():
        limb = int(np.argmin(alive.any(axis=0)))
        raise DegenerateLimbError(f"limb {limb} has no positive-length frame")
    # every pair i < j at once, in the row-major order of the upper triangle
    i, j = np.triu_indices(m, 1)
    both = alive[:, i] & alive[:, j]
    count = both.sum(axis=0)
    if (count == 0).any():
        p = int(np.argmax(count == 0))
        raise DegenerateLimbError(
            f"limbs {i[p]} and {j[p]} share no frame with positive lengths"
        )
    # an exact masked median: missing ratios sort last as NaN, and the
    # middle one or two of a column's `count` ratios are averaged as
    # np.median does; a NaN among the ratios themselves makes it NaN too
    ratios = np.divide(raw[:, i], raw[:, j], out=np.full(both.shape, np.nan), where=both)
    ordered = np.sort(ratios, axis=0)
    cols = np.arange(i.size)
    low = ordered[(count - 1) // 2, cols]
    high = ordered[count // 2, cols]
    median = np.where(count % 2 == 1, low, (low + high) / 2)
    median[np.isnan(ratios).sum(axis=0) > n - count] = np.nan
    table = np.ones((m, m))
    table[i, j] = median
    table[j, i] = 1.0 / median
    return table


@dataclass
class LimbSolveResult:
    lengths: np.ndarray
    # always True and 0: the fit has no iterations, but perfbench reads both
    converged: bool = True
    iterations: int = 0


def optimize_limb_lengths(raw_lengths: np.ndarray, table: np.ndarray) -> LimbSolveResult:
    """Fit one length vector to the ratio table, for a clip of raw lengths.

    The log-lengths u minimise sum over pairs i < j of
    (u_i - u_j - log table[i, j])^2.  The pairs form a complete graph, so
    for a reciprocal table (table[j, i] = 1 / table[i, j], as
    estimate_ratios makes it) the minimisers are the row means of
    log(table) plus a constant; the constant is fixed so that sum(u) is the
    sum of the logs of each limb's median positive raw length.  Input that
    is already constant and exactly ratio-consistent is a fixed point.
    """
    raw = np.asarray(raw_lengths, dtype=float)
    if raw.ndim != 2:
        raise ShapeError(f"raw lengths must be 2-D, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise ShapeError("raw lengths must be finite")
    table = np.asarray(table, dtype=float)
    m = raw.shape[1]
    if table.shape != (m, m):
        raise ShapeError(f"ratio table must be {m} x {m} for {m} limbs, got {table.shape}")
    if not np.isfinite(table).all() or not (table > 0).all():
        raise ShapeError("ratio table entries must be finite and positive")
    alive = raw > 0
    if not alive.any(axis=0).all():
        limb = int(np.argmin(alive.any(axis=0)))
        raise DegenerateLimbError(f"limb {limb} has no positive-length frame")

    medians = [np.median(raw[alive[:, i], i]) for i in range(m)]
    u = np.log(table).mean(axis=1) + np.log(medians).mean()
    return LimbSolveResult(lengths=np.exp(u))
