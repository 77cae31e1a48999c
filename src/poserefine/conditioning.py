"""Trajectory conditioning: base smoothing and limb-length optimization.

Two preprocessing stages run before angle refinement.  The root (nose)
trajectory is smoothed with a quadratic sliding-window least-squares fit,
and the per-frame limb lengths are replaced by lengths that respect the
subject's limb proportions while varying smoothly over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DegenerateLimbError, InsufficientDataError, ShapeError
from .skeleton import PoseSequence

# limb solver: converged once no gradient entry exceeds the tolerance,
# given up after this many damped Gauss-Newton iterations
_GRADIENT_TOLERANCE = 1e-8
_MAX_ITERATIONS = 200


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
    w = int(half_width)
    if w < 1:
        raise ShapeError(f"half_width must be >= 1, got {half_width}")
    n = y.size
    if n < 3:
        raise InsufficientDataError(f"smoothing needs >= 3 frames, got {n}")
    out = np.empty(n)

    edge_idx: list[int]
    if n >= 2 * w + 1:
        # interior: one projection row reused as a convolution kernel
        t = np.arange(-w, w + 1, dtype=float)
        cols = np.stack([np.ones_like(t), t, t * t], axis=1)
        proj = np.linalg.solve(cols.T @ cols, cols.T)[0]
        out[w : n - w] = np.convolve(y, proj[::-1], mode="valid")
        edge_idx = list(range(w)) + list(range(n - w, n))
    else:
        edge_idx = list(range(n))

    for i in edge_idx:
        lo = max(0, i - w)
        hi = min(n - 1, i + w)
        t = np.arange(lo, hi + 1, dtype=float) - i
        deg = min(2, t.size - 1)
        cols = np.vander(t, deg + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(cols, y[lo : hi + 1], rcond=None)
        out[i] = coef[0]
    return out


def smooth_base_trajectory(seq: PoseSequence, half_width: int) -> np.ndarray:
    """Smooth the root keypoint trajectory; returns (n_frames, 2)."""
    nose = seq.xy[:, 0, :]
    return np.stack(
        [savgol_smooth(nose[:, 0], half_width), savgol_smooth(nose[:, 1], half_width)],
        axis=1,
    )


@dataclass
class RatioTable:
    """Pairwise limb-length ratios; table[j][i] is stored as 1 / table[i][j]."""

    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float)
        m = self.table.shape[0]
        if self.table.shape != (m, m):
            raise ShapeError(f"ratio table must be square, got {self.table.shape}")
        if not np.isfinite(self.table).all() or not (self.table > 0).all():
            raise ShapeError("ratio table entries must be finite and positive")

    @property
    def n_limbs(self) -> int:
        return self.table.shape[0]


def estimate_ratios(raw_lengths: np.ndarray) -> RatioTable:
    """Median of per-frame length ratios over frames where both limbs exist.

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
    table = np.ones((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            both = alive[:, i] & alive[:, j]
            if not both.any():
                raise DegenerateLimbError(
                    f"limbs {i} and {j} share no frame with positive lengths"
                )
            r = float(np.median(raw[both, i] / raw[both, j]))
            table[i, j] = r
            table[j, i] = 1.0 / r
    return RatioTable(table=table)


@dataclass
class LimbSolveResult:
    lengths: np.ndarray
    converged: bool
    iterations: int
    loss_history: list[float] = field(default_factory=list)

    @property
    def initial_loss(self) -> float:
        return self.loss_history[0]

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1]


def _pair_index(m: int):
    return np.triu_indices(m, k=1)


def limb_objective(lengths: np.ndarray, ratios: RatioTable, smoothness_weight: float) -> float:
    """Ratio-consistency plus temporal-smoothness loss over per-frame lengths."""
    lengths = np.asarray(lengths, dtype=float)
    ii, jj = _pair_index(lengths.shape[1])
    rr = lengths[:, ii] / lengths[:, jj] - ratios.table[ii, jj]
    ds = np.diff(lengths, axis=0)
    return float(np.sum(rr * rr) + smoothness_weight * np.sum(ds * ds))


def _residuals(u: np.ndarray, table: np.ndarray, sqrt_w: float):
    """Stacked residual vector at log-lengths u (n, m)."""
    ii, jj = _pair_index(u.shape[1])
    ratio_vals = np.exp(u[:, ii] - u[:, jj])
    rr = ratio_vals - table[ii, jj]
    lengths = np.exp(u)
    rs = sqrt_w * np.diff(lengths, axis=0)
    return np.concatenate([rr.ravel(), rs.ravel()]), ratio_vals, lengths


def _jacobian(u: np.ndarray, ratio_vals: np.ndarray, lengths: np.ndarray, sqrt_w: float):
    """Sparse Jacobian of the stacked residuals w.r.t. flattened log-lengths."""
    n, m = u.shape
    ii, jj = _pair_index(m)
    p = ii.size
    frames = np.repeat(np.arange(n), p)

    rows_r = np.arange(n * p)
    cols_i = frames * m + np.tile(ii, n)
    cols_j = frames * m + np.tile(jj, n)
    vals = ratio_vals.ravel()

    rows_s = n * p + np.arange((n - 1) * m)
    grid = np.arange((n - 1) * m)
    cols_cur = grid + m  # u[t, i] with t >= 1
    cols_prev = grid
    vals_cur = sqrt_w * lengths[1:].ravel()
    vals_prev = -sqrt_w * lengths[:-1].ravel()

    rows = np.concatenate([rows_r, rows_r, rows_s, rows_s])
    cols = np.concatenate([cols_i, cols_j, cols_cur, cols_prev])
    data = np.concatenate([vals, -vals, vals_cur, vals_prev])
    shape = (n * p + (n - 1) * m, n * m)
    return sp.csr_matrix((data, (rows, cols)), shape=shape)


def limb_loss_gradient(u: np.ndarray, ratios: RatioTable, smoothness_weight: float):
    """Loss and its analytic gradient with respect to log-lengths u (n, m)."""
    u = np.asarray(u, dtype=float)
    sqrt_w = float(np.sqrt(smoothness_weight))
    r, ratio_vals, lengths = _residuals(u, ratios.table, sqrt_w)
    jac = _jacobian(u, ratio_vals, lengths, sqrt_w)
    loss = float(r @ r)
    grad = 2.0 * (jac.T @ r)
    return loss, grad.reshape(u.shape)


def optimize_limb_lengths(
    raw_lengths: np.ndarray,
    ratios: RatioTable,
    smoothness_weight: float,
) -> LimbSolveResult:
    """Fit per-frame lengths that match the ratio table and vary smoothly.

    Works in log-length space so lengths stay positive.  Steps are damped
    Gauss-Newton solves on the stacked residuals; a step is kept only when
    it reduces the loss, and the damping adapts to the ratio of actual to
    predicted reduction.  Initialization is the per-limb temporal median of
    the raw lengths, so input that is already constant and exactly
    ratio-consistent is a fixed point.
    """
    if smoothness_weight < 0:
        raise ShapeError("smoothness_weight must be >= 0")
    raw = np.asarray(raw_lengths, dtype=float)
    if raw.ndim != 2:
        raise ShapeError(f"raw lengths must be 2-D, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise ShapeError("raw lengths must be finite")
    n, m = raw.shape
    if ratios.n_limbs != m:
        raise ShapeError("ratio table size does not match limb count")
    alive = raw > 0
    if not alive.any(axis=0).all():
        limb = int(np.argmin(alive.any(axis=0)))
        raise DegenerateLimbError(f"limb {limb} has no positive-length frame")

    init = np.array([np.median(raw[alive[:, i], i]) for i in range(m)])
    u = np.log(np.broadcast_to(init, (n, m)).copy())
    sqrt_w = float(np.sqrt(smoothness_weight))
    table = ratios.table

    r, ratio_vals, lengths = _residuals(u, table, sqrt_w)
    if not np.isfinite(r).all():
        raise ShapeError("non-finite loss at the initial point")
    loss = float(r @ r)
    history = [loss]
    eye = sp.identity(n * m, format="csr")
    mu = 1.0
    growth = 2.0
    converged = False

    for _outer in range(_MAX_ITERATIONS):
        jac = _jacobian(u, ratio_vals, lengths, sqrt_w)
        grad = 2.0 * (jac.T @ r)
        if np.max(np.abs(grad)) <= _GRADIENT_TOLERANCE:
            converged = True
            break
        jtj = (jac.T @ jac).tocsr()
        jtr = jac.T @ r

        accepted = False
        for _ in range(60):
            system = (jtj + mu * eye).tocsc()
            try:
                delta = splu(system).solve(-jtr)
            except RuntimeError:
                pass  # singular: retry with more damping
            else:
                u_new = u + delta.reshape(n, m)
                r_new, rv_new, len_new = _residuals(u_new, table, sqrt_w)
                loss_new = float(r_new @ r_new)
                # quadratic model: loss + 2 r.J d + d.JtJ d
                predicted = -(2.0 * (jtr @ delta) + delta @ (jtj @ delta))
                if predicted > 0 and np.isfinite(loss_new) and loss_new < loss:
                    rho = (loss - loss_new) / predicted
                    u, r, ratio_vals, lengths, loss = u_new, r_new, rv_new, len_new, loss_new
                    history.append(loss)
                    mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                    growth = 2.0
                    accepted = True
                    break
            if mu > np.finfo(float).max / growth:
                break  # no finite damping is left to try
            mu *= growth
            growth *= 2.0
        if not accepted:
            break

    if not converged:
        # the budget may have run out right at a stationary point
        jac = _jacobian(u, ratio_vals, lengths, sqrt_w)
        if np.max(np.abs(2.0 * (jac.T @ r))) <= _GRADIENT_TOLERANCE:
            converged = True

    return LimbSolveResult(
        lengths=np.exp(u),
        converged=converged,
        iterations=len(history) - 1,
        loss_history=history,
    )
