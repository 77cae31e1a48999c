"""Trajectory conditioning: base smoothing and limb-length optimization.

Two preprocessing stages run before angle refinement.  The root (nose)
trajectory is smoothed with a quadratic sliding-window least-squares fit,
and the per-frame limb lengths are replaced by one length vector for the
clip, fitted to the median pairwise length ratios.  The limb fit is damped
Gauss-Newton in log-length space on the m(m - 1)/2 pair residuals, with
one dense m x m solve per damping try.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    if n >= 2 * w + 1:
        # interior: one projection row reused as a convolution kernel
        t = np.arange(-w, w + 1, dtype=float)
        cols = np.stack([np.ones_like(t), t, t * t], axis=1)
        proj = np.linalg.solve(cols.T @ cols, cols.T)[0]
        out[w : n - w] = np.convolve(y, proj[::-1], mode="valid")
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
    """savgol_smooth's fits at the indices `at`, whose windows start at 0.

    Index i fits y[0 : hi + 1], hi = min(i + w, n - 1), with degree
    min(2, hi), all indices at once.  In the coordinate v = j / hi the
    normal matrix is about (hi + 1) times the 3x3 Hilbert matrix, so it is
    well conditioned, and each sum over a window [0, hi] is one entry of a
    running sum.  The value at i is a · [Σy, Σy·v, Σy·v²], where a solves
    M a = [1, v_i, v_i²]; a linear fit replaces M's quadratic row and
    column by the identity's and the target's last entry by 0, so a2 = 0.
    """
    hi = np.minimum(at + w, y.size - 1)
    top = int(hi.max(initial=0)) + 1
    powers = np.arange(top, dtype=float)[:, None] ** np.arange(5)
    scale = hi[:, None].astype(float) ** np.arange(5)
    moments = np.cumsum(powers, axis=0)[hi] / scale
    sums = np.cumsum(y[:top, None] * powers[:, :3], axis=0)[hi] / scale[:, :3]
    normal = moments[:, np.add.outer(np.arange(3), np.arange(3))]
    v = at / hi
    target = np.stack([np.ones_like(v), v, v * v], axis=1)
    linear = hi < 2
    normal[linear, 2, :] = 0.0
    normal[linear, :, 2] = 0.0
    normal[linear, 2, 2] = 1.0
    target[linear, 2] = 0.0
    coef = np.linalg.solve(normal, target[:, :, None])[:, :, 0]
    return np.sum(coef * sums, axis=1)


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


def limb_objective(lengths: np.ndarray, ratios: RatioTable) -> float:
    """Ratio-consistency loss of one length vector against the table."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1:
        raise ShapeError(f"lengths must be 1-D, got shape {lengths.shape}")
    ii, jj = np.triu_indices(lengths.size, 1)
    rr = lengths[ii] / lengths[jj] - ratios.table[ii, jj]
    return float(rr @ rr)


def _pairs(table: np.ndarray):
    """The incidence matrix E and the target ratios of the limb pairs i < j.

    E is (pairs, m) with +1 at limb i and -1 at limb j, its rows in
    np.triu_indices order, so E @ u holds u_i - u_j; the targets are
    table[i, j] in the same order.
    """
    m = table.shape[0]
    ii, jj = np.triu_indices(m, 1)
    incidence = np.zeros((ii.size, m))
    rows = np.arange(ii.size)
    incidence[rows, ii] = 1.0
    incidence[rows, jj] = -1.0
    return incidence, table[ii, jj]


def _residuals(u: np.ndarray, incidence: np.ndarray, target: np.ndarray):
    """Pair residuals exp(u_i - u_j) - table[i, j], and the ratios v.

    The Jacobian in u is v * E: the residual of pair (i, j) has
    derivative v in u_i and -v in u_j.
    """
    ratio_vals = np.exp(incidence @ u)
    return ratio_vals - target, ratio_vals


def limb_loss_gradient(u: np.ndarray, ratios: RatioTable):
    """Loss and its analytic gradient with respect to log-lengths u (m,)."""
    u = np.asarray(u, dtype=float)
    incidence, target = _pairs(ratios.table)
    r, ratio_vals = _residuals(u, incidence, target)
    return float(r @ r), 2.0 * ((ratio_vals * r) @ incidence)


def optimize_limb_lengths(raw_lengths: np.ndarray, ratios: RatioTable) -> LimbSolveResult:
    """Fit one length vector to the ratio table, for a clip of raw lengths.

    Works in log-length space so lengths stay positive.  Steps are damped
    Gauss-Newton solves on the pair residuals; a step is kept only when
    it reduces the loss, and the damping adapts to the ratio of actual to
    predicted reduction.  Each damping try is one dense solve of
    J^T J + mu I, m x m for m limbs.  Initialization is the per-limb
    temporal median of the raw lengths, so input that is already constant
    and exactly ratio-consistent is a fixed point.
    """
    raw = np.asarray(raw_lengths, dtype=float)
    if raw.ndim != 2:
        raise ShapeError(f"raw lengths must be 2-D, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise ShapeError("raw lengths must be finite")
    m = raw.shape[1]
    if ratios.n_limbs != m:
        raise ShapeError("ratio table size does not match limb count")
    alive = raw > 0
    if not alive.any(axis=0).all():
        limb = int(np.argmin(alive.any(axis=0)))
        raise DegenerateLimbError(f"limb {limb} has no positive-length frame")

    u = np.log([np.median(raw[alive[:, i], i]) for i in range(m)])
    incidence, target = _pairs(ratios.table)

    r, ratio_vals = _residuals(u, incidence, target)
    if not np.isfinite(r).all():
        raise ShapeError("non-finite loss at the initial point")
    loss = float(r @ r)
    history = [loss]
    mu = 1.0
    growth = 2.0

    for _outer in range(_MAX_ITERATIONS):
        jtr = (ratio_vals * r) @ incidence
        if np.max(np.abs(2.0 * jtr)) <= _GRADIENT_TOLERANCE:
            break
        jac = ratio_vals[:, None] * incidence
        jtj = jac.T @ jac

        accepted = False
        for _ in range(60):
            try:
                delta = np.linalg.solve(jtj + mu * np.eye(m), -jtr)
            except np.linalg.LinAlgError:
                pass  # singular: retry with more damping
            else:
                u_new = u + delta
                r_new, rv_new = _residuals(u_new, incidence, target)
                loss_new = float(r_new @ r_new)
                # quadratic model: loss + 2 r.J d + |J d|^2
                jd = jac @ delta
                predicted = -(2.0 * (jtr @ delta) + jd @ jd)
                if predicted > 0 and np.isfinite(loss_new) and loss_new < loss:
                    rho = (loss - loss_new) / predicted
                    u, r, ratio_vals, loss = u_new, r_new, rv_new, loss_new
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

    # also true when the budget ran out right at a stationary point
    converged = np.max(np.abs(2.0 * ((ratio_vals * r) @ incidence))) <= _GRADIENT_TOLERANCE
    return LimbSolveResult(
        lengths=np.exp(u),
        converged=bool(converged),
        iterations=len(history) - 1,
        loss_history=history,
    )
