"""Trajectory conditioning: base smoothing and limb-length optimization.

Two preprocessing stages run before angle refinement.  The root (nose)
trajectory is smoothed with a quadratic sliding-window least-squares fit,
and the per-frame limb lengths are replaced by lengths that respect the
subject's limb proportions while varying smoothly over time.  The limb fit
is damped Gauss-Newton in log-length space; its normal matrix is built
straight into banded storage and each damping try is one banded Cholesky
solve, so no sparse Jacobian is ever assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

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
    """Stacked residual vector at log-lengths u (n, m).

    The n * pairs ratio residuals come first, frame-major, then the
    (n - 1) * m smoothness residuals.
    """
    ii, jj = _pair_index(u.shape[1])
    ratio_vals = np.exp(u[:, ii] - u[:, jj])
    rr = ratio_vals - table[ii, jj]
    lengths = np.exp(u)
    rs = sqrt_w * np.diff(lengths, axis=0)
    return np.concatenate([rr.ravel(), rs.ravel()]), ratio_vals, lengths


def _incidence(m: int) -> np.ndarray:
    """(pairs, m) matrix with +1 at limb i and -1 at limb j of each pair i < j."""
    ii, jj = _pair_index(m)
    out = np.zeros((ii.size, m))
    rows = np.arange(ii.size)
    out[rows, ii] = 1.0
    out[rows, jj] = -1.0
    return out


def _jt_residual(r: np.ndarray, ratio_vals: np.ndarray, lengths: np.ndarray, sqrt_w: float):
    """J^T r as an (n, m) array.

    The ratio residual of pair (i, j) has derivative v = exp(u_i - u_j) in
    u_i and -v in u_j; the smoothness residual of limb i between frames t
    and t + 1 has derivative sqrt_w * L in u[t + 1, i] and -sqrt_w * L in
    u[t, i], each L taken at its own frame.
    """
    n, m = lengths.shape
    rr = r[: ratio_vals.size].reshape(ratio_vals.shape)
    rs = r[ratio_vals.size :].reshape(n - 1, m)
    out = (ratio_vals * rr) @ _incidence(m)
    a = sqrt_w * lengths
    out[1:] += a[1:] * rs
    out[:-1] -= a[:-1] * rs
    return out


def _normal_band(ratio_vals: np.ndarray, lengths: np.ndarray, sqrt_w: float) -> np.ndarray:
    """J^T J in LAPACK lower-band storage, shape (m + 1, n * m).

    Unknowns are frame-major, so band[d, t * m + i] is the entry d rows
    below the diagonal in column (t, i).  Within a frame the ratio
    residuals give a weighted Laplacian: limb i's diagonal sums v^2 over
    its pairs, and pair (i, j) puts -v^2 at offset j - i.  The smoothness
    residuals add (sqrt_w * L)^2 to the diagonal once per neighbouring
    frame and couple (t, i) to (t + 1, i) at offset m.
    """
    n, m = lengths.shape
    ii, jj = _pair_index(m)
    v2 = ratio_vals * ratio_vals
    a = sqrt_w * lengths
    a2 = a * a
    band = np.zeros((m + 1, n, m))
    band[0] = v2 @ np.abs(_incidence(m))
    band[0, 1:] += a2[1:]
    band[0, :-1] += a2[:-1]
    band[jj - ii, :, ii] = -v2.T
    band[m, :-1] = -a[:-1] * a[1:]
    return band.reshape(m + 1, n * m)


def _jd_norm2(d: np.ndarray, ratio_vals: np.ndarray, lengths: np.ndarray, sqrt_w: float):
    """|J d|^2 = d^T J^T J d for a step d (n, m), from the residual structure."""
    ii, jj = _pair_index(d.shape[1])
    jd_ratio = (ratio_vals * (d[:, ii] - d[:, jj])).ravel()
    a = sqrt_w * lengths
    jd_smooth = (a[1:] * d[1:] - a[:-1] * d[:-1]).ravel()
    return float(jd_ratio @ jd_ratio + jd_smooth @ jd_smooth)


def _damped_step(band: np.ndarray, jtr: np.ndarray, mu: float) -> np.ndarray:
    """Solve (J^T J + mu I) delta = -J^T r by banded Cholesky.

    Raises LinAlgError when the damped matrix is not numerically positive
    definite.
    """
    system = band.copy()
    system[0] += mu
    return solveh_banded(
        system, -jtr.ravel(), overwrite_ab=True, overwrite_b=True, lower=True,
        check_finite=False,
    )


def limb_loss_gradient(u: np.ndarray, ratios: RatioTable, smoothness_weight: float):
    """Loss and its analytic gradient with respect to log-lengths u (n, m)."""
    u = np.asarray(u, dtype=float)
    sqrt_w = float(np.sqrt(smoothness_weight))
    r, ratio_vals, lengths = _residuals(u, ratios.table, sqrt_w)
    loss = float(r @ r)
    return loss, 2.0 * _jt_residual(r, ratio_vals, lengths, sqrt_w)


def optimize_limb_lengths(
    raw_lengths: np.ndarray,
    ratios: RatioTable,
    smoothness_weight: float,
) -> LimbSolveResult:
    """Fit per-frame lengths that match the ratio table and vary smoothly.

    Works in log-length space so lengths stay positive.  Steps are damped
    Gauss-Newton solves on the stacked residuals; a step is kept only when
    it reduces the loss, and the damping adapts to the ratio of actual to
    predicted reduction.  Each damping try is one banded Cholesky solve of
    J^T J + mu I, whose half-bandwidth is the limb count because the
    unknowns are frame-major.  Initialization is the per-limb temporal
    median of the raw lengths, so input that is already constant and
    exactly ratio-consistent is a fixed point.
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
    mu = 1.0
    growth = 2.0
    converged = False

    for _outer in range(_MAX_ITERATIONS):
        jtr = _jt_residual(r, ratio_vals, lengths, sqrt_w)
        if np.max(np.abs(2.0 * jtr)) <= _GRADIENT_TOLERANCE:
            converged = True
            break
        band = _normal_band(ratio_vals, lengths, sqrt_w)

        accepted = False
        for _ in range(60):
            try:
                delta = _damped_step(band, jtr, mu).reshape(n, m)
            except LinAlgError:
                pass  # not positive definite: retry with more damping
            else:
                u_new = u + delta
                r_new, rv_new, len_new = _residuals(u_new, table, sqrt_w)
                loss_new = float(r_new @ r_new)
                # quadratic model: loss + 2 r.J d + |J d|^2
                predicted = -(
                    2.0 * (jtr.ravel() @ delta.ravel())
                    + _jd_norm2(delta, ratio_vals, lengths, sqrt_w)
                )
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
        jtr = _jt_residual(r, ratio_vals, lengths, sqrt_w)
        if np.max(np.abs(2.0 * jtr)) <= _GRADIENT_TOLERANCE:
            converged = True

    return LimbSolveResult(
        lengths=np.exp(u),
        converged=converged,
        iterations=len(history) - 1,
        loss_history=history,
    )
