"""Base smoothing and limb-length optimization against independent oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import poserefine
from poserefine import (
    DegenerateLimbError,
    InsufficientDataError,
    LimbSolveResult,
    RatioTable,
    ShapeError,
    estimate_ratios,
    limb_loss_gradient,
    limb_objective,
    optimize_limb_lengths,
    savgol_smooth,
    smooth_base_trajectory,
)
from poserefine.conditioning import _pairs, _residuals

from conftest import make_rng, random_sequence


def savgol_oracle(y: np.ndarray, half_width: int) -> np.ndarray:
    """Per-index quadratic fit via explicit normal equations.

    Deliberately naive: builds and solves the normal equations at every
    index with no shared kernels, as an independent route to the same
    definition.
    """
    n = y.size
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half_width)
        hi = min(n - 1, i + half_width)
        t = np.arange(lo, hi + 1, dtype=float)
        deg = min(2, t.size - 1)
        a = np.stack([(t - i) ** k for k in range(deg + 1)], axis=1)
        coef = np.linalg.solve(a.T @ a, a.T @ y[lo : hi + 1])
        out[i] = coef[0]
    return out


def test_savgol_reproduces_quadratics():
    t = np.arange(300, dtype=float)
    for a, b, c in ((0.0, 0.0, 5.0), (0.01, -2.0, 40.0), (-0.003, 0.8, -7.0)):
        y = a * t * t + b * t + c
        for w in (2, 10, 50):
            out = savgol_smooth(y, w)
            assert np.max(np.abs(out - y)) <= 1e-9


def test_savgol_matches_normal_equation_oracle():
    rng = make_rng(21)
    y = rng.normal(0.0, 3.0, size=257)
    for w in (2, 10, 50, 200):
        out = savgol_smooth(y, w)
        assert np.max(np.abs(out - savgol_oracle(y, w))) <= 1e-10


def savgol_lstsq_oracle(y: np.ndarray, half_width: int) -> np.ndarray:
    """Per-index least-squares fit, one np.linalg.lstsq call per index."""
    n = y.size
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half_width)
        hi = min(n - 1, i + half_width)
        t = np.arange(lo, hi + 1, dtype=float) - i
        cols = np.vander(t, min(2, t.size - 1) + 1, increasing=True)
        out[i] = np.linalg.lstsq(cols, y[lo : hi + 1], rcond=None)[0][0]
    return out


@pytest.mark.parametrize("n", [3, 4, 40, 99, 101, 250])
@pytest.mark.parametrize("half_width", [1, 2, 50])
def test_savgol_clamped_fits_match_per_index_lstsq(n, half_width):
    # n < 2*half_width + 1 clamps every window; n = 101 with half_width 50
    # has one interior index; half_width 1 has two-point linear end fits
    rng = make_rng(1000 + n + half_width)
    for y in (rng.normal(0.0, 3.0, size=n), 300.0 + 20.0 * rng.normal(size=n).cumsum()):
        want = savgol_lstsq_oracle(y, half_width)
        got = savgol_smooth(y, half_width)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_savgol_is_linear():
    rng = make_rng(22)
    a = rng.normal(size=80)
    b = rng.normal(size=80)
    lhs = savgol_smooth(2.5 * a - 1.25 * b, 7)
    rhs = 2.5 * savgol_smooth(a, 7) - 1.25 * savgol_smooth(b, 7)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_savgol_short_series():
    # shorter than the nominal window: every index uses a clamped fit
    y = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
    out = savgol_smooth(y, 50)
    assert np.max(np.abs(out - y)) <= 1e-9
    out3 = savgol_smooth(np.array([2.0, -1.0, 5.0]), 1)
    assert np.max(np.abs(out3 - savgol_oracle(np.array([2.0, -1.0, 5.0]), 1))) <= 1e-10


def test_savgol_input_validation():
    with pytest.raises(InsufficientDataError):
        savgol_smooth(np.array([1.0, 2.0]), 5)
    with pytest.raises(ShapeError):
        savgol_smooth(np.zeros((4, 2)), 5)
    with pytest.raises(ShapeError, match="half_width"):
        savgol_smooth(np.zeros(10), 0)


def test_smooth_base_trajectory_uses_root_keypoint():
    rng = make_rng(23)
    seq = random_sequence(rng, 120)
    out = smooth_base_trajectory(seq, 9)
    assert out.shape == (120, 2)
    assert np.array_equal(out[:, 0], savgol_smooth(seq.xy[:, 0, 0], 9))
    assert np.array_equal(out[:, 1], savgol_smooth(seq.xy[:, 0, 1], 9))


# ---------------------------------------------------------------------------
# ratio estimation


def test_estimate_ratios_hand_case():
    raw = np.tile(np.array([[2.0, 1.0, 4.0]]), (6, 1))
    table = estimate_ratios(raw).table
    assert table[0, 1] == 2.0 and table[1, 0] == 0.5
    assert table[0, 2] == 0.5 and table[2, 0] == 2.0
    assert np.array_equal(np.diag(table), np.ones(3))


def test_estimate_ratios_reciprocal_exact():
    # the mirror entry is stored as the literal reciprocal of the median,
    # so R[j][i] == 1 / R[i][j] holds bitwise in the stored direction
    rng = make_rng(24)
    raw = rng.uniform(10.0, 90.0, size=(40, 6))
    table = estimate_ratios(raw).table
    for i in range(6):
        for j in range(i + 1, 6):
            assert table[j, i] == 1.0 / table[i, j]
            assert table[i, j] * table[j, i] == pytest.approx(1.0, abs=1e-14)


def test_estimate_ratios_ignores_zero_length_frames():
    # limb 0 is missing on frames where the pairing would be 10:1; the
    # median must come only from the common frames at 2:1
    raw = np.array([[2.0, 1.0], [0.0, 1.0], [2.0, 1.0], [0.0, 1.0], [2.0, 1.0]])
    assert estimate_ratios(raw).table[0, 1] == 2.0


def test_estimate_ratios_errors():
    with pytest.raises(DegenerateLimbError, match="limb 1"):
        estimate_ratios(np.array([[1.0, 0.0], [2.0, 0.0]]))
    # both limbs alive somewhere but never together
    with pytest.raises(DegenerateLimbError):
        estimate_ratios(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ShapeError):
        estimate_ratios(np.ones(5))


def ratios_loop_oracle(raw: np.ndarray) -> np.ndarray:
    """One np.median per limb pair over the frames where both exist."""
    m = raw.shape[1]
    alive = raw > 0
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
    return table


def test_estimate_ratios_is_bitwise_the_per_pair_median():
    rng = make_rng(25)
    for n in (1, 2, 3, 40, 99, 100):
        raw = rng.uniform(5.0, 60.0, size=(n, 12))
        assert np.array_equal(estimate_ratios(raw).table, ratios_loop_oracle(raw))
        # zero lengths leave each pair its own odd or even count of frames
        holes = raw.copy()
        holes[rng.random(holes.shape) < 0.3] = 0.0
        holes[0] = raw[0]
        assert np.array_equal(estimate_ratios(holes).table, ratios_loop_oracle(holes))


def test_estimate_ratios_reports_the_first_pair_without_common_frames():
    # pairs (1, 3) and (2, 4) never overlap; (1, 3) comes first
    raw = np.ones((4, 5))
    raw[:2, 1] = 0.0
    raw[2:, 3] = 0.0
    raw[:2, 2] = 0.0
    raw[2:, 4] = 0.0
    with pytest.raises(DegenerateLimbError) as want:
        ratios_loop_oracle(raw)
    with pytest.raises(DegenerateLimbError) as got:
        estimate_ratios(raw)
    assert str(got.value) == str(want.value) == (
        "limbs 1 and 3 share no frame with positive lengths"
    )


def test_ratio_table_validation():
    with pytest.raises(ShapeError):
        RatioTable(table=np.ones((3, 4)))
    with pytest.raises(ShapeError):
        RatioTable(table=np.array([[1.0, -2.0], [0.5, 1.0]]))


# ---------------------------------------------------------------------------
# limb solver


def test_limb_objective_hand_value():
    # lengths (2, 1), target ratio 3 -> (2/1 - 3)^2 = 1; a third limb adds
    # the pairs (0, 2) and (1, 2)
    ratios = RatioTable(table=np.array([[1.0, 3.0], [1.0 / 3.0, 1.0]]))
    assert limb_objective(np.array([2.0, 1.0]), ratios) == pytest.approx(1.0, abs=1e-12)
    three = RatioTable(table=np.array([[1.0, 3.0, 2.0], [1 / 3, 1.0, 1.0], [0.5, 1.0, 1.0]]))
    want = (2.0 - 3.0) ** 2 + (2.0 / 4.0 - 2.0) ** 2 + (1.0 / 4.0 - 1.0) ** 2
    assert limb_objective(np.array([2.0, 1.0, 4.0]), three) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ShapeError):
        limb_objective(np.ones((2, 3)), three)


def test_limb_gradient_matches_finite_differences():
    rng = make_rng(25)
    raw = rng.uniform(10.0, 60.0, size=(30, 12))
    ratios = estimate_ratios(raw)
    for _ in range(10):
        u = np.log(rng.uniform(10.0, 60.0, size=12))
        loss, grad = limb_loss_gradient(u, ratios)
        assert loss == pytest.approx(limb_objective(np.exp(u), ratios), rel=1e-12)
        h = 1e-6
        for j in rng.choice(12, size=6, replace=False):
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            fd = (limb_objective(np.exp(up), ratios) - limb_objective(np.exp(um), ratios)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def pair_residuals(u: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Every residual of the limb objective, one scalar per pair, from loops."""
    m = u.size
    lengths = np.exp(u)
    return np.array(
        [lengths[i] / lengths[j] - table[i, j] for i in range(m) for j in range(i + 1, m)]
    )


def test_normal_equations_match_finite_difference_jacobian():
    m = 5
    rng = make_rng(29)
    ratios = estimate_ratios(rng.uniform(10.0, 60.0, size=(30, m)))
    u = np.log(rng.uniform(10.0, 60.0, size=m))

    h = 1e-6
    jac = np.empty((m * (m - 1) // 2, m))
    for c in range(m):
        up, um = u.copy(), u.copy()
        up[c] += h
        um[c] -= h
        jac[:, c] = (pair_residuals(up, ratios.table) - pair_residuals(um, ratios.table)) / (2 * h)
    jtj = jac.T @ jac
    jtr = jac.T @ pair_residuals(u, ratios.table)

    # the solver's Jacobian is v * E, v the pair ratios and E the incidence
    incidence, target = _pairs(ratios.table)
    r, ratio_vals = _residuals(u, incidence, target)
    np.testing.assert_allclose(r, pair_residuals(u, ratios.table), rtol=1e-12, atol=0.0)
    got_jac = ratio_vals[:, None] * incidence
    np.testing.assert_allclose(got_jac, jac, rtol=1e-7, atol=1e-7 * np.max(np.abs(jac)))

    _, grad = limb_loss_gradient(u, ratios)
    np.testing.assert_allclose(grad, 2.0 * jtr, rtol=1e-7, atol=0.0)

    # the solver's predicted reduction uses |J d|^2 for d^T J^T J d
    d = rng.normal(size=m)
    jd = got_jac @ d
    assert jd @ jd == pytest.approx(d @ jtj @ d, rel=1e-7)

    for mu in (1e-3, 1.0, 1e3):
        want = np.linalg.solve(jtj + mu * np.eye(m), -jtr)
        got = np.linalg.solve(got_jac.T @ got_jac + mu * np.eye(m), -grad / 2.0)
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9 * np.max(np.abs(want)))


def test_consistent_constant_input_is_a_fixed_point():
    rng = make_rng(26)
    lengths = rng.uniform(20.0, 80.0, size=12)
    raw = np.tile(lengths, (25, 1))
    ratios = estimate_ratios(raw)
    res = optimize_limb_lengths(raw, ratios)
    assert res.converged
    assert res.iterations == 0
    assert np.max(np.abs(res.lengths - lengths)) <= 1e-12
    assert res.final_loss <= 1e-12


def test_two_limb_toy_matches_brute_force_oracle():
    # Toy: both frames measure lengths (2, 1) but the table demands ratio 3.
    # The zero-loss set is the scale family c * (3, 1); damped Gauss-Newton
    # steps keep the log-length sum at its initial value log 2, so the
    # solver's member has L0 * L1 = 2, i.e. (sqrt 6, sqrt(2/3)).
    raw = np.array([[2.0, 1.0], [2.0, 1.0]])
    ratios = RatioTable(table=np.array([[1.0, 3.0], [1.0 / 3.0, 1.0]]))
    res = optimize_limb_lengths(raw, ratios)
    assert res.converged

    # brute-force grid over both lengths, then local refinement
    grid = np.linspace(0.25, 4.0, 16)
    cand = np.stack([a.ravel() for a in np.meshgrid(grid, grid, indexing="ij")], axis=1)
    rr = cand[:, 0] / cand[:, 1] - 3.0
    start = cand[np.argmin(rr * rr)]

    from scipy.optimize import minimize

    oracle = minimize(
        lambda v: limb_objective(v, ratios),
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-26, "maxiter": 40000, "maxfev": 40000},
    )
    best = oracle.x
    # the oracle lands somewhere on the scale family: ratio exactly 3, loss 0
    assert oracle.fun <= 1e-12
    assert best[0] / best[1] == pytest.approx(3.0, abs=1e-6)
    assert limb_objective(res.lengths, ratios) <= oracle.fun + 1e-12

    # align the oracle to the solver's gauge (product of lengths = 2)
    scale = np.sqrt(2.0 / (best[0] * best[1]))
    assert np.max(np.abs(res.lengths - scale * best)) <= 1e-6
    assert np.max(np.abs(res.lengths - [np.sqrt(6.0), np.sqrt(2.0 / 3.0)])) <= 1e-6


def test_solver_loss_never_increases():
    rng = make_rng(27)
    raw = rng.uniform(10.0, 60.0, size=(40, 12)) * rng.uniform(0.8, 1.2, size=(40, 1))
    ratios = estimate_ratios(raw)
    res = optimize_limb_lengths(raw, ratios)
    hist = res.loss_history
    assert len(hist) == res.iterations + 1
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert res.final_loss <= res.initial_loss
    assert res.lengths.shape == (12,)
    assert (res.lengths > 0).all()


def test_solver_reduces_ratio_scatter():
    # noisy per-frame lengths around a consistent skeleton: the solved
    # lengths should track the table far better than the raw input
    rng = make_rng(28)
    true = rng.uniform(20.0, 80.0, size=12)
    raw = np.tile(true, (60, 1)) * rng.uniform(0.85, 1.15, size=(60, 12))
    ratios = estimate_ratios(raw)
    res = optimize_limb_lengths(raw, ratios)
    assert res.converged
    raw_loss = np.mean([limb_objective(frame, ratios) for frame in raw])
    assert res.final_loss <= 0.05 * raw_loss


def test_solver_input_validation():
    ratios = RatioTable(table=np.ones((3, 3)))
    with pytest.raises(ShapeError):
        optimize_limb_lengths(np.ones((5, 2)), ratios)
    with pytest.raises(ShapeError):
        optimize_limb_lengths(np.ones(3), ratios)
    bad = np.ones((4, 3))
    bad[2, 1] = np.inf
    with pytest.raises(ShapeError):
        optimize_limb_lengths(bad, ratios)
    dead = np.ones((4, 3))
    dead[:, 2] = 0.0
    with pytest.raises(DegenerateLimbError, match="limb 2"):
        optimize_limb_lengths(dead, ratios)


def test_importing_the_package_loads_no_scipy():
    # scipy is a test dependency only: the tests' optimizer oracles use it
    code = "import sys, poserefine; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(poserefine.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


@given(st.integers(min_value=0, max_value=10_000))
@example(63)  # the damping used to overflow to inf before the retries ran out
def test_solver_lengths_always_positive(seed):
    rng = make_rng(seed)
    raw = rng.uniform(1.0, 100.0, size=(6, 3))
    ratios = estimate_ratios(raw)
    res: LimbSolveResult = optimize_limb_lengths(raw, ratios)
    assert (res.lengths > 0).all()
    assert np.isfinite(res.lengths).all()
