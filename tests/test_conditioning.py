"""Base smoothing and limb-length optimization against independent oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import poserefine
from poserefine import (
    DegenerateLimbError,
    InsufficientDataError,
    LimbSolveResult,
    ShapeError,
    estimate_ratios,
    optimize_limb_lengths,
    savgol_smooth,
    smooth_base_trajectory,
)

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


@pytest.mark.parametrize("frames", [range(3, 101), [3000]])
def test_smooth_base_trajectory_is_savgol_smooth_per_coordinate(frames):
    # x and y share one pass; each must keep savgol_smooth's bits.  Below
    # 101 frames every index is an edge fit at half-width 50; 3000 frames
    # have an interior too
    rng = make_rng(24)
    for n in frames:
        seq = random_sequence(rng, n)
        out = smooth_base_trajectory(seq, 50)
        for coord in range(2):
            assert np.array_equal(out[:, coord], savgol_smooth(seq.xy[:, 0, coord], 50))


# ---------------------------------------------------------------------------
# ratio estimation


def test_estimate_ratios_hand_case():
    raw = np.tile(np.array([[2.0, 1.0, 4.0]]), (6, 1))
    table = estimate_ratios(raw)
    assert table[0, 1] == 2.0 and table[1, 0] == 0.5
    assert table[0, 2] == 0.5 and table[2, 0] == 2.0
    assert np.array_equal(np.diag(table), np.ones(3))


def test_estimate_ratios_reciprocal_exact():
    # the mirror entry is stored as the literal reciprocal of the median,
    # so R[j][i] == 1 / R[i][j] holds bitwise in the stored direction
    rng = make_rng(24)
    raw = rng.uniform(10.0, 90.0, size=(40, 6))
    table = estimate_ratios(raw)
    for i in range(6):
        for j in range(i + 1, 6):
            assert table[j, i] == 1.0 / table[i, j]
            assert table[i, j] * table[j, i] == pytest.approx(1.0, abs=1e-14)


def test_estimate_ratios_ignores_zero_length_frames():
    # limb 0 is missing on frames where the pairing would be 10:1; the
    # median must come only from the common frames at 2:1
    raw = np.array([[2.0, 1.0], [0.0, 1.0], [2.0, 1.0], [0.0, 1.0], [2.0, 1.0]])
    assert estimate_ratios(raw)[0, 1] == 2.0


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
        assert np.array_equal(estimate_ratios(raw), ratios_loop_oracle(raw))
        # zero lengths leave each pair its own odd or even count of frames
        holes = raw.copy()
        holes[rng.random(holes.shape) < 0.3] = 0.0
        holes[0] = raw[0]
        assert np.array_equal(estimate_ratios(holes), ratios_loop_oracle(holes))


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
    raw = np.ones((4, 2))
    with pytest.raises(ShapeError):
        optimize_limb_lengths(np.ones((4, 3)), np.ones((3, 4)))
    with pytest.raises(ShapeError):
        optimize_limb_lengths(raw, np.array([[1.0, -2.0], [0.5, 1.0]]))
    with pytest.raises(ShapeError):
        optimize_limb_lengths(raw, np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        optimize_limb_lengths(raw, np.array([[1.0, np.nan], [np.nan, 1.0]]))


# ---------------------------------------------------------------------------
# limb solver


def ratio_loss(lengths: np.ndarray, table: np.ndarray) -> float:
    """Ratio-consistency loss of one length vector, from a loop over pairs."""
    m = lengths.size
    return float(
        sum((lengths[i] / lengths[j] - table[i, j]) ** 2 for i in range(m) for j in range(i + 1, m))
    )


def test_solver_matches_lstsq_on_the_pair_system():
    # the 66 rows u_i - u_j = log table[i, j] (i < j) plus the gauge row
    # sum(u) = sum of the logs of the per-limb medians, solved by lstsq
    rng = make_rng(30)
    for _ in range(5):
        raw = rng.uniform(10.0, 60.0, size=(50, 12)) * rng.uniform(0.8, 1.2, size=(50, 1))
        raw[rng.random(raw.shape) < 0.1] = 0.0
        table = estimate_ratios(raw)
        m = raw.shape[1]
        rows, rhs = [], []
        for i in range(m):
            for j in range(i + 1, m):
                row = np.zeros(m)
                row[i], row[j] = 1.0, -1.0
                rows.append(row)
                rhs.append(np.log(table[i, j]))
        medians = [np.median(raw[raw[:, i] > 0, i]) for i in range(m)]
        rows.append(np.ones(m))
        rhs.append(np.sum(np.log(medians)))
        want = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
        got = optimize_limb_lengths(raw, table).lengths
        np.testing.assert_allclose(np.log(got), want, rtol=0.0, atol=1e-12)


def test_consistent_constant_input_is_a_fixed_point():
    rng = make_rng(26)
    lengths = rng.uniform(20.0, 80.0, size=12)
    raw = np.tile(lengths, (25, 1))
    table = estimate_ratios(raw)
    res = optimize_limb_lengths(raw, table)
    assert res.converged
    assert res.iterations == 0
    assert np.max(np.abs(res.lengths - lengths)) <= 1e-12
    assert ratio_loss(res.lengths, table) <= 1e-12


def test_two_limb_toy_matches_brute_force_oracle():
    # Toy: both frames measure lengths (2, 1) but the table demands ratio 3.
    # The zero-loss set is the scale family c * (3, 1); the fit keeps the
    # log-length sum of the medians, log 2, so its member has L0 * L1 = 2,
    # i.e. (sqrt 6, sqrt(2/3)).
    raw = np.array([[2.0, 1.0], [2.0, 1.0]])
    table = np.array([[1.0, 3.0], [1.0 / 3.0, 1.0]])
    res = optimize_limb_lengths(raw, table)
    assert res.converged

    # brute-force grid over both lengths, then local refinement
    grid = np.linspace(0.25, 4.0, 16)
    cand = np.stack([a.ravel() for a in np.meshgrid(grid, grid, indexing="ij")], axis=1)
    rr = cand[:, 0] / cand[:, 1] - 3.0
    start = cand[np.argmin(rr * rr)]

    from scipy.optimize import minimize

    oracle = minimize(
        lambda v: ratio_loss(v, table),
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-26, "maxiter": 40000, "maxfev": 40000},
    )
    best = oracle.x
    # the oracle lands somewhere on the scale family: ratio exactly 3, loss 0
    assert oracle.fun <= 1e-12
    assert best[0] / best[1] == pytest.approx(3.0, abs=1e-6)
    assert ratio_loss(res.lengths, table) <= oracle.fun + 1e-12

    # align the oracle to the fit's gauge (product of lengths = 2)
    scale = np.sqrt(2.0 / (best[0] * best[1]))
    assert np.max(np.abs(res.lengths - scale * best)) <= 1e-6
    assert np.max(np.abs(res.lengths - [np.sqrt(6.0), np.sqrt(2.0 / 3.0)])) <= 1e-6


def test_solver_reduces_ratio_scatter():
    # noisy per-frame lengths around a consistent skeleton: the solved
    # lengths should track the table far better than the raw input
    rng = make_rng(28)
    true = rng.uniform(20.0, 80.0, size=12)
    raw = np.tile(true, (60, 1)) * rng.uniform(0.85, 1.15, size=(60, 12))
    table = estimate_ratios(raw)
    res = optimize_limb_lengths(raw, table)
    assert res.converged
    raw_loss = np.mean([ratio_loss(frame, table) for frame in raw])
    assert ratio_loss(res.lengths, table) <= 0.05 * raw_loss


def test_solver_input_validation():
    table = np.ones((3, 3))
    with pytest.raises(ShapeError):
        optimize_limb_lengths(np.ones((5, 2)), table)
    with pytest.raises(ShapeError):
        optimize_limb_lengths(np.ones(3), table)
    bad = np.ones((4, 3))
    bad[2, 1] = np.inf
    with pytest.raises(ShapeError):
        optimize_limb_lengths(bad, table)
    dead = np.ones((4, 3))
    dead[:, 2] = 0.0
    with pytest.raises(DegenerateLimbError, match="limb 2"):
        optimize_limb_lengths(dead, table)


def test_importing_the_package_loads_no_scipy():
    # scipy is a test dependency only: the tests' optimizer oracles use it
    code = "import sys, poserefine; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(poserefine.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


@given(st.integers(min_value=0, max_value=10_000))
def test_solver_lengths_always_positive(seed):
    rng = make_rng(seed)
    raw = rng.uniform(1.0, 100.0, size=(6, 3))
    res: LimbSolveResult = optimize_limb_lengths(raw, estimate_ratios(raw))
    assert (res.lengths > 0).all()
    assert np.isfinite(res.lengths).all()
