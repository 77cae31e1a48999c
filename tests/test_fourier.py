"""Fourier series fitting, template randomization, truth synthesis."""

import dataclasses

import numpy as np
import pytest

from poserefine import (
    DegenerateSamplingError,
    FourierCoeffs,
    FourierMotionTemplate,
    InsufficientDataError,
    InvalidRangeError,
    N_LIMBS,
    RandomizeRanges,
    ShapeError,
    eval_fourier,
    fit_fourier,
    randomize_template,
    reference_templates,
    synthesize_truth,
)

from conftest import make_rng


def random_coeffs(rng, order=8, T=100.0):
    return FourierCoeffs(
        a0=rng.uniform(-2.0, 2.0),
        a=tuple(rng.uniform(-0.5, 0.5, size=order)),
        b=tuple(rng.uniform(-0.5, 0.5, size=order)),
        T=T,
    )


def eval_oracle(c: FourierCoeffs, m):
    """Termwise scalar evaluation, independent of the vectorized route."""
    out = np.full(np.shape(m), c.a0, dtype=float)
    for k in range(1, c.order + 1):
        ang = 2.0 * np.pi * k * np.asarray(m, dtype=float) / c.T
        out += c.a[k - 1] * np.cos(ang) + c.b[k - 1] * np.sin(ang)
    return out


def test_eval_matches_termwise_oracle():
    rng = make_rng(31)
    c = random_coeffs(rng)
    m = np.linspace(-30.0, 230.0, 97)
    assert np.max(np.abs(eval_fourier(c, m) - eval_oracle(c, m))) <= 1e-12
    assert eval_fourier(c, 12.5) == pytest.approx(float(eval_oracle(c, 12.5)), abs=1e-12)


def test_eval_order_zero_is_constant():
    c = FourierCoeffs(a0=1.25, a=(), b=(), T=50.0)
    out = eval_fourier(c, np.arange(10.0))
    assert np.array_equal(out, np.full(10, 1.25))
    assert eval_fourier(c, 3.0) == 1.25


def test_eval_is_periodic():
    rng = make_rng(32)
    c = random_coeffs(rng, T=100.0)
    m = np.arange(0.0, 100.0)
    assert np.max(np.abs(eval_fourier(c, m + 100.0) - eval_fourier(c, m))) <= 1e-12
    assert np.max(np.abs(eval_fourier(c, m - 300.0) - eval_fourier(c, m))) <= 1e-12


def test_eval_linear_in_coefficients():
    rng = make_rng(33)
    c1 = random_coeffs(rng)
    c2 = random_coeffs(rng)
    summed = FourierCoeffs(
        a0=c1.a0 + c2.a0,
        a=tuple(x + y for x, y in zip(c1.a, c2.a)),
        b=tuple(x + y for x, y in zip(c1.b, c2.b)),
        T=c1.T,
    )
    m = np.linspace(0.0, 200.0, 60)
    lhs = eval_fourier(summed, m)
    rhs = eval_fourier(c1, m) + eval_fourier(c2, m)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_fit_recovers_coefficients():
    rng = make_rng(34)
    c = random_coeffs(rng)
    m = np.arange(200.0)
    got = fit_fourier(m, eval_fourier(c, m), T=100.0)
    assert got.a0 == pytest.approx(c.a0, abs=1e-8)
    assert np.max(np.abs(np.array(got.a) - c.a)) <= 1e-8
    assert np.max(np.abs(np.array(got.b) - c.b)) <= 1e-8


def test_fit_residual_orthogonal_to_basis():
    rng = make_rng(35)
    m = np.sort(rng.uniform(0.0, 300.0, size=64))
    theta = rng.normal(0.0, 1.0, size=64)
    c = fit_fourier(m, theta, T=100.0, order=8)
    resid = eval_fourier(c, m) - theta
    assert abs(np.sum(resid)) <= 1e-8  # constant column
    for k in range(1, 9):
        ang = 2.0 * np.pi * k * m / 100.0
        assert abs(resid @ np.cos(ang)) <= 1e-8
        assert abs(resid @ np.sin(ang)) <= 1e-8


def test_fit_needs_enough_samples():
    m = np.arange(16.0)
    with pytest.raises(InsufficientDataError):
        fit_fourier(m, np.zeros(16), T=100.0, order=8)
    # 17 samples spread over one period is the minimum for order 8
    m17 = np.linspace(0.0, 100.0, 17, endpoint=False)
    c = fit_fourier(m17, np.ones(17), T=100.0, order=8)
    assert c.order == 8


def test_fit_degenerate_sampling():
    m = np.full(40, 7.0)
    with pytest.raises(DegenerateSamplingError):
        fit_fourier(m, np.zeros(40), T=100.0, order=8)


def test_fit_input_validation():
    with pytest.raises(ShapeError):
        fit_fourier(np.arange(20.0), np.zeros(19), T=100.0)
    with pytest.raises(InvalidRangeError):
        fit_fourier(np.arange(20.0), np.zeros(20), T=0.0, order=1)


def test_coeffs_validation():
    with pytest.raises(ShapeError):
        FourierCoeffs(a0=0.0, a=(1.0,), b=(), T=10.0)
    with pytest.raises(InvalidRangeError):
        FourierCoeffs(a0=0.0, a=(), b=(), T=-1.0)
    with pytest.raises(ShapeError):
        FourierCoeffs(a0=np.nan, a=(), b=(), T=10.0)


# ---------------------------------------------------------------------------
# templates and randomization


def test_reference_templates_are_well_formed():
    templates = reference_templates()
    assert [t.name for t in templates] == ["walk", "run", "march", "shuffle"]
    for t in templates:
        assert len(t.joints) == N_LIMBS
        for c in t.joints:
            assert c.order == 8
            assert c.T == 100.0
        # curves stay inside a sane angular band over a full cycle
        truth = synthesize_truth(t, frames_per_cycle=100, cycles=1)
        assert np.isfinite(truth).all()
        assert np.max(np.abs(truth)) < np.pi


def test_randomize_degenerate_ranges_reproduce_template():
    base = reference_templates()[0]
    frozen = RandomizeRanges(
        a0_offset=(0.0, 0.0), amplitude_scale=(1.0, 1.0), period_scale=(1.0, 1.0)
    )
    got = randomize_template(base, frozen, make_rng(36))
    for c_got, c_base in zip(got.joints, base.joints):
        assert c_got == c_base


def test_randomize_moves_only_low_harmonics_and_period():
    base = reference_templates()[1]
    ranges = RandomizeRanges()
    got = randomize_template(base, ranges, make_rng(37))
    t_factors = [g.T / b.T for g, b in zip(got.joints, base.joints)]
    assert max(t_factors) - min(t_factors) <= 1e-12  # one shared period draw
    lo, hi = ranges.period_scale
    assert lo <= t_factors[0] <= hi
    for g, b in zip(got.joints, base.joints):
        off = g.a0 - b.a0
        assert ranges.a0_offset[0] <= off <= ranges.a0_offset[1]
        # harmonics 3..8 untouched
        assert g.a[2:] == b.a[2:]
        assert g.b[2:] == b.b[2:]
        for k in (0, 1):
            for ga, ba in ((g.a[k], b.a[k]), (g.b[k], b.b[k])):
                if ba != 0.0:
                    s = ga / ba
                    assert ranges.amplitude_scale[0] <= s <= ranges.amplitude_scale[1]
                else:
                    assert ga == 0.0


def test_randomize_is_seed_deterministic():
    base = reference_templates()[2]
    a = randomize_template(base, RandomizeRanges(), make_rng(38))
    b = randomize_template(base, RandomizeRanges(), make_rng(38))
    c = randomize_template(base, RandomizeRanges(), make_rng(39))
    assert a == b
    assert a != c


def test_randomize_ranges_validation():
    with pytest.raises(InvalidRangeError):
        RandomizeRanges(a0_offset=(0.5, -0.5))
    with pytest.raises(InvalidRangeError):
        RandomizeRanges(period_scale=(0.0, 1.2))


def test_synthesize_truth_repeats_across_cycles():
    # even with a randomized period, synthesis samples on the fixed
    # frames_per_cycle grid, so consecutive cycles repeat
    base = reference_templates()[0]
    variant = randomize_template(base, RandomizeRanges(), make_rng(40))
    truth = synthesize_truth(variant, frames_per_cycle=80, cycles=3)
    assert truth.shape == (240, N_LIMBS)
    assert np.max(np.abs(truth[80:160] - truth[:80])) <= 1e-12
    assert np.max(np.abs(truth[160:240] - truth[:80])) <= 1e-12


def test_synthesize_truth_validation():
    base = reference_templates()[0]
    with pytest.raises(InvalidRangeError):
        synthesize_truth(base, frames_per_cycle=0)
    with pytest.raises(ShapeError):
        FourierMotionTemplate(name="bad", joints=base.joints[:5])
