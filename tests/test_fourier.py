"""Fourier series fitting, template randomization, truth synthesis."""

import numpy as np
import pytest

from poserefine import (
    DegenerateSamplingError,
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


def random_coeffs(rng, order=8):
    """(a0, a1..aK, b1..bK) with the same draws as the a0, a, b order."""
    a0 = rng.uniform(-2.0, 2.0)
    a = rng.uniform(-0.5, 0.5, size=order)
    b = rng.uniform(-0.5, 0.5, size=order)
    return np.concatenate([[a0], a, b])


def eval_oracle(c, m, T):
    """Termwise scalar evaluation, independent of the vectorized route."""
    order = c.size // 2
    out = np.full(np.shape(m), c[0], dtype=float)
    for k in range(1, order + 1):
        ang = 2.0 * np.pi * k * np.asarray(m, dtype=float) / T
        out += c[k] * np.cos(ang) + c[order + k] * np.sin(ang)
    return out


def test_eval_matches_termwise_oracle():
    rng = make_rng(31)
    c = random_coeffs(rng)
    m = np.linspace(-30.0, 230.0, 97)
    assert np.max(np.abs(eval_fourier(c, m, 100.0) - eval_oracle(c, m, 100.0))) <= 1e-12
    assert eval_fourier(c, 12.5, 100.0) == pytest.approx(
        float(eval_oracle(c, 12.5, 100.0)), abs=1e-12
    )


def test_eval_order_zero_is_constant():
    c = np.array([1.25])
    out = eval_fourier(c, np.arange(10.0), 50.0)
    assert np.array_equal(out, np.full(10, 1.25))
    assert eval_fourier(c, 3.0, 50.0) == 1.25


def test_eval_is_periodic():
    rng = make_rng(32)
    c = random_coeffs(rng)
    m = np.arange(0.0, 100.0)
    base = eval_fourier(c, m, 100.0)
    assert np.max(np.abs(eval_fourier(c, m + 100.0, 100.0) - base)) <= 1e-12
    assert np.max(np.abs(eval_fourier(c, m - 300.0, 100.0) - base)) <= 1e-12


def test_eval_linear_in_coefficients():
    rng = make_rng(33)
    c1 = random_coeffs(rng)
    c2 = random_coeffs(rng)
    m = np.linspace(0.0, 200.0, 60)
    lhs = eval_fourier(c1 + c2, m, 100.0)
    rhs = eval_fourier(c1, m, 100.0) + eval_fourier(c2, m, 100.0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_fit_recovers_coefficients():
    rng = make_rng(34)
    c = random_coeffs(rng)
    m = np.arange(200.0)
    got = fit_fourier(m, eval_fourier(c, m, 100.0), T=100.0)
    assert got.shape == c.shape
    assert np.max(np.abs(got - c)) <= 1e-8


def test_fit_residual_orthogonal_to_basis():
    rng = make_rng(35)
    m = np.sort(rng.uniform(0.0, 300.0, size=64))
    theta = rng.normal(0.0, 1.0, size=64)
    c = fit_fourier(m, theta, T=100.0, order=8)
    resid = eval_fourier(c, m, 100.0) - theta
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
    assert c.shape == (17,)


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
    # an even length cannot split into a0 plus equal cos and sin halves
    with pytest.raises(ShapeError):
        eval_fourier(np.array([0.0, 1.0]), np.arange(3.0), 10.0)
    with pytest.raises(ShapeError):
        eval_fourier(np.zeros((2, 3)), np.arange(3.0), 10.0)


# ---------------------------------------------------------------------------
# templates and randomization


def test_reference_templates_are_well_formed():
    templates = reference_templates()
    assert [t.name for t in templates] == ["walk", "run", "march", "shuffle"]
    for t in templates:
        assert t.coeffs.shape == (N_LIMBS, 17)
        # curves stay inside a sane angular band over a full cycle
        truth = synthesize_truth(t, frames_per_cycle=100, cycles=1)
        assert np.isfinite(truth).all()
        assert np.max(np.abs(truth)) < np.pi


def test_randomize_degenerate_ranges_reproduce_template():
    base = reference_templates()[0]
    frozen = RandomizeRanges(a0_offset=(0.0, 0.0), amplitude_scale=(1.0, 1.0))
    got = randomize_template(base, frozen, make_rng(36))
    assert np.array_equal(got.coeffs, base.coeffs)


def test_randomize_moves_only_low_harmonics():
    base = reference_templates()[1]
    ranges = RandomizeRanges()
    got = randomize_template(base, ranges, make_rng(37))
    for g, b in zip(got.coeffs, base.coeffs):
        off = g[0] - b[0]
        assert ranges.a0_offset[0] <= off <= ranges.a0_offset[1]
        ga, gb, ba, bb = g[1:9], g[9:], b[1:9], b[9:]
        # harmonics 3..8 untouched
        assert np.array_equal(ga[2:], ba[2:])
        assert np.array_equal(gb[2:], bb[2:])
        for k in (0, 1):
            for moved, orig in ((ga[k], ba[k]), (gb[k], bb[k])):
                if orig != 0.0:
                    s = moved / orig
                    assert ranges.amplitude_scale[0] <= s <= ranges.amplitude_scale[1]
                else:
                    assert moved == 0.0


def test_randomize_keeps_the_retired_period_draw():
    # one draw where the period scale was, then five per joint: seeded
    # subjects and everything drawn after them stay as they were
    rng = make_rng(41)
    randomize_template(reference_templates()[0], RandomizeRanges(), rng)
    ref = make_rng(41)
    ref.random(1 + 5 * N_LIMBS)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_randomize_is_seed_deterministic():
    base = reference_templates()[2]
    a = randomize_template(base, RandomizeRanges(), make_rng(38))
    b = randomize_template(base, RandomizeRanges(), make_rng(38))
    c = randomize_template(base, RandomizeRanges(), make_rng(39))
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_randomize_ranges_validation():
    with pytest.raises(InvalidRangeError):
        RandomizeRanges(a0_offset=(0.5, -0.5))
    with pytest.raises(InvalidRangeError):
        RandomizeRanges(amplitude_scale=(1.0, np.inf))


def test_synthesize_truth_repeats_across_cycles():
    # synthesis samples on the frames_per_cycle grid, which sets the
    # period, so consecutive cycles repeat
    base = reference_templates()[0]
    variant = randomize_template(base, RandomizeRanges(), make_rng(40))
    truth = synthesize_truth(variant, frames_per_cycle=80, cycles=3)
    assert truth.shape == (240, N_LIMBS)
    assert np.max(np.abs(truth[80:160] - truth[:80])) <= 1e-12
    assert np.max(np.abs(truth[160:240] - truth[:80])) <= 1e-12


def test_synthesize_truth_validation():
    base = reference_templates()[0]
    with pytest.raises(InvalidRangeError):
        synthesize_truth(base, frames_per_cycle=0, cycles=2)
    with pytest.raises(ShapeError):
        FourierMotionTemplate(name="bad", coeffs=base.coeffs[:5])
