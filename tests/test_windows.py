"""Window planning, distance-weighted merging, sequence refinement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poserefine import (
    InsufficientDataError,
    N_LIMBS,
    RefinerModel,
    ShapeError,
    merge_plan,
    plan_windows,
    refine_sequence,
    unwrap_joint_angles,
    wrap_angle,
)

from conftest import make_rng


def covering(plan, frame: int) -> list[int]:
    """Indices of the windows of a plan that contain the given frame."""
    if plan.pad_map is not None:
        return [0]
    return [k for k, s in enumerate(plan.starts) if s <= frame < s + plan.length]


EPSILON = 1e-3


def merge_windows(refined, plan, frame: int) -> float:
    """Per-frame oracle for merge_plan: the inverse-distance weighted mean
    of the covering windows' values, clipped to their range."""
    center = (plan.length - 1) / 2.0
    num = den = 0.0
    lo, hi = np.inf, -np.inf
    for k in covering(plan, frame):
        pos = frame - plan.starts[k]
        value = refined[k, pos]
        w = 1.0 / (abs(pos - center) + EPSILON)
        num += w * value
        den += w
        lo = min(lo, value)
        hi = max(hi, value)
    return float(min(max(num / den, lo), hi))


def test_plan_windows_strided_with_flush():
    plan = plan_windows(12, 5, 3)
    assert plan.starts == (0, 3, 6, 7)
    assert plan.pad_map is None
    assert plan.n_windows == 4
    assert covering(plan, 0) == [0]
    assert covering(plan, 6) == [1, 2]
    assert covering(plan, 11) == [3]
    # every frame is covered by at least one window
    for frame in range(12):
        assert covering(plan, frame)


def test_plan_windows_exact_fit():
    plan = plan_windows(10, 5, 5)
    assert plan.starts == (0, 5)
    plan = plan_windows(5, 5, 3)
    assert plan.starts == (0,)


def test_plan_windows_reflect_padding():
    plan = plan_windows(3, 7, 5)
    assert plan.starts == (0,)
    assert plan.pad_map == (0, 1, 2, 1, 0, 1, 2)
    assert covering(plan, 1) == [0]
    single = plan_windows(1, 4, 1)
    assert single.pad_map == (0, 0, 0, 0)


def test_plan_windows_validation():
    with pytest.raises(InsufficientDataError):
        plan_windows(0, 5, 1)
    with pytest.raises(ShapeError):
        plan_windows(10, 1, 1)
    with pytest.raises(ShapeError):
        plan_windows(10, 5, 0)
    # a stride past the window length would leave frames uncovered
    with pytest.raises(ShapeError, match="uncovered"):
        plan_windows(20, 5, 6)


def test_merge_two_window_hand_example():
    # frame 5 sits at distance 0 from the first window's center and 5 from
    # the second's; with eps = 0.001 the exact weighted mean is
    # (v0 / 0.001 + v1 / 5.001) / (1 / 0.001 + 1 / 5.001)
    plan = plan_windows(16, 11, 5)
    assert plan.starts == (0, 5)
    refined = np.zeros((2, 11))
    refined[0, 5] = 0.2
    refined[1, 0] = 0.3
    got = merge_plan(refined, plan, 1e-3)[5]
    assert abs(got - 0.20001999200319873) <= 1e-9


def test_merge_is_exact_on_agreement():
    rng = make_rng(61)
    series = rng.uniform(-3.0, 3.0, size=37)
    for stride in (1, 4, 9):
        plan = plan_windows(37, 10, stride)
        refined = np.stack([series[s : s + 10] for s in plan.starts])
        merged = merge_plan(refined, plan, EPSILON)
        assert np.array_equal(merged, series)
        for frame in (0, 17, 36):
            assert merge_windows(refined, plan, frame) == series[frame]


def test_merge_plan_matches_per_frame_route():
    rng = make_rng(62)
    plan = plan_windows(30, 8, 3)
    refined = rng.normal(size=(plan.n_windows, 8))
    merged = merge_plan(refined, plan, EPSILON)
    assert merged.shape == (30,)
    for frame in range(30):
        assert merged[frame] == merge_windows(refined, plan, frame)


def test_merge_padded_plan_copies_the_window():
    plan = plan_windows(4, 9, 5)
    refined = np.arange(9.0)[None, :] * 1.5
    merged = merge_plan(refined, plan, EPSILON)
    assert np.array_equal(merged, refined[0, :4])
    merged[0] = 99.0
    assert refined[0, 0] == 0.0


def test_merge_validation():
    plan = plan_windows(12, 5, 3)
    with pytest.raises(ShapeError):
        merge_plan(np.zeros((2, 5)), plan, EPSILON)
    with pytest.raises(ShapeError, match="epsilon"):
        merge_plan(np.zeros((plan.n_windows, 5)), plan, 0.0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_merged_value_within_covering_bounds(seed):
    rng = make_rng(seed)
    n, length, stride = 23, 6, int(rng.integers(1, 7))
    plan = plan_windows(n, length, stride)
    refined = rng.normal(0.0, 2.0, size=(plan.n_windows, length))
    merged = merge_plan(refined, plan, EPSILON)
    for frame in range(n):
        vals = [refined[k, frame - plan.starts[k]] for k in covering(plan, frame)]
        assert min(vals) <= merged[frame] <= max(vals)


def test_refine_sequence_identity_model_is_exact():
    rng = make_rng(63)
    model = RefinerModel.identity(hidden=4, d_att=3, window=10)
    theta = wrap_angle(np.cumsum(rng.uniform(-0.4, 0.4, size=(47, N_LIMBS)), axis=0))
    out = refine_sequence(theta, model, 3, EPSILON)
    assert np.array_equal(out, unwrap_joint_angles(theta))
    # a wrap of the output recovers the original branch values
    assert np.max(np.abs(wrap_angle(out) - theta)) <= 1e-9


def test_refine_sequence_identity_model_short_input():
    rng = make_rng(64)
    model = RefinerModel.identity(hidden=4, d_att=3, window=10)
    theta = rng.uniform(-1.0, 1.0, size=(4, N_LIMBS))
    out = refine_sequence(theta, model, 5, EPSILON)
    assert np.array_equal(out, unwrap_joint_angles(theta))


def test_refine_sequence_shapes_and_validation():
    model = RefinerModel.identity(hidden=4, d_att=3, window=10)
    with pytest.raises(ShapeError):
        refine_sequence(np.zeros(30), model, 5, EPSILON)
    out = refine_sequence(np.zeros((30, 5)), model, 5, EPSILON)  # joint count is free
    assert out.shape == (30, 5)


def test_refine_sequence_smooths_an_outlier():
    # a trained-model stand-in: even with random small weights the merge
    # keeps output within the per-window envelope, so a frame covered by
    # clean windows cannot explode
    rng = make_rng(65)
    model = RefinerModel.init_random(hidden=4, d_att=3, window=10, seed=1)
    theta = np.zeros((40, 1))
    theta[20, 0] = 1.0
    out = refine_sequence(theta, model, 2, EPSILON)
    assert np.isfinite(out).all()
    assert out.shape == (40, 1)
