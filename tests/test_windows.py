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
    refine_batch,
    refine_sequence,
    unwrap_joint_angles,
    wrap_angle,
)

from poserefine.windows import MAX_BATCH_ROWS

from conftest import make_rng


def covering(starts, length: int, frame: int) -> list[int]:
    """Indices of the windows at starts that contain the given frame."""
    return [k for k, s in enumerate(starts) if s <= frame < s + length]


EPSILON = 1e-3


def merge_windows(refined, starts, frame: int) -> float:
    """Per-frame oracle for merge_plan: the inverse-distance weighted mean
    of the covering windows' values, clipped to their range."""
    length = refined.shape[1]
    center = (length - 1) / 2.0
    num = den = 0.0
    lo, hi = np.inf, -np.inf
    for k in covering(starts, length, frame):
        pos = frame - starts[k]
        value = refined[k, pos]
        w = 1.0 / (abs(pos - center) + EPSILON)
        num += w * value
        den += w
        lo = min(lo, value)
        hi = max(hi, value)
    return float(min(max(num / den, lo), hi))


def test_plan_windows_strided_with_flush():
    starts = plan_windows(12, 5, 3)
    assert starts == [0, 3, 6, 7]
    assert covering(starts, 5, 0) == [0]
    assert covering(starts, 5, 6) == [1, 2]
    assert covering(starts, 5, 11) == [3]
    # every frame is covered by at least one window
    for frame in range(12):
        assert covering(starts, 5, frame)


def test_plan_windows_exact_fit():
    assert plan_windows(10, 5, 5) == [0, 5]
    assert plan_windows(5, 5, 3) == [0]


def test_plan_windows_validation():
    with pytest.raises(InsufficientDataError):
        plan_windows(0, 5, 1)
    # a series shorter than the window is padded before it is planned
    with pytest.raises(InsufficientDataError):
        plan_windows(4, 5, 1)
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
    starts = plan_windows(16, 11, 5)
    assert starts == [0, 5]
    refined = np.zeros((2, 11))
    refined[0, 5] = 0.2
    refined[1, 0] = 0.3
    got = merge_plan(refined, starts, 1e-3)[5]
    assert abs(got - 0.20001999200319873) <= 1e-9


def test_merge_is_exact_on_agreement():
    rng = make_rng(61)
    series = rng.uniform(-3.0, 3.0, size=37)
    for stride in (1, 4, 9):
        starts = plan_windows(37, 10, stride)
        refined = np.stack([series[s : s + 10] for s in starts])
        merged = merge_plan(refined, starts, EPSILON)
        assert np.array_equal(merged, series)
        for frame in (0, 17, 36):
            assert merge_windows(refined, starts, frame) == series[frame]


def test_merge_plan_matches_per_frame_route():
    rng = make_rng(62)
    starts = plan_windows(30, 8, 3)
    refined = rng.normal(size=(len(starts), 8))
    merged = merge_plan(refined, starts, EPSILON)
    assert merged.shape == (30,)
    for frame in range(30):
        assert merged[frame] == merge_windows(refined, starts, frame)


def test_merge_validation():
    starts = plan_windows(12, 5, 3)
    with pytest.raises(ShapeError):
        merge_plan(np.zeros((2, 5)), starts, EPSILON)
    with pytest.raises(ShapeError):
        merge_plan(np.zeros(5), [0], EPSILON)
    with pytest.raises(ShapeError, match="epsilon"):
        merge_plan(np.zeros((len(starts), 5)), starts, 0.0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_merged_value_within_covering_bounds(seed):
    rng = make_rng(seed)
    n, length, stride = 23, 6, int(rng.integers(1, 7))
    starts = plan_windows(n, length, stride)
    refined = rng.normal(0.0, 2.0, size=(len(starts), length))
    merged = merge_plan(refined, starts, EPSILON)
    for frame in range(n):
        vals = [refined[k, frame - starts[k]] for k in covering(starts, length, frame)]
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


def test_short_clip_is_refined_as_its_reflection():
    # a clip shorter than the window goes through the one strided path as
    # its reflection padded to one window, then is cropped back; a single
    # window merges to itself exactly because the merge clips to [r, r].
    # The 12 joints' windows share one float32 forward call, and float32
    # rounding depends on the batch, so the oracle is one stacked call too
    rng = make_rng(66)
    model = RefinerModel.init_random(hidden=4, d_att=3, window=7, seed=2)
    theta = rng.uniform(-1.0, 1.0, size=(3, N_LIMBS))
    x0, x1, x2 = unwrap_joint_angles(theta)
    padded = np.stack([x0, x1, x2, x1, x0, x1, x2])
    out = refine_sequence(theta, model, 5, EPSILON)
    assert out.shape == (3, N_LIMBS)
    want = refine_batch(padded.T, model, dtype=np.float32)
    assert np.array_equal(out, want[:, :3].T)

    # a single frame pads to a constant window
    single = rng.uniform(-1.0, 1.0, size=(1, N_LIMBS))
    out = refine_sequence(single, model, 5, EPSILON)
    assert out.shape == (1, N_LIMBS)
    windows = np.repeat(single.T, 7, axis=1)
    assert np.array_equal(out, refine_batch(windows, model, dtype=np.float32)[:, :1].T)


def per_joint_reference(theta, model, stride: int) -> np.ndarray:
    """float64 oracle: each joint's windows in one float64 call, then merged."""
    unwrapped = unwrap_joint_angles(theta)
    starts = plan_windows(len(theta), model.window, stride)
    out = np.empty_like(unwrapped)
    for j in range(theta.shape[1]):
        batch = np.stack([unwrapped[s : s + model.window, j] for s in starts])
        out[:, j] = merge_plan(refine_batch(batch, model), starts, EPSILON)
    return out


def test_joint_batched_float32_matches_float64_per_joint_reference():
    rng = make_rng(67)
    model = RefinerModel.init_random(hidden=8, d_att=4, window=10, seed=3)
    theta = wrap_angle(np.cumsum(rng.uniform(-0.4, 0.4, size=(60, N_LIMBS)), axis=0))
    # 26 windows of 12 joints: the rows take two forward calls
    assert len(plan_windows(60, 10, 2)) * N_LIMBS > MAX_BATCH_ROWS
    out = refine_sequence(theta, model, 2, EPSILON)
    want = per_joint_reference(theta, model, 2)
    assert np.max(np.abs(out - want)) <= 1e-5
    # the float32 network is what ran
    assert not np.array_equal(out, want)


def test_identity_model_is_exact_across_forward_chunks():
    rng = make_rng(68)
    model = RefinerModel.identity(hidden=4, d_att=3, window=10)
    theta = wrap_angle(np.cumsum(rng.uniform(-0.4, 0.4, size=(60, N_LIMBS)), axis=0))
    # 51 windows of 12 joints: three forward calls
    assert len(plan_windows(60, 10, 1)) * N_LIMBS > 2 * MAX_BATCH_ROWS
    assert np.array_equal(refine_sequence(theta, model, 1, EPSILON), unwrap_joint_angles(theta))
