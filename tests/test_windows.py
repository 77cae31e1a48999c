"""Window planning, centre-crop stitching, sequence refinement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poserefine import (
    InsufficientDataError,
    N_LIMBS,
    RefinerModel,
    ShapeError,
    plan_windows,
    refine_batch,
    refine_sequence,
    stitch_windows,
    wrap_angle,
)

from poserefine.refiner import _blocks

from conftest import make_rng


def covering(starts, length: int, frame: int) -> list[int]:
    """Indices of the windows at starts that contain the given frame."""
    return [k for k, s in enumerate(starts) if s <= frame < s + length]


def stitch_frame(refined, starts, frame: int) -> np.ndarray:
    """Per-frame oracle for stitch_windows: the value of the covering
    window whose centre is nearest, the earliest one on a tie."""
    length = refined.shape[1]
    center = (length - 1) / 2.0
    # min keeps the first of equal keys, so the earliest window wins a tie
    best = min(covering(starts, length, frame), key=lambda k: abs(frame - starts[k] - center))
    return refined[best, frame - starts[best]]


def test_plan_windows_strided_with_flush():
    # a third of 8 frames, rounded up: starts step by 3, then a flush window
    starts = plan_windows(13, 8)
    assert starts == [0, 3, 5]
    assert covering(starts, 8, 0) == [0]
    assert covering(starts, 8, 6) == [0, 1, 2]
    assert covering(starts, 8, 12) == [2]
    # a third of 5 frames rounds up too: starts step by 2
    assert plan_windows(12, 5) == [0, 2, 4, 6, 7]
    # every frame is covered by at least one window
    for frame in range(13):
        assert covering(starts, 8, frame)


def test_plan_windows_exact_fit():
    assert plan_windows(10, 4) == [0, 2, 4, 6]
    assert plan_windows(20, 8) == [0, 3, 6, 9, 12]
    assert plan_windows(5, 5) == [0]


def test_plan_windows_validation():
    with pytest.raises(InsufficientDataError):
        plan_windows(0, 5)
    # a series shorter than the window is refined whole, never planned
    with pytest.raises(InsufficientDataError):
        plan_windows(4, 5)
    with pytest.raises(ShapeError):
        plan_windows(10, 1)


def test_merge_two_window_hand_example():
    # window centres sit at 5 and 7: frames up to 5 belong to the first
    # window, 7 onwards to the second, and frame 6, one frame from each
    # centre, is a tie that the earlier window wins
    starts = plan_windows(13, 11)
    assert starts == [0, 2]
    refined = np.zeros((2, 11, 1))
    refined[0, :, 0] = np.arange(11)
    refined[1, :, 0] = 100 + np.arange(11)
    got = stitch_windows(refined, starts)[:, 0]
    want = [0, 1, 2, 3, 4, 5, 6, 105, 106, 107, 108, 109, 110]
    assert got.tolist() == want
    for frame in range(13):
        assert stitch_frame(refined, starts, frame)[0] == want[frame]


def test_merge_is_exact_on_agreement():
    rng = make_rng(61)
    series = rng.uniform(-3.0, 3.0, size=(37, 2))
    for length in (2, 7, 10, 37):
        starts = plan_windows(37, length)
        refined = np.stack([series[s : s + length] for s in starts])
        stitched = stitch_windows(refined, starts)
        assert np.array_equal(stitched, series)
        for frame in (0, 17, 36):
            assert np.array_equal(stitch_frame(refined, starts, frame), series[frame])


def test_stitch_matches_per_frame_route():
    rng = make_rng(62)
    for starts in (plan_windows(30, 8), [0, 3, 8, 15, 22]):
        refined = rng.normal(size=(len(starts), 8, 3))
        stitched = stitch_windows(refined, starts)
        assert stitched.shape == (30, 3)
        for frame in range(30):
            assert np.array_equal(stitched[frame], stitch_frame(refined, starts, frame))


def test_merge_validation():
    starts = plan_windows(12, 5)
    with pytest.raises(ShapeError):
        stitch_windows(np.zeros((2, 5, 1)), starts)
    with pytest.raises(ShapeError):
        stitch_windows(np.zeros((len(starts), 5)), starts)
    with pytest.raises(ShapeError):
        stitch_windows(np.zeros(5), [0])
    # starts that leave a frame uncovered or repeat a window
    for bad in ([1, 4], [0, 6], [0, 0]):
        with pytest.raises(ShapeError, match="starts"):
            stitch_windows(np.zeros((2, 5, 1)), bad)


@given(st.integers(min_value=2, max_value=120), st.integers(min_value=0, max_value=400))
def test_kept_frames_lie_near_their_window_centre(length, extra):
    # between the first and the last window centre, the window that owns a
    # frame has its centre at most half a step, ceil(ceil(L/3)/2), away
    n = length + extra
    starts = np.asarray(plan_windows(n, length))
    labels = np.repeat(np.arange(len(starts), dtype=float), length).reshape(-1, length, 1)
    owner = stitch_windows(labels, starts)[:, 0].astype(int)
    half = (length - 1) / 2.0
    frames = np.arange(n)
    inner = (frames >= half) & (frames <= n - 1 - half)
    distance = np.abs(frames - starts[owner] - half)
    step = -(-length // 3)
    assert np.all(distance[inner] <= -(-step // 2))


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_merged_value_within_covering_bounds(seed):
    rng = make_rng(seed)
    n, length = int(rng.integers(6, 40)), int(rng.integers(2, 7))
    starts = plan_windows(n, length)
    refined = rng.normal(0.0, 2.0, size=(len(starts), length, 1))
    stitched = stitch_windows(refined, starts)
    for frame in range(n):
        vals = [refined[k, frame - starts[k], 0] for k in covering(starts, length, frame)]
        assert stitched[frame, 0] in vals
        assert stitched[frame, 0] == stitch_frame(refined, starts, frame)[0]


def test_refine_sequence_identity_model_is_exact():
    rng = make_rng(63)
    model = RefinerModel.identity(hidden=4, d_att=3, window=10)
    theta = wrap_angle(np.cumsum(rng.uniform(-0.4, 0.4, size=(47, N_LIMBS)), axis=0))
    out = refine_sequence(theta, model)
    assert np.array_equal(out, np.unwrap(theta, axis=0))
    # a wrap of the output recovers the original branch values
    assert np.max(np.abs(wrap_angle(out) - theta)) <= 1e-9


def test_refine_sequence_unwraps_congruently_and_continuously():
    rng = make_rng(15)
    model = RefinerModel.identity(hidden=4, d_att=3, window=10)
    theta = wrap_angle(np.cumsum(rng.uniform(-2.5, 2.5, size=(60, N_LIMBS)), axis=0))
    un = refine_sequence(theta, model)
    assert np.array_equal(un[0], theta[0])
    assert np.max(np.abs(np.diff(un, axis=0))) <= np.pi + 1e-12
    k = np.round((un - theta) / (2 * np.pi))
    assert np.max(np.abs(un - theta - 2 * np.pi * k)) <= 1e-9


def test_refine_sequence_identity_model_short_input():
    # either side of the window: a clip of at most 10 frames is one batch
    # of its own length, a longer one is planned and stitched
    rng = make_rng(64)
    model = RefinerModel.identity(hidden=4, d_att=3, window=10)
    for n in (1, 4, 9, 10, 11):
        theta = rng.uniform(-1.0, 1.0, size=(n, N_LIMBS))
        out = refine_sequence(theta, model)
        assert np.array_equal(out, np.unwrap(theta, axis=0))


def test_refine_sequence_shapes_and_validation():
    model = RefinerModel.identity(hidden=4, d_att=3, window=10)
    with pytest.raises(ShapeError):
        refine_sequence(np.zeros(30), model)
    out = refine_sequence(np.zeros((30, 5)), model)  # joint count is free
    assert out.shape == (30, 5)


def test_refine_sequence_smooths_an_outlier():
    # a trained-model stand-in: even with random small weights the stitch
    # takes every frame from one window's output, so a frame covered by
    # clean windows cannot explode
    rng = make_rng(65)
    model = RefinerModel.init_random(hidden=4, d_att=3, window=10, seed=1)
    theta = np.zeros((40, 1))
    theta[20, 0] = 1.0
    out = refine_sequence(theta, model)
    assert np.isfinite(out).all()
    assert out.shape == (40, 1)


def test_short_clip_is_refined_at_its_own_length():
    # a clip shorter than the window is one (n_joints, n_frames) batch,
    # with no padding, planning or stitching.
    # The 12 joints' rows share one float32 forward call, and float32
    # rounding depends on the batch, so the oracle is one stacked call too
    rng = make_rng(66)
    model = RefinerModel.init_random(hidden=4, d_att=3, window=7, seed=2)
    for n in (3, 1):
        theta = rng.uniform(-1.0, 1.0, size=(n, N_LIMBS))
        out = refine_sequence(theta, model)
        assert out.shape == (n, N_LIMBS)
        want = refine_batch(np.unwrap(theta, axis=0).T, model, dtype=np.float32)
        assert np.array_equal(out, want.T)


def per_joint_reference(theta, model) -> np.ndarray:
    """float64 oracle: each joint's windows in one float64 call, then each
    frame stitched from its nearest-centre window."""
    unwrapped = np.unwrap(theta, axis=0)
    starts = plan_windows(len(theta), model.window)
    out = np.empty_like(unwrapped)
    for j in range(theta.shape[1]):
        batch = np.stack([unwrapped[s : s + model.window, j] for s in starts])
        refined = refine_batch(batch, model, dtype=np.float64)[:, :, None]
        for frame in range(len(theta)):
            out[frame, j] = stitch_frame(refined, starts, frame)[0]
    return out


@pytest.mark.bigru
def test_joint_batched_float32_matches_float64_per_joint_reference():
    rng = make_rng(67)
    model = RefinerModel.init_random(hidden=8, d_att=4, window=10, seed=3)
    theta = wrap_angle(np.cumsum(rng.uniform(-0.4, 0.4, size=(50, N_LIMBS)), axis=0))
    # 11 windows of 12 joints: the rows make two forward blocks
    assert len(_blocks(len(plan_windows(50, 10)) * N_LIMBS)) == 2
    out = refine_sequence(theta, model)
    want = per_joint_reference(theta, model)
    assert np.max(np.abs(out - want)) <= 1e-5
    # the float32 network is what ran
    assert not np.array_equal(out, want)


@pytest.mark.bigru
def test_identity_model_is_exact_across_forward_chunks():
    rng = make_rng(68)
    model = RefinerModel.identity(hidden=4, d_att=3, window=10)
    theta = wrap_angle(np.cumsum(rng.uniform(-0.4, 0.4, size=(110, N_LIMBS)), axis=0))
    # 26 windows of 12 joints: four forward blocks
    assert len(_blocks(len(plan_windows(110, 10)) * N_LIMBS)) == 4
    assert np.array_equal(refine_sequence(theta, model), np.unwrap(theta, axis=0))
