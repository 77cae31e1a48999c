"""Skeleton geometry: orientations, lengths, reconstruction, wrapping."""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poserefine import (
    EDGES,
    EDGE_NAMES,
    KEYPOINT_NAMES,
    N_KEYPOINTS,
    N_LIMBS,
    DegenerateLimbError,
    InsufficientDataError,
    PoseSequence,
    ShapeError,
    pose_to_angles,
    pose_to_limb_lengths,
    reconstruct_sequence,
    velocity_series,
    wrap_angle,
)

from conftest import (
    make_rng,
    pose_angles,
    pose_lengths,
    random_pose,
    random_sequence,
    rebuild_pose,
)


def limb_pose(parent, child) -> np.ndarray:
    """A pose whose first limb (nose -> left shoulder) runs parent -> child.

    The other keypoints sit on a distinct grid far away, so no other limb
    is degenerate.
    """
    k = np.arange(N_KEYPOINTS, dtype=float)
    xy = np.stack([100.0 + 3.0 * k, 200.0 + 5.0 * k], axis=1)
    xy[0], xy[1] = parent, child
    return xy


def orientation(parent, child) -> float:
    return pose_angles(limb_pose(parent, child))[0]


def length(parent, child) -> float:
    return pose_lengths(limb_pose(parent, child))[0]


def scalar_orientation(parent, child) -> float:
    """Oracle: math.atan2 with the branch cut mapped to +pi."""
    ang = math.atan2(child[1] - parent[1], child[0] - parent[0])
    return math.pi if ang == -math.pi else ang


def scalar_length(parent, child) -> float:
    """Oracle: math.hypot of the limb vector."""
    return math.hypot(child[0] - parent[0], child[1] - parent[1])


def test_tree_layout():
    assert len(KEYPOINT_NAMES) == N_KEYPOINTS == 13
    assert len(EDGES) == N_LIMBS == 12
    # every child appears exactly once; every parent is the root or an
    # earlier child, so reconstruction can walk the edges in order
    children = [c for _, c in EDGES]
    assert sorted(children) == list(range(1, 13))
    seen = {0}
    for p, c in EDGES:
        assert p in seen
        seen.add(c)
    assert EDGE_NAMES[0] == "nose_to_left_shoulder"
    assert EDGE_NAMES[-1] == "right_knee_to_right_ankle"


def test_limb_orientation_quadrants():
    o = (0.0, 0.0)
    assert orientation(o, (1.0, 0.0)) == 0.0
    assert orientation(o, (0.0, 1.0)) == math.pi / 2
    assert orientation(o, (0.0, -1.0)) == -math.pi / 2
    assert orientation(o, (1.0, 1.0)) == pytest.approx(math.pi / 4, abs=1e-15)
    assert orientation(o, (-1.0, -1.0)) == pytest.approx(-3 * math.pi / 4, abs=1e-15)
    # the branch cut maps to +pi, never -pi
    assert orientation(o, (-1.0, 0.0)) == math.pi
    assert orientation((5.0, 2.0), (3.0, 2.0)) == math.pi


def test_limb_orientation_degenerate():
    with pytest.raises(DegenerateLimbError):
        orientation((1.0, 2.0), (1.0, 2.0))


def test_limb_length_hand_values():
    assert length((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert length((1.0, 1.0), (1.0, 1.0)) == 0.0


def test_wrap_angle_hand_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-12)
    assert wrap_angle(-math.pi / 4) == pytest.approx(-math.pi / 4, abs=1e-15)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_wrap_angle_branch_and_congruence(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    # congruent to the input modulo 2*pi
    k = round((theta - w) / (2 * math.pi))
    assert abs(theta - w - 2 * math.pi * k) < 1e-9


def test_wrap_angle_array():
    arr = wrap_angle(np.array([0.0, math.pi, -math.pi, 4 * math.pi]))
    assert arr.shape == (4,)
    assert arr[1] == math.pi and arr[2] == math.pi
    assert abs(arr[3]) < 1e-12


def test_angles_from_pose_matches_scalar_route():
    # numpy's arctan2 and math.atan2 may disagree in the last ulp
    rng = make_rng(7)
    for _ in range(20):
        pose = random_pose(rng)
        vec = pose_angles(pose)
        for e, (p, c) in enumerate(EDGES):
            assert vec[e] == pytest.approx(scalar_orientation(pose[p], pose[c]), abs=1e-12)


def test_limb_lengths_match_scalar_route():
    rng = make_rng(8)
    pose = random_pose(rng)
    vec = pose_lengths(pose)
    for e, (p, c) in enumerate(EDGES):
        assert vec[e] == pytest.approx(scalar_length(pose[p], pose[c]), abs=1e-12)


def test_roundtrip_single_pose():
    rng = make_rng(9)
    pose = random_pose(rng)
    rebuilt = rebuild_pose(pose[0], pose_angles(pose), pose_lengths(pose))
    assert np.max(np.abs(rebuilt - pose)) <= 1e-9


def test_roundtrip_sequence():
    rng = make_rng(10)
    seq = random_sequence(rng, 40)
    rebuilt = reconstruct_sequence(
        seq.xy[:, 0, :], pose_to_angles(seq), pose_to_limb_lengths(seq), seq.fps
    )
    assert np.max(np.abs(rebuilt.xy - seq.xy)) <= 1e-9
    assert rebuilt.fps == seq.fps


def test_roundtrip_thousand_poses_under_a_second():
    rng = make_rng(11)
    seq = random_sequence(rng, 1000)
    started = time.perf_counter()
    theta = pose_to_angles(seq)
    lengths = pose_to_limb_lengths(seq)
    rebuilt = reconstruct_sequence(seq.xy[:, 0, :], theta, lengths, seq.fps)
    elapsed = time.perf_counter() - started
    assert np.max(np.abs(rebuilt.xy - seq.xy)) <= 1e-9
    assert elapsed < 1.0


def test_translation_leaves_angles_and_lengths_unchanged():
    # eighth-pixel coordinates plus integer offsets keep every difference
    # vector bitwise identical, so the invariance is exact
    rng = make_rng(12)
    pose = np.round(random_pose(rng) * 8.0) / 8.0
    if (pose_lengths(pose) == 0).any():
        pose[:, 0] += np.arange(N_KEYPOINTS)  # nudge apart, still on the grid
    for shift in ((17.0, -40.0), (3.0, 3.0), (-250.0, 99.0)):
        moved = pose + np.asarray(shift)
        assert np.array_equal(pose_angles(moved), pose_angles(pose))
        assert np.array_equal(pose_lengths(moved), pose_lengths(pose))


def test_scale_and_rotation_equivariance():
    rng = make_rng(13)
    pose = random_pose(rng)
    theta = pose_angles(pose)
    lengths = pose_lengths(pose)
    for s in (0.25, 3.0):
        scaled = pose * s
        assert np.max(np.abs(pose_angles(scaled) - theta)) <= 1e-12
        assert np.max(np.abs(pose_lengths(scaled) - s * lengths)) <= 1e-9
    for phi in (0.3, -2.5):
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        turned = pose @ rot.T
        expect = wrap_angle(theta + phi)
        got = pose_angles(turned)
        diff = np.abs(wrap_angle(got - expect))
        assert np.max(diff) <= 1e-12
        assert np.max(np.abs(pose_lengths(turned) - lengths)) <= 1e-9


def test_pose_sequence_validation():
    with pytest.raises(ShapeError):
        PoseSequence(xy=np.zeros((4, 12, 2)), fps=30.0)
    with pytest.raises(ShapeError):
        PoseSequence(xy=np.zeros((0, 13, 2)), fps=30.0)
    bad = np.zeros((2, 13, 2))
    bad[1, 3, 0] = np.nan
    with pytest.raises(ShapeError, match="left_elbow"):
        PoseSequence(xy=bad, fps=30.0)
    with pytest.raises(ShapeError):
        PoseSequence(xy=np.zeros((2, 13, 2)), fps=0.0)
    with pytest.raises(ShapeError):
        PoseSequence(xy=np.zeros((2, 13, 2)), fps=math.inf)


def test_angles_from_pose_shape_errors():
    with pytest.raises(ShapeError):
        pose_angles(np.zeros((12, 2)))
    with pytest.raises(ShapeError):
        pose_lengths(np.zeros((13, 3)))


def test_pose_to_angles_names_degenerate_limb():
    rng = make_rng(14)
    seq = random_sequence(rng, 5)
    xy = seq.xy.copy()
    xy[3, 9] = xy[3, 7]  # collapse left hip -> left knee at frame 3
    with pytest.raises(DegenerateLimbError, match="left_hip_to_left_knee at frame 3"):
        pose_to_angles(PoseSequence(xy=xy, fps=30.0))


def overflowing_sequence(shoulder, elbow) -> PoseSequence:
    """random_sequence with frame 5's left shoulder and left elbow moved."""
    xy = random_sequence(make_rng(15), 8).xy.copy()
    xy[5, 1], xy[5, 3] = shoulder, elbow
    return PoseSequence(xy=xy, fps=30.0)


def test_a_limb_vector_past_float64_is_refused_by_angles_and_lengths():
    # finite keypoints whose difference, 1.5e308 - (-1.5e308), overflows;
    # the overflowed vector would read as an angle of -0.0, not -0.165
    seq = overflowing_sequence((-1.5e308, 0.0), (1.5e308, -0.5e308))
    message = "non-finite vector on limb left_shoulder_to_left_elbow at frame 5"
    for measure in (pose_to_angles, pose_to_limb_lengths):
        with pytest.raises(DegenerateLimbError, match=message):
            measure(seq)


def test_a_limb_length_past_float64_is_refused():
    seq = overflowing_sequence((-0.75e308, -0.75e308), (0.75e308, 0.75e308))
    assert pose_to_angles(seq)[5, 2] == pytest.approx(math.pi / 4)
    message = "non-finite length on limb left_shoulder_to_left_elbow at frame 5"
    with pytest.raises(DegenerateLimbError, match=message):
        pose_to_limb_lengths(seq)


def test_reconstruct_rejects_non_positive_lengths():
    theta = np.zeros(N_LIMBS)
    lengths = np.ones(N_LIMBS)
    lengths[4] = 0.0
    with pytest.raises(DegenerateLimbError, match=EDGE_NAMES[4]):
        rebuild_pose((0.0, 0.0), theta, lengths)


def test_reconstruct_sequence_shape_errors():
    with pytest.raises(ShapeError):
        reconstruct_sequence(np.zeros((5, 2)), np.zeros((4, 12)), np.ones((5, 12)))


def test_velocity_of_linear_motion_is_constant():
    t = np.arange(50, dtype=float)
    positions = np.stack([2.0 * t + 1.0, -0.5 * t + 3.0], axis=1)[:, None, :]
    vel = velocity_series(positions, fps=25.0)
    assert np.max(np.abs(vel[:, 0, 0] - 50.0)) <= 1e-9
    assert np.max(np.abs(vel[:, 0, 1] + 12.5)) <= 1e-9


def test_velocity_series_needs_two_frames():
    with pytest.raises(InsufficientDataError):
        velocity_series(np.zeros((1, 13, 2)), fps=30.0)
