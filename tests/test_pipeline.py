"""Keypoint files, the conditioning + refinement chain, metrics, exports."""

import csv
import json
import math

import numpy as np
import pytest

from poserefine import (
    EDGE_NAMES,
    KEYPOINT_NAMES,
    N_LIMBS,
    PipelineConfig,
    PoseSequence,
    RefinedMotion,
    RefinerModel,
    SchemaError,
    ShapeError,
    evaluate_metrics,
    export_series,
    load_erroneous_frames,
    parse_keypoints,
    pose_to_angles,
    pose_to_limb_lengths,
    refine_keypoint_file,
    refine_pose_sequence,
    save_model,
    write_keypoints,
)

from conftest import make_rng, random_sequence, smooth_sequence


def test_parse_write_roundtrip(tmp_path):
    rng = make_rng(71)
    seq = random_sequence(rng, 9, fps=24.0)
    path = tmp_path / "kp.json"
    write_keypoints(seq, path)
    back = parse_keypoints(path)
    assert back.fps == seq.fps
    assert np.array_equal(back.xy, seq.xy)  # repr-based JSON floats roundtrip


def test_parse_rejects_bad_documents(tmp_path):
    path = tmp_path / "kp.json"

    def attempt(doc, match):
        path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
        with pytest.raises(SchemaError, match=match):
            parse_keypoints(path)

    attempt("{not json", "invalid JSON")
    attempt([1, 2], "top level")
    attempt({"fps": 30, "keypoints": list(KEYPOINT_NAMES)}, "frames")
    attempt(
        {"fps": 30, "keypoints": list(reversed(KEYPOINT_NAMES)), "frames": []},
        "order must be canonical",
    )
    good_frame = {"xy": [[float(i), 0.5 * i] for i in range(1, 14)]}
    attempt({"fps": 30, "keypoints": list(KEYPOINT_NAMES), "frames": []}, "non-empty")
    attempt(
        {"fps": 30, "keypoints": list(KEYPOINT_NAMES), "frames": [{"xy": [[0, 0]] * 12}]},
        "12 points",
    )
    bad = {"xy": [[float(i), 0.5 * i] for i in range(1, 13)] + [[1.0, float("nan")]]}
    path.write_text(
        json.dumps({"fps": 30, "keypoints": list(KEYPOINT_NAMES), "frames": [bad]}).replace(
            "NaN", "NaN"
        )
    )
    with pytest.raises(SchemaError, match="right_ankle"):
        parse_keypoints(path)
    attempt({"fps": 0, "keypoints": list(KEYPOINT_NAMES), "frames": [good_frame]}, "fps")
    attempt({"fps": "x", "keypoints": list(KEYPOINT_NAMES), "frames": [good_frame]}, "fps")


def test_refined_motion_shape_validation():
    with pytest.raises(ShapeError):
        RefinedMotion(base=np.zeros((5, 2)), theta=np.zeros((4, 12)), lengths=np.ones((5, 12)), fps=30)


# ---------------------------------------------------------------------------
# refinement chain


def test_identity_refinement_reproduces_self_consistent_input():
    rng = make_rng(72)
    seq = smooth_sequence(rng, 90)
    model = RefinerModel.identity(hidden=4, d_att=3, window=30)
    motion = refine_pose_sequence(seq, model, PipelineConfig(stride=7, half_width=10))
    assert motion.n_frames == 90
    rebuilt = motion.positions()
    assert rebuilt.fps == seq.fps
    assert np.max(np.abs(rebuilt.xy - seq.xy)) <= 1e-6


def test_refine_keypoint_file_end_to_end(tmp_path):
    rng = make_rng(73)
    seq = smooth_sequence(rng, 60)
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    mpath = tmp_path / "m.jarm"
    write_keypoints(seq, src)
    save_model(RefinerModel.identity(hidden=4, d_att=3, window=20), mpath)
    motion = refine_keypoint_file(src, mpath, dst)
    assert motion.n_frames == 60
    back = parse_keypoints(dst)  # output passes schema validation
    assert back.n_frames == 60
    assert np.max(np.abs(back.xy - seq.xy)) <= 1e-6


def test_refinement_reconstructs_consistent_limb_lengths():
    rng = make_rng(74)
    seq = smooth_sequence(rng, 70)
    true_lengths = pose_to_limb_lengths(seq)[0]
    noisy_xy = seq.xy + rng.normal(0.0, 0.8, size=seq.xy.shape)
    noisy = PoseSequence(xy=noisy_xy, fps=seq.fps)
    model = RefinerModel.identity(hidden=4, d_att=3, window=30)
    motion = refine_pose_sequence(noisy, model, PipelineConfig(stride=10))
    got = motion.lengths
    # optimized lengths are near-constant over time and close in ratio
    # structure to the true skeleton
    assert np.max(np.std(got, axis=0) / np.mean(got, axis=0)) < 0.05
    got_ratio = got[0, 0] / got[0, 1]
    assert got_ratio == pytest.approx(true_lengths[0] / true_lengths[1], rel=0.1)


# ---------------------------------------------------------------------------
# metrics


def test_evaluate_metrics_hand_case():
    truth = np.zeros((3, 12))
    refined = np.zeros((3, 12))
    refined[0, 0] = math.radians(5.0)   # inside tau on an affected joint
    refined[1, 3] = math.radians(20.0)  # outside tau on an affected joint
    refined[2, 5] = 2.0 * math.pi       # full turn: wrapped difference is zero
    report = evaluate_metrics(
        refined, truth, erroneous={0: [0], 1: [3, 4], 2: None}, tau=math.radians(10.0)
    )
    assert report.n_erroneous == 3
    assert report.n_corrected == 2
    assert report.correction_rate == pytest.approx(2.0 / 3.0)
    want_mse = (
        math.radians(5.0) ** 2 + math.radians(20.0) ** 2
    ) / 36.0  # wrapped 2*pi contributes zero
    assert report.mse_aggregate == pytest.approx(want_mse, rel=1e-9)
    assert report.mse_per_joint[0] == pytest.approx(math.radians(5.0) ** 2 / 3.0, rel=1e-9)
    assert report.mse_per_joint[5] == pytest.approx(0.0, abs=1e-12)
    doc = report.to_dict()
    assert doc["correction"]["tau_deg"] == pytest.approx(10.0)
    assert doc["n_frames"] == 3


def test_evaluate_metrics_vacuous_rate_is_one():
    report = evaluate_metrics(np.zeros((2, 12)), np.ones((2, 12)) * 0.3)
    assert report.n_erroneous == 0
    assert report.correction_rate == 1.0


def test_evaluate_metrics_symmetric_mse():
    rng = make_rng(75)
    a = rng.uniform(-math.pi, math.pi, size=(20, 12))
    b = rng.uniform(-math.pi, math.pi, size=(20, 12))
    assert evaluate_metrics(a, b).mse_aggregate == pytest.approx(
        evaluate_metrics(b, a).mse_aggregate, rel=1e-12
    )


def test_correction_rate_monotone_in_tau():
    rng = make_rng(76)
    truth = np.zeros((30, 12))
    refined = rng.normal(0.0, 0.2, size=(30, 12))
    erroneous = {int(f): None for f in range(30)}
    rates = [
        evaluate_metrics(refined, truth, erroneous, tau=math.radians(deg)).correction_rate
        for deg in (2.0, 5.0, 10.0, 20.0, 45.0)
    ]
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_evaluate_metrics_validation():
    with pytest.raises(ShapeError):
        evaluate_metrics(np.zeros((3, 12)), np.zeros((4, 12)))
    with pytest.raises(ShapeError):
        evaluate_metrics(np.zeros((3, 12)), np.zeros((3, 12)), tau=0.0)
    with pytest.raises(ShapeError, match="outside"):
        evaluate_metrics(np.zeros((3, 12)), np.zeros((3, 12)), erroneous={5: None})


def test_load_erroneous_frames_forms(tmp_path):
    path = tmp_path / "err.json"
    path.write_text(json.dumps({"frames": [7, {"frame": 9, "joints": [0, 3]}, {"frame": 2}]}))
    got = load_erroneous_frames(path)
    assert got == {7: None, 9: [0, 3], 2: None}
    path.write_text(json.dumps([1, 4]))
    assert load_erroneous_frames(path) == {1: None, 4: None}
    path.write_text(json.dumps({"frames": [{"frame": 1, "joints": [99]}]}))
    with pytest.raises(SchemaError, match="joint index"):
        load_erroneous_frames(path)
    path.write_text(json.dumps({"frames": ["x"]}))
    with pytest.raises(SchemaError):
        load_erroneous_frames(path)
    path.write_text(json.dumps({"frames": [{"frame": "x"}]}))
    with pytest.raises(SchemaError, match="integers"):
        load_erroneous_frames(path)
    path.write_text(json.dumps({"frames": [{"frame": 1, "joints": 5}]}))
    with pytest.raises(SchemaError, match="integers"):
        load_erroneous_frames(path)
    path.write_text(json.dumps({"frames": [{"frame": 2.5}]}))
    with pytest.raises(SchemaError, match="integers"):
        load_erroneous_frames(path)
    path.write_text("{bad")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_erroneous_frames(path)


# ---------------------------------------------------------------------------
# exports


def motion_from_sequence(seq: PoseSequence) -> RefinedMotion:
    return RefinedMotion(
        base=seq.xy[:, 0, :],
        theta=pose_to_angles(seq),
        lengths=pose_to_limb_lengths(seq),
        fps=seq.fps,
    )


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_export_positions_roundtrip(tmp_path):
    rng = make_rng(77)
    seq = random_sequence(rng, 7, fps=50.0)
    motion = motion_from_sequence(seq)
    path = tmp_path / "p.csv"
    export_series(motion, "positions", path)
    header, rows = read_csv(path)
    assert header[:2] == ["frame", "time_s"]
    assert header[2:4] == ["nose_x", "nose_y"]
    assert len(header) == 2 + 26
    assert len(rows) == 7
    values = np.array([[float(v) for v in row[2:]] for row in rows]).reshape(7, 13, 2)
    assert np.max(np.abs(values - seq.xy)) <= 1e-9  # reconstruction error only
    assert float(rows[3][1]) == pytest.approx(3 / 50.0, rel=1e-12)


def test_export_angles_exact(tmp_path):
    rng = make_rng(78)
    seq = random_sequence(rng, 5)
    motion = motion_from_sequence(seq)
    path = tmp_path / "a.csv"
    export_series(motion, "angles", path)
    header, rows = read_csv(path)
    assert header[2:] == [f"angle_{name}" for name in EDGE_NAMES]
    values = np.array([[float(v) for v in row[2:]] for row in rows])
    assert np.array_equal(values, motion.theta)  # repr floats roundtrip


def test_export_velocities_of_linear_motion(tmp_path):
    t = np.arange(6, dtype=float)
    base = np.stack([3.0 * t, -t], axis=1)
    theta = np.zeros((6, N_LIMBS))
    lengths = np.full((6, N_LIMBS), 10.0)
    motion = RefinedMotion(base=base, theta=theta, lengths=lengths, fps=10.0)
    path = tmp_path / "v.csv"
    export_series(motion, "velocities", path)
    header, rows = read_csv(path)
    assert header[2:4] == ["nose_vx", "nose_vy"]
    values = np.array([[float(v) for v in row[2:]] for row in rows])
    # rigid translation: every keypoint moves at (30, -10) px/s
    assert np.max(np.abs(values[:, 0::2] - 30.0)) <= 1e-9
    assert np.max(np.abs(values[:, 1::2] + 10.0)) <= 1e-9


def test_export_rejects_unknown_kind(tmp_path):
    rng = make_rng(79)
    motion = motion_from_sequence(random_sequence(rng, 4))
    with pytest.raises(ShapeError, match="positions"):
        export_series(motion, "torques", tmp_path / "t.csv")
