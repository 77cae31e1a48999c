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
    InsufficientDataError,
    NoiseSpec,
    PoseSequence,
    RefinedMotion,
    RefinerModel,
    SchemaError,
    ShapeError,
    evaluate_metrics,
    export_series,
    generate_dataset,
    load_erroneous_frames,
    load_split,
    parse_keypoints,
    pose_to_angles,
    pose_to_limb_lengths,
    refine_keypoint_file,
    record_events,
    refine_pose_sequence,
    save_model,
    score_windows,
    wrap_angle,
    write_keypoints,
)
from poserefine import windows

from conftest import (
    make_rng,
    random_sequence,
    rounded_coordinates,
    smooth_sequence,
    write_exact_keypoints,
)


def test_parse_write_roundtrip(tmp_path):
    rng = make_rng(71)
    seq = random_sequence(rng, 9, fps=24.0)
    path = tmp_path / "kp.json"
    write_keypoints(seq, path)
    back = parse_keypoints(path)
    assert back.fps == seq.fps
    # coordinates are written with six correctly rounded decimals
    assert np.array_equal(back.xy, rounded_coordinates(seq.xy))


def test_write_parse_write_is_byte_identical(tmp_path):
    rng = make_rng(72)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_keypoints(random_sequence(rng, 11, fps=30.0), first)
    write_keypoints(parse_keypoints(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_written_keypoints_are_strict_json(tmp_path):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    xy = np.ones((3, 13, 2))
    xy[1, 4] = [1e20, -1e20]
    xy[2, 0] = [-0.0, 5e-324]
    path = tmp_path / "kp.json"
    write_keypoints(PoseSequence(xy=xy, fps=29.97), path)
    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert doc["frames"][1]["xy"][4] == [1e20, -1e20]


def test_write_keypoints_bytes_are_pinned(tmp_path):
    xy = np.ones((2, 13, 2))
    xy[0, 0] = [-0.0, 1e-17]
    xy[0, 1] = [1.0000005, 5e-07]  # correctly rounded, which np.round does not promise
    xy[1, 12] = [0.1 + 0.2, 123456789.125]
    path = tmp_path / "kp.json"
    write_keypoints(PoseSequence(xy=xy, fps=25), path)
    names = (
        '"nose","left_shoulder","right_shoulder","left_elbow","right_elbow",'
        '"left_wrist","right_wrist","left_hip","right_hip","left_knee",'
        '"right_knee","left_ankle","right_ankle"'
    )
    one = "[1.000000,1.000000]"
    expected = (
        '{"fps":25.0,"keypoints":[' + names + '],"frames":['
        '{"xy":[[-0.000000,0.000000],[1.000001,0.000000],'
        + ",".join([one] * 11)
        + "]},"
        '{"xy":[' + ",".join([one] * 12) + ",[0.300000,123456789.125000]]}]}\n"
    )
    assert path.read_bytes() == expected.encode()


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
    # JSON strings and booleans are not numbers, though float() takes them
    for fps in ("30", True):
        attempt({"fps": fps, "keypoints": list(KEYPOINT_NAMES), "frames": [good_frame]}, "fps")
    for pt in ([True, False], ["1", 0.5]):
        frame = {"xy": good_frame["xy"][:12] + [pt]}
        attempt({"fps": 30, "keypoints": list(KEYPOINT_NAMES), "frames": [frame]}, "right_ankle")


def test_parse_words_each_coordinate_error_exactly(tmp_path):
    # the bad entry sits in frame 1, after a good frame 0; well-formed
    # files take a vectorised path, so every wording is pinned here
    path = tmp_path / "kp.json"
    good = [[float(i), 0.5 * i] for i in range(1, 14)]

    def write(frames):
        doc = {"fps": 30, "keypoints": list(KEYPOINT_NAMES), "frames": frames}
        path.write_text(json.dumps(doc))

    def message(frame1, tail=()):
        write([{"xy": good}, frame1, *tail])
        with pytest.raises(SchemaError) as info:
            parse_keypoints(path)
        return str(info.value)

    lacks = f"{path}: frame 1 lacks an 'xy' entry"
    assert message([good]) == lacks
    assert message({"pts": good}) == lacks
    not_a_list = f"{path}: frame 1: 'xy' must be a list of points"
    assert message({"xy": {"nose": [0, 0]}}) == not_a_list
    assert message({"xy": "points"}) == not_a_list
    assert message({"xy": good[:12]}) == f"{path}: frame 1 has 12 points, expected 13"
    assert message({"xy": good + [[0, 0]]}) == f"{path}: frame 1 has 14 points, expected 13"
    for name, pt in (
        ("nose", [1.0]),
        ("nose", [1.0, 2.0, 3.0]),
        ("nose", {"x": 1, "y": 2}),
        ("nose", 7),
        ("nose", [[1.0], 2.0]),
        ("nose", [None, 2.0]),
        ("nose", [1.0, "2"]),
        ("nose", [False, 2.0]),
    ):
        want = f"{path}: frame 1, keypoint {name} is not an (x, y) pair of numbers"
        assert message({"xy": [pt] + good[1:]}) == want
    # an integer beyond float range overflows float()
    write([{"xy": good}])
    path.write_text(path.read_text().replace("[13.0, 6.5]", "[13" + "0" * 400 + ", 6.5]"))
    with pytest.raises(SchemaError) as info:
        parse_keypoints(path)
    assert str(info.value) == (
        f"{path}: frame 0, keypoint right_ankle is not an (x, y) pair of numbers"
    )
    # non-finite values pass the type check and are refused by PoseSequence
    nan_pt = [[1.0, float("nan")]] + good[1:]
    assert message({"xy": nan_pt}) == (
        f"{path}: non-finite coordinate at frame 1, keypoint nose"
    )
    # the first bad frame in file order is the one reported
    assert message({"xy": [[1.0, "2"]] + good[1:]}, tail=[{"pts": good}]) == (
        f"{path}: frame 1, keypoint nose is not an (x, y) pair of numbers"
    )
    assert message({"xy": good[:3]}, tail=[{"xy": [[True, 0]] + good[1:]}]) == (
        f"{path}: frame 1 has 3 points, expected 13"
    )


def test_parse_reads_integer_and_float_coordinates(tmp_path):
    path = tmp_path / "kp.json"
    xy = [[[i, -2.5 * i] for i in range(13)], [[0.25 * i, 3] for i in range(13)]]
    frames = [{"xy": p} for p in xy]
    path.write_text(json.dumps({"fps": 30, "keypoints": list(KEYPOINT_NAMES), "frames": frames}))
    got = parse_keypoints(path).xy
    assert got.dtype == np.float64
    assert np.array_equal(got, np.array(xy, dtype=float))

def test_refined_motion_shape_validation():
    # reconstruct_sequence checks the shapes when the motion is rebuilt
    motion = RefinedMotion(
        base=np.zeros((5, 2)), theta=np.zeros((4, 12)), lengths=np.ones((5, 12)), fps=30
    )
    with pytest.raises(ShapeError):
        motion.positions()


# ---------------------------------------------------------------------------
# refinement chain


def test_identity_refinement_reproduces_self_consistent_input():
    rng = make_rng(72)
    seq = smooth_sequence(rng, 90)
    model = RefinerModel.identity(hidden=4, d_att=3, window=30)
    motion = refine_pose_sequence(seq, model)
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
    write_exact_keypoints(seq, src)
    save_model(RefinerModel.identity(hidden=4, d_att=3, window=20), mpath)
    motion = refine_keypoint_file(src, mpath, dst)
    assert motion.n_frames == 60
    back = parse_keypoints(dst)  # output passes schema validation
    assert back.n_frames == 60
    assert np.array_equal(back.xy, rounded_coordinates(motion.positions().xy))
    assert np.max(np.abs(back.xy - seq.xy)) <= 1e-6


def test_short_file_is_one_refine_batch_call_at_its_own_length(tmp_path, monkeypatch):
    calls = []
    original = windows.refine_batch

    def spy(rows, model):
        calls.append(np.shape(rows))
        return original(rows, model)

    monkeypatch.setattr(windows, "refine_batch", spy)
    src, mpath = tmp_path / "in.json", tmp_path / "m.jarm"
    write_keypoints(smooth_sequence(make_rng(75), 40), src)
    save_model(RefinerModel.init_random(hidden=4, d_att=3, window=100, seed=1), mpath)
    refine_keypoint_file(src, mpath, tmp_path / "out.json")
    assert calls == [(N_LIMBS, 40)]


def test_long_file_is_one_refine_batch_call_of_third_window_steps(tmp_path, monkeypatch):
    # 3000 frames at window 100 step by 34: 87 windows of 12 joints
    calls = []
    original = windows.refine_batch

    def spy(rows, model):
        calls.append(np.shape(rows))
        return original(rows, model)

    monkeypatch.setattr(windows, "refine_batch", spy)
    src, mpath = tmp_path / "in.json", tmp_path / "m.jarm"
    write_keypoints(smooth_sequence(make_rng(76), 3000), src)
    save_model(RefinerModel.identity(hidden=4, d_att=3, window=100), mpath)
    refine_keypoint_file(src, mpath, tmp_path / "out.json")
    assert calls == [(1044, 100)]


def test_refinement_reconstructs_consistent_limb_lengths():
    rng = make_rng(74)
    seq = smooth_sequence(rng, 70)
    true_lengths = pose_to_limb_lengths(seq)[0]
    noisy_xy = seq.xy + rng.normal(0.0, 0.8, size=seq.xy.shape)
    noisy = PoseSequence(xy=noisy_xy, fps=seq.fps)
    model = RefinerModel.identity(hidden=4, d_att=3, window=30)
    motion = refine_pose_sequence(noisy, model)
    got = motion.lengths
    # optimized lengths are near-constant over time and close in ratio
    # structure to the true skeleton
    assert np.max(np.std(got, axis=0) / np.mean(got, axis=0)) < 0.05
    got_ratio = got[0, 0] / got[0, 1]
    assert got_ratio == pytest.approx(true_lengths[0] / true_lengths[1], rel=0.1)


def test_refined_lengths_are_one_vector_in_every_frame():
    # one vector for the clip, repeated; a per-frame fit of this 1000-frame
    # clip leaves frames about an ulp apart
    rng = make_rng(77)
    seq = smooth_sequence(rng, 1000)
    noisy = PoseSequence(xy=seq.xy + rng.normal(0.0, 1.5, size=seq.xy.shape), fps=seq.fps)
    motion = refine_pose_sequence(noisy, RefinerModel.identity(hidden=4, d_att=3, window=30))
    assert motion.lengths.shape == (1000, N_LIMBS)
    assert np.array_equal(motion.lengths, np.broadcast_to(motion.lengths[0], (1000, N_LIMBS)))


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
    # a tau of 0 corrects nothing, and an infinite one would be written
    # as the non-JSON token Infinity
    for tau in (0.0, math.inf, math.nan):
        with pytest.raises(ShapeError, match="tau"):
            evaluate_metrics(np.zeros((3, 12)), np.zeros((3, 12)), tau=tau)
    with pytest.raises(ShapeError, match="outside"):
        evaluate_metrics(np.zeros((3, 12)), np.zeros((3, 12)), erroneous={5: None})
    # an empty list would always count as corrected; -1 would score joint 11
    for joints in ([99], [], [-1], [0, 12]):
        with pytest.raises(ShapeError, match="joints"):
            evaluate_metrics(np.zeros((3, 12)), np.ones((3, 12)), erroneous={2: joints})


def test_score_windows_of_the_identity_model(tmp_path):
    # the identity model leaves every window as it was: ratio exactly 1,
    # and an event is corrected where the noise itself stayed within tau
    manifest = generate_dataset(
        tmp_path / "corpus", train_count=1, test_count=40, noise=NoiseSpec(seed=3),
        window=20, frames_per_cycle=25, cycles=2,
    )
    model = RefinerModel.identity(hidden=4, d_att=3, window=20)
    score = score_windows(manifest, "test", model)
    assert score["mse_ratio"] == 1.0
    assert score["refined_mse"] == score["noisy_mse"] > 0.0
    _, truth, noisy = load_split(manifest, "test")
    within = np.abs(wrap_angle(noisy - truth)) <= math.radians(10.0)
    frames = [record_events(manifest, "test", i).all_frames() for i in range(40)]
    assert score["events"] == sum(len(f) for f in frames) > 0
    assert score["corrected"] == sum(int(within[i, f].sum()) for i, f in enumerate(frames))
    assert score["correction_rate"] == score["corrected"] / score["events"]
    # a split with no windows has nothing to score
    empty = generate_dataset(
        tmp_path / "empty", train_count=1, test_count=0, window=20,
        frames_per_cycle=25, cycles=2,
    )
    with pytest.raises(InsufficientDataError):
        score_windows(empty, "test", model)


def test_load_erroneous_frames_forms(tmp_path):
    path = tmp_path / "err.json"
    path.write_text(json.dumps({"frames": [7, {"frame": 9, "joints": [0, 3]}, {"frame": 2}]}))
    got = load_erroneous_frames(path)
    assert got == {7: None, 9: [0, 3], 2: None}
    path.write_text(json.dumps([1, 4]))
    assert load_erroneous_frames(path) == {1: None, 4: None}
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


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_export_positions_roundtrip(tmp_path):
    rng = make_rng(77)
    seq = random_sequence(rng, 7, fps=50.0)
    path = tmp_path / "p.csv"
    export_series(seq, "positions", path)
    header, rows = read_csv(path)
    assert header[:2] == ["frame", "time_s"]
    assert header[2:4] == ["nose_x", "nose_y"]
    assert len(header) == 2 + 26
    assert len(rows) == 7
    values = np.array([[float(v) for v in row[2:]] for row in rows]).reshape(7, 13, 2)
    assert np.array_equal(values, seq.xy)  # the parsed coordinates, repr floats
    assert float(rows[3][1]) == pytest.approx(3 / 50.0, rel=1e-12)


def test_export_angles_exact(tmp_path):
    rng = make_rng(78)
    seq = random_sequence(rng, 5)
    path = tmp_path / "a.csv"
    export_series(seq, "angles", path)
    header, rows = read_csv(path)
    assert header[2:] == [f"angle_{name}" for name in EDGE_NAMES]
    values = np.array([[float(v) for v in row[2:]] for row in rows])
    assert np.array_equal(values, pose_to_angles(seq))  # repr floats roundtrip


def test_export_velocities_of_linear_motion(tmp_path):
    t = np.arange(6, dtype=float)
    base = np.stack([3.0 * t, -t], axis=1)
    theta = np.zeros((6, N_LIMBS))
    lengths = np.full((6, N_LIMBS), 10.0)
    motion = RefinedMotion(base=base, theta=theta, lengths=lengths, fps=10.0)
    path = tmp_path / "v.csv"
    export_series(motion.positions(), "velocities", path)
    header, rows = read_csv(path)
    assert header[2:4] == ["nose_vx", "nose_vy"]
    values = np.array([[float(v) for v in row[2:]] for row in rows])
    # rigid translation: every keypoint moves at (30, -10) px/s
    assert np.max(np.abs(values[:, 0::2] - 30.0)) <= 1e-9
    assert np.max(np.abs(values[:, 1::2] + 10.0)) <= 1e-9


def test_export_rejects_unknown_kind(tmp_path):
    rng = make_rng(79)
    with pytest.raises(ShapeError, match="positions"):
        export_series(random_sequence(rng, 4), "torques", tmp_path / "t.csv")
