"""Noise injection, shard IO, manifests, and deterministic generation."""

import json
import math
import os

import numpy as np
import pytest

from poserefine import (
    DatasetManifest,
    GenerationError,
    InvalidRangeError,
    N_LIMBS,
    NoiseSpec,
    SchemaError,
    ShapeError,
    generate_dataset,
    inject_noise_events,
    load_split,
    read_shard,
    record_coords,
    record_events,
    write_shard,
)
from poserefine.cli import main as cli_main
from poserefine.dataset import _window_rng

from conftest import make_rng

QUIET = NoiseSpec(
    jitter_sigma_range=(0.0, 0.1),
    outlier_fraction=0.1,
    outlier_sigma_max=0.5,
    secondary_sigma=1.0,
    secondary_max=3,
    seed=0,
)


def test_noise_spec_validation():
    with pytest.raises(InvalidRangeError):
        NoiseSpec(jitter_sigma_range=(0.2, 0.1))
    with pytest.raises(InvalidRangeError):
        NoiseSpec(jitter_sigma_range=(-0.1, 0.1))
    with pytest.raises(InvalidRangeError):
        NoiseSpec(outlier_fraction=1.5)
    with pytest.raises(InvalidRangeError):
        NoiseSpec(outlier_sigma_max=-1.0)
    with pytest.raises(InvalidRangeError):
        NoiseSpec(secondary_max=-1)


def test_outlier_count_is_ceil_of_fraction():
    rng = make_rng(41)
    for n, frac, want in ((200, 0.05, 10), (100, 0.05, 5), (37, 0.1, 4), (50, 0.0, 0)):
        spec = NoiseSpec(outlier_fraction=frac)
        _, events = inject_noise_events(np.zeros(n), spec, rng)
        assert len(events.primary) == want
        assert np.array_equal(events.primary, np.sort(events.primary))
        assert len(np.unique(events.primary)) == want


def test_draw_order_regression():
    # frozen stream: any change to the documented rng draw order shows up here
    rng = make_rng(123)
    noisy, events = inject_noise_events(np.zeros(20), QUIET, rng)
    assert events.primary.tolist() == [3, 4]
    assert events.secondary.tolist() == []
    assert noisy[0] == pytest.approx(-0.025095990690690562, abs=1e-15)
    assert noisy[3] == pytest.approx(0.33519469086055537, abs=1e-15)
    assert noisy[5] == pytest.approx(-0.043429215499094606, abs=1e-15)


def test_echo_amplitudes_halve_with_distance():
    spec = NoiseSpec(
        jitter_sigma_range=(0.0, 0.0),
        outlier_fraction=0.02,
        outlier_sigma_max=0.5,
        secondary_sigma=5.0,
        secondary_max=4,
        seed=0,
    )
    # this seed yields one primary at frame 15 with four echoes per side
    noisy, events = inject_noise_events(np.zeros(50), spec, make_rng(0))
    assert events.primary.tolist() == [15]
    assert len(events.secondary) == 8
    amp = noisy[15]
    assert abs(amp) > 0.1
    for d in range(1, 5):
        assert noisy[15 - d] == amp * 2.0**-d
        assert noisy[15 + d] == amp * 2.0**-d
    untouched = np.setdiff1d(np.arange(50), np.concatenate([[15], events.secondary]))
    assert np.array_equal(noisy[untouched], np.zeros(untouched.size))


def test_echoes_clip_at_window_bounds():
    spec = NoiseSpec(
        jitter_sigma_range=(0.0, 0.0),
        outlier_fraction=0.5,
        outlier_sigma_max=1.0,
        secondary_sigma=10.0,
        secondary_max=5,
        seed=0,
    )
    rng = make_rng(42)
    noisy, events = inject_noise_events(np.zeros(8), spec, rng)
    assert np.isfinite(noisy).all()
    assert ((events.secondary >= 0) & (events.secondary < 8)).all()
    assert np.array_equal(events.secondary, np.unique(events.secondary))


def test_jitter_sigma_statistics():
    # fixed sigma, no outliers: the empirical deviation must sit near 0.1
    spec = NoiseSpec(jitter_sigma_range=(0.1, 0.1), outlier_fraction=0.0)
    rng = make_rng(43)
    total = 0.0
    count = 0
    for _ in range(2000):
        noisy = inject_noise_events(np.zeros(50), spec, rng)[0]
        total += float(noisy @ noisy)
        count += 50
    sigma = math.sqrt(total / count)
    assert 0.097 <= sigma <= 0.103


def test_truth_window_must_be_1d():
    with pytest.raises(ShapeError):
        inject_noise_events(np.zeros((4, 5)), QUIET, make_rng(0))


# ---------------------------------------------------------------------------
# shards


def test_shard_roundtrip(tmp_path):
    rng = make_rng(44)
    path = tmp_path / "s.bin"
    joints = np.array([0, 11, 5])
    truth = rng.normal(size=(3, 16)).astype(np.float32)
    noisy = rng.normal(size=(3, 16)).astype(np.float32)
    size = write_shard(path, joints, truth, noisy)
    assert size == os.path.getsize(path) == 3 * (2 + 2 + 16 * 4 + 16 * 4)
    j, t, n = read_shard(path, 16)
    assert np.array_equal(j, joints)
    assert np.array_equal(t, truth.astype(np.float64))
    assert np.array_equal(n, noisy.astype(np.float64))


def test_shard_errors(tmp_path):
    path = tmp_path / "s.bin"
    with pytest.raises(ShapeError):
        write_shard(path, np.array([0]), np.zeros((2, 8)), np.zeros((2, 8)))
    write_shard(path, np.array([0]), np.zeros((1, 8)), np.zeros((1, 8)))
    with open(path, "ab") as fh:
        fh.write(b"x")  # no longer a whole number of records
    with pytest.raises(SchemaError):
        read_shard(path, 8)
    bad = tmp_path / "bad.bin"
    write_shard(bad, np.array([N_LIMBS + 3]), np.zeros((1, 8)), np.zeros((1, 8)))
    with pytest.raises(SchemaError, match="joint"):
        read_shard(bad, 8)
    ok = tmp_path / "ok.bin"
    write_shard(ok, np.array([0]), np.zeros((1, 8)), np.zeros((1, 8)))
    with pytest.raises(SchemaError):
        read_shard(ok, 10)  # window disagrees with the stored length field


# ---------------------------------------------------------------------------
# generation


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest = generate_dataset(
        out,
        train_count=70,
        test_count=30,
        noise=NoiseSpec(seed=5),
        window=20,
        stride=5,
        frames_per_cycle=25,
        cycles=2,
        records_per_shard=32,
    )
    return out, manifest


def test_generation_counts_and_shards(tiny_corpus):
    out, manifest = tiny_corpus
    assert manifest.counts == {"train": 70, "test": 30}
    assert [r for _, r, _ in manifest.shards["train"]] == [32, 32, 6]
    assert [r for _, r, _ in manifest.shards["test"]] == [30]
    for split in ("train", "test"):
        joints, truth, noisy = load_split(manifest, split)
        assert joints.shape == (manifest.counts[split],)
        assert truth.shape == noisy.shape == (manifest.counts[split], 20)
        assert ((joints >= 0) & (joints < N_LIMBS)).all()


def test_manifest_roundtrip(tiny_corpus):
    out, manifest = tiny_corpus
    loaded = DatasetManifest.load(os.path.join(out, "manifest.json"))
    assert loaded.window == 20 and loaded.stride == 5
    assert loaded.frames_per_cycle == 25 and loaded.cycles == 2
    assert loaded.base_seed == 5
    assert loaded.templates == ["walk", "run", "march", "shuffle"]
    assert loaded.counts == manifest.counts
    assert loaded.shards == manifest.shards
    assert loaded.noise.jitter_sigma_range == pytest.approx(
        manifest.noise.jitter_sigma_range, abs=1e-15
    )
    assert loaded.to_json() == manifest.to_json()


def test_manifest_degrees_in_file(tiny_corpus):
    out, _ = tiny_corpus
    with open(os.path.join(out, "manifest.json")) as fh:
        doc = json.load(fh)
    assert doc["noise_deg"]["jitter_sigma_range"] == pytest.approx([0.0, 15.0])
    assert doc["noise_deg"]["outlier_sigma_max"] == pytest.approx(45.0)


def test_manifest_load_rejects_malformed_documents(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(SchemaError, match="top level"):
        DatasetManifest.load(path)
    path.write_text(json.dumps({"noise_deg": 5}))
    with pytest.raises(SchemaError):
        DatasetManifest.load(path)
    good = DatasetManifest(
        window=20, stride=5, frames_per_cycle=25, cycles=2, base_seed=0,
        noise=NoiseSpec(), templates=[],
    )
    for key, value in (("window", -5), ("window", 1), ("stride", 0)):
        path.write_text(json.dumps({**json.loads(good.to_json()), key: value}))
        with pytest.raises(SchemaError, match="window must be >= 2 and stride >= 1"):
            DatasetManifest.load(path)
    # integer fields refuse what int() would truncate or accept
    doc = json.loads(good.to_json())
    for key, value in (
        ("stride", 1.9), ("frames_per_cycle", 100.7), ("window", True), ("cycles", 2.0),
        ("base_seed", "0"), ("counts", {"train": 30.2}),
        ("shards", {"train": [{"name": "train-0000.bin", "records": 1, "bytes": 1.5}]}),
    ):
        path.write_text(json.dumps({**doc, "counts": {"train": 1}, key: value}))
        with pytest.raises(SchemaError, match="is not an integer"):
            DatasetManifest.load(path)


MALFORMED_MANIFEST_FIELDS = {
    "counts-list": {"counts": []},
    "shards-list": {"shards": []},
    "split-without-count": {"counts": {}, "shards": {"train": []}},
    "templates-string": {"templates": "walk"},
    "template-number": {"templates": ["walk", 3]},
    "shard-name-number": {
        "counts": {"train": 1},
        "shards": {"train": [{"name": 5, "records": 1, "bytes": 0}]},
    },
    "shard-name-empty": {
        "counts": {"train": 1},
        "shards": {"train": [{"name": "", "records": 1, "bytes": 0}]},
    },
}


@pytest.mark.parametrize(
    "fields", MALFORMED_MANIFEST_FIELDS.values(), ids=MALFORMED_MANIFEST_FIELDS.keys()
)
def test_manifest_load_rejects_malformed_splits_and_templates(tmp_path, capsys, fields):
    good = DatasetManifest(
        window=20, stride=5, frames_per_cycle=25, cycles=2, base_seed=0,
        noise=NoiseSpec(), templates=["walk"], counts={"train": 0}, shards={"train": []},
    )
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**json.loads(good.to_json()), **fields}))
    with pytest.raises(SchemaError, match="manifest"):
        DatasetManifest.load(path)
    out = tmp_path / "model.jarm"
    assert cli_main(["train", "--manifest", str(path), "--out", str(out)]) == 2
    assert "error: manifest" in capsys.readouterr().err
    assert not out.exists()


def test_record_coords_enumeration(tiny_corpus):
    _, manifest = tiny_corpus
    # 25 * 2 = 50 frames, window 20, stride 5 -> 7 offsets per joint
    assert record_coords(manifest, 0) == (0, 0, 0)
    assert record_coords(manifest, 1) == (0, 0, 5)
    assert record_coords(manifest, 7) == (0, 1, 0)
    assert record_coords(manifest, 12 * 7) == (1, 0, 0)


def test_iter_records_provenance(tiny_corpus):
    _, manifest = tiny_corpus
    joints, truth, noisy = load_split(manifest, "test")
    assert len(joints) == 30
    for index in range(len(joints)):
        _, joint, _ = record_coords(manifest, index)
        assert joints[index] == joint
        assert noisy[index].shape == truth[index].shape == (20,)


def test_record_events_replays_stored_noise(tiny_corpus):
    _, manifest = tiny_corpus
    _, truth, noisy = load_split(manifest, "train")
    for index in (0, 13, 41, 69):
        subject, joint, offset = record_coords(manifest, index)
        rng = _window_rng(manifest.base_seed, "train", subject, joint, offset)
        replay, events = inject_noise_events(truth[index], manifest.noise, rng)
        # shards hold float32, and generation adds noise before the cast,
        # so the replayed values agree to storage precision only
        assert np.max(np.abs(replay - noisy[index])) <= 1e-6
        recorded = record_events(manifest, "train", index)
        assert np.array_equal(recorded.primary, events.primary)
        assert np.array_equal(recorded.secondary, events.secondary)


def test_events_mark_the_large_deviations(tiny_corpus):
    _, manifest = tiny_corpus
    _, truth, noisy = load_split(manifest, "train")
    hits = 0
    for index in range(truth.shape[0]):
        events = record_events(manifest, "train", index)
        deviation = np.abs(noisy[index] - truth[index])
        quiet = np.setdiff1d(np.arange(20), events.all_frames())
        # baseline jitter sigma is at most 15 degrees; 6 sigma bound
        assert np.max(deviation[quiet]) <= 6.0 * math.radians(15.0)
        hits += events.primary.size
    assert hits == truth.shape[0]  # ceil(0.05 * 20) = 1 primary per window


def test_generation_is_byte_deterministic(tmp_path):
    kw = dict(
        train_count=40,
        test_count=10,
        noise=NoiseSpec(seed=9),
        window=16,
        stride=8,
        frames_per_cycle=20,
        cycles=2,
    )
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_dataset(a, **kw)
    generate_dataset(b, **kw)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_different_seeds_differ(tmp_path):
    kw = dict(train_count=12, test_count=0, window=16, stride=8, frames_per_cycle=20, cycles=1)
    ma = generate_dataset(tmp_path / "a", noise=NoiseSpec(seed=1), **kw)
    mb = generate_dataset(tmp_path / "b", noise=NoiseSpec(seed=2), **kw)
    _, ta, na = load_split(ma, "train")
    _, tb, nb = load_split(mb, "train")
    assert not np.array_equal(na, nb)
    assert not np.array_equal(ta, tb)  # template randomization also reseeded


def test_train_and_test_windows_are_disjoint_streams(tiny_corpus):
    _, manifest = tiny_corpus
    _, train_truth, _ = load_split(manifest, "train")
    _, test_truth, _ = load_split(manifest, "test")
    # same subject index and offset, different split: different simulated subject
    assert not np.array_equal(train_truth[0], test_truth[0])


def test_generation_errors(tmp_path):
    with pytest.raises(GenerationError):
        generate_dataset(tmp_path, train_count=0, test_count=0)
    with pytest.raises(GenerationError):
        generate_dataset(tmp_path, train_count=1, test_count=0, window=80, frames_per_cycle=30, cycles=2)
    with pytest.raises(GenerationError):
        generate_dataset(tmp_path, train_count=1, test_count=0, records_per_shard=0)
    # a shard records the window length as <u2; the sequence is long enough
    with pytest.raises(GenerationError, match="65535"):
        generate_dataset(
            tmp_path / "bad", train_count=1, test_count=0, window=70000,
            frames_per_cycle=70000, cycles=1,
        )
    for bad in ({"stride": 0}, {"stride": -3}, {"window": -4}, {"window": 1}):
        with pytest.raises(GenerationError, match="window must be >= 2 and stride >= 1"):
            generate_dataset(tmp_path / "bad", train_count=1, test_count=0, **bad)
    assert not (tmp_path / "bad").exists()


def test_load_split_detects_count_mismatch(tmp_path):
    manifest = generate_dataset(
        tmp_path, train_count=10, test_count=0, window=16, frames_per_cycle=20, cycles=1
    )
    manifest.counts["train"] = 11
    with pytest.raises(SchemaError, match="11"):
        load_split(manifest, "train")
    with pytest.raises(SchemaError):
        load_split(manifest, "val")
