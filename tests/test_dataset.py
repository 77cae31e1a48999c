"""Noise injection, shard IO, manifests, and deterministic generation."""

import json
import math
import os
import tracemalloc

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
    truth = rng.normal(size=(3, 16)).astype(np.float32)
    noisy = rng.normal(size=(3, 16)).astype(np.float32)
    size = write_shard(path, truth, noisy)
    assert size == os.path.getsize(path) == 3 * 2 * 16 * 4
    t, n = read_shard(path, 16)
    assert np.array_equal(t, truth.astype(np.float64))
    assert np.array_equal(n, noisy.astype(np.float64))


def test_shard_bytes_are_each_records_truth_then_noisy_window(tmp_path):
    path = tmp_path / "s.bin"
    truth = np.array([[0.5, -1.25, 3.0], [2.0, 0.0, -0.75]])
    noisy = np.array([[0.25, 1.5, -3.0], [1.0, 4.5, 0.125]])
    write_shard(path, truth, noisy)
    assert path.read_bytes() == np.stack([truth, noisy], 1).astype("<f4").tobytes()


def test_shard_errors(tmp_path):
    path = tmp_path / "s.bin"
    with pytest.raises(ShapeError):
        write_shard(path, np.zeros((1, 8)), np.zeros((2, 8)))
    with pytest.raises(ShapeError):
        write_shard(path, np.zeros(8), np.zeros(8))
    write_shard(path, np.zeros((1, 8)), np.zeros((1, 8)))
    with pytest.raises(SchemaError, match="whole number"):
        read_shard(path, 10)  # the manifest window does not divide the file
    with open(path, "ab") as fh:
        fh.write(b"x")  # no longer a whole number of records
    with pytest.raises(SchemaError, match="whole number"):
        read_shard(path, 8)
    bad = tmp_path / "bad.bin"
    # the check comes before the float64 cast, which warns on a signalling NaN
    snan = np.frombuffer(np.uint32(0x7F800001).tobytes(), dtype="<f4")[0]
    for value in (snan, np.inf):
        noisy = np.zeros((1, 8), dtype=np.float32)
        noisy[0, 3] = value
        write_shard(bad, np.zeros((1, 8)), noisy)
        with pytest.raises(SchemaError, match="non-finite"):
            read_shard(bad, 8)
    # a manifest names its shards, so one that cannot be opened is a bad corpus
    for name in ("absent.bin", "nul\0.bin"):
        with pytest.raises(SchemaError, match="cannot be read"):
            read_shard(tmp_path / name, 8)


# the layout before shards held angles only: a joint and a length per record
PARENT_RECORD = [
    ("joint", "<u2"), ("length", "<u2"), ("truth", "<f4", (20,)), ("noisy", "<f4", (20,)),
]


@pytest.mark.parametrize(
    "records, message",
    # 40 records of 164 bytes make 41 of 160; 30 make no whole number
    [(40, "holds 41 records, manifest says 40"), (30, "is not a whole number of records")],
    ids=["record-count", "partial-record"],
)
def test_train_refuses_a_shard_in_the_joint_and_length_layout(tmp_path, capsys, records, message):
    manifest = generate_dataset(
        tmp_path, train_count=records, test_count=0, noise=NoiseSpec(seed=2),
        window=20, stride=5, frames_per_cycle=25, cycles=2,
    )
    joints, truth, noisy = load_split(manifest, "train")
    old = np.empty(records, dtype=PARENT_RECORD)
    old["joint"], old["length"], old["truth"], old["noisy"] = joints, 20, truth, noisy
    old.tofile(tmp_path / "train-0000.bin")
    out = tmp_path / "model.jarm"
    argv = ["train", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out)]
    assert cli_main(argv + ["--hidden", "3", "--d-att", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "train-0000.bin" in err and message in err
    assert not out.exists()


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
    )
    return out, manifest


def test_generation_counts_and_shards(tiny_corpus):
    out, manifest = tiny_corpus
    assert manifest.counts == {"train": 70, "test": 30}
    assert [r for _, r, _ in manifest.shards["train"]] == [70]
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
    assert loaded.noise.seed == 5
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
        window=20, stride=5, frames_per_cycle=25, cycles=2,
        noise=NoiseSpec(), templates=[],
    )
    for key, value, message in (
        ("window", -5, "window must be >= 2 and stride >= 1"),
        ("window", 1, "window must be >= 2 and stride >= 1"),
        ("stride", 0, "window must be >= 2 and stride >= 1"),
        ("window", 70000, "window 70000 exceeds the 50-frame synthesized sequence"),
        ("window", 10**12, "window 1000000000000 exceeds the 50-frame synthesized sequence"),
        ("cycles", 0, "frames_per_cycle and cycles must be >= 1"),
    ):
        path.write_text(json.dumps({**json.loads(good.to_json()), key: value}))
        with pytest.raises(SchemaError) as info:
            DatasetManifest.load(path)
        assert str(info.value) == f"manifest {path}: {message}"
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
    # so are the noise fields: 2.5 echoes would fail in record_events, true reads as 1
    for key, value, message in (
        ("secondary_max", 2.5, "is not an integer"),
        ("secondary_max", True, "is not an integer"),
        ("outlier_fraction", True, "not a JSON number"),
        ("secondary_sigma", True, "not a JSON number"),
        ("outlier_sigma_max", True, "not a JSON number"),
        ("jitter_sigma_range", [0.0, True], "not a JSON number"),
    ):
        path.write_text(json.dumps({**doc, "noise_deg": {**doc["noise_deg"], key: value}}))
        with pytest.raises(SchemaError, match=message):
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
    # layouts that load_split accepts but record_events cannot replay
    "cycles-zero": {"cycles": 0},
    "frames-per-cycle-zero": {"frames_per_cycle": 0},
    "window-past-sequence": {"frames_per_cycle": 5},
    "split-holdout": {"counts": {"holdout": 0}, "shards": {"holdout": []}},
}


@pytest.mark.parametrize(
    "fields", MALFORMED_MANIFEST_FIELDS.values(), ids=MALFORMED_MANIFEST_FIELDS.keys()
)
def test_manifest_load_rejects_malformed_splits_and_templates(tmp_path, capsys, fields):
    good = DatasetManifest(
        window=20, stride=5, frames_per_cycle=25, cycles=2,
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


@pytest.mark.parametrize(
    "key, text",
    [
        ("secondary_sigma", "1e400"),
        ("secondary_sigma", "NaN"),
        ("outlier_sigma_max", "Infinity"),
        ("jitter_sigma_range", "[0.0, 1e400]"),
    ],
)
def test_manifest_load_refuses_non_finite_noise(tmp_path, key, text):
    # json reads 1e400 as inf; the noise replay of record_events would then
    # raise a bare OverflowError or ValueError
    good = DatasetManifest(
        window=20, stride=5, frames_per_cycle=25, cycles=2,
        noise=NoiseSpec(), templates=[],
    )
    doc = json.loads(good.to_json())
    doc["noise_deg"][key] = "VALUE"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc).replace('"VALUE"', text))
    with pytest.raises(SchemaError, match="manifest"):
        DatasetManifest.load(path)


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
        # the key is (base seed, split code: train 0 / test 1, subject, joint, offset)
        rng = np.random.default_rng([manifest.noise.seed, 0, subject, joint, offset])
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
    with pytest.raises(GenerationError, match="frames_per_cycle and cycles must be >= 1"):
        generate_dataset(tmp_path / "bad", train_count=1, test_count=0, cycles=0)
    for bad in ({"stride": 0}, {"stride": -3}, {"window": -4}, {"window": 1}):
        with pytest.raises(GenerationError, match="window must be >= 2 and stride >= 1"):
            generate_dataset(tmp_path / "bad", train_count=1, test_count=0, **bad)
    assert not (tmp_path / "bad").exists()


def test_a_window_past_65535_frames_is_a_corpus_like_any_other(tmp_path):
    manifest = generate_dataset(
        tmp_path, train_count=1, test_count=0, window=70000, frames_per_cycle=70000, cycles=1
    )
    assert manifest.shards["train"] == [("train-0000.bin", 1, 2 * 70000 * 4)]
    joints, truth, noisy = load_split(DatasetManifest.load(tmp_path / "manifest.json"), "train")
    assert joints.tolist() == [0] and truth.shape == noisy.shape == (1, 70000)


def test_load_split_refuses_a_split_of_several_shards(tmp_path, capsys):
    # generation writes one shard per split, whose arrays load_split returns
    # as read, so a manifest that lists several is refused, and train exits 2
    rng = make_rng(45)
    truth = rng.normal(size=(7, 16)).astype(np.float32)
    noisy = rng.normal(size=(7, 16)).astype(np.float32)
    shards = []
    for name, part in (("train-0000.bin", slice(0, 3)), ("train-0001.bin", slice(3, 7))):
        size = write_shard(tmp_path / name, truth[part], noisy[part])
        shards.append({"name": name, "records": len(truth[part]), "bytes": size})
    # 20 frames hold 3 windows of 16 at stride 2, so the joint moves every 3 records
    doc = json.loads(
        DatasetManifest(
            window=16, stride=2, frames_per_cycle=20, cycles=1,
            noise=NoiseSpec(), templates=[],
        ).to_json()
    )
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**doc, "counts": {"train": 7}, "shards": {"train": shards}}))
    message = "train: the manifest lists 2 shards, a split is one"
    with pytest.raises(SchemaError, match=message):
        load_split(DatasetManifest.load(path), "train")
    model = tmp_path / "m.jarm"
    assert cli_main(["train", "--manifest", str(path), "--out", str(model)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model.exists()
    # the same records as one shard
    size = write_shard(tmp_path / "train-0000.bin", truth, noisy)
    one = [{"name": "train-0000.bin", "records": 7, "bytes": size}]
    path.write_text(json.dumps({**doc, "counts": {"train": 7}, "shards": {"train": one}}))
    manifest = DatasetManifest.load(path)
    j, t, n = load_split(manifest, "train")
    assert np.array_equal(j, [record_coords(manifest, i)[1] for i in range(7)])
    assert np.array_equal(j, [0, 0, 0, 1, 1, 1, 2])
    assert np.array_equal(t, truth.astype(np.float64))
    assert np.array_equal(n, noisy.astype(np.float64))
    # the shard is checked against its own entry, and the split against its count
    eight = [{**one[0], "records": 8}]
    path.write_text(json.dumps({**doc, "counts": {"train": 7}, "shards": {"train": eight}}))
    with pytest.raises(SchemaError, match="shard train-0000.bin holds 7 records, manifest says 8"):
        load_split(DatasetManifest.load(path), "train")
    path.write_text(json.dumps({**doc, "counts": {"train": 8}, "shards": {"train": one}}))
    with pytest.raises(SchemaError, match="shards hold 7 records, manifest says 8"):
        load_split(DatasetManifest.load(path), "train")


def test_load_split_holds_the_shard_and_its_arrays_once(tmp_path):
    # 2,000 windows of 100 frames: a 1.6 MB float32 shard read into 3.2 MB
    # of float64 arrays; copying the arrays once more would add 3.2 MB
    rng = make_rng(46)
    truth, noisy = rng.normal(size=(2, 2000, 100)).astype(np.float32)
    size = write_shard(tmp_path / "train-0000.bin", truth, noisy)
    manifest = DatasetManifest(
        window=100, stride=1, frames_per_cycle=100, cycles=2,
        noise=NoiseSpec(), templates=[],
        counts={"train": 2000}, shards={"train": [("train-0000.bin", 2000, size)]},
        root=str(tmp_path),
    )
    tracemalloc.start()
    try:
        j, t, n = load_split(manifest, "train")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # slack for the index arithmetic's int64 temporaries and Python objects
    slack = 256 * 1024
    assert peak < size + j.nbytes + t.nbytes + n.nbytes + slack
    assert np.array_equal(t, truth) and np.array_equal(n, noisy)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"stride": 2**63}, "overflows int64"),
        ({"frames_per_cycle": 2**64}, "overflows int64"),
        ({"window": 2**62, "frames_per_cycle": 2**62}, "window 4611686018427387904 is too large"),
    ],
    ids=["stride", "frames-per-cycle", "window"],
)
def test_load_split_refuses_a_geometry_numpy_cannot_index(tiny_corpus, fields, message):
    # each passes the geometry rule, and no generated corpus can have it
    out, _ = tiny_corpus
    doc = json.loads((out / "manifest.json").read_text())
    path = out / "huge.json"
    path.write_text(json.dumps({**doc, **fields}))
    with pytest.raises(SchemaError, match=message):
        load_split(DatasetManifest.load(path), "train")


def test_load_split_detects_count_mismatch(tmp_path):
    manifest = generate_dataset(
        tmp_path, train_count=10, test_count=0, window=16, frames_per_cycle=20, cycles=1
    )
    manifest.counts["train"] = 11
    with pytest.raises(SchemaError, match="11"):
        load_split(manifest, "train")
    assert manifest.shards["test"] == []  # an empty split has no shard
    manifest.counts["test"] = 3
    with pytest.raises(SchemaError, match="shards hold 0 records, manifest says 3"):
        load_split(manifest, "test")
    with pytest.raises(SchemaError):
        load_split(manifest, "val")
