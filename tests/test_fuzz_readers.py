"""Fuzzed file readers: a mutated document or byte string raises a
PoseRefineError, never another exception, and the command that reads the
file exits with code 2."""

import copy
import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poserefine import (
    KEYPOINT_NAMES,
    DatasetManifest,
    NoiseSpec,
    PoseRefineError,
    RefinerModel,
    generate_dataset,
    load_erroneous_frames,
    load_model,
    load_split,
    parse_keypoints,
    save_model,
)
from poserefine.cli import main

# the examples share one directory and overwrite one file each
FUZZ = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

BIG = 2**64
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-BIG, BIG), st.floats(), st.text(max_size=6)
)
JSON_VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.dictionaries(st.text(max_size=6), SCALARS, max_size=4),
)


def paths(doc, prefix=()):
    """The key path of every value in doc, the whole document first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from paths(value, prefix + (key,))


def mutate(data, doc):
    """doc with one value, drawn uniformly from all of its values, replaced
    by a drawn JSON value or deleted from its container."""
    *parents, key = data.draw(st.sampled_from(list(paths(doc))[1:]))
    out = copy.deepcopy(doc)
    container = out
    for k in parents:
        container = container[k]
    if data.draw(st.integers(0, 4)) == 0:
        del container[key]
    else:
        container[key] = data.draw(JSON_VALUES)
    return out


def mutate_bytes(data, raw: bytes) -> bytes:
    """raw truncated, with a few bytes replaced and a little-endian integer
    up to 2**64 written somewhere."""
    out = bytearray(raw[: data.draw(st.integers(0, len(raw)))])
    for _ in range(data.draw(st.integers(0, 3))):
        if out:
            out[data.draw(st.integers(0, len(out) - 1))] = data.draw(st.integers(0, 255))
    if len(out) >= 8 and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(out) - 8))
        out[at : at + 8] = struct.pack("<Q", data.draw(st.integers(0, BIG - 1)))
    return bytes(out)


def fuzzed(data, doc) -> bytes:
    """doc mutated as a document or as the bytes of its JSON text."""
    if data.draw(st.booleans()):
        return json.dumps(mutate(data, doc)).encode()
    return mutate_bytes(data, json.dumps(doc).encode())


def raises_only_pose_refine_errors(read, *args):
    try:
        read(*args)
    except PoseRefineError:
        pass


KEYPOINTS = {
    "fps": 30,
    "keypoints": list(KEYPOINT_NAMES),
    "frames": [{"xy": [[10.0 * j + f, 5.0 * j] for j in range(13)]} for f in range(3)],
}
ERRONEOUS = {"frames": [1, {"frame": 2, "joints": [0, 3]}]}


@FUZZ
@given(data=st.data())
def test_parse_keypoints_fuzz(tmp_path, data):
    path = tmp_path / "kp.json"
    path.write_bytes(fuzzed(data, KEYPOINTS))
    raises_only_pose_refine_errors(parse_keypoints, path)


@FUZZ
@given(data=st.data())
def test_load_erroneous_frames_fuzz(tmp_path, data):
    path = tmp_path / "errors.json"
    path.write_bytes(fuzzed(data, ERRONEOUS))
    raises_only_pose_refine_errors(load_erroneous_frames, path)


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.jarm"
    save_model(RefinerModel.init_random(hidden=2, d_att=2, window=4, seed=0), path)
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_load_model_fuzz(tmp_path, model_bytes, data):
    path = tmp_path / "m.jarm"
    path.write_bytes(mutate_bytes(data, model_bytes))
    raises_only_pose_refine_errors(load_model, path)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    generate_dataset(
        root, train_count=5, test_count=2, noise=NoiseSpec(seed=1),
        window=4, stride=2, frames_per_cycle=5, cycles=2,
    )
    return root


def load_every_split(path):
    manifest = DatasetManifest.load(path)
    for split in manifest.shards:
        load_split(manifest, split)


@FUZZ
@given(data=st.data())
def test_manifest_and_split_fuzz(corpus, data):
    doc = json.loads((corpus / "manifest.json").read_text())
    path = corpus / "fuzzed.json"
    path.write_bytes(fuzzed(data, doc))
    raises_only_pose_refine_errors(load_every_split, path)


@FUZZ
@given(data=st.data())
def test_shard_bytes_fuzz(tmp_path, corpus, data):
    manifest = DatasetManifest.load(corpus / "manifest.json")
    manifest.root = str(tmp_path)
    for name, _, _ in manifest.shards["train"]:
        (tmp_path / name).write_bytes(mutate_bytes(data, (corpus / name).read_bytes()))
    raises_only_pose_refine_errors(load_split, manifest, "train")


# one bad file per reader, through the command that reads it
def test_each_reader_exits_two_from_the_command_line(tmp_path, capsys, corpus, model_bytes):
    keypoints = tmp_path / "kp.json"
    keypoints.write_text(json.dumps(KEYPOINTS))
    bad_keypoints = tmp_path / "bad-kp.json"
    bad_keypoints.write_text(json.dumps({**KEYPOINTS, "fps": 10**400}))
    bad_errors = tmp_path / "bad-errors.json"
    bad_errors.write_text(json.dumps({"frames": [{"frame": 1, "joints": {"0": 1}}]}))
    bad_model = tmp_path / "bad.jarm"
    bad_model.write_bytes(model_bytes[:8] + struct.pack("<Q", BIG - 1) + model_bytes[16:])
    doc = json.loads((corpus / "manifest.json").read_text())
    bad_manifest = corpus / "bad-manifest.json"
    bad_manifest.write_text(json.dumps({**doc, "counts": {"train": BIG}}))
    out = str(tmp_path / "out")
    commands = {
        "parse_keypoints": ["export", "--input", str(bad_keypoints), "--output", out],
        "load_erroneous_frames": [
            "eval", "--refined", str(keypoints), "--truth", str(keypoints),
            "--errors", str(bad_errors),
        ],
        "load_model": [
            "refine", "--input", str(keypoints), "--model", str(bad_model), "--output", out,
        ],
        "load_split": ["train", "--manifest", str(bad_manifest), "--out", out],
    }
    for reader, argv in commands.items():
        assert main(argv) == 2, reader
        assert "error:" in capsys.readouterr().err, reader
