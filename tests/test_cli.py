"""End-to-end checks of the command-line surface, run in-process."""

import csv
import json
import math

import numpy as np
import pytest

from poserefine import (
    EDGE_NAMES,
    KEYPOINT_NAMES,
    DatasetManifest,
    NoiseSpec,
    PipelineConfig,
    RefinerModel,
    TrainConfig,
    TrainLog,
    load_model,
    parse_keypoints,
    save_model,
    write_keypoints,
)
from poserefine import cli
from poserefine.cli import main

from conftest import make_rng, smooth_sequence

SYNTH_TINY = [
    "--train-count", "48",
    "--test-count", "24",
    "--window", "20",
    "--stride", "5",
    "--frames-per-cycle", "25",
    "--cycles", "2",
    "--records-per-shard", "32",
    "--seed", "3",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(root)] + SYNTH_TINY) == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("trained")
    model_path = out / "model.jarm"
    log_path = out / "log.json"
    rc = main(
        [
            "train",
            "--manifest", str(corpus / "manifest.json"),
            "--out", str(model_path),
            "--log", str(log_path),
            "--hidden", "3",
            "--d-att", "2",
            "--epochs", "2",
            "--batch", "16",
            "--seed", "4",
        ]
    )
    assert rc == 0
    return model_path, log_path


def test_synth_writes_manifest_and_shards(corpus):
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["counts"] == {"test": 24, "train": 48}
    assert manifest["window"] == 20
    assert manifest["base_seed"] == 3
    for split in ("train", "test"):
        for entry in manifest["shards"][split]:
            assert (corpus / entry["name"]).exists()
            assert (corpus / entry["name"]).stat().st_size == entry["bytes"]


def test_synth_deterministic_bytes(tmp_path, corpus):
    again = tmp_path / "again"
    assert main(["synth", "--out", str(again)] + SYNTH_TINY) == 0
    assert (again / "manifest.json").read_bytes() == (corpus / "manifest.json").read_bytes()
    manifest = json.loads((corpus / "manifest.json").read_text())
    for split in ("train", "test"):
        for entry in manifest["shards"][split]:
            name = entry["name"]
            assert (again / name).read_bytes() == (corpus / name).read_bytes()


def test_config_file_with_flag_override(tmp_path):
    opts = tmp_path / "synth.txt"
    opts.write_text(
        "--train-count=36\n"
        "--test-count=12\n"
        "--window=20\n"
        "--stride=5\n"
        "--frames-per-cycle=25\n"
        "--cycles=2\n"
        "--seed=9\n"
    )
    out = tmp_path / "from_file"
    rc = main(["synth", "--out", str(out), f"@{opts}", "--train-count", "24"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counts"]["train"] == 24  # a later flag beats the file
    assert manifest["counts"]["test"] == 12  # the file beats the default
    assert manifest["base_seed"] == 9


def test_train_saves_model_and_log(trained):
    model_path, log_path = trained
    model = load_model(model_path)
    assert model.hidden == 3
    assert model.window == 20
    log = json.loads(log_path.read_text())
    assert log["seed"] == 4
    assert log["best_epoch"] >= 1
    assert len(log["entries"]) == 2
    for entry in log["entries"]:
        assert set(entry) == {"epoch", "train_mse", "val_mse"}  # timing off by default
        assert entry["train_mse"] > 0.0


def test_train_log_times_flag(tmp_path, corpus):
    model_path = tmp_path / "m.jarm"
    log_path = tmp_path / "log.json"
    rc = main(
        [
            "train",
            "--manifest", str(corpus / "manifest.json"),
            "--out", str(model_path),
            "--log", str(log_path),
            "--log-times",
            "--hidden", "2",
            "--d-att", "2",
            "--epochs", "1",
            "--batch", "16",
        ]
    )
    assert rc == 0
    log = json.loads(log_path.read_text())
    # 48 train windows less the default 10% validation split
    n_train = 48 - round(0.1 * 48)
    for entry in log["entries"]:
        assert set(entry) == {"epoch", "train_mse", "val_mse", "wall_time_s", "windows_per_s"}
        assert entry["windows_per_s"] > 0.0
        assert entry["windows_per_s"] == pytest.approx(n_train / entry["wall_time_s"], rel=1e-12)


@pytest.fixture(scope="module")
def keypoint_file(tmp_path_factory):
    rng = make_rng(80)
    seq = smooth_sequence(rng, 50)
    path = tmp_path_factory.mktemp("kp") / "input.json"
    write_keypoints(seq, path)
    return path


def test_refine_deterministic_bytes(tmp_path, keypoint_file, trained):
    model_path, _ = trained
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    base = ["refine", "--input", str(keypoint_file), "--model", str(model_path)]
    assert main(base + ["--output", str(out1)]) == 0
    assert main(base + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert parse_keypoints(out1).n_frames == 50


def test_refine_with_identity_model_recovers_input(tmp_path, keypoint_file):
    model_path = tmp_path / "ident.jarm"
    save_model(RefinerModel.identity(hidden=4, d_att=3, window=25), model_path)
    out = tmp_path / "out.json"
    rc = main(
        [
            "refine",
            "--input", str(keypoint_file),
            "--model", str(model_path),
            "--output", str(out),
            "--sg-halfwidth", "8",
        ]
    )
    assert rc == 0
    got = parse_keypoints(out)
    want = parse_keypoints(keypoint_file)
    assert np.max(np.abs(got.xy - want.xy)) <= 1e-6


BAD_REFINE_VALUES = {
    "half_width": ["--sg-halfwidth", "0"],
}


@pytest.mark.parametrize("flag", BAD_REFINE_VALUES.values(), ids=BAD_REFINE_VALUES.keys())
def test_refine_rejects_out_of_range_settings(tmp_path, capsys, keypoint_file, flag):
    model_path = tmp_path / "ident.jarm"
    save_model(RefinerModel.identity(hidden=4, d_att=3, window=25), model_path)
    out = tmp_path / "out.json"
    argv = ["refine", "--input", str(keypoint_file), "--model", str(model_path)]
    assert main(argv + ["--output", str(out)] + flag) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_refine_has_no_window_layout_or_limb_fit_flags(capsys):
    # the window step follows from the model's window, the stitch has no
    # weights to keep finite, and the limb fit has no smoothness weight
    for flag in (["--stride", "5"], ["--epsilon", "1e-3"], ["--lambda", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["refine"] + REQUIRED_ARGV["refine"] + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_eval_writes_metrics_json(tmp_path, keypoint_file):
    errors = tmp_path / "errors.json"
    errors.write_text(json.dumps({"frames": [0, {"frame": 3, "joints": [2]}]}))
    out = tmp_path / "metrics.json"
    rc = main(
        [
            "eval",
            "--refined", str(keypoint_file),
            "--truth", str(keypoint_file),
            "--errors", str(errors),
            "--tau-deg", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["mse"]["aggregate"] == pytest.approx(0.0, abs=1e-18)
    assert doc["correction"]["tau_deg"] == pytest.approx(5.0)
    assert doc["correction"]["erroneous_frames"] == 2
    assert doc["correction"]["rate"] == 1.0  # identical files: everything corrected
    assert doc["n_frames"] == 50


def test_angles_command_writes_csv(tmp_path, keypoint_file):
    out = tmp_path / "angles.csv"
    rc = main(
        ["export", "--input", str(keypoint_file), "--output", str(out), "--what", "angles"]
    )
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][2:] == [f"angle_{name}" for name in EDGE_NAMES]
    assert len(rows) == 1 + 50


def test_export_velocities_command(tmp_path, keypoint_file):
    out = tmp_path / "vel.csv"
    rc = main(
        [
            "export",
            "--input", str(keypoint_file),
            "--output", str(out),
            "--what", "velocities",
        ]
    )
    assert rc == 0
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert header[2] == "nose_vx"


def test_missing_input_exits_two(tmp_path, capsys):
    rc = main(
        [
            "refine",
            "--input", str(tmp_path / "absent.json"),
            "--model", str(tmp_path / "absent.jarm"),
            "--output", str(tmp_path / "out.json"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_schema_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(
        [
            "refine",
            "--input", str(bad),
            "--model", str(bad),
            "--output", str(tmp_path / "out.json"),
        ]
    )
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "poserefine", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("synth", "train", "refine", "eval", "export"):
        assert name in proc.stdout


GOOD_FRAME = {"xy": [[float(i), 0.5 * i] for i in range(1, 14)]}


def keypoint_text(**fields) -> str:
    doc = {"fps": 30, "keypoints": list(KEYPOINT_NAMES), "frames": [GOOD_FRAME]}
    doc.update(fields)
    return json.dumps(doc)


MALFORMED = {
    "xy-int": ("export", keypoint_text(frames=[{"xy": 5}])),
    "point-int": ("export", keypoint_text(frames=[{"xy": [1] + GOOD_FRAME["xy"][1:]}])),
    "coordinate-str": (
        "export",
        keypoint_text(frames=[{"xy": [["a", 1.0]] + GOOD_FRAME["xy"][1:]}]),
    ),
    "keypoints-int": ("export", keypoint_text(keypoints=5)),
    "fps-inf": ("export", keypoint_text().replace('"fps": 30', '"fps": 1e400')),
    "frame-str": ("eval", json.dumps({"frames": [{"frame": "x"}]})),
    "joints-int": ("eval", json.dumps({"frames": [{"frame": 1, "joints": 5}]})),
    "frame-bool": ("eval", json.dumps({"frames": [True]})),
    "joints-empty": ("eval", json.dumps({"frames": [{"frame": 2, "joints": []}]})),
    "frame-twice": (
        "eval",
        json.dumps([{"frame": 3, "joints": [0]}, {"frame": 3, "joints": [5]}]),
    ),
    "errors-latin1": ("eval", b'{"frames": [3], "note": "caf\xe9"}'),
    "input-latin1": ("refine", keypoint_text().encode().replace(b'"fps": 30', b'"fps": 3\xb0')),
    "input-directory": ("refine", None),
    "model-directory": ("refine --model", None),
    "output-directory": ("refine --output", None),
    "manifest-latin1": ("train", b'{"window": "\xe9"}'),
    "manifest-list": ("train", "[]"),
    "manifest-shard-name": (
        "train",
        DatasetManifest(
            window=20, stride=1, frames_per_cycle=25, cycles=2, base_seed=0,
            noise=NoiseSpec(), templates=[], counts={"train": 1},
            shards={"train": [(5, 1, 0)]},
        ).to_json(),
    ),
    "manifest-window": (
        "train",
        DatasetManifest(
            window=-5, stride=1, frames_per_cycle=25, cycles=2, base_seed=0,
            noise=NoiseSpec(), templates=[], counts={"train": 1},
            shards={"train": [("train-0000.bin", 1, 0)]},
        ).to_json(),
    ),
}


@pytest.mark.parametrize("role, content", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_exits_two(tmp_path, capsys, keypoint_file, role, content):
    # content is the bad file's text or bytes; None makes it a directory
    bad = tmp_path / "bad.json"
    if content is None:
        bad.mkdir()
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    out = tmp_path / "out"
    model = tmp_path / "model.jarm"
    save_model(RefinerModel.identity(hidden=2, d_att=2, window=20), model)
    argv = {
        "export": ["--input", bad, "--output", out],
        "eval": ["--refined", keypoint_file, "--truth", keypoint_file, "--errors", bad,
                 "--out", out],
        "train": ["--manifest", bad, "--out", out],
        "refine": ["--input", bad, "--model", model, "--output", out],
        "refine --model": ["--input", keypoint_file, "--model", bad, "--output", out],
        "refine --output": ["--input", keypoint_file, "--model", model, "--output", bad],
    }[role]
    assert main([role.split()[0]] + [str(a) for a in argv]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_commands_without_flags_use_the_dataclass_defaults(
    tmp_path, monkeypatch, corpus, keypoint_file
):
    seen = {}

    def fake_generate(out_dir, noise, **corpus_kw):
        seen["noise"], seen["corpus"] = noise, corpus_kw
        return cli.ds.DatasetManifest(
            window=100, stride=1, frames_per_cycle=100, cycles=2, base_seed=0,
            noise=noise, templates=[],
        )

    def fake_train(manifest, config, progress=None):
        seen["train"] = config
        return RefinerModel.identity(hidden=2, d_att=2, window=20), TrainLog()

    def fake_refine(input_path, model_path, output_path, config):
        seen["refine"] = config

    monkeypatch.setattr(cli.ds, "generate_dataset", fake_generate)
    monkeypatch.setattr(cli, "train_model", fake_train)
    monkeypatch.setattr(cli.pl, "refine_keypoint_file", fake_refine)
    manifest = str(corpus / "manifest.json")
    assert main(["synth", "--out", str(tmp_path / "c")]) == 0
    assert main(["train", "--manifest", manifest, "--out", str(tmp_path / "m.jarm")]) == 0
    assert main(
        ["refine", "--input", str(keypoint_file), "--model", "m", "--output", "o"]
    ) == 0
    assert seen["noise"] == NoiseSpec()
    assert seen["corpus"] == {"train_count": 20000, "test_count": 4000}
    assert seen["train"] == TrainConfig()
    assert seen["refine"] == PipelineConfig()


REQUIRED_ARGV = {
    "synth": ["--out", "corpus"],
    "train": ["--manifest", "m.json", "--out", "m.jarm"],
    "refine": ["--input", "i.json", "--model", "m.jarm", "--output", "o.json"],
    "eval": ["--refined", "r.json", "--truth", "t.json", "--out", "metrics.json"],
    "export": ["--input", "i.json", "--output", "o.csv"],
}

BAD_OPTION_LINES = {
    "synth": ("synth", "--train-cuont=5"),
    "train": ("train", "--learning-rate=0.1"),
    "refine": ("refine", "--seed=3"),
    "eval": ("eval", "--tau-rad=5"),
    "export": ("export", "--wat=angles"),
    "sg-halfwidth-abc": ("refine", "--sg-halfwidth=abc"),
}


@pytest.mark.parametrize(
    "command, line", BAD_OPTION_LINES.values(), ids=BAD_OPTION_LINES.keys()
)
def test_unknown_config_key_exits_two(tmp_path, capsys, monkeypatch, command, line):
    opts = tmp_path / "opts.txt"
    opts.write_text(line + "\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, f"@{opts}"] + REQUIRED_ARGV[command])
    assert exc.value.code == 2
    assert line.split("=")[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [opts]


def test_missing_option_file_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", f"@{tmp_path / 'absent.txt'}", "--out", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert "absent.txt" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["refine", "eval", "export"])
def test_seed_is_only_a_synth_and_train_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"] + REQUIRED_ARGV[command])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
