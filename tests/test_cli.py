"""End-to-end checks of the command-line surface, run in-process."""

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from poserefine import (
    EDGE_NAMES,
    KEYPOINT_NAMES,
    DatasetManifest,
    EpochStats,
    NoiseSpec,
    PoseSequence,
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

from conftest import make_rng, smooth_sequence, write_exact_keypoints

SYNTH_TINY = [
    "--train-count", "48",
    "--test-count", "24",
    "--window", "20",
    "--stride", "5",
    "--frames-per-cycle", "25",
    "--cycles", "2",
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


@pytest.mark.parametrize("fraction", ["0", "0.01"])
def test_train_without_validation_windows_writes_strict_json(tmp_path, capsys, corpus, fraction):
    # round(0.01 * 48) is 0 too; there is no val mse to write, and NaN is
    # not JSON, so the log holds null and the best epoch is reported by train mse
    log_path = tmp_path / "log.json"
    rc = main(
        [
            "train",
            "--manifest", str(corpus / "manifest.json"),
            "--out", str(tmp_path / "m.jarm"),
            "--log", str(log_path),
            "--val-fraction", fraction,
            "--hidden", "2",
            "--d-att", "2",
            "--epochs", "1",
            "--batch", "16",
        ]
    )
    assert rc == 0

    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    log = json.loads(log_path.read_text(), parse_constant=refuse)
    assert [entry["val_mse"] for entry in log["entries"]] == [None]
    assert log["best_val_mse"] is None
    train_mse = log["entries"][0]["train_mse"]
    printed = capsys.readouterr()
    assert f"best epoch 0: train mse {train_mse:.6f}\n" in printed.out
    # the per-epoch progress line names no validation score
    assert f"epoch 0: train {train_mse:.6f} (" in printed.err
    assert "val" not in printed.out + printed.err


@pytest.fixture(scope="module")
def keypoint_file(tmp_path_factory):
    rng = make_rng(80)
    seq = smooth_sequence(rng, 50)
    path = tmp_path_factory.mktemp("kp") / "input.json"
    write_exact_keypoints(seq, path)
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
        ]
    )
    assert rc == 0
    got = parse_keypoints(out)
    want = parse_keypoints(keypoint_file)
    assert np.max(np.abs(got.xy - want.xy)) <= 1e-6


def test_refine_names_the_non_finite_model_tensor(tmp_path, capsys, keypoint_file):
    model = RefinerModel.identity(hidden=4, d_att=3, window=20)
    model.params["head.b_o"][0] = np.nan
    model_path = tmp_path / "nan.jarm"
    save_model(model, model_path)
    out = tmp_path / "out.json"
    argv = ["refine", "--input", str(keypoint_file), "--model", str(model_path)]
    assert main(argv + ["--output", str(out)]) == 2
    assert "error: tensor 'head.b_o' has non-finite values" in capsys.readouterr().err
    assert not out.exists()


def test_refine_has_no_window_layout_or_limb_fit_flags(capsys):
    # the window step follows from the model's window, the stitch has no
    # weights to keep finite, the limb fit has no smoothness weight, and
    # the root smoother's half-width is pipeline.HALF_WIDTH
    for flag in (
        ["--stride", "5"], ["--epsilon", "1e-3"], ["--lambda", "2"], ["--sg-halfwidth", "8"]
    ):
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


@pytest.mark.parametrize("tau", ["inf", "1e400"])
def test_eval_refuses_an_infinite_tau(tmp_path, capsys, keypoint_file, tau):
    # json.dumps would write tau_deg as Infinity, which is not JSON
    out = tmp_path / "metrics.json"
    argv = ["eval", "--refined", str(keypoint_file), "--truth", str(keypoint_file)]
    assert main(argv + ["--tau-deg", tau, "--out", str(out)]) == 2
    assert "error: tau must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


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


def test_export_of_coincident_joints_needs_no_angles(tmp_path, capsys, keypoint_file):
    # positions and velocities are exported from the parsed coordinates;
    # only angles need each limb's two ends apart
    seq = parse_keypoints(keypoint_file)
    xy = seq.xy.copy()
    xy[3, 3] = xy[3, 1]  # left elbow on the left shoulder
    src = tmp_path / "coincident.json"
    write_keypoints(PoseSequence(xy=xy, fps=seq.fps), src)
    argv = ["export", "--input", str(src), "--output"]
    for what in ("positions", "velocities"):
        assert main(argv + [str(tmp_path / f"{what}.csv"), "--what", what]) == 0
    with open(tmp_path / "positions.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    values = np.array([[float(v) for v in row[2:]] for row in rows])
    assert np.array_equal(values.reshape(xy.shape), parse_keypoints(src).xy)
    out = tmp_path / "angles.csv"
    assert main(argv + [str(out), "--what", "angles"]) == 2
    assert "coincident keypoints on limb left_shoulder_to_left_elbow at frame 3" in (
        capsys.readouterr().err
    )
    assert not out.exists()


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
            window=20, stride=1, frames_per_cycle=25, cycles=2,
            noise=NoiseSpec(), templates=[], counts={"train": 1},
            shards={"train": [(5, 1, 0)]},
        ).to_json(),
    ),
    "input-nested": ("export", "[" * 100000),
    "manifest-window-huge": (
        "train",
        DatasetManifest(
            window=10**12, stride=1, frames_per_cycle=25, cycles=2,
            noise=NoiseSpec(), templates=[], counts={"train": 1},
            shards={"train": [("train-0000.bin", 1, 0)]},
        ).to_json(),
    ),
    "manifest-window": (
        "train",
        DatasetManifest(
            window=-5, stride=1, frames_per_cycle=25, cycles=2,
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


@pytest.mark.parametrize(
    "what, fps", [("velocities", "1e308"), ("positions", "1e-320"), ("velocities", "1e-320")]
)
def test_export_refuses_an_fps_that_overflows_a_column(tmp_path, capsys, what, fps):
    # a finite fps so large or so small that a velocity or a time overflows
    # is refused before the CSV is opened, and the overflow must not warn,
    # since pyproject.toml makes a RuntimeWarning an error
    moved = {"xy": [[2.0 * x, 2.0 * y] for x, y in GOOD_FRAME["xy"]]}
    src = tmp_path / "in.json"
    src.write_text(keypoint_text(fps=float(fps), frames=[GOOD_FRAME, moved]))
    out = tmp_path / "out.csv"
    assert main(["export", "--input", str(src), "--output", str(out), "--what", what]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "non-finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_train_refuses_an_unusable_learning_rate_before_reading_the_corpus(
    tmp_path, capsys, value
):
    # an infinite rate would train one epoch of NaN weights before failing
    out = tmp_path / "model.jarm"
    argv = ["train", "--manifest", str(tmp_path / "absent.json"), "--out", str(out)]
    assert main(argv + ["--lr", value]) == 2
    err = capsys.readouterr().err
    assert err == "error: learning_rate must be positive and finite\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def overflowing_limb_file(tmp_path_factory):
    # every coordinate is finite, but the left upper arm's x extent,
    # 1.5e308 - (-1.5e308), is past float64's range
    seq = smooth_sequence(make_rng(81), 30)
    xy = seq.xy.copy()
    xy[5, 1] = (-1.5e308, 0.0)
    xy[5, 3] = (1.5e308, -0.5e308)
    path = tmp_path_factory.mktemp("overflow") / "input.json"
    write_keypoints(PoseSequence(xy=xy, fps=seq.fps), path)
    return path


@pytest.mark.parametrize("command", ["export-angles", "eval", "refine"])
def test_a_limb_vector_past_float64_exits_two_naming_the_limb(
    tmp_path, capsys, overflowing_limb_file, command
):
    src = str(overflowing_limb_file)
    model = tmp_path / "m.jarm"
    save_model(RefinerModel.identity(hidden=3, d_att=2, window=20), model)
    out = tmp_path / "out"
    argv = {
        "export-angles": ["export", "--input", src, "--output", out, "--what", "angles"],
        "eval": ["eval", "--refined", src, "--truth", src],
        "refine": ["refine", "--input", src, "--model", model, "--output", out],
    }[command]
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == "error: non-finite vector on limb left_shoulder_to_left_elbow at frame 5\n"
    assert not out.exists()


def test_a_limb_vector_past_float64_still_exports_positions(tmp_path, overflowing_limb_file):
    out = tmp_path / "positions.csv"
    argv = ["export", "--input", str(overflowing_limb_file), "--output", str(out)]
    assert main(argv + ["--what", "positions"]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1 + 5][2 + 2]) == -1.5e308  # left_shoulder_x of frame 5


@pytest.mark.parametrize("case", ["synth-flag", "train-flag", "manifest-base-seed"])
def test_negative_seed_exits_two(tmp_path, capsys, corpus, case):
    # numpy's generators refuse a negative seed, so the settings refuse it
    # before anything is generated, trained or written
    out = tmp_path / "out"
    manifest = corpus / "manifest.json"
    if case == "manifest-base-seed":
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        manifest = copy / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["base_seed"] = -1
        manifest.write_text(json.dumps(doc))
    small = ["--hidden", "3", "--d-att", "2", "--epochs", "1", "--batch", "16"]
    argv = {
        "synth-flag": ["synth", "--out", out, *SYNTH_TINY[:-1], "-5"],
        "train-flag": ["train", "--manifest", manifest, "--out", out, *small, "--seed", "-1"],
        "manifest-base-seed": ["train", "--manifest", manifest, "--out", out, *small],
    }[case]
    assert main([str(a) for a in argv]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_commands_without_flags_use_the_dataclass_defaults(
    tmp_path, monkeypatch, corpus, keypoint_file
):
    seen = {}

    def fake_generate(out_dir, noise, **corpus_kw):
        seen["noise"], seen["corpus"] = noise, corpus_kw
        return cli.ds.DatasetManifest(
            window=100, stride=1, frames_per_cycle=100, cycles=2,
            noise=noise, templates=[],
        )

    def fake_train(manifest, config, progress=None):
        seen["train"] = config
        # train reports its best epoch from the log's entries
        log = TrainLog(entries=[EpochStats(0, 0.5, 0.25, 1.0, 10.0)], best_epoch=0, best_val_mse=0.25)
        return RefinerModel.identity(hidden=2, d_att=2, window=20), log

    def fake_refine(input_path, model_path, output_path):
        seen["refine"] = (input_path, model_path, output_path)

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
    assert seen["corpus"] == {}  # generate_dataset's corpus size applies
    assert seen["train"] == TrainConfig()
    assert seen["refine"] == (str(keypoint_file), "m", "o")  # refine has no setting


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
    "tau-deg-abc": ("eval", "--tau-deg=abc"),
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


def test_non_utf8_option_file_exits_two(tmp_path, capsys, monkeypatch):
    opts = tmp_path / "opts.txt"
    opts.write_bytes(b"--tau-deg=\xe9\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", f"@{opts}"] + REQUIRED_ARGV["eval"])
    assert exc.value.code == 2
    assert "opts.txt" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [opts]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--outlier-max-deg", "nan"),
        ("--outlier-max-deg", "inf"),
        ("--jitter-max-deg", "inf"),
        ("--secondary-sigma", "nan"),
        ("--secondary-sigma", "inf"),
    ],
)
def test_synth_refuses_non_finite_noise_settings(tmp_path, capsys, flag, value):
    # numpy's draws raise on these; NoiseSpec refuses them before any file
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), flag, value]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_noise_that_overflows_float32(tmp_path, capsys):
    # a finite sigma can still make angles beyond float32's range; the
    # corpus is refused before any shard is written, and the float32 cast
    # must not warn, since pyproject.toml makes a RuntimeWarning an error
    out = tmp_path / "c"
    argv = ["synth", "--out", str(out), "--train-count", "2", "--test-count", "0"]
    assert main(argv + ["--jitter-max-deg", "1e300"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_synth_refuses_a_sequence_numpy_cannot_shape(tmp_path, capsys):
    # 2**62 frames is a size numpy refuses before it allocates anything
    out = tmp_path / "c"
    argv = ["synth", "--out", str(out), "--frames-per-cycle", str(2**62), "--cycles", "1"]
    assert main(argv + ["--train-count", "1", "--test-count", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 4611686018427387904 x 1 frames are too many: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "windows, val_fraction", [(48, "0.1"), (600, "0")], ids=["one-block", "two-blocks"]
)
def test_a_divergent_learning_rate_ends_with_one_error_line(
    tmp_path, capsys, monkeypatch, windows, val_fraction
):
    # the first Adam step takes the weights past float32; at 48 windows the
    # validation forward meets them on the calling thread, at 600 the second
    # 256-row batch meets them in two blocks, one on a worker thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    corpus = tmp_path / "c"
    synth = ["synth", "--out", str(corpus), "--train-count", str(windows)]
    assert main(synth + SYNTH_TINY[2:]) == 0
    capsys.readouterr()
    out = tmp_path / "m.jarm"
    argv = ["train", "--manifest", str(corpus / "manifest.json"), "--out", str(out)]
    assert main(argv + ["--lr", "1e308", "--val-fraction", val_fraction]) == 2
    assert capsys.readouterr().err == "error: non-finite loss at epoch 0\n"
    assert not out.exists()


def subcommand_parsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def subcommand_dests(command) -> set:
    return {a.dest for a in subcommand_parsers()[command]._actions} - {"help"}


def test_every_train_and_synth_flag_feeds_a_field():
    # cli._options collects only field names, so a flag whose dest is no
    # field would be parsed and then silently dropped
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    train = fields(TrainConfig) | {"manifest", "out", "log", "log_times"}
    assert subcommand_dests("train") == train
    noise = fields(NoiseSpec) - {"jitter_sigma_range"}
    synth = noise | set(cli._CORPUS_KEYWORDS) | {"jitter_min", "jitter_max", "out"}
    assert subcommand_dests("synth") == synth


SUBCOMMAND_FLAGS = {
    "synth": {
        "--out", "--train-count", "--test-count", "--window", "--stride",
        "--frames-per-cycle", "--cycles", "--jitter-min-deg", "--jitter-max-deg",
        "--outlier-fraction", "--outlier-max-deg", "--secondary-sigma",
        "--secondary-max", "--seed",
    },
    "train": {
        "--manifest", "--out", "--log", "--log-times", "--batch", "--lr", "--epochs",
        "--val-fraction", "--hidden", "--d-att", "--seed",
    },
    "refine": {"--input", "--model", "--output"},
    "eval": {"--refined", "--truth", "--errors", "--tau-deg", "--out"},
    "export": {"--input", "--output", "--what"},
}


def test_each_subcommand_has_exactly_its_flags():
    # a new flag is a new setting to document and test, so it shows up here
    got = {
        command: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for command, p in subcommand_parsers().items()
    }
    assert got == SUBCOMMAND_FLAGS


def test_synth_has_no_records_per_shard_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "c"), "--records-per-shard", "32"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --records-per-shard" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_command_lines_parse():
    # every `poserefine ...` line of README's sh blocks, continuations joined
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("poserefine ")
    ]
    assert len(lines) >= 6
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1], line


@pytest.mark.parametrize("command", ["refine", "eval", "export"])
def test_seed_is_only_a_synth_and_train_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"] + REQUIRED_ARGV[command])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
