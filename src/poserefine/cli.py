"""Command-line entry point: synth, train, refine, eval, export."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import dataset as ds
from . import pipeline as pl
from .errors import PoseRefineError
from .refiner import save_model
from .skeleton import pose_to_angles
from .training import TrainConfig, save_train_log, train_model


def _options(args, names) -> dict:
    """The options among names that a flag or an @file line set.

    Each option's dest is the keyword it feeds, and an option not given is
    absent from args (argument_default=SUPPRESS), so the default of the
    dataclass or function that receives it applies.
    """
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _fields(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


def degrees(text: str) -> float:
    """Parse a flag given in degrees into radians."""
    return math.radians(float(text))


# the generate_dataset keywords that synth's flags set
_CORPUS_KEYWORDS = (
    "train_count", "test_count", "window", "stride", "frames_per_cycle", "cycles",
    "records_per_shard",
)


def _cmd_synth(args) -> int:
    lo, hi = ds.NoiseSpec.jitter_sigma_range
    jitter = (getattr(args, "jitter_min", lo), getattr(args, "jitter_max", hi))
    noise = ds.NoiseSpec(jitter_sigma_range=jitter, **_options(args, _fields(ds.NoiseSpec)))
    corpus = _options(args, _CORPUS_KEYWORDS)
    manifest = ds.generate_dataset(args.out, noise=noise, **corpus)
    total = sum(manifest.counts.values())
    print(f"wrote {total} records under {args.out}")
    return 0


def _cmd_train(args) -> int:
    train_cfg = TrainConfig(**_options(args, _fields(TrainConfig)))
    manifest = ds.DatasetManifest.load(args.manifest)

    def progress(stats):
        print(
            f"epoch {stats.epoch}: train {stats.train_mse:.6f} "
            f"val {stats.val_mse:.6f} ({stats.wall_time_s:.1f}s)",
            file=sys.stderr,
        )

    model, log = train_model(manifest, train_cfg, progress=progress)
    save_model(model, args.out)
    if args.log:
        save_train_log(log, args.log, include_timing=args.log_times)
    print(f"best epoch {log.best_epoch}: val mse {log.best_val_mse:.6f}")
    return 0


def _cmd_refine(args) -> int:
    config = pl.PipelineConfig(**_options(args, _fields(pl.PipelineConfig)))
    pl.refine_keypoint_file(args.input, args.model, args.output, config)
    print(f"refined {args.input} -> {args.output}")
    return 0


def _cmd_eval(args) -> int:
    refined = pl.parse_keypoints(args.refined)
    truth = pl.parse_keypoints(args.truth)
    erroneous = pl.load_erroneous_frames(args.errors) if args.errors else {}
    report = pl.evaluate_metrics(
        pose_to_angles(refined),
        pose_to_angles(truth),
        erroneous,
        **_options(args, ["tau"]),
    )
    doc = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
            fh.write("\n")
    print(doc)
    return 0


def _cmd_export(args) -> int:
    seq = pl.parse_keypoints(args.input)
    motion = pl.RefinedMotion(
        base=seq.xy[:, 0, :],
        theta=pose_to_angles(seq),
        lengths=pl.pose_to_limb_lengths(seq),
        fps=seq.fps,
    )
    pl.export_series(motion, args.what, args.output)
    print(f"wrote {args.what} to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poserefine",
        description="Refine noisy 2D pose keypoint sequences via joint angles.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p = command("synth", _cmd_synth, "generate a synthetic training corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--train-count", type=int, default=20000)
    p.add_argument("--test-count", type=int, default=4000)
    p.add_argument("--window", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--frames-per-cycle", type=int)
    p.add_argument("--cycles", type=int)
    p.add_argument("--jitter-min-deg", dest="jitter_min", type=degrees)
    p.add_argument("--jitter-max-deg", dest="jitter_max", type=degrees)
    p.add_argument("--outlier-fraction", type=float)
    p.add_argument("--outlier-max-deg", dest="outlier_sigma_max", type=degrees)
    p.add_argument("--secondary-sigma", type=float)
    p.add_argument("--secondary-max", type=int)
    p.add_argument("--records-per-shard", type=int)
    p.add_argument("--seed", type=int, help="base RNG seed")

    p = command("train", _cmd_train, "train a refiner on a synth manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--log", default=None, help="JSON epoch log to write")
    p.add_argument(
        "--log-times", action="store_true", default=False,
        help="include wall times and training windows/s in the log",
    )
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--val-fraction", dest="validation_fraction", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--d-att", type=int)
    p.add_argument("--seed", type=int, help="base RNG seed")

    p = command("refine", _cmd_refine, "refine a keypoint JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sg-halfwidth", dest="half_width", type=int)

    p = command("eval", _cmd_eval, "compare refined keypoints against truth")
    p.add_argument("--refined", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--errors", default=None, help="erroneous-frame JSON file")
    p.add_argument("--tau-deg", dest="tau", type=degrees)
    p.add_argument("--out", default=None, help="metrics JSON to write")

    p = command("export", _cmd_export, "export series from a keypoint file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--what",
        choices=("positions", "angles", "velocities"),
        default="positions",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PoseRefineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
