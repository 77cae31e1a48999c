"""Command-line entry point: synth, train, refine, eval, export."""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import dataset as ds
from . import pipeline as pl
from .conditioning import SavGolConfig, TrustRegionConfig
from .config import load_config, resolve
from .errors import PoseRefineError
from .refiner import save_model
from .skeleton import pose_to_angles
from .training import TrainConfig, save_train_log, train_model
from .windows import MergeConfig


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--config", default=None, help="flat key = value config file")


def _load(args) -> dict:
    return load_config(args.config) if args.config else {}


def _given(args, cfg: dict, **options) -> dict:
    """Keyword arguments for the options that a flag or a config key sets.

    Each option maps a keyword to (config key, cast); the flag's dest is the
    config key.  An option set by neither is left out, so the default of
    the dataclass or function that receives it applies.
    """
    out = {}
    for name, (key, cast) in options.items():
        value = resolve(getattr(args, key), cfg, key, cast)
        if value is not None:
            out[name] = value
    return out


def _cmd_synth(args) -> int:
    cfg = _load(args)
    noise = _given(
        args,
        cfg,
        outlier_fraction=("outlier_fraction", float),
        secondary_sigma=("secondary_sigma", float),
        secondary_max=("secondary_max", int),
        seed=("seed", int),
    )
    deg = _given(
        args,
        cfg,
        lo=("jitter_min_deg", float),
        hi=("jitter_max_deg", float),
        outlier=("outlier_max_deg", float),
    )
    rad = {name: math.radians(value) for name, value in deg.items()}
    if "outlier" in rad:
        noise["outlier_sigma_max"] = rad["outlier"]
    if "lo" in rad or "hi" in rad:
        lo, hi = ds.NoiseSpec.jitter_sigma_range
        noise["jitter_sigma_range"] = (rad.get("lo", lo), rad.get("hi", hi))
    # generate_dataset has no default corpus size, so the command sets one
    corpus = {"train_count": 20000, "test_count": 4000}
    corpus.update(
        _given(
            args,
            cfg,
            train_count=("train_count", int),
            test_count=("test_count", int),
            window=("window", int),
            stride=("stride", int),
            frames_per_cycle=("frames_per_cycle", int),
            cycles=("cycles", int),
            records_per_shard=("records_per_shard", int),
        )
    )
    manifest = ds.generate_dataset(args.out, noise=ds.NoiseSpec(**noise), **corpus)
    total = sum(manifest.counts.values())
    print(f"wrote {total} records under {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load(args)
    manifest = ds.DatasetManifest.load(args.manifest)
    train_cfg = TrainConfig(
        **_given(
            args,
            cfg,
            batch_size=("batch", int),
            learning_rate=("lr", float),
            max_epochs=("epochs", int),
            patience=("patience", int),
            validation_fraction=("val_fraction", float),
            hidden=("hidden", int),
            d_att=("d_att", int),
            seed=("seed", int),
        )
    )

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


def _pipeline_config(args, cfg) -> pl.PipelineConfig:
    return pl.PipelineConfig(
        savgol=SavGolConfig(**_given(args, cfg, half_width=("sg_halfwidth", int))),
        trust=TrustRegionConfig(
            **_given(args, cfg, smoothness_weight=("lambda", float))
        ),
        merge=MergeConfig(**_given(args, cfg, epsilon=("epsilon", float))),
        **_given(args, cfg, stride=("stride", int)),
    )


def _cmd_refine(args) -> int:
    cfg = _load(args)
    pl.refine_keypoint_file(
        args.input, args.model, args.output, _pipeline_config(args, cfg)
    )
    print(f"refined {args.input} -> {args.output}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load(args)
    refined = pl.parse_keypoints(args.refined)
    truth = pl.parse_keypoints(args.truth)
    erroneous = pl.load_erroneous_frames(args.errors) if args.errors else {}
    tau = _given(args, cfg, tau=("tau_deg", float))
    report = pl.evaluate_metrics(
        pose_to_angles(refined),
        pose_to_angles(truth),
        erroneous,
        **{name: math.radians(deg) for name, deg in tau.items()},
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic training corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--train-count", type=int, default=None)
    p.add_argument("--test-count", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--frames-per-cycle", type=int, default=None)
    p.add_argument("--cycles", type=int, default=None)
    p.add_argument("--jitter-min-deg", type=float, default=None)
    p.add_argument("--jitter-max-deg", type=float, default=None)
    p.add_argument("--outlier-fraction", type=float, default=None)
    p.add_argument("--outlier-max-deg", type=float, default=None)
    p.add_argument("--secondary-sigma", type=float, default=None)
    p.add_argument("--secondary-max", type=int, default=None)
    p.add_argument("--records-per-shard", type=int, default=None)
    _common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a refiner on a synth manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--log", default=None, help="JSON epoch log to write")
    p.add_argument("--log-times", action="store_true", help="include wall times in the log")
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--val-fraction", type=float, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--d-att", type=int, default=None)
    _common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("refine", help="refine a keypoint JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--sg-halfwidth", type=int, default=None)
    p.add_argument("--lambda", type=float, default=None)
    _common(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("eval", help="compare refined keypoints against truth")
    p.add_argument("--refined", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--errors", default=None, help="erroneous-frame JSON file")
    p.add_argument("--tau-deg", type=float, default=None)
    p.add_argument("--out", default=None, help="metrics JSON to write")
    _common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export", help="export series from a keypoint file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--what",
        choices=("positions", "angles", "velocities"),
        default="positions",
    )
    _common(p)
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PoseRefineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
