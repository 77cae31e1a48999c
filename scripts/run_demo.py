"""End-to-end demo on a small synthetic corpus.

Generates windows, trains a small refiner, corrupts a clean walking
sequence, refines it, and prints angle-space metrics.  README's Scripts
section gives its running time.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import poserefine as pr


def build_clean_sequence(n_frames: int, fps: float) -> pr.PoseSequence:
    template = pr.reference_templates()[0]
    cycles = -(-n_frames // 100)
    theta = pr.synthesize_truth(template, frames_per_cycle=100, cycles=cycles)[:n_frames]
    lengths = np.tile(
        np.array([14.0, 14.0, 30.0, 30.0, 28.0, 28.0, 52.0, 52.0, 44.0, 44.0, 42.0, 42.0]),
        (n_frames, 1),
    )
    base = np.stack(
        [240.0 + 1.5 * np.arange(n_frames), np.full(n_frames, 120.0)], axis=1
    )
    return pr.reconstruct_sequence(base, theta, lengths, fps=fps)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="work directory (default: temp)")
    ap.add_argument("--train-count", type=int, default=6000)
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--frames", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    work = args.out or tempfile.mkdtemp(prefix="poserefine_demo_")
    os.makedirs(work, exist_ok=True)
    print(f"work directory: {work}")

    # the demo scores its own corrupted sequence, so it needs no test split
    print(f"generating {args.train_count} training windows ...")
    manifest = pr.generate_dataset(
        os.path.join(work, "corpus"),
        train_count=args.train_count,
        test_count=0,
        noise=pr.NoiseSpec(seed=args.seed),
    )

    config = pr.TrainConfig(
        max_epochs=args.epochs, hidden=args.hidden, d_att=16, seed=args.seed
    )
    print(f"training H={config.hidden} for {config.max_epochs} epochs ...")
    model, log = pr.train_model(manifest, config, progress=print)
    model_path = os.path.join(work, "model.jarm")
    pr.save_model(model, model_path)

    clean = build_clean_sequence(args.frames, fps=50.0)
    clean_path = os.path.join(work, "clean.json")
    pr.write_keypoints(clean, clean_path)

    # corrupt the angles the same way the corpus is corrupted, then
    # rebuild pixel keypoints from the noisy angles
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed + 1)))
    theta = pr.pose_to_angles(clean)
    lengths = pr.pose_to_limb_lengths(clean)
    noisy_theta = theta.copy()
    erroneous: dict[int, list[int]] = {}
    for j in range(pr.N_LIMBS):
        noisy_theta[:, j], events = pr.inject_noise_events(
            theta[:, j], pr.NoiseSpec(seed=args.seed), rng
        )
        for f in events.all_frames():
            erroneous.setdefault(int(f), []).append(j)
    noisy = pr.reconstruct_sequence(
        clean.xy[:, 0, :], pr.wrap_angle(noisy_theta), lengths, fps=clean.fps
    )
    noisy_path = os.path.join(work, "noisy.json")
    pr.write_keypoints(noisy, noisy_path)

    print("refining ...")
    refined_path = os.path.join(work, "refined.json")
    pr.refine_keypoint_file(noisy_path, model_path, refined_path)

    refined_theta = pr.pose_to_angles(pr.parse_keypoints(refined_path))
    for name, series in (("noisy", noisy_theta), ("refined", refined_theta)):
        report = pr.evaluate_metrics(series, theta, erroneous)
        print(
            f"{name:>8}: mse {report.mse_aggregate:.5f}"
            f"  correction rate {report.correction_rate:.3f}"
            f" ({report.n_corrected}/{report.n_erroneous})"
        )

    with open(os.path.join(work, "erroneous.json"), "w") as fh:
        json.dump(
            {"frames": [{"frame": f, "joints": js} for f, js in sorted(erroneous.items())]},
            fh,
        )
    print(f"artifacts kept under {work}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (pr.PoseRefineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
