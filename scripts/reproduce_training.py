"""Reproduce the reference desk-scale training run.

Generates 20,000 train / 4,000 test windows with the default noise
model, trains the default H=64 refiner for 4 epochs, and reports the
held-out MSE ratio and the outlier correction rate at tau = 10 deg.
With seed 0 throughout this reproduces ratio 0.091 and rate 0.956 in
about 70 s on a 2-vCPU x86_64 VM (60-66 s of training, its gradient
blocks on both cores, with BLAS pinned to one thread).  Next to the
training wall time it prints the minor page faults and system CPU time
of the training phase, about 20 thousand and 2-3 s there, and the
process's peak RSS, about 231 MB there; a training run that frees and
re-allocates its working memory at every step shows up as millions of
faults.  summary.json records all three next to the scores.
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import poserefine as pr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="work directory")
    ap.add_argument("--train-count", type=int, default=20000)
    ap.add_argument("--test-count", type=int, default=4000)
    ap.add_argument("--epochs", type=int, default=4)
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    manifest = pr.generate_dataset(
        os.path.join(args.out, "corpus"),
        train_count=args.train_count,
        test_count=args.test_count,
        noise=pr.NoiseSpec(seed=args.seed),
    )
    t1 = time.perf_counter()
    print(f"generated {args.train_count}+{args.test_count} windows in {t1 - t0:.0f}s")

    config = pr.TrainConfig(max_epochs=args.epochs, hidden=args.hidden, seed=args.seed)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    model, log = pr.train_model(
        manifest,
        config,
        progress=lambda s: print(
            f"epoch {s.epoch}: train {s.train_mse:.5f} val {s.val_mse:.5f}"
            f" ({s.wall_time_s:.0f}s)"
        ),
    )
    t2 = time.perf_counter()
    # the kernel's share of training: page faults and system CPU time; and
    # the process's peak resident set so far, which training sets
    after = resource.getrusage(resource.RUSAGE_SELF)
    minor_faults = after.ru_minflt - usage.ru_minflt
    system_s = after.ru_stime - usage.ru_stime
    peak_rss_mb = after.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    print(
        f"trained in {t2 - t1:.0f}s: {minor_faults} minor page faults,"
        f" {system_s:.1f}s system CPU, peak RSS {peak_rss_mb:.0f} MB"
    )
    pr.save_model(model, os.path.join(args.out, "model.jarm"))

    score = pr.score_windows(manifest, "test", model)
    summary = {
        "seed": args.seed,
        "train_count": args.train_count,
        "test_count": args.test_count,
        "hidden": args.hidden,
        "epochs_run": len(log.entries),
        "generate_s": round(t1 - t0, 1),
        "train_s": round(t2 - t1, 1),
        "train_minor_faults": minor_faults,
        "train_system_s": round(system_s, 1),
        "peak_rss_mb": round(peak_rss_mb, 1),
        **score,
    }
    print(json.dumps(summary, indent=2))
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
