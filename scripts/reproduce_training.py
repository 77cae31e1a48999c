"""Reproduce the reference desk-scale training run.

Generates a corpus and trains a refiner with the library defaults, those
of `generate_dataset`, `NoiseSpec` and `TrainConfig`, and reports the
held-out MSE ratio and the outlier correction rate at tau = 10 deg.  An
option given overrides its default, and summary.json records the corpus
size, width and seed that were used.  Next to the training wall time it
prints the minor page faults and system CPU time of the training phase
and the process's peak RSS; summary.json records all three next to the
scores.  README's Scripts section gives the scores, time and memory of
the run with the defaults.
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
    ap = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    ap.add_argument("--out", required=True, help="work directory")
    ap.add_argument("--train-count", type=int)
    ap.add_argument("--test-count", type=int)
    ap.add_argument("--epochs", dest="max_epochs", type=int)
    ap.add_argument("--hidden", type=int)
    ap.add_argument("--seed", type=int, help="seed of the corpus and of training")
    args = ap.parse_args()
    if "test_count" in args and args.test_count < 1:
        ap.error("--test-count must be >= 1: the trained model is scored on the test split")

    def given(*names) -> dict:
        # an option not given is absent from args, so the library default applies
        return {name: getattr(args, name) for name in names if hasattr(args, name)}

    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    manifest = pr.generate_dataset(
        os.path.join(args.out, "corpus"),
        noise=pr.NoiseSpec(**given("seed")),
        **given("train_count", "test_count"),
    )
    t1 = time.perf_counter()
    counts = manifest.counts
    print(f"generated {counts['train']}+{counts['test']} windows in {t1 - t0:.0f}s")

    config = pr.TrainConfig(**given("max_epochs", "hidden", "seed"))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    model, log = pr.train_model(manifest, config, progress=print)
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
        "seed": config.seed,
        "train_count": counts["train"],
        "test_count": counts["test"],
        "hidden": config.hidden,
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
    try:
        sys.exit(main())
    except (pr.PoseRefineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
