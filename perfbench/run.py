"""Benchmark of poserefine: python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>, run from the root of a checkout.

The last line of standard output is the result object; the line before it
records the machine, the quality figures and any errors.  Spans of a traced
run and each run's record are written under .bench_work/.  Workloads and
metrics are described in workloads.py and listed in BENCHMARK.json.
"""

import os
import sys


def main() -> int:
    # one BLAS thread, fixed before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import poserefine
    except ImportError as exc:
        print(f"cannot import poserefine from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(poserefine.__file__).startswith(src + os.sep):
        print(f"poserefine was imported from {poserefine.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    return workloads.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
