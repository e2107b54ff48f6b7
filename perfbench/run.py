"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/`, and nothing needs building.  The workload's corpus is generated
from the seed by `generate.py` in a separate process before anything is
timed, into a scratch directory under `.perfbench/` that is removed at
the end.  With `--trace 1` the spans are kept in `.perfbench/traces/`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics when untraced,
the per-layer metrics when traced.  `--size tiny` runs the same steps and
checks on small inputs, for the benchmark's own tests.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("noir-screen-20k", "cv-planted-2k", "forward-20k")


def parse(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    return parser.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    if args.seed < 0:
        sys.exit("run.py: --seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "repurpose", "__init__.py")):
        sys.exit(f"run.py: no package source at {os.path.relpath(SRC)}; run "
                 "from the root of a repurpose checkout")
    # BLAS threads are fixed here, before numpy loads, so a result does not
    # depend on the caller's environment; the generator inherits them too.
    threads = str(len(os.sched_getaffinity(0)))
    for name in BLAS_THREADS:
        os.environ[name] = threads

    # SIGTERM unwinds like an error, so the scratch directory is removed
    # and a running generator is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("run.py: terminated"))
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir = os.path.join(ROOT, ".perfbench", "work", tag)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir):
    sys.path.insert(0, SRC)
    import workloads
    from tracing import Tracer

    import repurpose
    if os.path.dirname(os.path.abspath(repurpose.__file__)) \
            != os.path.join(SRC, "repurpose"):
        sys.exit(f"run.py: imported repurpose from {repurpose.__file__}, "
                 f"not from {SRC}")

    params = workloads.PARAMS[args.workload][args.size]
    data_dir = os.path.join(work_dir, "data")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "generate.py"), "--shape",
         params["shape"], "--seed", str(args.seed), "--out", data_dir],
        check=True, timeout=170)

    ctx = argparse.Namespace(data_dir=data_dir, work_dir=work_dir,
                             seed=args.seed, seconds=args.seconds,
                             truth=workloads.load_truth(data_dir))
    tracer = Tracer(enabled=bool(args.trace))
    started = time.perf_counter()
    outcome = workloads.RUNNERS[args.workload](ctx, params, tracer)
    for problem in outcome.problems:
        print("CHECK FAILED:", problem, file=sys.stderr)

    if args.trace:
        metrics = workloads.per_layer(tracer, len(outcome.round_s))
        trace_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"))
    else:
        metrics = workloads.end_to_end(outcome)
    print(f"{args.workload}: {len(outcome.round_s)} round(s) of median "
          f"{workloads.median(outcome.round_s):.3f} s, {len(outcome.op_s)} "
          f"timed operations, {time.perf_counter() - started:.1f} s after "
          "generation", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
