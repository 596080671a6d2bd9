"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload clipvec --seed 1 --seconds 10 --trace 0

The workload's inputs are generated from ``--seed`` under ``.bench_work/``
and removed afterwards. The run checks the program's outputs, prints a table
of metrics and the determinism fingerprints, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics with the code unmodified; ``--trace 1`` wraps each layer
boundary and reports the per-layer metrics, writing the spans and the full
call statistics to ``.bench_out/``. The exit code is 0 only when every check
passed, and 2 when the checkout holds no ``src/aucap`` to measure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
import time
from pathlib import Path

# One BLAS thread: the run is pinned to one vCPU, where its speed is tracked,
# and a second BLAS thread would run on the other, untracked one.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# glibc's malloc raises its mmap threshold to the largest block freed so far
# (at most 32 MiB) and its trim threshold to twice that. Every phase runs in
# this one process, so by default a phase's speed would depend on what ran
# before it: log-Mel extraction ran at about 85 clips/s before the captioner
# had trained and 135 after. The thresholds are fixed at the values the
# dynamic policy reaches in a long training run, for every phase alike.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aucap" / "__init__.py").is_file():
        print(f"error: no aucap package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    libc = ctypes.CDLL("libc.so.6")
    if not (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
            and libc.mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_BYTES)):
        print("error: mallopt refused the malloc thresholds", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fixtures
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, want one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.quick:
        workload = workloads.quick(workload)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = ROOT / ".bench_work" / run_id
    try:
        fixture = fixtures.make_fixture(work / "data", args.seed, n_dev=workload.n_dev,
                                        n_val=workload.n_val, panns=workload.variant == "panns",
                                        wav_seconds=workload.wav_seconds)
        result = _measure(workload, fixture, work, args, run_id)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def _measure(workload, fixture, work: Path, args, run_id: str) -> int:
    import tracing
    import workloads
    from speed import SpeedProbe

    # The run and its speed probe share one vCPU (see speed.py): the last one,
    # since the first is where the VM's agent and kernel workers tend to run.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    probe = SpeedProbe(cpu)
    start = time.perf_counter()
    tracer = installer = None
    try:
        if args.trace:
            tracer = tracing.Tracer(run_id)
            installer = tracing.install(tracer)
        run = workloads.Run(workload, fixture, work, args.seed, SRC)
        setup = run.measure_setup()
        run.run(args.seconds)
        probe.stop()
        run.check(bool(probe.times), "the speed probe returned no readings")
    finally:
        probe.kill()
        if installer is not None:
            installer.restore()
    end_to_end = run.end_to_end(setup, probe)
    if tracer is None:
        metrics = end_to_end
    else:
        metrics = tracing.layer_metrics(tracer)
        for name in tracing.TRACED_END_TO_END:
            value, unit = end_to_end[name]
            metrics[f"traced.{name}"] = (value, unit)
        metrics["quality.caption_cider"] = (run.report.cider, "score")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans-{run_id}.jsonl")
        (out / f"calls-{run_id}.json").write_text(json.dumps(tracer.summary(), indent=1))

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} measured {time.perf_counter() - start:.1f}s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for name, value in run.report.as_dict().items():
        print(f"  score.{name:38s} {value:14.6g} (predicted captions, not gated)")
    print(f"  score.{'empty_caption_share':38s} {run.empty_share:14.6g} "
          "(held-out clips whose greedy caption is empty, not gated)")
    for name, digest in run.fingerprints().items():
        print(f"fingerprint.{name} {digest}")
    for failure in run.check.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    check = run.check
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
