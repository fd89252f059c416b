"""heatavg benchmark runner.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Generates the workload's inputs from ``--seed``, times its one-time set-up,
then runs ops in a closed loop with one client for ``--seconds`` seconds,
checking every op's output.  Workloads and their reasons are in
`workloads`.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics.

Of the latencies, ``BENCHMARK.json`` gates only ``latency_tail_s``.  On a
shared 2-vCPU virtual machine the same core ran up to twice as fast at some
moments as at others, each state lasting from seconds to minutes.  Over ten
30-second runs the median latency and throughput of the library workloads
followed the share of fast moments each run happened to get, and spread up
to 0.28 of their median; their tail, which most runs fill from slow
moments, spread 0.02 to 0.22.  A CLI run has fewer than 20 ops, so its tail
is its median (see `tail`).  Median, throughput and every op's latency are
still printed as comment lines and written to the results file.  A traced
run alternates traced and untraced rounds, so the tracing overhead
(traced minus untraced median latency) comes from one run; its spans go to
``perfbench/results/<workload>-seed<N>-trace.json``, apart from the untraced
results in ``perfbench/results/<workload>-seed<N>.json``.  ``--smoke`` runs
two rounds at reduced size.

The package is imported from ``src/`` beside this directory, and that
absolute path is handed to child interpreters through ``PYTHONPATH``, so
nothing needs installing and any working directory will do.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# one client on a small machine: BLAS threads at or below nproc, and steady
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10
# every end-to-end figure the runner records; BENCHMARK.json gates a subset
UNITS = {"latency_p50_s": "s", "latency_tail_s": "s", "throughput_ops_s": "1/s",
         "peak_rss_mb": "MB", "setup_s": "s"}
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's <malloc.h>


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two rounds at reduced size, for the benchmark's own test")
    return parser.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    Below 2*TAIL_BEYOND samples that percentile would fall under the median,
    so the median is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return float(statistics.median(ordered)), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, found through this process's maps."""
    found = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def fix_mmap_threshold() -> None:
    """Pin glibc's mmap threshold at its default of 128 KiB.

    By default glibc raises the threshold after a large block is freed, and
    from then on keeps freed field-sized arrays in the heap; whether that
    happened before the peak varies from run to run and moved this
    process's peak RSS by one 16 MB field.  With the threshold pinned, every
    large array is mapped and unmapped with its lifetime, so peak RSS
    follows the arrays the library keeps alive.  Child processes keep the
    default policy.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {v: os.environ[v] for v in BLAS_VARIABLES},
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def measure(args, wl) -> dict:
    """Set up and run one generated workload; return the full result record."""
    setup, setup_ok = wl.setup_samples()

    tracer = Tracer() if args.trace else None
    latencies = {False: [], True: []}
    attempted = failed = passed = 0
    max_err = 0.0
    problems: list[str] = []
    ops: list[dict] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 0
        for kind in wl.kinds:
            if tracer is not None:
                tracer.op = attempted
            result = wl.run_op(kind, tracer if traced else None)
            attempted += 1
            latencies[traced].append(result.seconds)
            ops.append({"kind": kind, "traced": traced, "seconds": result.seconds,
                        "ok": result.ok, "rel_err": result.rel_err})
            if result.rel_err is not None:
                max_err = max(max_err, result.rel_err)
            if result.ok:
                passed += 1
            else:
                failed += 1
                why = result.problem or f"error {result.rel_err:.3e} above the gate"
                problems.append(f"op {attempted - 1} ({kind}): {why}")
        rounds += 1
        if args.smoke:
            if rounds >= 2:
                break
        elif time.perf_counter() - start >= args.seconds and (tracer is None or rounds % 2 == 0):
            break

    untraced = latencies[False]
    tail_value, tail_pct = tail(untraced)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": "smoke" if args.smoke else "full",
        "trace": args.trace,
        "correct": failed == 0 and setup_ok,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems[:20],
        "rounds": rounds,
        "untraced_ops": len(untraced),
        "tail_percentile": tail_pct,
        "setup_samples_s": setup,
        "check": {"max_rel_err": max_err, "gate": wl.gate},
        "ops": ops,
        "inputs": wl.props,
        "environment": environment(),
        "end_to_end": {
            "latency_p50_s": float(statistics.median(untraced)),
            "latency_tail_s": tail_value,
            # the closed loop's op time only; the checks between ops are not the program's work
            "throughput_ops_s": passed / sum(latencies[False] + latencies[True]),
            "peak_rss_mb": wl.peak_rss_mb(),
            "setup_s": float(statistics.median(setup)),
        },
    }
    if tracer is not None:
        traced_p50 = float(statistics.median(latencies[True]))
        layers = layer_metrics(tracer.spans)
        layers["check.max_rel_err"] = max_err
        layers["check.gate"] = wl.gate
        layers["trace.traced_p50_s"] = traced_p50
        layers["trace.untraced_p50_s"] = record["end_to_end"]["latency_p50_s"]
        layers["trace.overhead_s"] = traced_p50 - record["end_to_end"]["latency_p50_s"]
        record["per_layer"] = layers
        record["spans"] = tracer.spans
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heatavg" / "__init__.py").is_file():
        print(f"error: the heatavg package is not at {SRC / 'heatavg'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    fix_mmap_threshold()
    for var in BLAS_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    sys.path.insert(0, str(SRC))
    # byte-compile first so no run pays for it inside a measurement
    compileall.compile_dir(str(SRC / "heatavg"), quiet=1)

    import warnings

    import numpy as np
    from workloads import SIZES, WORKLOADS

    # solve_inverse warns on rough data (the seeded truth is rough on purpose);
    # the warning is a diagnostic and does not change the result
    warnings.simplefilter("ignore", UserWarning)

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](np.random.default_rng(args.seed),
                                      SIZES["smoke" if args.smoke else "full"], work)
        record = measure(args, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    if args.trace:
        (RESULTS / f"{stem}-trace.json").write_text(json.dumps(record, indent=1))
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = record["per_layer"]
    else:
        (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = record["end_to_end"]

    print(f"# {record['workload']} seed {record['seed']}: {record['attempted']} ops, "
          f"failed_ratio {record['failed_ratio']:.6g}, setup samples {len(record['setup_samples_s'])}, "
          f"tail = p{record['tail_percentile']:.1f} of {record['untraced_ops']} untraced ops, "
          f"check.max_rel_err {record['check']['max_rel_err']:.3e} (gate {record['check']['gate']:.3e})")
    for problem in record["problems"]:
        print(f"# failed: {problem}")
    for name, unit in names if args.trace else UNITS.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
