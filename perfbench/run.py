#!/usr/bin/env python3
"""paulitomo benchmark: closed-loop tomography jobs, one client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/` of
that checkout, never from an installed copy.  A batch user submits jobs
back to back: each job starts when the previous one has finished and been
checked, until `--seconds` have passed and the current block of jobs is
complete (see workloads.py).  `--jobs N` runs exactly N jobs instead, for
the determinism test.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics.  With `--trace 1` each job runs twice on the same
inputs, untraced and traced, and the JSON object holds the per-layer
metrics (see tracing.LAYER_METRICS); the spans are written to
`.perfbench/trace-WORKLOAD-seedN.json` in the checkout.  The end-to-end
lines a traced run prints come from its untraced copies, with jobs_per_s
over their job times alone.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("pauli-shots-n8-p2", "pauli-exact-n7", "gaussian-d256", "fulltomo-n6")
CACHE_DIR = "/sys/devices/system/cpu/cpu0/cache"

END_TO_END = {
    "job_s_p50": "s",
    "reconstruct_s_p50": "s",
    "jobs_per_s": "1/s",
    "frob_error_p50": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None, help="run exactly this many jobs")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or (args.jobs is not None and args.jobs < 1):
        ap.error("--seconds and --jobs must be positive")
    return args


def llc_bytes() -> int:
    """Size of the highest-level data or unified cache of cpu0 (sysfs, read only)."""
    best_level, best = 0, 0
    try:
        entries = sorted(os.listdir(CACHE_DIR))
    except OSError:
        return 0
    for entry in entries:
        base = os.path.join(CACHE_DIR, entry)
        try:
            with open(os.path.join(base, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction" or level < best_level:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        best_level, best = level, int(size.rstrip("KMG")) * scale
    return best


def openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None if it has none."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def configure_threads(workers: int):
    """Cap BLAS threads so gradient workers times BLAS threads <= nproc.

    OpenBLAS counts the calling thread among its threads, and the main
    thread sleeps while gradient workers run, so at most nproc threads
    compute.  Returns the BLAS thread count in force, or None if numpy's
    BLAS is not OpenBLAS.
    """
    blas = openblas()
    if blas is None:
        return None
    get, put = blas
    put(max(1, len(os.sched_getaffinity(0)) // workers))
    return get()


def blas_info() -> dict:
    """numpy's version and its BLAS name and version."""
    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    return info


def median(values):
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def run_jobs(workload, args, tracer=None):
    """Closed loop over job indices; returns (untraced, traced, loop seconds).

    A timed run stops only on a boundary of the workload's job blocks, so
    runs cover the same job indices (see workloads.py).
    """
    from tracing import Instrumentation

    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        if args.jobs is not None:
            if index >= args.jobs:
                break
        elif index and index % workload.block == 0 and time.perf_counter() - start >= args.seconds:
            break
        if tracer is None:
            untraced.append(workload.job(index))
            index += 1
            continue
        # Same inputs twice; which copy runs first alternates, so warm-up
        # favours neither side of trace.overhead_frac.
        if index % 2 == 0:
            plain = workload.job(index)
        tracer.job = index
        with Instrumentation(tracer):
            job = workload.job(index)
        tracer.job = None
        if index % 2 == 1:
            plain = workload.job(index)
        # The wrappers must not change which code runs, so not the result either.
        if job.failure is None and (job.iterations, job.frob_error) != (plain.iterations, plain.frob_error):
            job.failure = "traced result differs from the untraced run of the same inputs"
        untraced.append(plain)
        traced.append(job)
        index += 1
    return untraced, traced, time.perf_counter() - start


def end_to_end(jobs, loop_s, setup_s):
    ok = [j for j in jobs if j.failure is None]
    timed = ok or jobs
    return {
        "job_s_p50": median(j.job_s for j in timed),
        "reconstruct_s_p50": median(j.reconstruct_s for j in timed),
        "jobs_per_s": len(ok) / loop_s if loop_s > 0 else 0.0,
        "frob_error_p50": median(j.frob_error for j in timed),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "paulitomo", "__init__.py")):
        print(f"error: no paulitomo sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import paulitomo

    if not os.path.abspath(paulitomo.__file__).startswith(SRC + os.sep):
        print(f"error: paulitomo imported from {paulitomo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.make_workloads()[args.workload]
    blas_threads = configure_threads(workload.workers)
    setup_info = workload.setup(args.seed)
    # From process start until the first job can start.
    setup_s = time.perf_counter() - _START

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python_workers": workload.workers, "blas_threads": blas_threads,
        "llc_bytes": llc_bytes(), **blas_info(),
    }
    print("# machine: " + " ".join(f"{k}={v}" for k, v in context.items()))

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, loop_s = run_jobs(workload, args, tracer)
    jobs = untraced + traced
    failed = [j for j in jobs if j.failure is not None]
    for j in failed:
        print(f"# job {j.index} failed: {j.failure}", file=sys.stderr)
    busy_s = sum(j.job_s for j in untraced) if args.trace else loop_s
    e2e = end_to_end(untraced, busy_s, setup_s)
    print(f"# jobs: {len(untraced)} untraced, {len(traced)} traced, loop {loop_s:.3f} s, "
          f"failed {len(failed)} of {len(jobs)}")
    print(f"# per job: " + " ".join(f"{j.index}:{j.job_s:.3f}s/{j.iterations}it/{j.frob_error:.6f}"
                                    for j in untraced))
    for name, unit in END_TO_END.items():
        print(f"{name} {e2e[name]!r} {unit}")
    print(f"failed_frac {len(failed) / len(jobs):.6g} 1")

    if args.trace:
        traced_ok = [j for j in traced if j.failure is None] or traced
        overhead = median(j.job_s for j in traced_ok) / e2e["job_s_p50"] - 1.0
        setup = {
            "workers": workload.workers,
            "generate_s": setup_info.get("generate_s", 0.0),
            "rows_bytes": setup_info.get("rows_bytes", 0),
            "llc_bytes": context["llc_bytes"],
        }
        metrics = tracing.layer_metrics(tracer, traced, overhead, setup)
        for name, entry in metrics.items():
            label = " (computed)" if tracing.LAYER_METRICS[name][1].startswith("computed") else ""
            print(f"{name} {entry['value']:.6g} {entry['unit']}{label}")
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, context)
        print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({"correct": not failed, "attempted": len(jobs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.jobs is not None:
            cmd += ["--jobs", str(args.jobs)]
        print(f"## {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
