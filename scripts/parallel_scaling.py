#!/usr/bin/env python3
"""Worker-count scaling of the parallel gradient engine.

Times full reconstructions at several worker counts and reports speedups
T_1/T_p, the median seconds per gradient evaluation, and the fidelity
agreement against the serial run.  Each worker transforms only the flip
groups of its own contiguous range of the map's flip order, so with one
core per worker the gradient time falls roughly as 1/p; on a single-core
box this only demonstrates determinism.

    PYTHONPATH=src python scripts/parallel_scaling.py --n 8 --workers 1,2
"""

import argparse
import statistics
import time

import numpy as np

from paulitomo import OptimizerConfig, SensingMap, observe, parallel_run, run
from paulitomo.cli import build_state


def grad_seconds(trace) -> float:
    """Median wall time of one gradient evaluation over a run."""
    return statistics.median(rec.grad_time_s for rec in trace)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--circuit", default="hadamard")
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--workers", default="1,2,4,8")
    ap.add_argument("--maxiters", type=int, default=100)
    ap.add_argument("--eta", type=float, default=1e-3)
    args = ap.parse_args()

    state = build_state(args.circuit, args.n, depth=3 * args.n, seed=0)
    smap = SensingMap(args.n, np.arange(4**args.n), normalized=True)
    y = observe(state, smap)
    config = OptimizerConfig(
        rank=1, eta=args.eta, mu=0.75, maxiters=args.maxiters,
        reltol=1e-12, init="random", seed=0,
    )

    start = time.perf_counter()
    _, serial_trace = run(smap, y, config, target=state)
    t1 = time.perf_counter() - start
    print(
        f"serial: {t1:.2f}s {grad_seconds(serial_trace) * 1e3:.2f} ms/gradient "
        f"fidelity {serial_trace.final().fidelity:.6f}"
    )

    for p in (int(v) for v in args.workers.split(",")):
        start = time.perf_counter()
        _, trace = parallel_run(smap, y, config, p, target=state)
        tp = time.perf_counter() - start
        gap = abs(trace.final().fidelity - serial_trace.final().fidelity)
        print(
            f"p={p:>2}: {tp:.2f}s speedup {t1 / tp:5.2f}x "
            f"{grad_seconds(trace) * 1e3:.2f} ms/gradient fidelity gap {gap:.2e}"
        )


if __name__ == "__main__":
    main()
