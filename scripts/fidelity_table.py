#!/usr/bin/env python3
"""Desk-scale fidelity/timing table: reconstruction per circuit and qubit count.

Reproduces the shape of the momentum-vs-plain comparison tables: for each
circuit in {ghz, hadamard, random} and each n, sample measpc% of the
monomials, simulate shot measurements, and reconstruct with and without
momentum.  Prints one row per (circuit, n, mu).
"""

import argparse
import json
import time

from paulitomo import OptimizerConfig, SensingMap, observe, run, sample_codes
from paulitomo.cli import build_state, monomial_count
from paulitomo.seeding import substream


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-values", default="3,4,5,6")
    ap.add_argument("--circuits", default="ghz,hadamard,random")
    ap.add_argument("--measpc", type=float, default=50.0)
    ap.add_argument("--shots", type=int, default=2048)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mu", type=float, default=0.75)
    ap.add_argument("--eta", type=float, default=1e-3)
    ap.add_argument("--reltol", type=float, default=1e-5)
    ap.add_argument("--out", default=None, help="optional JSON dump of all rows")
    args = ap.parse_args()

    rows = []
    print(f"{'circuit':<10} {'n':>2} {'mu':>5} {'fidelity':>10} {'iters':>6} {'time_s':>8}")
    for circuit in args.circuits.split(","):
        for n in (int(v) for v in args.n_values.split(",")):
            state = build_state(circuit, n, depth=3 * n, seed=args.seed)
            m = monomial_count(args.measpc, n)
            codes = sample_codes(n, m, substream(args.seed, "monomials"))
            smap = SensingMap(n, codes, normalized=True)
            y = observe(state, smap, shots=args.shots, seed=args.seed)
            for mu in (args.mu, 0.0):
                config = OptimizerConfig(
                    rank=1, eta=args.eta, mu=mu, maxiters=1000,
                    reltol=args.reltol, init="random", seed=args.seed,
                )
                start = time.perf_counter()
                _, trace = run(smap, y, config, target=state)
                elapsed = time.perf_counter() - start
                row = {
                    "circuit": circuit, "n": n, "mu": mu, "m": m,
                    "fidelity": trace.final().fidelity,
                    "iterations": trace.iterations, "time_s": elapsed,
                }
                rows.append(row)
                print(
                    f"{circuit:<10} {n:>2} {mu:>5.2f} {row['fidelity']:>10.6f} "
                    f"{row['iterations']:>6} {elapsed:>8.3f}"
                )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=1)


if __name__ == "__main__":
    main()
