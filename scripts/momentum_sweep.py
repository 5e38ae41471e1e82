#!/usr/bin/env python3
"""Momentum sweep: iterations-to-tolerance and error traces across mu values.

Runs one reconstruction problem for each mu in the sweep set (plus the
theory value) over several seeds, and writes per-run traces so the
"error vs iteration" curves can be plotted externally.
"""

import argparse
import json

import numpy as np

from paulitomo import OptimizerConfig, SensingMap, observe, run, sample_codes
from paulitomo.cli import build_state, monomial_count
from paulitomo.seeding import substream

SWEEP = (0.0, 1 / 8, 1 / 4, 1 / 3, 3 / 4)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--circuit", default="ghz")
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--measpc", type=float, default=20.0)
    ap.add_argument("--shots", type=int, default=0, help="0 means exact expectations")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--eta", type=float, default=1e-3)
    ap.add_argument("--reltol", type=float, default=5e-4)
    ap.add_argument("--out", default="momentum_sweep.json")
    args = ap.parse_args()

    state = build_state(args.circuit, args.n, depth=3 * args.n, seed=0)
    results = []
    for seed in range(args.seeds):
        m = monomial_count(args.measpc, args.n)
        codes = sample_codes(args.n, m, substream(seed, "monomials"))
        smap = SensingMap(args.n, codes, normalized=True)
        shots = args.shots if args.shots > 0 else None
        y = observe(state, smap, shots=shots, seed=seed)
        for mu in (*SWEEP, "theory:1"):
            config = OptimizerConfig(
                rank=1, eta=args.eta, mu=mu, maxiters=1000,
                reltol=args.reltol, init="random", seed=seed,
            )
            _, trace = run(smap, y, config, target=state)
            results.append(
                {
                    "seed": seed, "mu": trace.mu, "mu_spec": str(mu),
                    "iterations": trace.iterations,
                    "final_fidelity": trace.final().fidelity,
                    "errors": [rec.error for rec in trace],
                }
            )
    with open(args.out, "w") as fh:
        json.dump(results, fh)

    print(f"{'mu':>10} {'median iters':>13} {'median fidelity':>16}")
    for mu in sorted({r["mu_spec"] for r in results}):
        sel = [r for r in results if r["mu_spec"] == mu]
        print(
            f"{mu:>10} {np.median([r['iterations'] for r in sel]):>13.0f} "
            f"{np.median([r['final_fidelity'] for r in sel]):>16.6f}"
        )


if __name__ == "__main__":
    main()
