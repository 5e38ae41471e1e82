"""Command-line surface: state/measure/reconstruct/baseline/mitigate/
synthetic/compare subcommands, JSON in and out.

A --config FILE (JSON object whose keys mirror flag names) supplies
defaults; explicit flags win.  All domain failures exit nonzero with a
message on stderr.
"""

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

import itertools

from . import baselines, metrics, optimizer, parallel, serialize, synthetic
from .measurements import ExpectationSample, PauliSetting, monomial_from_code, sample_monomials
from .seeding import substream
from .sensing import SensingMap, observe_with_records, simulate_records
from .states import RandomCircuitSpec, ghz, ghz_minus, hadamard_all, random_state

CIRCUITS = ("ghz", "ghz_minus", "hadamard", "random")


@dataclass
class RunConfig:
    """Everything a reconstruction run needs, as parsed from flags."""

    circuit: str
    n: int
    measpc: float
    shots: int
    seed: int
    depth: int = 20
    exact: bool = False
    workers: int = 1
    optimizer: "optimizer.OptimizerConfig | None" = None

    def __post_init__(self):
        if self.circuit not in CIRCUITS:
            raise ValueError(f"circuit must be one of {CIRCUITS}, got {self.circuit!r}")
        if not 0.0 < self.measpc <= 100.0:
            raise ValueError(f"measpc must lie in (0, 100], got {self.measpc}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def build_state(circuit: str, n: int, depth: int = 20, seed: int = 0):
    if circuit == "ghz":
        return ghz(n)
    if circuit == "ghz_minus":
        return ghz_minus(n)
    if circuit == "hadamard":
        return hadamard_all(n)
    if circuit == "random":
        return random_state(RandomCircuitSpec(n=n, depth=depth, seed=seed))
    raise ValueError(f"unknown circuit {circuit!r}")


def monomial_count(measpc: float, n: int) -> int:
    """m = round-half-up(measpc/100 * 4^n), clamped to [1, 4^n]."""
    total = 4**n
    m = int(np.floor(measpc / 100.0 * total + 0.5))
    return min(max(m, 1), total)


def all_settings(n: int) -> list:
    """Every measurement setting, in lexicographic order."""
    return [PauliSetting("".join(axes)) for axes in itertools.product("xyz", repeat=n)]


def _parse_mu(text: str):
    if text.startswith("theory"):
        optimizer.parse_theory_mu(text)
        return text
    return float(text)


def _parse_eta(text: str):
    return None if text == "auto" else float(text)


def _optimizer_config(args) -> optimizer.OptimizerConfig:
    return optimizer.OptimizerConfig(
        rank=args.rank,
        eta=_parse_eta(args.eta),
        mu=_parse_mu(args.mu),
        maxiters=args.maxiters,
        reltol=args.reltol,
        seed=args.seed,
        init=args.init,
        L_hat=args.l_hat,
    )


def _add_state_flags(sub, with_depth=True):
    sub.add_argument("--circuit", choices=CIRCUITS, required=True)
    sub.add_argument("--n", type=int, required=True)
    if with_depth:
        sub.add_argument("--depth", type=int, default=20, help="random circuit depth")


def _add_optimizer_flags(sub):
    sub.add_argument("--rank", type=int, default=1)
    sub.add_argument("--eta", default="auto", help='step size, or "auto" for the eigenvalue rule')
    sub.add_argument("--mu", default="0", help='momentum: float, "0", or "theory:EPS"')
    sub.add_argument("--maxiters", type=int, default=1000)
    sub.add_argument("--reltol", type=float, default=5e-4)
    sub.add_argument("--init", choices=("spectral", "random"), default="spectral")
    sub.add_argument("--l-hat", type=float, default=1.1)
    sub.add_argument("--workers", type=int, default=1)


def build_parser():
    parser = argparse.ArgumentParser(prog="paulitomo")
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    sub = registry["state"] = subs.add_parser("state", help="write a target state as JSON")
    _add_state_flags(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)

    sub = registry["measure"] = subs.add_parser(
        "measure", help="simulate measurements; write the expectation-value file"
    )
    _add_state_flags(sub)
    sub.add_argument("--measpc", type=float, default=100.0)
    sub.add_argument("--shots", type=int, default=2048)
    sub.add_argument("--exact", action="store_true", help="noiseless expectation values")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--unnormalized", action="store_true", help="store raw Tr(P rho) values")
    sub.add_argument("--out", required=True)
    sub.add_argument("--records-out", default=None, help="also write the counts file")

    sub = registry["reconstruct"] = subs.add_parser(
        "reconstruct", help="run the factored-gradient reconstruction"
    )
    sub.add_argument("--in", dest="infile", default=None, help="expectation-value file")
    sub.add_argument("--circuit", choices=CIRCUITS, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--depth", type=int, default=20)
    sub.add_argument("--measpc", type=float, default=100.0)
    sub.add_argument("--shots", type=int, default=2048)
    sub.add_argument("--exact", action="store_true")
    sub.add_argument("--seed", type=int, default=0)
    _add_optimizer_flags(sub)
    sub.add_argument("--out", required=True)
    sub.add_argument("--trace-csv", default=None)
    sub.add_argument("--save-factor", action="store_true")

    sub = registry["baseline"] = subs.add_parser(
        "baseline", help="full-tomography linear inversion + density projection"
    )
    _add_state_flags(sub)
    sub.add_argument("--shots", type=int, default=2048)
    sub.add_argument("--exact", action="store_true")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)

    sub = registry["mitigate"] = subs.add_parser(
        "mitigate", help="readout-error mitigation of a probability vector"
    )
    sub.add_argument("--calibration", required=True)
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--out", required=True)

    sub = registry["synthetic"] = subs.add_parser(
        "synthetic", help="generic matrix-sensing momentum benchmark"
    )
    sub.add_argument("--d", type=int, default=256)
    sub.add_argument("--r", type=int, default=5)
    sub.add_argument("--c", type=int, default=5)
    sub.add_argument("--noise", type=float, default=0.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=1e-3)
    sub.add_argument("--maxiters", type=int, default=4000)
    sub.add_argument("--mu-values", default="0,0.6667,theory")
    sub.add_argument("--out", required=True)

    sub = registry["compare"] = subs.add_parser(
        "compare", help="momentum vs plain gradient descent on one problem"
    )
    _add_state_flags(sub)
    sub.add_argument("--measpc", type=float, default=20.0)
    sub.add_argument("--shots", type=int, default=2048)
    sub.add_argument("--exact", action="store_true")
    sub.add_argument("--seed", type=int, default=0)
    _add_optimizer_flags(sub)
    sub.add_argument("--out", required=True)
    sub.add_argument("--trace-csv", default=None, help="prefix; writes PREFIX.momentum.csv and PREFIX.plain.csv")

    for name, sub in registry.items():
        sub.add_argument("--config", default=None, help=argparse.SUPPRESS)
    return parser, registry


def _simulate_pipeline(args, normalized=True):
    """Shared state -> monomials -> observations path for reconstruct/compare."""
    RunConfig(
        circuit=args.circuit,
        n=args.n,
        measpc=args.measpc,
        shots=args.shots,
        seed=args.seed,
        depth=args.depth,
        exact=args.exact,
        workers=getattr(args, "workers", 1),
    )
    state = build_state(args.circuit, args.n, args.depth, args.seed)
    m = monomial_count(args.measpc, args.n)
    monomials = sample_monomials(args.n, m, substream(args.seed, "monomials"))
    sensing_map = SensingMap(args.n, monomials, normalized=normalized)
    shots = None if args.exact else args.shots
    obs, records = observe_with_records(state, sensing_map, shots=shots, seed=args.seed)
    return state, sensing_map, obs, records


def _run_one(sensing_map, obs, config, workers, target):
    if workers > 1:
        return parallel.parallel_run(sensing_map, obs, config, workers, target=target)
    return optimizer.run(sensing_map, obs, config, target=target)


def _result_json(config, trace, factor, target_state, save_factor=False):
    final_fidelity = metrics.fidelity_rank1(factor, target_state) if target_state else None
    final_error = (
        metrics.frobenius_error(factor, target_state.amplitudes[:, None])
        if target_state
        else None
    )
    return serialize.result_to_json(
        config,
        trace,
        final_fidelity,
        final_error,
        factor=factor if save_factor else None,
    )


def _cmd_state(args) -> int:
    state = build_state(args.circuit, args.n, args.depth, args.seed)
    serialize.save_json(serialize.state_to_json(state), args.out)
    return 0


def _cmd_measure(args) -> int:
    normalized = not args.unnormalized
    state, sensing_map, obs, records = _simulate_pipeline(args, normalized=normalized)
    serialize.save_json(
        serialize.expectations_to_json(args.n, normalized, sensing_map.monomials, obs.values),
        args.out,
    )
    if args.records_out:
        if args.exact:
            raise ValueError("exact mode produces no measurement records")
        serialize.save_json(
            serialize.records_to_json(args.n, args.shots, records), args.records_out
        )
    return 0


def _cmd_reconstruct(args) -> int:
    config = _optimizer_config(args)
    target_state = None
    if args.infile:
        sensing_map, obs = serialize.expectations_from_json(serialize.load_json(args.infile))
        if args.circuit:
            target_state = build_state(args.circuit, sensing_map.n, args.depth, args.seed)
    else:
        if args.circuit is None or args.n is None:
            raise ValueError("reconstruct needs either --in or --circuit/--n")
        target_state, sensing_map, obs, _ = _simulate_pipeline(args)
    factor, trace = _run_one(sensing_map, obs, config, args.workers, target_state)
    serialize.save_json(
        _result_json(config, trace, factor, target_state, args.save_factor), args.out
    )
    if args.trace_csv:
        serialize.trace_to_csv(trace, args.trace_csv)
    return 0


def _cmd_baseline(args) -> int:
    state = build_state(args.circuit, args.n, args.depth, args.seed)
    start = time.perf_counter()
    if args.exact:
        monomials = [monomial_from_code(code, args.n) for code in range(4**args.n)]
        sensing_map = SensingMap(args.n, monomials, normalized=False)
        obs, _ = observe_with_records(state, sensing_map, shots=None, seed=args.seed)
        samples = [
            ExpectationSample(p, float(v)) for p, v in zip(sensing_map.monomials, obs.values)
        ]
    else:
        settings = all_settings(args.n)
        records = simulate_records(state, settings, args.shots, seed=args.seed)
        samples = baselines.complete_expectations(records)
    rho = baselines.project_to_density(baselines.pauli_linear_inversion(samples))
    elapsed = time.perf_counter() - start
    fidelity = metrics.fidelity_density(rho, state)
    serialize.save_json(
        {
            "method": "linear_inversion",
            "n": args.n,
            "circuit": args.circuit,
            "shots": None if args.exact else args.shots,
            "fidelity": fidelity,
            "time_s": elapsed,
        },
        args.out,
    )
    return 0


def _cmd_mitigate(args) -> int:
    calibration = serialize.calibration_from_json(serialize.load_json(args.calibration))
    v_meas = np.asarray(serialize.load_json(args.infile), dtype=float)
    v_cal = baselines.readout_mitigate(calibration, v_meas)
    serialize.save_json(v_cal.tolist(), args.out)
    return 0


def _cmd_synthetic(args) -> int:
    problem = synthetic.SyntheticProblem(
        d=args.d, r=args.r, c=args.c, noise_norm=args.noise, seed=args.seed
    )
    mu_values = [
        v if v == "theory" else float(v) for v in args.mu_values.split(",") if v
    ]
    report = synthetic.run_synthetic_comparison(
        problem, mu_values, tol=args.tol, maxiters=args.maxiters
    )
    serialize.save_json(report, args.out)
    return 0


def _cmd_compare(args) -> int:
    config = _optimizer_config(args)
    if resolve_float_mu(config) == 0.0:
        raise ValueError("compare needs a nonzero --mu for the accelerated run")
    target_state, sensing_map, obs, _ = _simulate_pipeline(args)
    out = {}
    for label, mu in (("momentum", config.mu), ("plain", 0.0)):
        cfg = optimizer.OptimizerConfig(
            rank=config.rank,
            eta=config.eta,
            mu=mu,
            maxiters=config.maxiters,
            reltol=config.reltol,
            seed=config.seed,
            init=config.init,
            L_hat=config.L_hat,
        )
        factor, trace = _run_one(sensing_map, obs, cfg, args.workers, target_state)
        out[label] = _result_json(cfg, trace, factor, target_state)
        if args.trace_csv:
            serialize.trace_to_csv(trace, f"{args.trace_csv}.{label}.csv")
    serialize.save_json(out, args.out)
    return 0


def resolve_float_mu(config) -> float:
    return optimizer.resolve_mu(config)


_COMMANDS = {
    "state": _cmd_state,
    "measure": _cmd_measure,
    "reconstruct": _cmd_reconstruct,
    "baseline": _cmd_baseline,
    "mitigate": _cmd_mitigate,
    "synthetic": _cmd_synthetic,
    "compare": _cmd_compare,
}


def cli_main(argv) -> int:
    argv = list(argv)
    parser, registry = build_parser()
    if "--config" in argv:
        at = argv.index("--config") + 1
        if at == len(argv):
            print("error: --config needs a file path", file=sys.stderr)
            return 2
        path = argv[at]
        try:
            cfg = serialize.load_json(path)
        except OSError as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return 2
        for sub in registry.values():
            known = {action.dest for action in sub._actions}
            sub.set_defaults(**{k: v for k, v in cfg.items() if k in known})
            for action in sub._actions:
                if action.dest in cfg:
                    action.required = False
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))
