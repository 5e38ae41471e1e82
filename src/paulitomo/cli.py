"""Command-line surface: state/measure/reconstruct/baseline/mitigate/
synthetic/compare subcommands, JSON in and out.

A --config FILE or --config=FILE (JSON object keyed by option dest: l_hat
for --l-hat, infile for --in) supplies flags that explicit ones override;
its values are converted and checked as the flags are.  All domain
failures exit nonzero with a message on stderr.
"""

import argparse
import itertools
import sys
import time
from dataclasses import replace

import numpy as np

from . import baselines, metrics, optimizer, serialize, synthetic
from .measurements import PauliSetting, sample_codes
from .seeding import substream
from .sensing import SensingMap, observe_with_records, simulate_records
from .states import RandomCircuitSpec, ghz, ghz_minus, hadamard_all, random_state

_FIXED_CIRCUITS = {"ghz": ghz, "ghz_minus": ghz_minus, "hadamard": hadamard_all}
CIRCUITS = (*_FIXED_CIRCUITS, "random")
_DEFAULT_SHOTS = 2048
# reconstruct's --measpc when it simulates its data.
_RECONSTRUCT_MEASPC = 100.0


def build_state(circuit: str, n: int, depth: int = 20, seed: int = 0):
    if circuit == "random":
        return random_state(RandomCircuitSpec(n=n, depth=depth, seed=seed))
    if circuit not in _FIXED_CIRCUITS:
        raise ValueError(f"unknown circuit {circuit!r}")
    return _FIXED_CIRCUITS[circuit](n)


def monomial_count(measpc: float, n: int) -> int:
    """m = round-half-up(measpc/100 * 4^n), clamped to [1, 4^n]."""
    total = 4**n
    m = int(np.floor(measpc / 100.0 * total + 0.5))
    return min(max(m, 1), total)


def all_settings(n: int) -> list:
    """Every measurement setting, in lexicographic order."""
    return [PauliSetting("".join(axes)) for axes in itertools.product("xyz", repeat=n)]


def _optimizer_config(args) -> optimizer.OptimizerConfig:
    return optimizer.OptimizerConfig(
        rank=args.rank,
        eta=None if args.eta == "auto" else float(args.eta),
        mu=optimizer.parse_mu(args.mu)[0],
        maxiters=args.maxiters,
        reltol=args.reltol,
        seed=args.seed,
        init=args.init,
        L_hat=args.l_hat,
    )


def _add_state_flags(sub, required=True):
    sub.add_argument("--circuit", choices=CIRCUITS, required=required)
    sub.add_argument("--n", type=int, required=required)
    sub.add_argument("--depth", type=int, default=20, help="random circuit depth")


def _add_data_flags(sub, measpc=None):
    """Measurement flags; --measpc only where a default is given.  --shots
    is None unless typed, so that --exact can refuse it; see _resolve_shots."""
    if measpc is not None:
        sub.add_argument("--measpc", type=float, default=measpc)
    sub.add_argument("--shots", type=int, default=None, help=f"shots per setting (default {_DEFAULT_SHOTS})")
    sub.add_argument("--exact", action="store_true", help="noiseless expectation values")
    sub.add_argument("--seed", type=int, default=0)


def _add_optimizer_flags(sub):
    sub.add_argument("--rank", type=int, default=1)
    sub.add_argument("--eta", default="auto", help='step size, or "auto" for the eigenvalue rule')
    sub.add_argument("--mu", default="0", help='momentum: float, "theory" or "theory:EPS"')
    sub.add_argument("--maxiters", type=int, default=1000)
    sub.add_argument("--reltol", type=float, default=5e-4)
    sub.add_argument("--init", choices=("spectral", "random"), default="spectral")
    sub.add_argument("--l-hat", type=float, default=1.1)


def build_parser():
    """The parser and its subparsers action, whose choices map each
    command to a subparser that carries its handler as `func`."""
    parser = argparse.ArgumentParser(prog="paulitomo")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        sub = subs.add_parser(name, help=help)
        sub.set_defaults(func=func)
        return sub

    sub = command("state", _cmd_state, "write a target state as JSON")
    _add_state_flags(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)

    sub = command("measure", _cmd_measure, "simulate measurements; write the expectation-value file")
    _add_state_flags(sub)
    _add_data_flags(sub, measpc=100.0)
    sub.add_argument("--unnormalized", action="store_true", help="store raw Tr(P rho) values")
    sub.add_argument("--out", required=True)
    sub.add_argument("--records-out", default=None, help="also write the counts file")

    sub = command("reconstruct", _cmd_reconstruct, "run the factored-gradient reconstruction")
    sub.add_argument("--in", dest="infile", default=None, help="expectation-value file")
    _add_state_flags(sub, required=False)
    _add_data_flags(sub)
    # None unless typed, so that --in can refuse it; see _cmd_reconstruct.
    sub.add_argument("--measpc", type=float, default=None)
    _add_optimizer_flags(sub)
    sub.add_argument("--out", required=True)
    sub.add_argument("--trace-csv", default=None)
    sub.add_argument("--save-factor", action="store_true")

    sub = command("baseline", _cmd_baseline, "full-tomography linear inversion + density projection")
    _add_state_flags(sub)
    _add_data_flags(sub)
    sub.add_argument("--out", required=True)

    sub = command("mitigate", _cmd_mitigate, "readout-error mitigation of a probability vector")
    sub.add_argument("--calibration", required=True)
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--out", required=True)

    sub = command("synthetic", _cmd_synthetic, "generic matrix-sensing momentum benchmark")
    sub.add_argument("--d", type=int, default=256)
    sub.add_argument("--r", type=int, default=5)
    sub.add_argument("--c", type=int, default=5)
    sub.add_argument("--noise", type=float, default=0.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=1e-3)
    sub.add_argument("--maxiters", type=int, default=4000)
    sub.add_argument("--mu-values", default="0,0.6667,theory", help="comma-separated --mu values")
    sub.add_argument("--out", required=True)

    sub = command("compare", _cmd_compare, "momentum vs plain gradient descent on one problem")
    _add_state_flags(sub)
    _add_data_flags(sub, measpc=20.0)
    _add_optimizer_flags(sub)
    sub.add_argument("--out", required=True)
    sub.add_argument("--trace-csv", default=None, help="prefix; writes PREFIX.momentum.csv and PREFIX.plain.csv")
    return parser, subs


def _resolve_shots(args):
    """Set args.shots to the shots per setting, None for --exact data.

    A typed --shots (or a shots config key) with --exact is refused, not
    dropped; sampled data take --shots, or _DEFAULT_SHOTS if it is untyped.
    """
    if args.exact:
        if args.shots is not None:
            raise ValueError("--exact and --shots cannot be used together: exact data take no shots")
        return
    args.shots = _DEFAULT_SHOTS if args.shots is None else args.shots
    if args.shots < 1:
        raise ValueError(f"shots must be >= 1, got {args.shots}")


def _simulate_pipeline(args, normalized=True):
    """Shared state -> monomials -> observations path for measure/reconstruct/compare."""
    if not 0.0 < args.measpc <= 100.0:
        raise ValueError(f"measpc must lie in (0, 100], got {args.measpc}")
    _resolve_shots(args)
    state = build_state(args.circuit, args.n, args.depth, args.seed)
    m = monomial_count(args.measpc, args.n)
    codes = sample_codes(args.n, m, substream(args.seed, "monomials"))
    sensing_map = SensingMap(args.n, codes, normalized=normalized)
    obs, records = observe_with_records(state, sensing_map, shots=args.shots, seed=args.seed)
    return state, sensing_map, obs, records


def _cmd_state(args) -> int:
    state = build_state(args.circuit, args.n, args.depth, args.seed)
    serialize.save_json(serialize.state_to_json(state), args.out)
    return 0


def _cmd_measure(args) -> int:
    if args.records_out and args.exact:
        raise ValueError("exact mode produces no measurement records")
    _, sensing_map, obs, records = _simulate_pipeline(args, normalized=not args.unnormalized)
    serialize.save_json(serialize.expectations_to_json(sensing_map, obs), args.out)
    if args.records_out:
        serialize.save_json(
            serialize.records_to_json(args.n, args.shots, records), args.records_out
        )
    return 0


def _cmd_reconstruct(args) -> int:
    config = _optimizer_config(args)
    target_state = None
    if args.infile:
        data_flags = (("--exact", args.exact or None), ("--measpc", args.measpc), ("--shots", args.shots))
        given = [flag for flag, value in data_flags if value is not None]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be used with --in: {args.infile} holds the data")
        sensing_map, obs = serialize.expectations_from_json(serialize.load_json(args.infile))
        if args.n is not None and args.n != sensing_map.n:
            raise ValueError(f"--n {args.n} does not match n = {sensing_map.n} in {args.infile}")
        if args.circuit:
            target_state = build_state(args.circuit, sensing_map.n, args.depth, args.seed)
    else:
        if args.circuit is None or args.n is None:
            raise ValueError("reconstruct needs either --in or --circuit/--n")
        args.measpc = _RECONSTRUCT_MEASPC if args.measpc is None else args.measpc
        target_state, sensing_map, obs, _ = _simulate_pipeline(args)
    factor, trace = optimizer.run(sensing_map, obs, config, target=target_state)
    serialize.save_json(serialize.result_to_json(config, trace, factor, args.save_factor), args.out)
    if args.trace_csv:
        serialize.trace_to_csv(trace, args.trace_csv)
    return 0


def _cmd_baseline(args) -> int:
    if args.n > baselines.DENSE_QUBIT_CAP:
        raise ValueError(f"baseline is capped at n <= {baselines.DENSE_QUBIT_CAP} qubits")
    _resolve_shots(args)
    state = build_state(args.circuit, args.n, args.depth, args.seed)
    start = time.perf_counter()
    if args.exact:
        # Monomials in code order, so the values are already code-indexed.
        sensing_map = SensingMap(args.n, np.arange(4**args.n), normalized=False)
        values = observe_with_records(state, sensing_map, shots=None, seed=args.seed)[0]
    else:
        records = simulate_records(state, all_settings(args.n), args.shots, seed=args.seed)
        values = baselines.complete_expectations(records)
    rho = baselines.project_to_density(baselines.pauli_linear_inversion(values))
    elapsed = time.perf_counter() - start
    fidelity = metrics.fidelity_density(rho, state)
    serialize.save_json(
        {
            "method": "linear_inversion",
            "n": args.n,
            "circuit": args.circuit,
            "shots": args.shots,
            "fidelity": fidelity,
            "time_s": elapsed,
        },
        args.out,
    )
    return 0


def _cmd_mitigate(args) -> int:
    calibration = serialize.calibration_from_json(serialize.load_json(args.calibration))
    v_meas = serialize.floats_from_json(serialize.load_json(args.infile), "probability file")
    v_cal = baselines.readout_mitigate(calibration, v_meas)
    serialize.save_json(v_cal.tolist(), args.out)
    return 0


def _cmd_synthetic(args) -> int:
    problem = synthetic.SyntheticProblem(
        d=args.d, r=args.r, c=args.c, noise_norm=args.noise, seed=args.seed
    )
    mu_values = [optimizer.parse_mu(v)[0] for v in args.mu_values.split(",") if v]
    if not mu_values:
        raise ValueError("--mu-values needs at least one value")
    report = synthetic.run_synthetic_comparison(
        problem, mu_values, tol=args.tol, maxiters=args.maxiters
    )
    serialize.save_json(report, args.out)
    return 0


def _cmd_compare(args) -> int:
    config = _optimizer_config(args)
    if optimizer.resolve_mu(config) == 0.0:
        raise ValueError("compare needs a nonzero --mu for the accelerated run")
    target_state, sensing_map, obs, _ = _simulate_pipeline(args)
    out = {}
    for label, cfg in (("momentum", config), ("plain", replace(config, mu=0.0))):
        factor, trace = optimizer.run(sensing_map, obs, cfg, target=target_state)
        out[label] = serialize.result_to_json(cfg, trace, factor)
        if args.trace_csv:
            serialize.trace_to_csv(trace, f"{args.trace_csv}.{label}.csv")
    serialize.save_json(out, args.out)
    return 0


def _config_flags(cfg: dict, commands: dict, command: str) -> list:
    """The flags that a config object, keyed by option dest, gives `command`.

    A key no subcommand has is an error; a key only others have is skipped.
    """
    known = {a.dest for sub in commands.values() for a in sub._actions} - {"help"}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"keys {unknown} name no option (keys are dests such as l_hat)")
    flags = []
    for action in commands[command]._actions if command in commands else []:
        if action.dest not in known or action.dest not in cfg:
            continue
        value, flag, switch = cfg[action.dest], action.option_strings[-1], action.nargs == 0
        if switch != isinstance(value, bool) or not isinstance(value, (str, int, float)):
            wanted = "true or false" if switch else "a string or a number"
            raise ValueError(f"key {action.dest!r} takes {wanted}")
        flags += [flag] * value if switch else [f"{flag}={value}"]
    return flags


def cli_main(argv) -> int:
    argv = list(argv)
    parser, subs = build_parser()
    # --config FILE or --config=FILE, taken out of argv before parsing; a
    # second one is left for the parser to refuse.
    at = next((i for i, arg in enumerate(argv) if arg.split("=", 1)[0] == "--config"), None)
    if at is not None:
        token = argv.pop(at)
        if "=" in token:
            path = token.split("=", 1)[1]
        else:
            path = argv.pop(at) if at < len(argv) else ""
        if not path:
            print("error: --config needs a file path", file=sys.stderr)
            return 2
        try:
            cfg = serialize.load_json(path)
            if not isinstance(cfg, dict):
                raise ValueError("expected a JSON object")
            # Before the explicit flags, which parse later and so win.
            argv[1:1] = _config_flags(cfg, subs.choices, argv[0] if argv else None)
        except (OSError, ValueError) as exc:
            print(f"error: config file: {exc}", file=sys.stderr)
            return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
