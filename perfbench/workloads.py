"""The benchmark's four workloads: shared set-up, one job, and its check.

A job is what a user of `paulitomo reconstruct --circuit ...` or
`paulitomo baseline` waits for: build the state, sample monomials,
simulate data, reconstruct, and compute the final error the CLI reports.
Every library call goes through a module attribute (`cli.build_state`,
`optimizer.run`, ...), so the traced run's wrappers see the same calls an
untraced run makes.

Job inputs come from the workload seed and the job index only.  What
the solver starts from, the target state and the initialization seed,
depends on the job index k alone (as ghz and hadamard depend on no seed);
the workload seed draws the data: monomials and shot noise, or the
Gaussian instance.  Iteration counts and errors differ far more between
targets and initializations than between data draws, so a run's median
over a few jobs stays comparable across seeds.  Jobs run in blocks (one
per target circuit, or a fixed count), and a timed run ends on a block
boundary, so every run covers the same job indices.

The correctness check after each job is independent of the Gram-based
metrics in `paulitomo.metrics` and is not timed.
"""

import time
from dataclasses import dataclass

import numpy as np

from paulitomo import baselines, cli, measurements, metrics, optimizer, parallel, sensing, synthetic
from paulitomo.linalg import PowerIterationError
from paulitomo.seeding import substream
from paulitomo.states import density_of

perf_counter = time.perf_counter

# Dense Frobenius error and the Gram-based frobenius_error must agree this closely.
FROB_ATOL = 1e-8
# Full-tomography output: unit trace, and no eigenvalue below this.
TRACE_ATOL = 1e-8
MIN_EIGENVALUE = -1e-10

# Failures a job may raise and that count in `failed` instead of aborting the run.
JOB_ERRORS = (optimizer.DivergenceError, PowerIterationError)


@dataclass
class JobResult:
    index: int
    job_s: float = 0.0
    reconstruct_s: float = 0.0
    frob_error: float = float("nan")
    iterations: int = 0
    grad_time_s: float = 0.0
    loop_time_s: float = 0.0
    failure: str | None = None


def job_seed(seed: int, index: int) -> int:
    """Data seed (monomials, shots) of job `index` in a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def check_factor(factor, target) -> tuple:
    """(dense ||UU* - VV*||_F, failure or None) for a factor against a target factor."""
    if not np.all(np.isfinite(factor)):
        return float("nan"), "non-finite factor"
    dense = float(np.linalg.norm(factor @ factor.conj().T - target @ target.conj().T))
    gram = metrics.frobenius_error(factor, target)
    if not abs(dense - gram) <= FROB_ATOL:
        return dense, f"dense Frobenius error {dense!r} != frobenius_error {gram!r}"
    return dense, None


def check_density(rho) -> str | None:
    if not np.all(np.isfinite(rho)):
        return "non-finite density matrix"
    if np.max(np.abs(rho - rho.conj().T)) > TRACE_ATOL:
        return "density matrix is not Hermitian"
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > TRACE_ATOL:
        return f"trace {trace!r} != 1"
    low = float(np.linalg.eigvalsh(rho).min())
    if low < MIN_EIGENVALUE:
        return f"minimum eigenvalue {low!r} < {MIN_EIGENVALUE}"
    return None


def _solver_result(result, factor, trace, target_factor, times):
    t0, t1, t2, t3 = times
    result.job_s = t3 - t0
    result.reconstruct_s = t2 - t1
    result.iterations = trace.iterations
    result.grad_time_s = sum(rec.grad_time_s for rec in trace)
    result.loop_time_s = trace.final().time_s
    result.frob_error, result.failure = check_factor(factor, target_factor)
    return result


class PauliReconstruct:
    """`paulitomo reconstruct --circuit ... [--workers P]`: simulate Pauli data, then solve."""

    def __init__(self, name, n, measpc, shots, circuits, depth, make_config, block, workers=1):
        self.name = name
        self.n, self.measpc, self.shots = n, measpc, shots
        self.circuits, self.depth = circuits, depth
        self.block = block
        self.make_config = make_config
        self.workers = workers
        self.seed = None

    def setup(self, seed: int) -> dict:
        # Nothing is shared between jobs: each builds its own state and map.
        self.seed = seed
        return {}

    def job(self, index: int) -> JobResult:
        seed = job_seed(self.seed, index)
        circuit = self.circuits[index % len(self.circuits)]
        result = JobResult(index)
        try:
            t0 = perf_counter()
            state = cli.build_state(circuit, self.n, self.depth, index)
            m = cli.monomial_count(self.measpc, self.n)
            monomials = measurements.sample_monomials(self.n, m, substream(seed, "monomials"))
            smap = sensing.SensingMap(self.n, monomials, normalized=True)
            obs, _ = sensing.observe_with_records(state, smap, shots=self.shots, seed=seed)
            config = self.make_config(index)
            t1 = perf_counter()
            if self.workers > 1:
                factor, trace = parallel.parallel_run(smap, obs, config, self.workers, target=state)
            else:
                factor, trace = optimizer.run(smap, obs, config, target=state)
            t2 = perf_counter()
            # The final figures `reconstruct` writes to its result file.
            metrics.fidelity_rank1(factor, state)
            metrics.frobenius_error(factor, state.amplitudes[:, None])
            t3 = perf_counter()
        except JOB_ERRORS as exc:
            result.failure = f"{type(exc).__name__}: {exc}"
            return result
        return _solver_result(result, factor, trace, state.amplitudes[:, None], (t0, t1, t2, t3))


class GaussianSensing:
    """`paulitomo synthetic`: one shared instance, jobs from distinct init seeds."""

    name = "gaussian-d256"
    block = 3
    workers = 1

    def __init__(self):
        self.problem = None
        self.instance = None

    def setup(self, seed: int) -> dict:
        self.problem = synthetic.SyntheticProblem(d=256, r=5, c=5, noise_norm=0.01, seed=seed)
        start = perf_counter()
        self.instance = synthetic.generate_synthetic(self.problem)
        return {"generate_s": perf_counter() - start, "rows_bytes": self.instance[0].rows.nbytes}

    def job(self, index: int) -> JobResult:
        smap, y, u_star = self.instance
        config = optimizer.OptimizerConfig(
            rank=self.problem.r, eta=None, mu=2.0 / 3.0, maxiters=4000, reltol=1e-3,
            seed=index, init="random",
        )
        result = JobResult(index)
        try:
            t0 = perf_counter()
            factor, trace = optimizer.run(smap, y, config, target=u_star)
            t2 = perf_counter()
            metrics.frobenius_error(factor, u_star)
            t3 = perf_counter()
        except JOB_ERRORS as exc:
            result.failure = f"{type(exc).__name__}: {exc}"
            return result
        return _solver_result(result, factor, trace, u_star, (t0, t0, t2, t3))


class FullTomography:
    """`paulitomo baseline`: all 3^n settings, linear inversion, projection."""

    name = "fulltomo-n6"
    block = 6
    workers = 1
    n, shots, depth = 6, 2048, 20

    def __init__(self):
        self.seed = None

    def setup(self, seed: int) -> dict:
        self.seed = seed
        return {}

    def job(self, index: int) -> JobResult:
        seed = job_seed(self.seed, index)
        result = JobResult(index)
        t0 = perf_counter()
        state = cli.build_state("random", self.n, self.depth, index)
        records = sensing.simulate_records(state, cli.all_settings(self.n), self.shots, seed=seed)
        t1 = perf_counter()
        samples = baselines.complete_expectations(records)
        rho = baselines.project_to_density(baselines.pauli_linear_inversion(samples))
        t2 = perf_counter()
        metrics.fidelity_density(rho, state)
        t3 = perf_counter()
        result.job_s = t3 - t0
        result.reconstruct_s = t2 - t1
        result.failure = check_density(rho)
        result.frob_error = float(np.linalg.norm(rho - density_of(state)))
        return result


def _shots_config(index):
    # scripts/fidelity_table.py's accelerated setting.
    return optimizer.OptimizerConfig(rank=1, eta=1e-3, mu=0.75, maxiters=1000, reltol=1e-5,
                                     init="random", seed=index)


def _exact_config(index):
    # `reconstruct` defaults with --mu theory:1 (spectral init, eta auto).
    return optimizer.OptimizerConfig(rank=1, eta=None, mu="theory:1", maxiters=1000,
                                     reltol=5e-4, init="spectral", seed=index)


def make_workloads() -> dict:
    """Workloads by name; BENCHMARK.json records why each is there."""
    workloads = [
        PauliReconstruct(
            "pauli-shots-n8-p2",
            n=8, measpc=20.0, shots=2048, circuits=("ghz", "hadamard", "random"), depth=24,
            make_config=_shots_config, block=3, workers=2,
        ),
        PauliReconstruct(
            "pauli-exact-n7",
            n=7, measpc=30.0, shots=None, circuits=("random",), depth=20,
            make_config=_exact_config, block=3,
        ),
        GaussianSensing(),
        FullTomography(),
    ]
    return {w.name: w for w in workloads}
