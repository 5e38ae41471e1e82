"""Spans around the calls into each paulitomo module, for the traced run.

Wrappers are installed by patching module attributes and class methods
from outside the package, and removed again after each traced job, so an
untraced job runs exactly the library code.  Patching a class method keeps
the class's attribute set unchanged: the optimizer branches on
`hasattr(sensing_map, "adjoint_dense")`, and a proxy object would add or
hide that attribute.

A span is (name, start, end, parent, job, attrs).  Spans live in memory
until `dump` writes them out at the end of the run.  A span opened on a
worker thread with no open span of its own takes the main thread's
innermost open span as its parent: the optimizer loop blocks on the
gradient while the parallel engine's workers run.
"""

import functools
import json
import threading
import time
from collections import defaultdict
from statistics import median

from paulitomo import baselines, cli, linalg, measurements, optimizer, parallel, sensing, synthetic

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        stack.append(sid)
        return sid, parent, stack

    def close(self, sid, parent, stack, name, start, end, attrs):
        stack.pop()
        self.spans[sid] = (name, start, end, parent, self.job, attrs)

    def wrap(self, fn, name, attrs_fn=None):
        """fn with a span around every call; attrs_fn(args, kwargs, result) adds attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, stack = self.open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, parent, stack, name, start, perf_counter(), {"raised": True})
                raise
            end = perf_counter()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else None
            self.close(sid, parent, stack, name, start, end, attrs)
            return result

        return wrapper

    def dump(self, path, context):
        with open(path, "w") as fh:
            json.dump({"context": context, "fields": ["name", "start", "end", "parent", "job", "attrs"],
                       "spans": self.spans}, fh)


def _factor_columns(z):
    return 1 if z.ndim == 1 else z.shape[1]


def _gather_attrs(factor_pos):
    """Computed bytes a forward/adjoint range call reads through its gather."""

    def attrs(args, kwargs, result):
        self, factor, lo, hi = args[0], args[factor_pos], args[-2], args[-1]
        r = _factor_columns(factor)
        # Per entry: r complex128 factor values, an int32 index, an int8 sign.
        return {"bytes": (hi - lo) * self.d * (16 * r + 5)}

    return attrs


class Instrumentation:
    """Installs and removes every wrapper; use as a context manager."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name, attrs_fn=None):
        self._patch(owner, attr, self.tracer.wrap(getattr(owner, attr), name, attrs_fn))

    def __enter__(self):
        t = self.tracer
        self._span(cli, "build_state", "states.build")
        self._span(measurements, "sample_monomials", "measurements.sample_monomials")
        self._span(sensing, "observe_with_records", "sensing.observe")
        self._span(sensing, "born_probabilities", "measurements.born")
        self._span(sensing, "sample_record", "measurements.sample_record",
                   lambda a, k, rec: {"shots": rec.shots, "setting": rec.setting.axes})
        self._span(sensing, "expectation_from_record", "measurements.convert")
        self._span(sensing, "exact_expectation", "measurements.exact")
        self._span(sensing, "simulate_records", "baselines.simulate_records",
                   lambda a, k, recs: {"settings": len(recs)})

        smap = sensing.SensingMap
        ensure_cache = smap._ensure_cache
        build_span = t.wrap(ensure_cache, "sensing.cache_build",
                            lambda a, k, r: {"bytes": a[0]._src.nbytes + a[0]._sign.nbytes})

        def traced_ensure_cache(self):
            # Only the call that builds the cache gets a span.
            if self._src is not None:
                return ensure_cache(self)
            return build_span(self)

        self._patch(smap, "_ensure_cache", traced_ensure_cache)
        self._span(smap, "forward_range", "sensing.forward", _gather_attrs(1))
        self._span(smap, "adjoint_range", "sensing.adjoint", _gather_attrs(2))
        self._span(smap, "adjoint_times", "sensing.adjoint_times")
        self._span(smap, "residual_gradient_range", "sensing.gradient_range")
        self._span(smap, "residual_gradient", "sensing.gradient")
        self._span(synthetic.GaussianSensingMap, "residual_gradient_range", "synthetic.gradient_range")
        self._span(synthetic.GaussianSensingMap, "residual_gradient", "synthetic.gradient")

        run = optimizer.run
        run_span = t.wrap(run, "optimizer.run")

        def traced_run(sensing_map, y, config, target=None, gradient_fn=None):
            # The parallel engine hands its gradient closure to run(); its
            # span names the layer whose map the partials run on.
            if gradient_fn is not None:
                layer = "synthetic" if isinstance(sensing_map, synthetic.GaussianSensingMap) else "sensing"
                gradient_fn = t.wrap(gradient_fn, "parallel.gradient", lambda a, k, r: {"layer": layer})
            return run_span(sensing_map, y, config, target=target, gradient_fn=gradient_fn)

        self._patch(optimizer, "run", traced_run)
        self._span(optimizer, "spectral_init", "optimizer.spectral_init")
        self._span(optimizer, "compute_step_size", "optimizer.step_size")
        self._span(optimizer, "top_eigen", "linalg.top_eigen")
        self._span(optimizer, "operator_norm", "linalg.operator_norm")
        self._span(linalg, "operator_norm", "linalg.operator_norm")
        self._span(optimizer, "_target_metrics", "metrics.trace")
        self._span(optimizer, "frobenius_error", "metrics.frobenius_error")
        self._span(optimizer, "fidelity_rank1", "metrics.fidelity_rank1")
        self._span(parallel, "parallel_run", "parallel.run")
        self._span(baselines, "complete_expectations", "baselines.complete",
                   lambda a, k, samples: {"monomials": len(samples)})
        self._span(baselines, "pauli_linear_inversion", "baselines.inversion")
        self._span(baselines, "project_to_density", "baselines.projection")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# Per-layer metrics: name -> (unit, description).  Times and counts are per
# traced job, medians over the run's traced jobs, unless stated otherwise.
# A layer the workload does not reach reads 0.
LAYER_METRICS = {
    "states.build_s": ("s", "target state construction"),
    "measurements.sample_monomials_s": ("s", "monomial sampling"),
    "measurements.settings": ("count", "distinct settings with a simulated record"),
    "measurements.born_s": ("s", "Born-rule basis rotations"),
    "measurements.born_calls": ("count", "born_probabilities calls"),
    "measurements.sample_record_s": ("s", "shot sampling plus record validation"),
    "measurements.shots_drawn": ("count", "shots drawn over all records"),
    "measurements.convert_s": ("s", "counts-to-expectation conversion"),
    "measurements.convert_calls": ("count", "expectation_from_record calls"),
    "measurements.exact_s": ("s", "exact expectation values"),
    "sensing.observe_s": ("s", "observe_with_records, total"),
    "sensing.observe_self_s": ("s", "observe_with_records minus its measurement calls"),
    "sensing.first_call_s": ("s", "first call on a new map, lazy cache build included"),
    "sensing.gradient_calls": ("count", "residual gradient evaluations"),
    "sensing.gradient_s": ("s", "one residual gradient evaluation, median over calls"),
    "sensing.forward_calls": ("count", "forward_range calls"),
    "sensing.adjoint_calls": ("count", "adjoint_range calls"),
    "sensing.adjoint_s": ("s", "adjoint_range, total"),
    "sensing.bytes_gathered": ("B", "computed: factor, index and sign bytes read by forward/adjoint gathers"),
    "sensing.cache_bytes": ("B", "computed: permutation/sign cache size, m*d*5"),
    "optimizer.spectral_init_s": ("s", "spectral initialization"),
    "optimizer.step_size_s": ("s", "two-eigenvalue step-size rule"),
    "linalg.operator_norm_s": ("s", "operator_norm, total (calls inside top_eigen included)"),
    "linalg.top_eigen_s": ("s", "top_eigen, total"),
    "linalg.matvecs": ("count", "adjoint_times calls inside linalg spans"),
    "optimizer.run_s": ("s", "optimizer.run, total"),
    "optimizer.iterations_p50": ("count", "iterations to stop"),
    "optimizer.grad_share": ("1", "sum of gradient times / loop time"),
    "optimizer.loop_overhead_s": ("s", "loop time minus gradient time"),
    "metrics.trace_s": ("s", "per-iteration target metrics, total"),
    "metrics.calls": ("count", "frobenius_error + fidelity_rank1 calls for the trace"),
    "parallel.workers": ("count", "gradient workers"),
    "parallel.partials": ("count", "partial gradients computed by workers"),
    "parallel.partial_busy_s": ("s", "sum of partial gradient durations"),
    "parallel.imbalance": ("1", "longest / mean partial, median over gradients"),
    "parallel.barrier_wait_s": ("s", "sum over gradients of wall time minus longest partial"),
    "baselines.simulate_records_s": ("s", "all-settings record simulation"),
    "baselines.complete_s": ("s", "complete_expectations"),
    "baselines.inversion_s": ("s", "pauli_linear_inversion"),
    "baselines.projection_s": ("s", "project_to_density"),
    "baselines.settings": ("count", "records simulated for full tomography"),
    "baselines.monomials": ("count", "monomial expectations completed"),
    "synthetic.generate_s": ("s", "Gaussian instance generation, in set-up"),
    "synthetic.rows_bytes": ("B", "stored functional rows"),
    "synthetic.gradient_s": ("s", "one Gaussian gradient, median over calls"),
    "synthetic.gemv_bytes": ("B", "computed: 2 x row bytes per gradient"),
    "synthetic.gemv_gbps": ("GB/s", "computed: gemv_bytes / synthetic.gradient_s"),
    "synthetic.llc_bytes": ("B", "last-level cache size"),
    "trace.overhead_frac": ("1", "traced job_s_p50 / untraced job_s_p50 - 1"),
}


def _med(values, default=0.0):
    values = list(values)
    return float(median(values)) if values else default


class _JobSpans:
    """Spans of one job, indexed for the per-layer reductions."""

    def __init__(self, spans):
        self.by_id = dict(spans)
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for sid, s in spans:
            self.by_name[s[0]].append((sid, s))
            if s[3] is not None:
                self.children[s[3]].append(sid)

    def ancestors(self, sid):
        parent = self.by_id[sid][3]
        while parent is not None and parent in self.by_id:
            yield parent, self.by_id[parent]
            parent = self.by_id[parent][3]

    def outermost(self, name):
        """Spans of `name` not nested in another span of the same name."""
        return [(sid, s) for sid, s in self.by_name[name]
                if not any(a[0] == name for _, a in self.ancestors(sid))]

    def total(self, name):
        return sum(s[2] - s[1] for _, s in self.outermost(name))

    def count(self, name):
        return len(self.by_name[name])

    def attr_sum(self, name, key):
        return sum(s[5].get(key, 0) for _, s in self.by_name[name] if s[5])

    def gradients(self, layer):
        """Whole-gradient spans of a layer, serial or from the parallel engine."""
        return self.by_name[f"{layer}.gradient"] + [
            (sid, s) for sid, s in self.by_name["parallel.gradient"] if s[5] and s[5].get("layer") == layer
        ]


def layer_metrics(tracer: Tracer, jobs, overhead_frac: float, setup: dict) -> dict:
    """Reduce the traced jobs' spans to the LAYER_METRICS values.

    `jobs` are the traced jobs' results; `setup` carries the values taken
    at set-up (instance generation, row bytes, workers, LLC size).
    """
    per_job = defaultdict(list)
    for sid, s in enumerate(tracer.spans):
        if s is not None and s[4] is not None:
            per_job[s[4]].append((sid, s))
    rows = []
    for job in jobs:
        js = _JobSpans(per_job.get(job.index, []))
        row = {}
        row["states.build_s"] = js.total("states.build")
        row["measurements.sample_monomials_s"] = js.total("measurements.sample_monomials")
        row["measurements.settings"] = len({s[5].get("setting") for _, s in js.by_name["measurements.sample_record"] if s[5]})
        row["measurements.born_s"] = js.total("measurements.born")
        row["measurements.born_calls"] = js.count("measurements.born")
        row["measurements.sample_record_s"] = js.total("measurements.sample_record")
        row["measurements.shots_drawn"] = js.attr_sum("measurements.sample_record", "shots")
        row["measurements.convert_s"] = js.total("measurements.convert")
        row["measurements.convert_calls"] = js.count("measurements.convert")
        row["measurements.exact_s"] = js.total("measurements.exact")

        observe = js.outermost("sensing.observe")
        row["sensing.observe_s"] = sum(s[2] - s[1] for _, s in observe)
        row["sensing.observe_self_s"] = sum(
            (s[2] - s[1]) - sum(js.by_id[c][2] - js.by_id[c][1] for c in js.children[sid])
            for sid, s in observe
        )
        first = 0.0
        for sid, s in js.by_name["sensing.cache_build"]:
            outer = s
            for _, a in js.ancestors(sid):
                if a[0].startswith("sensing."):
                    outer = a
            first += outer[2] - outer[1]
        row["sensing.first_call_s"] = first
        grads = js.gradients("sensing")
        row["sensing.gradient_calls"] = len(grads)
        row["sensing.gradient_s"] = _med(s[2] - s[1] for _, s in grads)
        row["sensing.forward_calls"] = js.count("sensing.forward")
        row["sensing.adjoint_calls"] = js.count("sensing.adjoint")
        row["sensing.adjoint_s"] = js.total("sensing.adjoint")
        row["sensing.bytes_gathered"] = js.attr_sum("sensing.forward", "bytes") + js.attr_sum("sensing.adjoint", "bytes")
        row["sensing.cache_bytes"] = js.attr_sum("sensing.cache_build", "bytes")

        row["optimizer.spectral_init_s"] = js.total("optimizer.spectral_init")
        row["optimizer.step_size_s"] = js.total("optimizer.step_size")
        row["linalg.operator_norm_s"] = js.total("linalg.operator_norm")
        row["linalg.top_eigen_s"] = js.total("linalg.top_eigen")
        row["linalg.matvecs"] = sum(
            1 for sid, _ in js.by_name["sensing.adjoint_times"]
            if any(a[0].startswith("linalg.") for _, a in js.ancestors(sid))
        )
        row["optimizer.run_s"] = js.total("optimizer.run")
        row["optimizer.iterations_p50"] = job.iterations
        row["optimizer.grad_share"] = job.grad_time_s / job.loop_time_s if job.loop_time_s else 0.0
        row["optimizer.loop_overhead_s"] = job.loop_time_s - job.grad_time_s

        row["metrics.trace_s"] = js.total("metrics.trace")
        row["metrics.calls"] = sum(
            1 for name in ("metrics.frobenius_error", "metrics.fidelity_rank1")
            for sid, s in js.by_name[name]
            if s[3] is not None and js.by_id.get(s[3], ("",))[0] == "metrics.trace"
        )

        partial_count, busy, barrier, imbalance = 0, 0.0, 0.0, []
        for sid, s in js.by_name["parallel.gradient"]:
            parts = [js.by_id[c][2] - js.by_id[c][1] for c in js.children[sid]
                     if js.by_id[c][0].endswith(".gradient_range")]
            if not parts:
                continue
            partial_count += len(parts)
            busy += sum(parts)
            barrier += (s[2] - s[1]) - max(parts)
            imbalance.append(max(parts) / (sum(parts) / len(parts)))
        row["parallel.workers"] = setup["workers"]
        row["parallel.partials"] = partial_count
        row["parallel.partial_busy_s"] = busy
        row["parallel.imbalance"] = _med(imbalance)
        row["parallel.barrier_wait_s"] = barrier

        row["baselines.simulate_records_s"] = js.total("baselines.simulate_records")
        row["baselines.complete_s"] = js.total("baselines.complete")
        row["baselines.inversion_s"] = js.total("baselines.inversion")
        row["baselines.projection_s"] = js.total("baselines.projection")
        row["baselines.settings"] = js.attr_sum("baselines.simulate_records", "settings")
        row["baselines.monomials"] = js.attr_sum("baselines.complete", "monomials")

        row["synthetic.gradient_s"] = _med(s[2] - s[1] for _, s in js.gradients("synthetic"))
        rows.append(row)

    out = {name: _med(row[name] for row in rows) for name in rows[0]}
    out["synthetic.generate_s"] = setup["generate_s"]
    out["synthetic.rows_bytes"] = setup["rows_bytes"]
    gemv_bytes = 2 * setup["rows_bytes"] if out["synthetic.gradient_s"] else 0
    out["synthetic.gemv_bytes"] = gemv_bytes
    out["synthetic.gemv_gbps"] = gemv_bytes / out["synthetic.gradient_s"] / 1e9 if gemv_bytes else 0.0
    out["synthetic.llc_bytes"] = setup["llc_bytes"]
    out["trace.overhead_frac"] = overhead_frac
    return {name: {"value": out[name], "unit": LAYER_METRICS[name][0]} for name in LAYER_METRICS}
