"""JSON and CSV schemas for every file the CLI reads or writes.

Schemas:
  state        {"n": int, "amplitudes": [[re, im], ...]}
  records      {"version": 1, "n": int, "shots": int,
                "records": [{"setting": "zxx..", "counts": {"0110..": int}}]}
  expectations {"version": 1, "n": int, "normalized": bool,
                "items": [{"monomial": "IXXZ..", "value": float}]}
  result       {"config": {...}, "final_fidelity": float|null,
                "final_frobenius_error": float|null,
                "final_rho_trace": float, "iterations": int,
                "stop_reason": "reltol"|"maxiters", "eta": float, "mu": float,
                "trace": [{"iter", "change", "error", "fidelity", "time_s",
                           "grad_time_s"}], "factor": optional}
  calibration  {"n": int, "columns": [[float, ...], ...]}  (column-major)

Bit strings and monomial strings put qubit 0 first and exist only here:
in the library a record's counts are an integer array indexed by outcome
(the records file lists the nonzero entries) and monomials are codes.
"""

import csv
import json
from dataclasses import asdict

import numpy as np

from .baselines import CalibrationMatrix
from .measurements import MeasurementRecord, PauliMonomial, PauliSetting, monomial_from_code
from .optimizer import ConvergenceTrace, OptimizerConfig
from .sensing import ObservationVector, SensingMap
from .states import PureState


def _field(obj, kind: str, key: str, types):
    """obj[key] read from a `kind` file; a missing or mistyped field is a ValueError."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{kind} file has no {key!r} field")
    if not isinstance(obj[key], types):
        raise ValueError(f"{kind} file: {key!r} has the wrong type")
    return obj[key]


def floats_from_json(value, what: str) -> np.ndarray:
    """A JSON array of finite numbers as a float array; anything else is a ValueError."""
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError):
        out = None
    if not isinstance(value, list) or out is None or not np.all(np.isfinite(out)):
        raise ValueError(f"{what} must be a JSON array of finite numbers")
    return out


def _complex_pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def state_to_json(state: PureState) -> dict:
    return {"n": state.n, "amplitudes": _complex_pairs(state.amplitudes)}


def records_to_json(n: int, shots: int, records) -> dict:
    """Count arrays become {bit string: count} maps over the nonzero outcomes."""
    return {
        "version": 1,
        "n": n,
        "shots": shots,
        "records": [
            {
                "setting": r.setting.axes,
                "counts": {
                    format(j, f"0{r.setting.n}b"): int(r.counts[j])
                    for j in np.flatnonzero(r.counts)
                },
            }
            for r in records
        ],
    }


def _counts_from_json(counts: dict, n: int) -> np.ndarray:
    out = np.zeros(2**n, dtype=np.int64)
    for key, c in counts.items():
        if len(key) != n or any(ch not in "01" for ch in key):
            raise ValueError(f"outcome key {key!r} is not an {n}-bit string")
        out[int(key, 2)] = int(c)
    return out


def records_from_json(obj: dict) -> list:
    shots = int(obj["shots"])
    records = []
    for entry in obj["records"]:
        setting = PauliSetting(entry["setting"])
        counts = _counts_from_json(entry["counts"], setting.n)
        records.append(MeasurementRecord(setting=setting, shots=shots, counts=counts))
    return records


def expectations_to_json(sensing_map: SensingMap, values) -> dict:
    n = sensing_map.n
    return {
        "version": 1,
        "n": n,
        "normalized": bool(sensing_map.normalized),
        "items": [
            {"monomial": str(monomial_from_code(int(c), n)), "value": float(v)}
            for c, v in zip(sensing_map.codes, values)
        ],
    }


def expectations_from_json(obj: dict):
    """Returns (SensingMap, ObservationVector) rebuilt from the file."""
    n = _field(obj, "expectations", "n", int)
    items = _field(obj, "expectations", "items", list)
    labels = [_field(i, "expectations", "monomial", str) for i in items]
    for text in labels:
        if len(text) != n or set(text.upper()) - set("IXYZ"):
            raise ValueError(f"expectations file: monomial {text!r} is not {n} letters of IXYZ")
    monomials = [PauliMonomial.from_string(text) for text in labels]
    values = [_field(i, "expectations", "value", (int, float)) for i in items]
    normalized = _field(obj, "expectations", "normalized", bool)
    return SensingMap(n, monomials, normalized=normalized), ObservationVector(values)


def config_to_json(config: OptimizerConfig) -> dict:
    return asdict(config)


def factor_to_json(factor: np.ndarray) -> dict:
    factor = np.asarray(factor)
    if factor.ndim == 1:
        factor = factor[:, None]
    return {
        "rows": factor.shape[0],
        "cols": factor.shape[1],
        "columns": [_complex_pairs(factor[:, j]) for j in range(factor.shape[1])],
    }


def result_to_json(
    config: OptimizerConfig,
    trace: ConvergenceTrace,
    final_fidelity: float | None,
    final_frobenius_error: float | None,
    final_rho_trace: float,
    factor: np.ndarray | None = None,
) -> dict:
    """final_fidelity is that of U U^dagger / Tr(U U^dagger); the trace is final_rho_trace."""
    out = {
        "config": config_to_json(config),
        "final_fidelity": final_fidelity,
        "final_frobenius_error": final_frobenius_error,
        "final_rho_trace": final_rho_trace,
        "iterations": trace.iterations,
        "stop_reason": trace.stop_reason,
        "eta": trace.eta,
        "mu": trace.mu,
        "trace": [
            {
                "iter": rec.iteration,
                "change": rec.change,
                "error": rec.error,
                "fidelity": rec.fidelity,
                "time_s": rec.time_s,
                "grad_time_s": rec.grad_time_s,
            }
            for rec in trace
        ],
    }
    if factor is not None:
        out["factor"] = factor_to_json(factor)
    return out


def trace_to_csv(trace: ConvergenceTrace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "change", "error", "fidelity", "time_s"])
        for rec in trace:
            writer.writerow(
                [
                    rec.iteration,
                    rec.change,
                    "" if rec.error is None else rec.error,
                    "" if rec.fidelity is None else rec.fidelity,
                    rec.time_s,
                ]
            )


def calibration_from_json(obj: dict) -> CalibrationMatrix:
    columns = _field(obj, "calibration", "columns", list)
    return CalibrationMatrix(floats_from_json(columns, "calibration columns").T)


def save_json(obj: dict, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
