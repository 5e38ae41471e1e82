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

The records file is written for the user and never read back.  A result
file's final_fidelity and final_frobenius_error are the run's last trace
record.  Where a file gives a number, JSON true/false is refused.

Bit strings and monomial strings put qubit 0 first and exist only here:
in the library a record's counts are an integer array indexed by outcome
(the records file lists the nonzero entries) and monomials are codes.
"""

import csv
import json
import pathlib
from dataclasses import asdict

import numpy as np

from .baselines import CalibrationMatrix
from .measurements import _codes, _labels, _letters, _text_labels
from .metrics import as_factor
from .optimizer import ConvergenceTrace, OptimizerConfig
from .sensing import SensingMap
from .states import PureState


def _field(obj, kind: str, key: str, types):
    """obj[key] read from a `kind` file; a missing or mistyped field is a ValueError.

    JSON true/false read as Python bools, which are ints; they pass only
    when `types` is bool.
    """
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{kind} file has no {key!r} field")
    value = obj[key]
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ValueError(f"{kind} file: {key!r} has the wrong type")
    return value


def _has_bool(value) -> bool:
    if isinstance(value, list):
        return any(_has_bool(v) for v in value)
    return isinstance(value, bool)


def floats_from_json(value, what: str) -> np.ndarray:
    """A JSON array of finite numbers as a float array; anything else,
    true/false included, is a ValueError."""
    try:
        out = None if _has_bool(value) else np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out = None
    if not isinstance(value, list) or out is None or not np.all(np.isfinite(out)):
        raise ValueError(f"{what} must be a JSON array of finite numbers")
    return out


def _complex_pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def state_to_json(state: PureState) -> dict:
    return {"n": state.n, "amplitudes": _complex_pairs(state.amplitudes)}


def records_to_json(n: int, shots: int, records) -> dict:
    """Count arrays become {bit string: count} maps over the nonzero outcomes;
    the 2^n outcome strings are built once per file."""
    outcomes = np.array([format(j, f"0{n}b") for j in range(2**n)], dtype=object)

    def counts(c):
        nonzero = np.flatnonzero(c)
        return dict(zip(outcomes[nonzero].tolist(), c[nonzero].tolist()))

    return {
        "version": 1,
        "n": n,
        "shots": shots,
        "records": [{"setting": r.setting.axes, "counts": counts(r.counts)} for r in records],
    }


def expectations_to_json(sensing_map: SensingMap, values) -> dict:
    """The monomial strings are spelled from the map's codes as one byte array."""
    n = sensing_map.n
    monomials = _letters(_labels(sensing_map.codes, n))
    return {
        "version": 1,
        "n": n,
        "normalized": bool(sensing_map.normalized),
        "items": [
            {"monomial": text, "value": v}
            for text, v in zip(monomials, np.asarray(values, dtype=float).tolist())
        ],
    }


def expectations_from_json(obj: dict):
    """Returns (SensingMap, values) rebuilt from the file, values the float
    array of shape (m,) read by floats_from_json; the monomial strings are
    checked and encoded as one byte array."""
    n = _field(obj, "expectations", "n", int)
    if n < 1:
        raise ValueError(f"expectations file: qubit count must be positive, got {n}")
    items = _field(obj, "expectations", "items", list)
    if not items:
        raise ValueError("expectations file: 'items' must list one or more monomials")
    texts = [_field(i, "expectations", "monomial", str) for i in items]
    labels = _text_labels(texts, n)
    if labels is None:
        bad = next(t for t in texts if _text_labels([t], n) is None)
        raise ValueError(f"expectations file: monomial {bad!r} is not {n} letters of IXYZ")
    values = [_field(i, "expectations", "value", (int, float)) for i in items]
    values = floats_from_json(values, "observation values")
    normalized = _field(obj, "expectations", "normalized", bool)
    return SensingMap(n, _codes(labels), normalized=normalized), values


def factor_to_json(factor: np.ndarray) -> dict:
    factor = as_factor(factor)
    return {
        "rows": factor.shape[0],
        "cols": factor.shape[1],
        "columns": [_complex_pairs(factor[:, j]) for j in range(factor.shape[1])],
    }


def _trace_row(rec) -> dict:
    """A TraceRecord's fields in order, iteration named iter: one row of the
    result file's trace list, and of the CSV."""
    row = asdict(rec)
    return {"iter": row.pop("iteration"), **row}


def result_to_json(
    config: OptimizerConfig, trace: ConvergenceTrace, factor: np.ndarray, save_factor: bool = False
) -> dict:
    """The result file of a run that returned `factor` and `trace`.

    final_fidelity (that of U U^dagger / Tr(U U^dagger)) and
    final_frobenius_error are the last trace record's, null for a run
    without a target.  final_rho_trace is Tr(U U^dagger); the factor
    itself is written only when save_factor is set.
    """
    out = {
        "config": asdict(config),
        "final_fidelity": trace.final().fidelity,
        "final_frobenius_error": trace.final().error,
        "final_rho_trace": float(np.linalg.norm(factor) ** 2),
        "iterations": trace.iterations,
        "stop_reason": trace.stop_reason,
        "eta": trace.eta,
        "mu": trace.mu,
        "trace": [_trace_row(rec) for rec in trace],
    }
    if save_factor:
        out["factor"] = factor_to_json(factor)
    return out


def trace_to_csv(trace: ConvergenceTrace, path):
    """The trace rows without grad_time_s; a missing error or fidelity is an empty cell."""
    with open(path, "w", newline="") as fh:
        columns = ["iter", "change", "error", "fidelity", "time_s"]
        writer = csv.DictWriter(fh, columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(_trace_row(rec) for rec in trace)


def calibration_from_json(obj: dict) -> CalibrationMatrix:
    columns = _field(obj, "calibration", "columns", list)
    return CalibrationMatrix(floats_from_json(columns, "calibration columns").T)


def save_json(obj: dict, path):
    """Encode obj first, so a failed encoding leaves an existing file intact."""
    pathlib.Path(path).write_text(json.dumps(obj, indent=1) + "\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
