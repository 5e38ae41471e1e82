"""Deterministic RNG substreams derived from a single root seed.

Every stage of the pipeline (state construction, monomial sampling, shot
noise, the full counts of records completed on read, synthetic noise,
optimizer initialization, the eigensolver's start block) draws from its own
named substream, keyed by the root seed and the stage's fixed id only, so
any stage can be reproduced in isolation.  This table holds every key: no
other module passes a key list to default_rng.
Every scalar check is here: as_count for each count and seed (a bool, a
float, 3.0 included, a string or None is refused, never truncated) and
as_real for each real-valued parameter.  A caller's Generator is used as
it is; any other caller seed goes through as_count first.
"""

import numpy as np

# Fixed stream ids; renumbering would change every derived stream.
_STREAM_IDS = {
    "state": 0,
    "monomials": 1,
    "shots": 2,
    "noise": 3,
    "init": 4,
    "sensing": 5,
    "records": 6,
    "eigensolver": 0xB10C,
}


def as_count(value, name: str, low: int = 1) -> int:
    """value, a Python or numpy integer (not a bool) of at least low, as a
    plain int; anything else is a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def as_real(value, name: str, interval: str) -> float:
    """value, a finite Python or numpy int or float (not a bool) inside interval,
    such as "(0, inf)" or "[0, 1)", as a plain float, else a ValueError naming `name`."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else np.nan
    except OverflowError:  # an int beyond the float range
        x = np.nan
    low, high = (float(end) for end in interval[1:-1].split(","))
    inside = (low <= x if interval[0] == "[" else low < x) and (x <= high if interval[-1] == "]" else x < high)
    if not (inside and abs(x) < np.inf):
        raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")
    return x


def substream(seed: int, name: str) -> np.random.Generator:
    """np.random.default_rng([seed, id]) for the stage's fixed stream id;
    seed is an integer >= 0 (as_count), never truncated onto another's stream."""
    return np.random.default_rng([as_count(seed, "seed", 0), _STREAM_IDS[name]])
