"""Deterministic RNG substreams derived from a single root seed.

Every stage of the pipeline (state construction, monomial sampling, shot
noise, synthetic noise, optimizer initialization, the eigensolver's start
block) draws from its own named substream, keyed by the root seed and the
stage's fixed id only, so any stage can be reproduced in isolation.  This
table holds every key: no other module passes a key list to default_rng.
Functions that take a caller's seed or Generator hand it to
np.random.default_rng, which returns a Generator unaltered.  as_count is
the one check of every count and seed in the package: a bool, a float
(3.0 included), a string or None is refused, never truncated.
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


def substream(seed: int, name: str) -> np.random.Generator:
    """np.random.default_rng([seed, id]) for the stage's fixed stream id;
    seed is an integer >= 0 (as_count), never truncated onto another's stream."""
    return np.random.default_rng([as_count(seed, "seed", 0), _STREAM_IDS[name]])
