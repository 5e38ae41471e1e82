"""Deterministic RNG substreams derived from a single root seed.

Every stage of the pipeline (state construction, monomial sampling, shot
noise, synthetic noise, optimizer initialization) draws from its own named
substream, keyed by the root seed and the stage's fixed id only, so any
stage can be reproduced in isolation.
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
}


def substream(seed: int, name: str) -> np.random.Generator:
    """Return the generator np.random.default_rng([seed, id]) of the named
    substream of `seed`, id being the stage's fixed stream id."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng([seed, _STREAM_IDS[name]])


def as_generator(seed) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
