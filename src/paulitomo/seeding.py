"""Deterministic RNG substreams derived from a single root seed.

Every stage of the pipeline (state construction, monomial sampling, shot
noise, synthetic noise, optimizer initialization, the eigensolver's start
block) draws from its own named substream, keyed by the root seed and the
stage's fixed id only, so any stage can be reproduced in isolation.  This
table holds every key: no other module passes a key list to default_rng.
Functions that take a caller's seed or Generator hand it to
np.random.default_rng, which returns a Generator unaltered.
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


def substream(seed: int, name: str) -> np.random.Generator:
    """Return the generator np.random.default_rng([seed, id]) of the named
    substream of `seed`, id being the stage's fixed stream id."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng([seed, _STREAM_IDS[name]])
