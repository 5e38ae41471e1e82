"""Deterministic RNG substreams derived from a single root seed.

Every stage of the pipeline (state construction, monomial sampling, shot
noise, synthetic noise, optimizer initialization) draws from its own named
substream so any stage can be reproduced in isolation.
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


def _words(value: int, what: str) -> list:
    """A non-negative int's little-endian 32-bit words, at least one: the
    words numpy's SeedSequence makes from it as one entry of a list."""
    value = int(value)
    if value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value}")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def substream(seed: int, name: str, index: int | None = None) -> np.random.Generator:
    """Return a generator for the named substream of `seed`.

    `index` distinguishes parallel streams within one stage.  The
    generator is np.random.default_rng([seed, id] + [index]), built from
    the uint32 words numpy would coerce that list to, passed as one array.
    """
    words = _words(seed, "seed") + [_STREAM_IDS[name]]
    if index is not None:
        words += _words(index, "substream index")
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def as_generator(seed) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
