import numpy as np
import pytest

from paulitomo.seeding import _STREAM_IDS, substream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 9]
INDICES = [None, 0, 1, 2**32 - 1, 2**32, 2**33 + 1]


@pytest.mark.parametrize("name", sorted(_STREAM_IDS))
def test_substream_matches_default_rng_of_the_key_list(name):
    # numpy's own coercion of [seed, id] + [index] is the reference, across
    # the 32-bit word boundaries of both seed and index.
    for seed in SEEDS:
        for index in INDICES:
            key = [seed, _STREAM_IDS[name]] + ([] if index is None else [index])
            expected = np.random.default_rng(key).random(5)
            assert np.array_equal(substream(seed, name, index).random(5), expected), (seed, index)


@pytest.mark.parametrize(
    "seed, index, match",
    [
        pytest.param(-1, None, "seed must be a non-negative integer, got -1", id="negative-seed"),
        pytest.param(3, -2, "substream index must be a non-negative integer, got -2", id="negative-index"),
    ],
)
def test_substream_refuses_negative_values(seed, index, match):
    with pytest.raises(ValueError, match=match):
        substream(seed, "shots", index)
