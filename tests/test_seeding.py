import numpy as np
import pytest

from paulitomo.seeding import _STREAM_IDS, substream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 9]


@pytest.mark.parametrize("name", sorted(_STREAM_IDS))
def test_substream_matches_default_rng_of_the_key_list(name):
    # numpy's own coercion of [seed, id] is the reference, across the
    # 32-bit word boundaries of the seed.
    for seed in SEEDS:
        expected = np.random.default_rng([seed, _STREAM_IDS[name]]).random(5)
        assert np.array_equal(substream(seed, name).random(5), expected), seed


@pytest.mark.parametrize(
    "seed, match",
    [pytest.param(-1, "seed must be a non-negative integer, got -1", id="negative-seed")],
)
def test_substream_refuses_negative_values(seed, match):
    with pytest.raises(ValueError, match=match):
        substream(seed, "shots")
