import pathlib
import re

import numpy as np
import pytest

from paulitomo.seeding import _STREAM_IDS, substream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 9]
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "paulitomo"


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


def test_stream_ids_are_pinned_and_distinct():
    # The eigensolver's start block has always been keyed [seed, 0xB10C];
    # renumbering it would move every spectral init and auto step size.
    assert _STREAM_IDS["eigensolver"] == 0xB10C
    assert len(set(_STREAM_IDS.values())) == len(_STREAM_IDS)


def test_only_seeding_passes_a_key_list_to_default_rng():
    # Every keyed stream is a row of _STREAM_IDS: no other module builds
    # default_rng([seed, id]) itself.
    key_list = re.compile(r"default_rng\(\s*\[")
    callers = [path.name for path in sorted(SRC.glob("*.py")) if key_list.search(path.read_text())]
    assert callers == ["seeding.py"]
