import operator
import pathlib
import re

import numpy as np
import pytest

from paulitomo import OptimizerConfig, PureState, RandomCircuitSpec, SensingMap, SyntheticProblem
from paulitomo.linalg import operator_norm, top_eigen
from paulitomo.measurements import as_shots, monomial_codes, sample_codes
from paulitomo.optimizer import theoretical_mu
from paulitomo.seeding import _STREAM_IDS, substream
from paulitomo.states import ghz, hadamard_all

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
    [
        pytest.param(-1, "seed must be >= 0, got -1", id="negative-seed"),
        pytest.param(2.5, "seed must be an integer, got 2.5", id="float-seed"),
        pytest.param(np.float64(2.0), r"seed must be an integer, got (np.float64\()?2.0", id="numpy-float-seed"),
        pytest.param(True, "seed must be an integer, got True", id="bool-seed"),
        pytest.param("3", "seed must be an integer, got '3'", id="string-seed"),
        pytest.param(None, "seed must be an integer, got None", id="none-seed"),
    ],
)
def test_substream_refuses_negative_values(seed, match):
    with pytest.raises(ValueError, match=match):
        substream(seed, "shots")


def _diagonal(x):
    return np.arange(4.0, 0.0, -1.0)[:, None] * x


def _none(_):
    return None


_STATE = np.eye(4)[0]


@pytest.mark.parametrize(
    "make, read, name, valid",
    [
        # make(value) builds with the parameter set to value; read(result)
        # is the value as stored, or None where nothing keeps it.
        pytest.param(lambda v: substream(v, "shots"), _none, "seed", 2, id="substream-seed"),
        pytest.param(as_shots, lambda out: out, "shots", 4, id="as_shots-shots"),
        pytest.param(lambda v: monomial_codes([1], v), _none, "n", 2, id="monomial_codes-n"),
        pytest.param(lambda v: sample_codes(v, 3, 0), _none, "n", 2, id="sample_codes-n"),
        pytest.param(lambda v: sample_codes(2, v, 0), len, "m", 3, id="sample_codes-m"),
        pytest.param(lambda v: OptimizerConfig(rank=v), operator.attrgetter("rank"), "rank", 2, id="config-rank"),
        pytest.param(lambda v: OptimizerConfig(maxiters=v), operator.attrgetter("maxiters"), "maxiters", 5,
                     id="config-maxiters"),
        pytest.param(lambda v: OptimizerConfig(seed=v), operator.attrgetter("seed"), "seed", 2, id="config-seed"),
        pytest.param(theoretical_mu, _none, "rank", 2, id="theoretical_mu-r"),
        pytest.param(lambda v: PureState(v, _STATE), operator.attrgetter("n"), "n", 2, id="pure-state-n"),
        pytest.param(lambda v: RandomCircuitSpec(v, 2, 0), operator.attrgetter("n"), "n", 2, id="circuit-n"),
        pytest.param(lambda v: RandomCircuitSpec(2, v, 0), operator.attrgetter("depth"), "depth", 3,
                     id="circuit-depth"),
        pytest.param(lambda v: RandomCircuitSpec(2, 2, v), operator.attrgetter("seed"), "seed", 3, id="circuit-seed"),
        pytest.param(hadamard_all, operator.attrgetter("n"), "n", 2, id="hadamard_all-n"),
        pytest.param(ghz, operator.attrgetter("n"), "n", 3, id="ghz-n"),
        pytest.param(lambda v: SyntheticProblem(d=v, r=1, c=1), operator.attrgetter("d"), "d", 8, id="synthetic-d"),
        pytest.param(lambda v: SyntheticProblem(d=8, r=v, c=1), operator.attrgetter("r"), "r", 2, id="synthetic-r"),
        pytest.param(lambda v: SyntheticProblem(d=8, r=1, c=v), operator.attrgetter("c"), "c", 2, id="synthetic-c"),
        pytest.param(lambda v: SyntheticProblem(d=8, r=1, c=1, seed=v), operator.attrgetter("seed"), "seed", 2,
                     id="synthetic-seed"),
        pytest.param(lambda v: operator_norm(_diagonal, v), _none, "dim", 4, id="lanczos-dim"),
        pytest.param(lambda v: top_eigen(_diagonal, 4, v), _none, "k", 2, id="top_eigen-k"),
        pytest.param(lambda v: SensingMap(v, [1]), operator.attrgetter("n"), "n", 2, id="sensing-map-n"),
    ],
)
def test_counts_and_seeds_are_integers_never_truncated(make, read, name, valid):
    # A float (even a whole one), a bool or a string is refused by name;
    # a numpy integer is accepted and kept as a plain int.
    for bad in (float(valid), np.float64(valid) + 0.5, True, str(valid)):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            make(bad)
    stored = read(make(np.int64(valid)))
    if stored is not None:
        assert stored == valid and type(stored) is int


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
