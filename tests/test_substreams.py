"""Chunk seeding: the engine's generators are path_rng's substreams, bit for bit.

The engine seeds a chunk's generators at once by a port of numpy's
SeedSequence arithmetic; path_rng stays the definition.  This file imports
numpy and fakebm only, so it also runs on the numpy version pyproject.toml
names as the floor.
"""

import re

import numpy as np
import pytest

from fakebm.continuous_sim import _substreams, path_rng, simulate_marginal_samples
from fakebm.intervals import build_interval_system


def _assert_same_streams(rngs, seed, start):
    for i, rng in enumerate(rngs):
        ref = path_rng(seed, start + i)
        assert rng.bit_generator.state == ref.bit_generator.state, (seed, start + i)
        assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
        assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 1, 37, 2**32 - 1, 2**32, 2**70 + 3])
@pytest.mark.parametrize("start", [0, 256, 4096])
def test_chunk_generators_are_the_path_substreams(seed, start):
    _assert_same_streams(_substreams(seed, start, 256), seed, start)


@pytest.mark.parametrize("seed", [np.int64(37), np.uint64(2**64 - 1), True, 2**200 + 5])
def test_integer_seeds_of_any_type_and_width(seed):
    # numpy integers, a bool, and a seed longer than the pool of four words
    _assert_same_streams(_substreams(seed, 100, 16), seed, 100)


def test_indices_past_32_bits_and_sequence_seeds_take_path_rng():
    _assert_same_streams(_substreams(37, 2**32 - 2, 4), 37, 2**32 - 2)
    _assert_same_streams(_substreams([1, 2], 0, 4), [1, 2], 0)


@pytest.mark.parametrize("seed", [-1, -(2**40), np.int64(-3), 1.5, "7"])
def test_bad_seeds_raise_what_seed_sequence_raises(seed):
    with pytest.raises((TypeError, ValueError)) as ref:
        path_rng(seed, 0)
    with pytest.raises(type(ref.value), match=re.escape(str(ref.value))):
        _substreams(seed, 0, 4)
    with pytest.raises(type(ref.value)):
        simulate_marginal_samples(
            build_interval_system([(0.1, 0.4), (0.6, 0.9)]), (0.5,), 4, seed=seed, dt=1e-2
        )
