"""Chunk seeding: the engine's generators are path_rng's substreams, bit for bit.

The engine seeds a chunk's generators at once by a port of numpy's
SeedSequence arithmetic; path_rng stays the definition.  This file imports
numpy and fakebm only, so it also runs on the numpy version pyproject.toml
names as the floor, and it pins a small digest of RNG stream layout 2 there.
"""

import hashlib
import re

import numpy as np
import pytest

from fakebm.continuous_sim import (
    RNG_LAYOUT,
    _substreams,
    path_rng,
    simulate_exp_marginal_samples,
    simulate_marginal_samples,
)
from fakebm.intervals import build_interval_system


def _same_state(a, b) -> bool:
    # SFC64's state dict holds its four words in a numpy array
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


def _assert_same_streams(rngs, seed, start, bridge=False):
    for i, rng in enumerate(rngs):
        ref = path_rng(seed, start + i, bridge)
        assert _same_state(rng.bit_generator.state, ref.bit_generator.state), (seed, start + i)
        assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
        assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 1, 37, 2**32 - 1, 2**32, 2**70 + 3])
@pytest.mark.parametrize("start", [0, 256, 4096])
def test_chunk_generators_are_the_path_substreams(seed, start):
    _assert_same_streams(_substreams(seed, start, 256), seed, start)


@pytest.mark.parametrize("seed", [0, 37, 2**70 + 3])
@pytest.mark.parametrize("start", [0, 4096])
def test_chunk_bridge_generators_are_the_bridge_substreams(seed, start):
    # spawn key (i, 0): the second key word is mixed into the pool as well
    _assert_same_streams(_substreams(seed, start, 256, bridge=True), seed, start, bridge=True)


def test_state_compare_sees_one_word():
    state = path_rng(5, 0).bit_generator.state
    other = path_rng(5, 1).bit_generator.state
    assert state["bit_generator"] == "SFC64"
    assert _same_state(state, path_rng(5, 0).bit_generator.state)
    assert not _same_state(state, other)
    bridge = path_rng(5, 0, bridge=True).bit_generator.state
    assert not _same_state(state, bridge)


@pytest.mark.parametrize("seed", [np.int64(37), np.uint64(2**64 - 1), True, 2**200 + 5])
def test_integer_seeds_of_any_type_and_width(seed):
    # numpy integers, a bool, and a seed longer than the pool of four words
    _assert_same_streams(_substreams(seed, 100, 16), seed, 100)


def test_indices_past_32_bits_and_sequence_seeds_take_path_rng():
    _assert_same_streams(_substreams(37, 2**32 - 2, 4), 37, 2**32 - 2)
    _assert_same_streams(_substreams([1, 2], 0, 4), [1, 2], 0)
    _assert_same_streams(_substreams([1, 2], 0, 4, bridge=True), [1, 2], 0, bridge=True)


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


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# RNG stream layout 2 at a few dozen paths: one Gaussian run and one
# exponential run with a time before t1, which reads the bridge substream:
# digests of values, frozen flags and switch times.  The Gaussian values are
# sums of the stream's normals and are pinned bit for bit.  Switch times and
# the exponential values pass through np.exp and np.log, whose last bit may
# differ between numpy builds and CPUs, so they are pinned to 9 decimals.
LAYOUT_2 = {
    "gaussian": (
        lambda: simulate_marginal_samples(
            build_interval_system([(0.1, 0.4), (0.6, 0.9)]), (0.3, 0.8), 64, seed=41, dt=1e-3
        ),
        ("1cfd411794afa900", "63f0ec4881fcd73f", "86aa7432953bf9b8"),
    ),
    "exp": (
        lambda: simulate_exp_marginal_samples(
            (0.6, 1.1, 0.5, 1.0), [(0.7, 0.8), (0.9, 1.0)], (0.3, 0.6, 0.9), 64, seed=99, dt=2e-3
        ),
        ("a214722ad2fb2f4b", "a8f4cbf818947733", "143fe9a1668372e3"),
    ),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_2))
def test_layout_2_digest(name):
    run, digests = LAYOUT_2[name]
    res = run()
    values = res.values if name == "gaussian" else np.round(res.values, 9)
    fields = (values, res.frozen, np.round(res.switch_times, 9))
    assert RNG_LAYOUT == 2
    assert tuple(_digest(f) for f in fields) == digests
