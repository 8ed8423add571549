"""Clip seeds and Generators derived for every clip at once, against
NumPy's own SeedSequence and `default_rng`.

`datagen._seed_sequence_state` runs SeedSequence's integer hash over the
columns of an (L, n) array of 32-bit entropy words. A clip's seed is two of
its output words ([master, stream, task, index] hashed), and its Generator
is PCG64 seeded with eight output words of the seed's own [low, high]
words. Every seed, Generator state and draw must equal NumPy's bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.random.bit_generator import ISeedSequence

import helpers
from rewardlab import datagen as dg, simworld as sw
from rewardlab.config import ExperimentConfig

# a master of 1, 2 and 3 words: 2**64 + 5 puts six words in the entropy,
# more than SeedSequence's pool of four
MASTERS = [0, 2**32 - 1, 2**32, 2**64 + 5]
INDICES = [0, 2**32 - 1]


def clip_seeds(master, streams, tasks, indices):
    """Clip seeds (n,) uint64 of the one-pass hash."""
    return dg._uint64(dg._seed_sequence_state(dg._entropy(master, streams, tasks, indices), 2))[0]


@pytest.mark.parametrize("master", MASTERS)
def test_clip_seeds_equal_numpys(master):
    streams, tasks, indices = zip(*[(stream, task, index) for stream in dg._CLIP_STREAMS.values()
                                    for task in (0, sw.TASK_POKE_CUP) for index in INDICES])
    got = clip_seeds(master, streams, tasks, indices).tolist()
    want = [helpers.ref_clip_seed(master, *entry) for entry in zip(streams, tasks, indices)]
    assert got == want


@pytest.mark.parametrize("master", MASTERS)
def test_entropy_generators_equal_default_rng(master):
    """domain_shift_cosine's pairs: Generators of [master, 99, task, i]."""
    tasks, indices = [0, 3, 6], [0, 1, 2**32 - 1]
    words = dg._pcg64_words(dg._entropy(master, [99] * 3, tasks, indices))
    for row, task, index in zip(words, tasks, indices):
        want = np.random.default_rng([master, 99, task, index])
        got = dg._generator(row)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(5).tobytes() == want.random(5).tobytes()


def test_seed_generators_equal_default_rng():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    words = dg._seed_pcg64_words(np.array(seeds, dtype=np.uint64))
    for row, seed in zip(words, seeds):
        want = np.random.default_rng(seed)
        got = dg._generator(row)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(5).tobytes() == want.random(5).tobytes()


@settings(max_examples=150, deadline=None)
@given(entropy=st.integers(1, 9).flatmap(lambda words: arrays(
           np.uint32, st.tuples(st.just(words), st.integers(1, 4)))),
       n_words=st.integers(1, 12))
def test_seed_sequence_state_equals_numpys(entropy, n_words):
    got = dg._seed_sequence_state(entropy, n_words)
    assert got.dtype == np.uint32 and got.shape == (n_words, entropy.shape[1])
    for column, want_column in zip(got.T, entropy.T):
        want = np.random.SeedSequence(want_column.tolist()).generate_state(n_words)
        assert column.tolist() == want.tolist()


def test_a_default_dataset_builds_no_seed_sequence(monkeypatch):
    """Every SeedSequence that NumPy would build for datagen: one per
    `np.random.SeedSequence` call, per `default_rng` of anything but a
    Generator or a BitGenerator, and per PCG64 seeded without a seed
    sequence. A default dataset makes none; the counter does see the two
    Generators that `roll_groups` builds from integer seeds."""
    made = []

    def counted(make, builds_one):
        def call(*args, **kwargs):
            made.extend([make] * builds_one(*args, **kwargs))
            return make(*args, **kwargs)
        return call

    monkeypatch.setattr(np.random, "SeedSequence", counted(np.random.SeedSequence, lambda *a, **k: True))
    monkeypatch.setattr(np.random, "default_rng", counted(
        np.random.default_rng,
        lambda seed=None: not isinstance(seed, (np.random.Generator, np.random.BitGenerator))))
    monkeypatch.setattr(np.random, "PCG64", counted(
        np.random.PCG64, lambda seed=None: not isinstance(seed, ISeedSequence)))
    dg.gen_dataset(ExperimentConfig())
    assert made == []
    dg.roll_groups([(sw.TASK_FAUCET, "success", [0, 1])])
    assert len(made) == 2
