"""Tests for reproducible RNG stream management."""

import pickle

import numpy as np
import pytest

from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_streams(self):
        a = RandomStreams(42).arrivals(3).random(10)
        b = RandomStreams(42).arrivals(3).random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).arrivals(0).random(10)
        b = RandomStreams(2).arrivals(0).random(10)
        assert not np.array_equal(a, b)

    def test_different_keys_independent(self):
        rs = RandomStreams(42)
        a = rs.arrivals(0).random(10)
        b = rs.arrivals(1).random(10)
        assert not np.array_equal(a, b)

    def test_key_order_does_not_matter(self):
        rs1 = RandomStreams(7)
        _ = rs1.scheduling  # request scheduling first
        a = rs1.arrivals(5).random(5)
        rs2 = RandomStreams(7)
        b = rs2.arrivals(5).random(5)  # request arrivals first
        assert np.array_equal(a, b)

    def test_generator_cached(self):
        rs = RandomStreams(1)
        assert rs.arrivals(0) is rs.arrivals(0)
        assert rs.scheduling is rs.scheduling

    def test_string_keys_stable(self):
        a = RandomStreams(9).get("custom", "key").random(4)
        b = RandomStreams(9).get("custom", "key").random(4)
        assert np.array_equal(a, b)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RandomStreams(-1)
        with pytest.raises(ValueError):
            RandomStreams("seed")


def reference_generator(master_seed, *key):
    """A substream as first derived: ``default_rng(SeedSequence(material))``
    over the master seed and the stable hash of each key part."""
    material = [master_seed]
    for part in key:
        if isinstance(part, (int, np.integer)):
            material.append(int(part) & 0x7FFFFFFF)
        else:
            h = 0
            for ch in str(part):
                h = (h * 1000003 + ord(ch)) & 0x7FFFFFFF
            material.append(h)
    return np.random.default_rng(np.random.SeedSequence(material))


class TestSeedDerivation:
    """The memoized seed words give every substream the state the direct
    ``SeedSequence`` derivation gives, and no generator is shared."""

    KEYS = [
        ("arrivals", 0),
        ("arrivals", 7),
        ("arrivals", np.int64(3)),
        ("arrivals", np.int64(2**40 + 5)),
        ("scheduling",),
        ("sessions",),
        ("custom", "key"),
        ("custom", 3.0),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**40])
    @pytest.mark.parametrize("key", KEYS, ids=repr)
    def test_state_equals_seed_sequence(self, seed, key):
        # Twice: the second call is served from the memo.
        for _ in range(2):
            got = RandomStreams(seed).get(*key)
            assert got.bit_generator.state == \
                reference_generator(seed, *key).bit_generator.state

    def test_equal_keys_of_other_types_keep_their_material(self):
        # 3 is an int part and 3.0 a string part ("3.0"): equal as keys,
        # different seeds, so the process-wide memo must keep them apart.
        for key in [("custom", 3), ("custom", 3.0), ("custom", True)]:
            assert RandomStreams(5).get(*key).bit_generator.state == \
                reference_generator(5, *key).bit_generator.state

    def test_numpy_seed_accepted(self):
        a = RandomStreams(np.int64(11)).arrivals(2)
        assert a.bit_generator.state == \
            reference_generator(11, "arrivals", 2).bit_generator.state

    def test_same_seed_streams_are_distinct_objects(self):
        a = RandomStreams(42).arrivals(1)
        b = RandomStreams(42).arrivals(1)
        assert a is not b
        assert a.bit_generator is not b.bit_generator
        before = b.bit_generator.state
        a.random(100)
        assert b.bit_generator.state == before
        assert np.array_equal(b.random(5),
                              reference_generator(42, "arrivals", 1).random(5))

    def test_substream_pickles_with_its_state(self):
        rng = RandomStreams(9).arrivals(4)
        rng.random(17)
        clone = pickle.loads(pickle.dumps(rng))
        assert clone.bit_generator.state == rng.bit_generator.state
        assert np.array_equal(clone.random(8), rng.random(8))
