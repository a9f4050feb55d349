"""Reproducible random-number stream management.

Each stochastic element of the simulation (every stream's arrival process,
the scheduler's tie-breaking) draws from its own
independent NumPy ``Generator``, derived from a single master seed via
``SeedSequence.spawn``-style keying.  This gives

- bitwise-reproducible runs for a given master seed,
- *common random numbers* across policy comparisons: two simulations that
  differ only in scheduling policy see identical arrival processes, which
  dramatically sharpens delay-difference estimates (a standard variance
  reduction in simulation studies of this era).

A substream is ``PCG64`` seeded from ``SeedSequence(material)``, where
``material`` is the master seed followed by a stable hash of each key
part.  Deriving those seed words costs about 10 µs, so a short run's nine
substreams would spend more on seeding than on its event loop; the
derivation is a pure function of ``(master_seed, key)``, so
:func:`_seed_words` memoizes the words (not the generators) process-wide.
Every :meth:`RandomStreams.get` still builds a fresh ``Generator`` from a
copy of them, with a bit-generator state identical to
``default_rng(SeedSequence(material))``'s, so no generator state is
shared between runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RandomStreams"]


@lru_cache(maxsize=4096, typed=True)
def _seed_words(master_seed: int, *key: object) -> np.ndarray:
    """The four ``uint64`` words ``PCG64`` draws from the substream's
    ``SeedSequence`` (read-only; callers copy).  ``typed`` keeps key parts
    that compare equal but hash to different material apart (``3`` is an
    int part, ``3.0`` a string part)."""
    material = [master_seed]
    for part in key:
        if isinstance(part, (int, np.integer)):
            material.append(int(part) & 0x7FFFFFFF)
        else:
            # Stable string hashing (Python's hash() is salted).
            h = 0
            for ch in str(part):
                h = (h * 1000003 + ord(ch)) & 0x7FFFFFFF
            material.append(h)
    words = np.random.SeedSequence(material).generate_state(4, np.uint64)
    words.flags.writeable = False
    return words


class _SeedWords(ISeedSequence):
    """A seed sequence that replays memoized seed words: what ``PCG64``
    asks its seed sequence for (``generate_state(4, np.uint64)``).  Module
    level so a seeded bit generator, which keeps its seed sequence,
    pickles."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words.copy()


class RandomStreams:
    """Named, independent RNG substreams under one master seed.

    ``streams.get("arrivals", stream_id)`` always returns the same
    generator state for the same master seed and key, independent of the
    order in which other substreams were requested.
    """

    def __init__(self, master_seed: int) -> None:
        if not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative int, got {master_seed!r}")
        self.master_seed = int(master_seed)
        self._cache: Dict[Tuple[object, ...], np.random.Generator] = {}

    def get(self, *key: object) -> np.random.Generator:
        """Generator for a hashable key (created on first use, cached)."""
        rng = self._cache.get(key)
        if rng is None:
            words = _seed_words(self.master_seed, *key)
            rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
            self._cache[key] = rng
        return rng

    def arrivals(self, stream_id: int) -> np.random.Generator:
        """Arrival-process substream for one traffic stream."""
        return self.get("arrivals", stream_id)

    @property
    def scheduling(self) -> np.random.Generator:
        """Substream for scheduler tie-breaking."""
        return self.get("scheduling")
