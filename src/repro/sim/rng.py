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
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["RandomStreams"]


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
        if key not in self._cache:
            # Key the child off (master_seed, stable hash of key parts).
            material = [self.master_seed]
            for part in key:
                if isinstance(part, (int, np.integer)):
                    material.append(int(part) & 0x7FFFFFFF)
                else:
                    # Stable string hashing (Python's hash() is salted).
                    h = 0
                    for ch in str(part):
                        h = (h * 1000003 + ord(ch)) & 0x7FFFFFFF
                    material.append(h)
            self._cache[key] = np.random.default_rng(np.random.SeedSequence(material))
        return self._cache[key]

    def arrivals(self, stream_id: int) -> np.random.Generator:
        """Arrival-process substream for one traffic stream."""
        return self.get("arrivals", stream_id)

    @property
    def scheduling(self) -> np.random.Generator:
        """Substream for scheduler tie-breaking."""
        return self.get("scheduling")
