"""Seeded random number generation.

Every stochastic choice in the toolkit (weight init, dataset shuffles,
perturbation masks) flows through :class:`Rng`, a numpy ``Generator`` over
the PCG64 bit generator.  PCG64 streams are documented and
platform-independent, so a run is reproducible from its seed alone.

Derived streams are obtained with :meth:`Rng.child`, which folds a string
label into the seed material via SHA-256.  Children with the same
(seed, label) pair are identical; children with different labels are
statistically independent.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_entropy(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng(np.random.Generator):
    """Deterministic generator keyed by a 64-bit seed."""

    def __init__(self, seed: int, _entropy: tuple[int, ...] = ()):
        if seed < 0 or seed >= 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        super().__init__(np.random.PCG64(np.random.SeedSequence((seed, *_entropy))))
        self.seed = seed
        self._entropy = _entropy

    def child(self, label: str) -> "Rng":
        """Split off an independent stream named by ``label``."""
        return Rng(self.seed, (*self._entropy, _label_entropy(label)))
