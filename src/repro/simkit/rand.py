"""Deterministic random-number streams for reproducible simulations.

Every experiment run takes a single integer seed.  Components (producers,
consumers, links, brokers, proxies) derive their own independent streams from
that seed and a stable component name, so adding or removing one component
never perturbs the random draws of the others.  This is what makes the
figure-regeneration benches reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomStreams", "BatchedUniform", "derive_seed"]


def derive_seed(root_seed: int, *names: str | int) -> int:
    """Derive a 63-bit child seed from a root seed and a component path.

    The derivation hashes the textual path so it is stable across Python
    versions and process invocations (unlike ``hash()``).
    """
    key = ":".join([str(root_seed), *map(str, names)]).encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


class BatchedUniform:
    """Amortised uniform draws from one shared :class:`numpy.random.Generator`.

    Scalar ``Generator.uniform`` calls cost microseconds each; drawing raw
    unit doubles in batches and scaling them is an order of magnitude
    cheaper per draw.  ``uniform(low, high)`` returns bit-identical values
    in the same global order as scalar calls on the wrapped generator
    (``low + (high - low) * next_double`` is exactly numpy's computation),
    so components sharing one stream — e.g. every link's jitter draw —
    can batch without perturbing reproducibility.
    """

    __slots__ = ("_rng", "_batch", "_buf", "_idx")

    def __init__(self, rng: np.random.Generator, batch: int = 512) -> None:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self._rng = rng
        self._batch = int(batch)
        self._buf: np.ndarray = np.empty(0)
        self._idx = 0

    def uniform(self, low: float, high: float) -> float:
        """One sample from ``U[low, high)``, refilling the batch as needed."""
        idx = self._idx
        buf = self._buf
        if idx >= len(buf):
            buf = self._buf = self._rng.random(size=self._batch)
            idx = 0
        self._idx = idx + 1
        return low + (high - low) * buf[idx]


class RandomStreams:
    """Factory of named, independent :class:`numpy.random.Generator` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: dict[tuple, np.random.Generator] = {}

    def stream(self, *names: str | int) -> np.random.Generator:
        """Return (and cache) the generator for a component path."""
        key = tuple(names)
        gen = self._streams.get(key)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.root_seed, *names))
            self._streams[key] = gen
        return gen

    def uniform(self, low: float, high: float, *names: str | int) -> float:
        return float(self.stream(*names).uniform(low, high))

    def exponential(self, mean: float, *names: str | int) -> float:
        return float(self.stream(*names).exponential(mean))

    def normal(self, mean: float, std: float, *names: str | int) -> float:
        return float(self.stream(*names).normal(mean, std))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RandomStreams root_seed={self.root_seed}>"
