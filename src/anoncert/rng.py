"""Random sources: OS entropy for real use, a splittable seeded DRBG for tests.

Every operation in the toolkit that needs randomness takes an explicit
RandomSource, so seeded runs are reproducible regardless of call order
elsewhere in the process.
"""

from __future__ import annotations

import hashlib
import os
from typing import Protocol

from .errors import RngFailure


class RandomSource(Protocol):
    def read(self, n: int) -> bytes: ...


class SystemRng:
    """os.urandom-backed source."""

    def read(self, n: int) -> bytes:
        return os.urandom(n)


class DeterministicRng:
    """SHA-256 counter-mode generator over a byte seed.

    `split(label)` derives an independent child stream, so concurrently
    running actors each own a stream and interleaving cannot perturb
    the values any one of them draws.
    """

    def __init__(self, seed: bytes | int):
        if isinstance(seed, int):
            seed = seed.to_bytes(8, "big", signed=False)
        self._key = hashlib.sha256(b"anoncert-drbg-v1" + seed).digest()
        self._counter = 0
        self._buf = b""

    def split(self, label: str) -> "DeterministicRng":
        child = DeterministicRng(self._key + label.encode())
        return child

    def read(self, n: int) -> bytes:
        while len(self._buf) < n:
            block = hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out


def random_int_in_range(rng: RandomSource, upper: int) -> int:
    """Uniform integer in [1, upper-1] by rejection sampling."""
    nbytes = (upper.bit_length() + 7) // 8
    for _ in range(256):
        candidate = int.from_bytes(rng.read(nbytes), "big")
        if 1 <= candidate <= upper - 1:
            return candidate
    raise RngFailure("rejection sampling did not converge")
