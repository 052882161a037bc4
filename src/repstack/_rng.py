"""Counter-based deterministic randomness.

Draws are indexed, not sequential: draw k of stream s under seed z is a pure
function of (z, s, k).  This keeps every randomized construction reproducible
independent of iteration order, and lets exact samplers consume draws as
rationals with denominator 2**64.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

_SCALE = 1 << 64


@dataclass(frozen=True)
class CounterRng:
    """A source of 64-bit draws keyed by (seed, stream, counter)."""

    seed: int
    stream: int = 0

    def u64(self, counter: int) -> int:
        payload = f"{self.seed}:{self.stream}:{counter}".encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def unit_fraction(self, counter: int) -> Fraction:
        """An exact rational uniform on {0, 1/2^64, ..., (2^64-1)/2^64}."""
        return Fraction(self.u64(counter), _SCALE)

    def unit_float(self, counter: int) -> float:
        return self.u64(counter) / _SCALE
