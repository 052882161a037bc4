"""Counter-based deterministic randomness.

Draws are indexed, not sequential: draw k of stream s under seed z is a pure
function of (z, s, k).  This keeps every randomized construction reproducible
independent of iteration order.  Exact samplers read each draw as an integer
u in [0, 2**64) and compare it with integer thresholds
(`core.draw_thresholds`), never as a rational.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_SCALE = 1 << 64


@dataclass(frozen=True)
class CounterRng:
    """A source of 64-bit draws keyed by (seed, stream, counter)."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        # Hash the fixed "seed:stream:" prefix once; each draw copies it.  Not
        # a field: equality, hashing and repr ignore it.
        prefix = hashlib.blake2b(f"{self.seed}:{self.stream}:".encode(), digest_size=8)
        object.__setattr__(self, "_prefix", prefix)

    def u64(self, counter: int) -> int:
        digest = self._prefix.copy()
        digest.update(str(counter).encode())
        return int.from_bytes(digest.digest(), "big")

    def unit_float(self, counter: int) -> float:
        return self.u64(counter) / _SCALE
