"""Deterministic 64-bit random stream (splitmix64).

All randomized operations in the toolkit draw from this generator so that a
seed pins the full output byte-for-byte, independent of platform or Python
version.  The algorithm is the splitmix64 step function: state advances by the
constant 0x9E3779B97F4A7C15 and the output is a xor-shift-multiply mix of the
new state.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class Rng:
    def __init__(self, seed: int):
        self._state = seed & _MASK
        self.seed = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        # 53-bit mantissa, uniform in [0, 1)
        return (self.next_u64() >> 11) / float(1 << 53)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection-free scaling by multiply-shift."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return (self.next_u64() * n) >> 64

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
