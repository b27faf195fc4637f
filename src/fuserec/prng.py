"""Seeded splitmix64 PRNG so sampling decisions are bit-reproducible.

splitmix64 is counter-based: its k-th output is mix(seed + k * GAMMA). So the
stream computes BLOCK outputs at a time in one numpy uint64 pass and serves
its draws from that list; `state` is still the counter after the last value
read, and assigning it resumes the stream from there.
"""

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
BLOCK = 256
_STEPS = np.arange(1, BLOCK + 1, dtype=np.uint64) * np.uint64(GAMMA)  # k * GAMMA, k = 1..BLOCK


class SplitMix64:
    """splitmix64 stream; every sampling decision in the pipeline runs off one of these."""

    def __init__(self, seed: int):
        self.state = seed

    @property
    def state(self) -> int:
        # _base is the counter before the block in _buf; _buf holds its unread outputs, last first
        return (self._base + (BLOCK - len(self._buf)) * GAMMA) & MASK64

    @state.setter
    def state(self, value: int) -> None:
        self._base = (value - BLOCK * GAMMA) & MASK64
        self._buf: list[int] = []

    def next_u64(self) -> int:
        buf = self._buf
        if not buf:
            self._base = (self._base + BLOCK * GAMMA) & MASK64
            z = np.uint64(self._base) + _STEPS  # uint64 arithmetic wraps mod 2**64
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            buf.extend((z ^ (z >> np.uint64(31)))[::-1].tolist())
        return buf.pop()

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of entropy."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, items: list, k: int) -> list:
        pool = list(items)
        self.shuffle(pool)
        return pool[:k]

    def fork(self, salt: int) -> "SplitMix64":
        """Child stream decorrelated from this one; used to key per-task streams."""
        return SplitMix64(self.next_u64() ^ (salt * GAMMA))
