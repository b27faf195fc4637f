"""Seeded splitmix64 PRNG so sampling decisions are bit-reproducible."""

MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; every sampling decision in the pipeline runs off one of these."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64

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
        return SplitMix64(self.next_u64() ^ (salt * 0x9E3779B97F4A7C15))
