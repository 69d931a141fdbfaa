"""Self-contained deterministic random number generation.

Everything in the package that needs randomness (weight initialization,
dataset synthesis, seeded test inputs) draws from the generators defined
here. Pinning the exact algorithm in-repo means the produced byte streams
never depend on the host, the numpy version, or a library default.

Two primitives:

* ``splitmix64`` - a 64-bit mixing function. Output ``i`` of a stream with
  seed ``s`` is ``mix64(s + (i+1)*GOLDEN)``, which makes it usable both as
  a sequential generator and as a stateless counter-based one.
* ``Xoshiro256`` - the xoshiro256** sequential generator (Blackman/Vigna
  update rule), state-seeded from splitmix64 as its authors recommend.

Doubles are formed as ``(u64 >> 11) * 2**-53``, uniform on [0, 1).
"""

from __future__ import annotations

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_F53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer: bijective 64-bit avalanche mix."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def splitmix64(seed: int, index: int) -> int:
    """Output ``index`` (0-based) of the splitmix64 stream with the given seed."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK)


def derive_seed(seed: int, *path: int) -> int:
    """Derive an independent child seed from a root seed and an integer path.

    Used to give every consumer (layer init, dataset sample, epoch shuffle)
    its own statistically independent stream: ``derive_seed(s, a, b)`` and
    ``derive_seed(s, a, c)`` differ for ``b != c``.
    """
    s = seed & _MASK
    for p in path:
        s = mix64((s ^ splitmix64(p & _MASK, 0)) & _MASK)
    return s


class Xoshiro256:
    """xoshiro256** sequential generator with a 64-bit seed."""

    def __init__(self, seed: int):
        self._s = [splitmix64(seed, i) for i in range(4)]
        if not any(self._s):  # all-zero state is the one forbidden state
            self._s[0] = _GOLDEN

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl(((s1 * 5) & _MASK), 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _F53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK

