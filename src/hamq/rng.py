"""Deterministic random graph models on a documented 64-bit generator.

All randomized suites and sampling modes in this package draw from
:class:`SplitMix64` so that runs are reproducible from a single integer seed
and so that an independent implementation can replay them exactly.  The
generator contract:

* state transition: ``state = (state + 0x9E3779B97F4A7C15) mod 2**64``
* output: ``z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
  z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2**64)
* ``next_below(b)`` is ``next_u64() % b`` (modulo reduction, documented as
  part of the contract; the bias is irrelevant at desk scale)
* ``next_float()`` is ``(next_u64() >> 11) * 2**-53``

Graph models:

* ``gnp(n, p, rng)``: each pair (u, v), u < v, in lexicographic order, is an
  edge iff ``rng.next_float() < p``.  It is computed in one vectorized numpy
  pass, with numpy loaded on first use: draw i of the C(n, 2) has state
  ``state + (i + 1) * 0x9E3779B97F4A7C15 mod 2**64``, so wrapping ``uint64``
  arithmetic mixes every draw at once, and the generator ends where C(n, 2)
  ``next_float`` calls would leave it.  The contract above is unchanged.
  The numpy import is paid once per process: ``hamq hunt --trials 20`` (gnp
  model, n = 8) took 0.080 s wall with the per-pair loop and 0.146 s with
  this pass, and the default 10,000 trials 1.22 and 1.21 s (medians of 5,
  2 cores, Python 3.11, numpy 2.4, no ``.pyc``).
* ``gnm(n, m, rng)``: draw pair indices ``next_below(C(n,2))`` until m
  distinct values are collected; pairs are ranked lexicographically.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, comb, isqrt

from .errors import BadParameters
from .graph import Graph, is_connected

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix-style 64-bit generator; see module docstring for the contract."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = (z ^ (z >> 30)) * _MIX1 & _MASK
        z = (z ^ (z >> 27)) * _MIX2 & _MASK
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        if bound <= 0:
            raise BadParameters(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def sample_distinct(self, count: int, bound: int) -> list[int]:
        """``count`` distinct integers below ``bound``, in sorted order."""
        if count < 0:
            raise BadParameters(f"sample count must be >= 0, got {count}")
        if count > bound:
            raise BadParameters(f"cannot sample {count} distinct below {bound}")
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.next_below(bound))
        return sorted(chosen)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n)."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.next_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def pair_unrank(n: int, index: int) -> tuple[int, int]:
    """The index-th pair (u, v), u < v, in lexicographic order over n vertices.

    Counted from the last pair, index ``r`` lies in the row of the m pairs
    with ``m (m - 1) / 2 <= r < m (m + 1) / 2``, so m is read off the
    triangular root of r, with no walk over the rows.
    """
    total = comb(n, 2)
    if not 0 <= index < total:
        raise BadParameters(f"pair index {index} out of range for n={n}")
    r = total - 1 - index
    m = (1 + isqrt(8 * r + 1)) // 2
    return (n - 1 - m, n - 1 - r + m * (m - 1) // 2)


@lru_cache(maxsize=64)
def _gnp_plan(n: int):
    """Per-order constants of ``gnp``: the step offsets ``(i + 1) * gamma``
    of the C(n, 2) draws, and the strict upper triangle of an n x n mask,
    whose True cells run through the pairs in lexicographic order."""
    import numpy as np

    steps = np.arange(1, comb(n, 2) + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    steps.flags.writeable = upper.flags.writeable = False  # shared by every call
    return steps, upper


def gnp(n: int, p: float, rng: SplitMix64) -> Graph:
    """G(n, p) under the contract of the module docstring, in one numpy pass."""
    import numpy as np

    if n < 1:
        raise BadParameters(f"graph order must be >= 1, got {n}")
    steps, upper = _gnp_plan(n)
    s = rng.state
    z = steps + np.uint64(s)
    rng.state = (s + len(steps) * _GAMMA) & _MASK
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    # next_float() < p  iff  (z >> 11) * 2**-53 < p  iff  z >> 11 < ceil(p * 2**53)
    if not p > 0:  # also nan
        below = 0
    elif p >= 1:
        below = 1 << 53
    else:
        below = ceil(p * 2**53)
    adj = np.zeros((n, n), dtype=bool)
    adj[upper] = z >> np.uint64(11) < np.uint64(below)
    adj |= adj.T
    nbytes = (n + 7) // 8
    buf = np.packbits(adj, axis=1, bitorder="little").tobytes()
    return Graph._from_rows(
        n, [int.from_bytes(buf[i : i + nbytes], "little") for i in range(0, n * nbytes, nbytes)]
    )


def gnm(n: int, m: int, rng: SplitMix64) -> Graph:
    total = comb(n, 2)
    if m > total:
        raise BadParameters(f"gnm: m={m} exceeds C({n},2)={total}")
    idxs = rng.sample_distinct(m, total)
    return Graph(n, [pair_unrank(n, i) for i in idxs])


def random_connected_gnp(n: int, p: float, rng: SplitMix64) -> Graph:
    """Resample gnp until connected, at most 10,000 times."""
    for _ in range(10_000):
        g = gnp(n, p, rng)
        if is_connected(g):
            return g
    raise BadParameters(f"no connected gnp({n},{p}) sample in 10000 tries")
