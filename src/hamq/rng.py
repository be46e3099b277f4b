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
  edge iff ``rng.next_float() < p``.
* ``gnm(n, m, rng)``: draw pair indices ``next_below(C(n,2))`` until m
  distinct values are collected; pairs are ranked lexicographically.
"""

from __future__ import annotations

from math import comb

from .errors import BadParameters
from .graph import Graph, is_connected

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix-style 64-bit generator; see module docstring for the contract."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        if bound <= 0:
            raise BadParameters(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def sample_distinct(self, count: int, bound: int) -> list[int]:
        """``count`` distinct integers below ``bound``, in sorted order."""
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
    """The index-th pair (u, v), u < v, in lexicographic order over n vertices."""
    if not 0 <= index < comb(n, 2):
        raise BadParameters(f"pair index {index} out of range for n={n}")
    u = 0
    while index >= n - 1 - u:
        index -= n - 1 - u
        u += 1
    return (u, u + 1 + index)


def gnp(n: int, p: float, rng: SplitMix64) -> Graph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_float() < p:
                edges.append((u, v))
    return Graph(n, edges)


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
