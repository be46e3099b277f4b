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
  edge iff ``rng.next_float() < p``.  ``gnps(cases)`` draws ``gnp(n, p, rng)``
  for each ``(n, p, rng)`` case of a stream of any orders, in stream order
  (``random_connected_gnps(cases)`` takes the same cases).  It cuts each run
  of consecutive same-order cases into stacks, as ``spectral.perron_pairs``
  cuts its graphs, and ``gnp`` is its stack of one, so every G(n, p) graph
  comes from the same numpy pass, with numpy loaded on first use.  Draw i of
  the C(n, 2) of case j has state ``s_j + (i + 1) * 0x9E3779B97F4A7C15 mod
  2**64``, where ``s_j`` is the case generator's state, so wrapping
  ``uint64`` arithmetic mixes a stack's draws in one ``(B, C(n, 2))`` array,
  each graph equals its per-pair draw, and each generator ends where C(n, 2)
  ``next_float`` calls would leave it.  The contract above is unchanged.  A
  stack holds at most 16,384 draws (128 KiB of ``uint64`` state): 585 graphs
  at n = 8, 13 at n = 50, 3 at n = 92, and one from n = 182 up.  The cap is
  a fixed constant, so a stream takes the same memory at any length
  (``hamq hunt``'s default 10,000 trials never hold 10,000 graphs), and
  larger stacks stop paying: per graph, n = 50 took 15-22 us in stacks of
  13, 21-31 us in stacks of 26 and 25-31 us in stacks of 53, and n = 92 took
  96-128 us in stacks of 7 to 15 against 81-118 us alone.  At n = 8 a graph
  takes 2-4 us in a stack and 16-19 us alone (alone, n = 50 took 26-28 us
  and n = 92 63-85 us; best of 5 per process, 6 alternating processes, 2
  cores, Python 3.11, numpy 2.4).
* ``gnm(n, m, rng)``: draw pair indices ``next_below(C(n,2))`` until m
  distinct values are collected; pairs are ranked lexicographically.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, islice, tee
from math import ceil, comb, isqrt
from typing import Iterable, Iterator, Sequence

from .errors import BadParameters
from .graph import Graph, is_connected

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# draws one gnps stack may hold (128 KiB of uint64 states)
_STACK_DRAWS = 16_384


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


# one G(n, p) draw: the order, the edge probability and the case's generator
GnpCase = tuple[int, float, SplitMix64]


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
    """Per-order constants of a G(n, p) stack: the step offsets ``(i + 1) *
    gamma`` of the C(n, 2) draws, the packed row width in bits, the draw
    index of each cell of an n x width adjacency matrix, C(n, 2) (a column
    that is always False) off the pairs, and the output mixing's shifts and
    multipliers and the ``next_float`` shift as ``uint64`` scalars (built on
    every call, they cost a one-graph ``gnp`` at n = 8 about 8%).  A row up
    to 64 bits wide is a power of two wide, so the packed rows read as one
    ``uint8`` to ``uint64`` word each."""
    import numpy as np

    if n < 1:
        raise BadParameters(f"graph order must be >= 1, got {n}")
    pairs = comb(n, 2)
    steps = np.arange(1, pairs + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    width = max(8, 1 << (n - 1).bit_length()) if n <= 64 else 8 * ceil(n / 8)
    cells = np.full((n, width), pairs, dtype=np.intp)
    u, v = np.triu_indices(n, 1)
    cells[u, v] = cells[v, u] = np.arange(pairs)
    cells = cells.ravel()
    steps.flags.writeable = cells.flags.writeable = False  # shared by every call
    mixing = tuple(map(np.uint64, (30, _MIX1, 27, _MIX2, 31, 11)))
    return steps, cells, width, mixing


def _below(p: float) -> int:
    """The bound b with ``next_float() < p`` iff ``next_u64() >> 11 < b``."""
    if not p > 0:  # also nan
        return 0
    return 1 << 53 if p >= 1 else ceil(p * 2**53)


def _gnp_stack(n: int, cases: Sequence[GnpCase]) -> list[Graph]:
    """``gnp(n, p, rng)`` of each ``(n, p, rng)`` case of order n, in one numpy pass."""
    import numpy as np

    steps, cells, width, (s1, m1, s2, m2, s3, to_float) = _gnp_plan(n)
    pairs = len(steps)
    z = np.array([rng.state for _, _, rng in cases], dtype=np.uint64)[:, None] + steps
    for _, _, rng in cases:
        rng.state = (rng.state + pairs * _GAMMA) & _MASK
    z ^= z >> s1
    z *= m1
    z ^= z >> s2
    z *= m2
    z ^= z >> s3
    z >>= to_float
    # column ``pairs`` stays False: the cells off the pairs read it
    drawn = np.zeros((len(cases), pairs + 1), dtype=bool)
    below = np.array([_below(p) for _, p, _ in cases], dtype=np.uint64)
    np.less(z, below[:, None], out=drawn[:, :pairs])
    packed = np.packbits(drawn.take(cells, axis=1).reshape(-1, width), axis=1, bitorder="little")
    if width <= 64:
        rows = packed.view(f"<u{width // 8}").ravel().tolist()
    else:
        buf, nbytes = packed.tobytes(), width // 8
        rows = [int.from_bytes(buf[i : i + nbytes], "little") for i in range(0, len(buf), nbytes)]
    return [Graph._from_rows(n, rows[i : i + n]) for i in range(0, len(rows), n)]


def gnps(cases: Iterable[GnpCase]) -> Iterator[Graph]:
    """``gnp(n, p, rng)`` of every ``(n, p, rng)`` case, in input order.

    Lazy: each run of consecutive cases of one order is read and drawn in
    stacks of at most 16,384 draws (at least one case), one stack in memory
    at a time (see the module docstring); the first case after a run is read
    when the run's last stack is.  Each graph and each generator's end state
    are those of ``gnp`` on that case alone.  Raises BadParameters for an
    order below one when its stack is drawn, before any generator of the
    stack moves.
    """
    for n, run in groupby(cases, key=lambda case: case[0]):
        size = max(1, _STACK_DRAWS // max(1, n * (n - 1) // 2))
        while stack := list(islice(run, size)):
            yield from _gnp_stack(n, stack)


def gnp(n: int, p: float, rng: SplitMix64) -> Graph:
    """G(n, p) under the contract of the module docstring: the stack of one
    of ``gnps``."""
    return _gnp_stack(n, [(n, p, rng)])[0]


def gnm(n: int, m: int, rng: SplitMix64) -> Graph:
    total = comb(n, 2)
    if m > total:
        raise BadParameters(f"gnm: m={m} exceeds C({n},2)={total}")
    idxs = rng.sample_distinct(m, total)
    return Graph(n, [pair_unrank(n, i) for i in idxs])


def random_connected_gnp(n: int, p: float, rng: SplitMix64) -> Graph:
    """Resample gnp until connected, at most 10,000 times."""
    return _connected(gnp(n, p, rng), n, p, rng)


def random_connected_gnps(cases: Iterable[GnpCase]) -> Iterator[Graph]:
    """``random_connected_gnp(n, p, rng)`` of every ``(n, p, rng)`` case, in
    input order: the first draws come from ``gnps`` a stack at a time, and
    a case whose first draw is not connected redraws one graph at a time
    from its own generator."""
    cases, ahead = tee(cases)
    for g, (n, p, rng) in zip(gnps(ahead), cases):
        yield _connected(g, n, p, rng)


def _connected(g: Graph, n: int, p: float, rng: SplitMix64) -> Graph:
    """``g`` if it is connected, else the first connected redraw of
    ``gnp(n, p, rng)``; ``g`` counts as the first of at most 10,000 draws."""
    tries = 1
    while not is_connected(g):
        if tries == 10_000:
            raise BadParameters(f"no connected gnp({n},{p}) sample in 10000 tries")
        g = gnp(n, p, rng)
        tries += 1
    return g
