"""Degree-sum closure and the Kelmans transformation.

``closure(G)`` is the (n+1)-closure of Bondy and Chvátal: it repeatedly
joins nonadjacent pairs whose degree sum is at least n + 1 until none
remain.  The resulting edge set is independent of the order of additions
(Bondy and Chvátal, 1976; checked by test against an independent scan on
every graph of order <= 7 and on random orders, not re-proved here), so the
implementation is free to choose one.  It works on mutable adjacency rows
and degrees, alongside ``ge[t]``, the bit mask of vertices of degree at
least t (``graph._degree_masks``, t = 0..n + 1, so ``ge[n + 1 - d(u)]``, the
partners u needs, exists for every degree), and runs one of two passes,
chosen by the order alone.

The worklist pass, for graphs of order n < 32: degrees only grow, so a
degree step d -> d + 1 costs one OR into ``ge[d + 1]``.  A vertex u taken
from the worklist is joined at once to every vertex of ``ge[n + 1 - d(u)]``
outside its closed neighborhood, and every vertex whose degree rose goes
back on the worklist.  A pair that qualifies at the end is seen by
whichever endpoint was processed last, so the pass stops at the closure.

The round pass, from order n = 32 up: each round builds ``ge`` once from
the degrees at its start and gives every vertex u its qualifying
non-neighbours at those degrees, ``ge[n + 1 - d(u)] & ~N[u]``.  That set is
symmetric (v is in u's exactly when u is in v's), so u ORs it into its own
row only, and v's own turn adds the other half.  Each pair is listed once,
from its lower endpoint, by ``itertools.compress`` over the set's bits.  The
pass stops when a round adds nothing (the closure) or all M missing pairs,
counted from the degrees, are in (K_n).  Every pair of a round qualifies at
the round's start, and degrees only grow, so it still qualifies when the
additions are replayed one at a time in the listed order.

Why order 32: the rounds do O(n) mask operations per round, however few
pairs a round adds, and the last round usually adds none; the worklist pays
per pair and per rescan, so the rounds gain with the order.  Measured as
the round pass's time over the worklist's on the same graphs (Python 3.11,
best of 15 to 25 per graph, four graphs per cell), on seeded gnp, on an
S/T host plus one X-Z edge, and on near-hosts (a host with 2 to 6 pairs
deleted inside Y u Z and one X-Z edge added, then relabeled):

* n = 8 to 22: the worklist wins on gnp (1.75 on gnp(8, 0.5), 1.96 on
  gnp(9, 0.5), 1.75 on gnp(14, p) for p = 0.3 to 0.7, 1.04 on the hunt's
  dense samples at n = 22, summed over 60 to 250 seeded graphs; 0.86 to
  2.6 in single cells missing at least 2n pairs, mixed at 0.62 to 1.73
  below that) and on the near-hosts (1.23 to 1.37 at n = 22).  The rounds
  win on the host plus one edge (0.55 to 0.86).
* n = 24 to 31, gnp missing at least 4n pairs: 1.15 to 1.83 at p = 0.5
  and 0.6, 0.87 to 0.92 at p = 0.7; the near-hosts 1.09 to 1.33.
* n = 32 to 40: gnp 1.05 to 1.19 at p = 0.5, 0.67 to 0.91 at p = 0.6 and
  0.7; the near-hosts 0.90 to 1.12, the host plus one edge 0.54 to 0.58.
* n = 48 to 92: gnp 0.52 to 0.97 where it misses 4n pairs, 0.72 to 1.32
  over M/n = 0.5 to 5; the near-hosts 0.93 to 1.09, the host plus one edge
  0.52 to 0.84.
* n = 128 to 270: the host plus one edge 0.51 to 0.79 (0.78 at n = 270,
  M = 2n, k = 3), the near-hosts 0.80 to 1.08, gnp 0.78 to 1.23.

So from 32 up the rounds lose by at most about 1.3 on the shapes measured,
where at n = 24 to 31 they lose by up to 1.8 on gnp; a gate at 64 would
instead leave the worklist up to 1.85 times slower (gnp(63, 0.7)).  Below 32
the rounds win clearly only on the host plus one edge and on some gnp
missing fewer than 2n pairs.  The host plus one edge is what ``certify``
closes at the paper's orders, since missing pairs spread at random leave
every nonadjacent pair a degree sum near 2n and the Ore stage decides such
graphs first.  The benchmark's suites and hunts close graphs of order at
most 22, and its ``certify`` items at order 92 and up, so any gate between
23 and 92 keeps the former on the worklist and the latter on the rounds.  A
host with deletions and no added edge loses 1.3 to 1.65 at every order (its
closure re-adds a few pairs, then spends a whole round finding nothing),
but it is exceptional and ``certify`` skips its closure.

Before either pass, closure returns at once when the two largest degrees
sum to at most n: then no pair, adjacent or not, has degree sum n + 1, so no
first addition exists, no degree ever grows, and the closure is G itself.
The test costs one sort of the degrees; it spares the degree masks and the
n-vertex scan.

The returned trace lists the additions in the order they were made.  It
promises only that each addition was valid at the moment it was made
(d(u) + d(v) >= n + 1 in the graph built so far); the order itself is an
implementation detail, and differs between the two passes.

``kelmans(G, u, v)`` moves every neighbor of v outside the closed
neighborhood of u over to u.  The operation is purely combinatorial here;
its spectral monotonicity (q never decreases) is checked by the
verification suites.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import NamedTuple

from .errors import BadParameters
from .graph import Edge, Graph, _bit_selector, _degree_masks, iter_bits


# closure takes the round pass from this order up (module docstring)
_ROUNDS_FROM_ORDER = 32


class ClosureTrace(NamedTuple):
    """Replayable record of a closure run: edges in the order added.

    At the moment each edge (u, v) was added, d(u) + d(v) >= n + 1 held in
    the graph built so far.
    """

    added: tuple[Edge, ...]


def closure(g: Graph) -> tuple[Graph, ClosureTrace]:
    """The (n+1)-closure: no nonadjacent pair of the result has degree sum
    >= n + 1.

    Returns ``g`` itself when nothing is added.
    """
    n = g.n
    if sum(sorted(g._deg)[-2:]) <= n:
        return g, ClosureTrace(added=())  # no pair reaches n + 1 (module docstring)
    rows = list(g._rows)
    deg = list(g._deg)
    added = (_rounds if n >= _ROUNDS_FROM_ORDER else _worklist)(n, rows, deg)
    if not added:
        return g, ClosureTrace(added=())
    return Graph._from_rows(n, rows), ClosureTrace(added=tuple(added))


def _rounds(n: int, rows: list[int], deg: list[int]) -> list[Edge]:
    """The round pass (module docstring): fill ``rows`` and ``deg`` in place,
    return the additions."""
    missing = (n * (n - 1) - sum(deg)) // 2
    added: list[Edge] = []
    while True:
        before = len(added)
        ge = _degree_masks(deg)
        for u in range(n):
            cand = ge[n + 1 - deg[u]] & ~(rows[u] | 1 << u)
            if not cand:
                continue
            # cand is symmetric, so v's own turn adds u to rows[v]
            rows[u] |= cand
            deg[u] += cand.bit_count()
            hi = cand >> (u + 1)
            if hi & (hi - 1):
                added += zip(repeat(u), compress(range(u + 1, n), _bit_selector(hi)))
            elif hi:
                added.append((u, u + hi.bit_length()))
        if len(added) in (before, missing):
            return added


def _worklist(n: int, rows: list[int], deg: list[int]) -> list[Edge]:
    """The worklist pass (module docstring): fill ``rows`` and ``deg`` in
    place, return the additions."""
    # degrees stay <= n - 1 while they grow, so ge[n] and ge[n + 1] stay 0
    ge = _degree_masks(deg)
    added: list[Edge] = []
    todo = (1 << n) - 1  # worklist: vertices whose degree rose since their last scan
    while todo:
        ub = todo & -todo
        todo ^= ub
        u = ub.bit_length() - 1
        while True:
            cand = ge[n + 1 - deg[u]] & ~rows[u] & ~ub
            if not cand:
                break
            # every candidate stays valid: d(u) only grows while they are joined
            todo |= cand
            rows[u] |= cand
            while cand:
                xb = cand & -cand
                cand ^= xb
                x = xb.bit_length() - 1
                rows[x] |= ub
                deg[x] += 1
                ge[deg[x]] |= xb
                deg[u] += 1
                ge[deg[u]] |= ub
                added.append((u, x) if u < x else (x, u))
    return added


def kelmans(g: Graph, u: int, v: int) -> Graph:
    """Move the neighbors of v outside N[u] over to u.

    Exactly the edges {vx : x in N(v) \\ N[u]} are deleted and {ux} added;
    adjacency between u and v, and the degree of every other vertex, are
    unchanged.  Raises BadParameters unless u and v are distinct vertices
    of g.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise BadParameters(f"kelmans vertex ({u},{v}) out of range for n={g.n}")
    if u == v:
        raise BadParameters("kelmans needs two distinct vertices")
    moved = g.row(v) & ~(g.row(u) | (1 << u))
    if not moved:
        return g
    rows = list(g._rows)
    for x in iter_bits(moved):
        rows[v] ^= 1 << x
        rows[x] ^= 1 << v
        rows[u] |= 1 << x
        rows[x] |= 1 << u
    return Graph._from_rows(g.n, rows)
