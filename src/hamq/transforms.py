"""Degree-sum closure and the Kelmans transformation.

``closure(G)`` is the (n+1)-closure of Bondy and Chvátal: it repeatedly
joins nonadjacent pairs whose degree sum is at least n + 1 until none
remain.  The resulting edge set is independent of the order of additions
(Bondy and Chvátal, 1976; checked by test against an independent scan on
every graph of order <= 7 and on random orders, not re-proved here), so the
implementation is free to choose one.  It works on mutable adjacency rows
and degrees, alongside ``ge[t]``, the bit mask of vertices of degree at
least t (``graph._degree_masks``), and runs one of two passes.

The worklist pass, for graphs of order n < 64 that miss fewer than 4n
pairs: degrees only grow, so a degree step d -> d + 1 costs one OR into
``ge[d + 1]``.  A vertex u taken from the worklist is joined at once to
every vertex of ``ge[n + 1 - d(u)]`` outside its closed neighborhood, and
every vertex whose degree rose goes back on the worklist.  A pair that
qualifies at the end is seen by whichever endpoint was processed last, so
the pass stops at the closure.

The round pass, for every other graph (order n >= 64, or M >= 4n missing
pairs): each round builds ``ge`` once from the degrees at its start and
gives every vertex u its qualifying non-neighbours at those degrees,
``ge[n + 1 - d(u)] & ~N[u]``.  That set is symmetric (v is in u's exactly
when u is in v's), so u ORs it into its own row only, and v's own turn adds
the other half.  Each pair is listed once, from its lower endpoint, by
``itertools.compress`` over the set's bits.  The pass stops when a round
adds nothing (the closure) or all M pairs are in (K_n).  Every pair of a
round qualifies at the round's start, and degrees only grow, so it still
qualifies when the additions are replayed one at a time in the listed
order.

Why n >= 64 or M >= 4n: the rounds do O(n) mask operations per round,
however few pairs a round adds, and the last round usually adds none; the
worklist pays per pair and per rescan.  Measured as the round pass's time
over the worklist's on the same graphs (Python 3.11, one core, best of 15
to 25 per graph), the worklist wins at small orders: 1.75 on gnp(8, 0.5),
1.96 on gnp(9, 0.5), 1.75 on gnp(14, p) for p = 0.3 to 0.7, and 1.04 on
the hunt's dense samples at n = 22 (summed over 60 to 250 seeded graphs).
A grid over n = 8 to 270 and M/n = 0.5 to 5 (four graphs per cell), on
seeded gnp with M pairs missing at random, on an S/T host plus one X-Z
edge, and on near-hosts (a host with 2 to 6 pairs deleted inside Y u Z and
one X-Z edge added, then relabeled), gives:

* n <= 22: the worklist wins on gnp with M/n >= 2 (0.86 to 2.6, above 1
  on all but a few graphs) and on the near-hosts (1.23 to 1.37 at n = 22);
  gnp below M/n = 2 is mixed (0.62 to 1.73).  The rounds win only on the
  host plus one edge (0.55 to 0.86).
* n = 32 to 56: gnp 0.60 to 1.11, the host plus one edge 0.54 to 0.58,
  the near-hosts 0.92 to 1.20.
* n = 64 to 92: gnp 0.72 to 1.32 (most cells below 1), the host plus one
  edge 0.52 to 0.84, the near-hosts 0.93 to 1.07.
* n = 128 to 270: the host plus one edge 0.51 to 0.79 (0.78 at n = 270,
  M = 2n, k = 3), the near-hosts 0.80 to 1.08, gnp 0.78 to 1.23, with the
  worklist ahead at M/n = 1 to 3 (0.99 to 1.23) and 1.11 on
  gnp(270, 0.97) (M = 4.0n; 1.06 to 1.09 in an earlier measurement).

Above n = 30 neither pass is more than about 1.3 times slower than the
other on any shape but one: the host plus one edge, on which the rounds
take 0.51 to 0.86 of the worklist's time.  That shape is what ``certify`` closes at the paper's
orders, since missing pairs spread at random leave every nonadjacent pair
a degree sum near 2n and the Ore stage decides such graphs first.  So the
rounds take every graph from n = 64 up, where the near-hosts stop losing,
and graphs with M >= 4n below it.  A host with deletions and no added edge
loses 1.3 to 1.65 at every order (its closure re-adds a few pairs, then
spends a whole round finding nothing), but it is exceptional and
``certify`` skips its closure.

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
    missing = n * (n - 1) // 2 - g._m
    if missing >= 4 * n or n >= 64:  # where the rounds win (module docstring)
        added = _rounds(n, rows, deg, missing)
    else:
        added = _worklist(n, rows, deg)
    if not added:
        return g, ClosureTrace(added=())
    return Graph._from_rows(n, rows), ClosureTrace(added=tuple(added))


def _rounds(n: int, rows: list[int], deg: list[int], missing: int) -> list[Edge]:
    """The round pass (module docstring): fill ``rows`` and ``deg`` in place,
    return the additions."""
    added: list[Edge] = []
    while True:
        before = len(added)
        ge = _degree_masks(deg)
        for u in range(n):
            t = n + 1 - deg[u]
            if t >= n:
                continue  # no vertex has degree >= n
            cand = ge[t] & ~(rows[u] | 1 << u)
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
    # degrees stay <= n - 1 while they grow, so ge[n] stays 0
    ge = _degree_masks(deg)
    added: list[Edge] = []
    todo = (1 << n) - 1  # worklist: vertices whose degree rose since their last scan
    while todo:
        ub = todo & -todo
        todo ^= ub
        u = ub.bit_length() - 1
        while True:
            t = n + 1 - deg[u]  # >= 2, since d(u) <= n - 1
            if t >= n:
                break  # no vertex has degree >= n
            cand = ge[t] & ~rows[u] & ~ub
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
