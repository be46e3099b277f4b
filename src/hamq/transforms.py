"""Degree-sum closure and the Kelmans transformation.

``closure(G)`` is the (n+1)-closure of Bondy and Chvátal: it repeatedly
joins nonadjacent pairs whose degree sum is at least n + 1 until none
remain.  The resulting edge set is independent of the order of additions
(Bondy and Chvátal, 1976; checked by test against an independent scan on
every graph of order <= 7 and on random orders, not re-proved here), so the
implementation is free to choose one.  It works on mutable adjacency rows
and degrees, alongside ``ge[t]``, the bit mask of vertices of degree at
least t (``graph._degree_masks``), and runs one of two passes.

The worklist pass, for graphs that miss fewer than 4n pairs: degrees only
grow, so a degree step d -> d + 1 costs one OR into ``ge[d + 1]``.  A vertex
u taken from the worklist is joined at once to every vertex of
``ge[n + 1 - d(u)]`` outside its closed neighborhood, and every vertex whose
degree rose goes back on the worklist.  A pair that qualifies at the end is
seen by whichever endpoint was processed last, so the pass stops at the
closure.

The round pass, for graphs that miss M >= 4n pairs: each round builds
``ge`` once from the degrees at its start and gives every vertex u its
qualifying non-neighbours at those degrees, ``ge[n + 1 - d(u)] & ~N[u]``.
That set is symmetric (v is in u's exactly when u is in v's), so u ORs it
into its own row only, and v's own turn adds the other half.  Each pair is
listed once, from its lower endpoint, by ``itertools.compress`` over the
set's bits.  The pass stops when a round adds nothing (the closure) or all
M pairs are in (K_n).  Every pair of a round qualifies at the round's
start, and degrees only grow, so it still qualifies when the additions are
replayed one at a time in the listed order.

Why 4n: the rounds do O(n) mask operations per round, however few pairs a
round adds, and the last round adds none; the worklist pays per pair.
Measured as the round pass's time over the worklist's, on the same seeded
gnp graphs (Python 3.11, one core, best of 50): at n = 92, 0.66 at
M/n = 23 (p = 0.5), 0.85 at M/n = 4.4 and 0.95 at M/n = 3.6; at n = 270,
0.45 at M/n = 67 (p = 0.5), 0.61 at M/n = 14 and 1.06 to 1.09 at
M/n = 4.0.  So 4n is about where the rounds stop paying.  At n = 8 they
take 0.9 to 1.7 times as long; the gate keeps every graph with n <= 9 off
them, since C(n, 2) >= 4n needs n >= 9 and at n = 9 only the edgeless
graph, which the early exit below returns, misses 36 pairs.  Alone, the
rounds would also win on an S/T host plus one X-Z edge (0.50 at n = 92,
M = n; 0.78 at n = 270, M = 2n); whether the gate can move below 4n for
that shape is open.

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
    if missing >= 4 * n:
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
