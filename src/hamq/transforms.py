"""Degree-sum closure and the Kelmans transformation.

``closure(G)`` is the (n+1)-closure of Bondy and Chvátal: it repeatedly
joins nonadjacent pairs whose degree sum is at least n + 1 until none
remain.  The resulting edge set is independent of the order of additions
(Bondy and Chvátal, 1976; checked by test against an independent scan on
every graph of order <= 7 and on random orders, not re-proved here), so the
implementation is free to choose one.  It makes a single worklist pass over
mutable adjacency rows and degrees.  Alongside them it keeps ``ge[t]``, the
bit mask of vertices of degree at least t; degrees only grow, so a degree
step d -> d + 1 costs one OR into ``ge[d + 1]``.  A vertex u taken from the
worklist is joined at once to every vertex of ``ge[n + 1 - d(u)]`` outside
its closed neighborhood, and every vertex whose degree rose goes back on the
worklist.  A pair that qualifies at the end is seen by whichever endpoint
was processed last, so the pass stops at the closure.

Before any of that, the pass is skipped when the two largest degrees sum to
at most n: then no pair, adjacent or not, has degree sum n + 1, so no
first addition exists, no degree ever grows, and the closure is G itself.
The test costs one sort of the degrees; it spares the degree masks and the
n-vertex worklist scan.

The returned trace lists the additions in the order they were made.  It
promises only that each addition was valid at the moment it was made
(d(u) + d(v) >= n + 1 in the graph built so far); the order itself is an
implementation detail.

``kelmans(G, u, v)`` moves every neighbor of v outside the closed
neighborhood of u over to u.  The operation is purely combinatorial here;
its spectral monotonicity (q never decreases) is checked by the
verification suites.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadParameters
from .graph import Edge, Graph, _degree_masks, iter_bits


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
    if not added:
        return g, ClosureTrace(added=())
    return Graph._from_rows(n, rows), ClosureTrace(added=tuple(added))


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
