"""Shared fixtures and independent brute-force oracles.

The brute-force routines here deliberately avoid the package's own search
machinery: paths are found by permutation enumeration and checked edge by
edge, connectivity one neighbour at a time, degree sums pair by pair, eigen-equation residuals by a plain
neighbor sum, the Perron enclosure by a power iteration that checks every
iterate, and graph6 bodies one bit per step, so they can arbitrate
disagreements.  ``neighbors``, ``relabel``, ``add_edges``, ``cycle``,
``path_graph`` and ``emit_edgelist`` are plain helpers that only the tests
need.
``pairwise_gnp`` is the contract of ``hamq.rng.gnp`` written as its per-pair
loop, one ``next_float`` per pair, and arbitrates the vectorized pass.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Sequence

import pytest

from hamq.graph import Graph
from hamq.rng import SplitMix64


def neighbors(g: Graph, v: int) -> list[int]:
    """The neighbours of v in ascending order."""
    return [u for u in range(g.n) if g.has_edge(v, u)]


def brute_connected(g: Graph) -> bool:
    """Whether every vertex is reached from vertex 0, one neighbour at a time."""
    seen = {0}
    todo = [0]
    while todo:
        for u in neighbors(g, todo.pop()):
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == g.n


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation: vertex v of g becomes perm[v]."""
    assert sorted(perm) == list(range(g.n)), "perm is not a permutation of the vertex set"
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def add_edges(g: Graph, edges: Iterable[Sequence[int]]) -> Graph:
    """g plus the given edges; ``Graph`` rejects a pair that is already an edge."""
    return Graph(g.n, [*g.edges(), *edges])


def cycle(n: int) -> Graph:
    """The cycle C_n (n >= 3)."""
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    """The path P_n."""
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def emit_edgelist(g: Graph) -> str:
    """The edge-list text of g: ``n m``, then one ``u v`` line per edge."""
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def pairwise_gnp(n: int, p: float, rng: SplitMix64) -> Graph:
    """G(n, p) one draw per pair: (u, v), u < v, lexicographically, is an
    edge iff ``rng.next_float() < p``."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_float() < p:
                edges.append((u, v))
    return Graph(n, edges)


def brute_hamilton_path(g: Graph, u: int, v: int) -> tuple[int, ...] | None:
    """Hamilton u-v path by enumerating permutations of the interior (n <= 9)."""
    n = g.n
    rest = [w for w in range(n) if w not in (u, v)]
    for mid in permutations(rest):
        path = (u, *mid, v)
        if all(g.has_edge(path[i], path[i + 1]) for i in range(n - 1)):
            return path
    return None


def validate_path(g: Graph, path: tuple[int, ...]) -> bool:
    """Does the path visit every vertex exactly once along edges of g?"""
    if len(path) != g.n or len(set(path)) != g.n:
        return False
    return all(g.has_edge(path[i], path[i + 1]) for i in range(len(path) - 1))


def brute_failing_pair(g: Graph) -> tuple[int, int] | None:
    """The smallest pair u < v with no Hamilton u-v path, or None if every
    pair has one (so a one-vertex graph is Hamilton-connected vacuously)."""
    n = g.n
    return next(
        ((u, v) for u in range(n) for v in range(u + 1, n)
         if brute_hamilton_path(g, u, v) is None),
        None,
    )


def brute_ore(g: Graph) -> bool:
    """Ore's degree-sum condition by the pair loop: n >= 3 and every
    nonadjacent pair u < v has d(u) + d(v) >= n + 1."""
    n = g.n
    if n < 3:
        return False
    deg = g.degrees()
    for u in range(n):
        row = g.row(u)
        for v in range(u + 1, n):
            if not (row >> v & 1) and deg[u] + deg[v] < n + 1:
                return False
    return True


def _graph6_order_field(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    return "~~" + "".join(chr(63 + (n >> s & 63)) for s in (30, 24, 18, 12, 6, 0))


def bitwise_emit_graph6(g: Graph) -> str:
    """graph6 of g, one body bit per step: the pairs (i, j), i < j, column
    by column ((0,1), (0,2), (1,2), (0,3), ...), six to a byte, zero-padded."""
    out, acc, nbits = [], 0, 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | g.has_edge(i, j)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc, nbits = 0, 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return _graph6_order_field(g.n) + "".join(out)


def bitwise_parse_graph6(record: str) -> Graph:
    """The graph of a well-formed graph6 record (no header, no whitespace),
    one body bit per step, in the order ``bitwise_emit_graph6`` writes them."""
    field = 0 if record[0] != "~" else 1 if record[1] != "~" else 2
    n = 0
    for c in record[field:(1, 4, 8)[field]]:
        n = n << 6 | ord(c) - 63
    edges, i, j = [], 0, 1
    for c in record[(1, 4, 8)[field]:]:
        for t in (5, 4, 3, 2, 1, 0):
            if j < n and ord(c) - 63 >> t & 1:
                edges.append((i, j))
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, edges)


def eigen_residual(g: Graph, q_hat: float, f: list[float]) -> float:
    """Max-norm defect of the eigen-equation (q_hat - d(v)) f_v = sum_{u~v} f_u."""
    assert len(f) == g.n
    worst = 0.0
    for v in range(g.n):
        s = sum(f[u] for u in neighbors(g, v))
        worst = max(worst, abs((q_hat - g.degree(v)) * f[v] - s))
    return worst


def plain_perron(g: Graph, tol: float) -> tuple[float, int, bool]:
    """``(q_hat, iterations, converged)`` by power iteration on
    ``D x + A x`` from the all-ones vector, with the Collatz-Wielandt bound,
    the Rayleigh quotient and the residual evaluated after every step.  The
    quotient's sums are correctly rounded (``math.fsum``): with BLAS dot
    products its rounding reaches 2.5e-13 near q = 180, and the running
    maximum over the late iterates then lands that far above q."""
    import math

    import numpy as np

    n = g.n
    a = np.array([[float(g.has_edge(u, v)) for v in range(n)] for u in range(n)])
    deg = np.asarray(g.degrees(), dtype=np.float64)
    x = np.ones(n)
    hi, best_ray, converged = np.inf, -np.inf, False
    for iterations in range(1, 200 * n + 10_001):
        y = deg * x + a @ x
        hi = min(hi, float((y / x).max()))
        best_ray = max(best_ray, math.fsum(x * y) / math.fsum(x * x))
        residual = float(np.abs(y - best_ray * x).max()) / float(x.max())
        if hi - best_ray <= tol and residual <= 5.0 * tol:
            converged = True
            break
        x = y / float(y.max())
    return best_ray, iterations, converged


@pytest.fixture(scope="session")
def small_connected():
    from hamq.corpus import connected_graphs

    return {n: connected_graphs(n) for n in range(1, 8)}
