"""Shared fixtures and independent brute-force oracles.

The brute-force routines here deliberately avoid the package's own search
machinery: paths are checked by permutation enumeration and eigen-equation
residuals by a plain neighbor sum, so they can arbitrate disagreements.
"""

from __future__ import annotations

from itertools import permutations

import pytest

from hamq.graph import Graph


def brute_hamilton_path(g: Graph, u: int, v: int) -> tuple[int, ...] | None:
    """Hamilton u-v path by enumerating permutations of the interior (n <= 9)."""
    n = g.n
    rest = [w for w in range(n) if w not in (u, v)]
    for mid in permutations(rest):
        path = (u, *mid, v)
        if all(g.has_edge(path[i], path[i + 1]) for i in range(n - 1)):
            return path
    return None


def brute_hamilton_connected(g: Graph) -> bool:
    n = g.n
    if n == 1:
        return True
    if n == 2:
        return g.has_edge(0, 1)
    return all(
        brute_hamilton_path(g, u, v) is not None
        for u in range(n)
        for v in range(u + 1, n)
    )


def brute_traceable(g: Graph) -> bool:
    if g.n == 1:
        return True
    return any(
        brute_hamilton_path(g, u, v) is not None
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def brute_hamiltonian(g: Graph) -> bool:
    n = g.n
    if n < 3:
        return False
    for v in g.neighbors(0):
        if brute_hamilton_path(g, 0, v) is not None:
            return True
    return False


def eigen_residual(g: Graph, q_hat: float, f: list[float]) -> float:
    """Max-norm defect of the eigen-equation (q_hat - d(v)) f_v = sum_{u~v} f_u."""
    assert len(f) == g.n
    worst = 0.0
    for v in range(g.n):
        s = sum(f[u] for u in g.neighbors(v))
        worst = max(worst, abs((q_hat - g.degree(v)) * f[v] - s))
    return worst


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


@pytest.fixture(scope="session")
def small_connected():
    from hamq.corpus import connected_graphs

    return {n: connected_graphs(n) for n in range(1, 8)}
