"""Exact Hamilton-path and Hamilton-connectivity oracles, plus the Ore check.

The pair search is depth-first backtracking over bit-mask states with three
sound prunes:

(a) every unvisited vertex other than the target must keep at least two
    links into the open region (unvisited vertices plus the current frontier
    and the target) -- an interior vertex of any completing path needs both
    a predecessor and a successor there; the target itself needs at least
    one entry point;
(b) the open region must be reachable from the frontier;
(c) for n <= 24, failed (visited-set, frontier) states are memoized.

Neighbor expansion is in ascending index order, so verdicts, witnesses and
node counts are deterministic.  Budgets count node expansions, not wall
time, which keeps Timeout verdicts reproducible.

Conventions at tiny orders: a one-vertex graph is Hamilton-connected
vacuously, a two-vertex graph is Hamilton-connected iff its edge exists.
Hamilton cycles require order >= 3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import BadParameters, SearchTimeout
from .graph import Graph
from .transforms import closure

DEFAULT_PAIR_BUDGET = 10**8
MEMO_SIZE_GATE = 24


@dataclass(frozen=True)
class OracleAnswer:
    """Outcome of an exhaustive search: Yes/No with a witness, or Timeout.

    For a Yes on Hamilton-connectivity, ``paths`` maps each vertex pair to a
    spanning path; for a No, ``failing_pair`` is the smallest pair (in
    ascending order) with no spanning path between its ends.
    """

    verdict: str  # "yes" | "no" | "timeout"
    paths: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    failing_pair: tuple[int, int] | None = None
    nodes_expanded: int = 0
    elapsed: float = 0.0
    closure_complete: bool | None = None

    @property
    def yes(self) -> bool:
        return self.verdict == "yes"


def _pair_search(
    g: Graph, u: int, v: int, budget: int
) -> tuple[tuple[int, ...] | None, int]:
    """Spanning u-v path or None; returns (path, nodes expanded).

    Raises SearchTimeout once ``budget`` node expansions are spent.
    """
    n = g.n
    rows = g._rows
    full = (1 << n) - 1
    target_bit = 1 << v
    memo: set[tuple[int, int]] | None = set() if n <= MEMO_SIZE_GATE else None
    expanded = 0

    def dfs(cur: int, visited: int) -> list[int] | None:
        nonlocal expanded
        expanded += 1
        if expanded > budget:
            raise SearchTimeout(budget)
        if visited | target_bit == full:
            return [cur, v] if rows[cur] & target_bit else None
        if memo is not None and (visited, cur) in memo:
            return None
        open_ = full & ~visited & ~target_bit
        region = open_ | (1 << cur) | target_bit
        feasible = True
        m = open_
        while m:
            b = m & -m
            m ^= b
            aw = rows[b.bit_length() - 1] & (region & ~b)
            if not aw or not aw & (aw - 1):  # fewer than two links left
                feasible = False
                break
        if feasible and not rows[v] & (open_ | (1 << cur)):
            feasible = False
        if feasible:
            # reachability sweep over the open region
            reached = 1 << cur
            frontier = reached
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    nxt |= rows[b.bit_length() - 1]
                frontier = nxt & region & ~reached
                reached |= frontier
            if (open_ | target_bit) & ~reached:
                feasible = False
        if feasible:
            cand = rows[cur] & open_
            while cand:
                b = cand & -cand
                cand ^= b
                w = b.bit_length() - 1
                res = dfs(w, visited | b)
                if res is not None:
                    res.insert(0, cur)
                    return res
        if memo is not None:
            memo.add((visited, cur))
        return None

    path = dfs(u, 1 << u)
    return (tuple(path) if path is not None else None), expanded


def hamilton_path_between(
    g: Graph, u: int, v: int, budget: int = DEFAULT_PAIR_BUDGET
) -> tuple[int, ...] | None:
    """A spanning path from u to v, or None if none exists.

    Raises SearchTimeout if the node-expansion budget runs out first.
    """
    if u == v:
        raise BadParameters("endpoints must be distinct")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise BadParameters(f"endpoints ({u},{v}) out of range")
    path, _ = _pair_search(g, u, v, budget)
    return path


def _run_pairs(
    g: Graph,
    pairs: Iterable[tuple[int, int]],
    budget: int,
    start: float,
    *,
    every: bool,
    closure_complete: bool | None = None,
) -> OracleAnswer:
    """Search the pairs in order until the stop rule decides.

    With ``every`` set, each pair needs a spanning path: the first pair
    without one ends the scan with "no" (and is the failing pair), and "yes"
    carries a path for every pair.  Otherwise one path is enough: the first
    pair with one ends the scan with "yes", and "no" means no pair has one.
    A timed-out pair search adds its spent budget to ``nodes_expanded``.
    """
    total = 0
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    failing: tuple[int, int] | None = None
    for u, v in pairs:
        try:
            path, nodes = _pair_search(g, u, v, budget)
        except SearchTimeout as exc:
            return OracleAnswer(
                verdict="timeout",
                nodes_expanded=total + exc.budget,
                elapsed=time.monotonic() - start,
                closure_complete=closure_complete,
            )
        total += nodes
        if path is not None:
            paths[(u, v)] = path
            if not every:
                break
        elif every:
            failing = (u, v)
            break
    found = failing is None if every else bool(paths)
    return OracleAnswer(
        verdict="yes" if found else "no",
        paths=paths if found else {},
        failing_pair=failing,
        nodes_expanded=total,
        elapsed=time.monotonic() - start,
        closure_complete=closure_complete,
    )


def _all_pairs(n: int) -> Iterator[tuple[int, int]]:
    return ((u, v) for u in range(n) for v in range(u + 1, n))


def is_hamilton_connected(
    g: Graph, budget: int = DEFAULT_PAIR_BUDGET
) -> OracleAnswer:
    """Exhaustive Hamilton-connectivity oracle.

    Computes the (n+1)-closure first as a fast equivalence gate; witnesses
    are always searched on the input graph itself (paths in the closure need
    not exist in g).  Pairs are scanned in ascending order with early exit on
    the first failing pair, so the reported No pair is the minimum one.
    """
    start = time.monotonic()
    n = g.n
    cl, _ = closure(g, n + 1)
    cl_complete = cl.m == n * (n - 1) // 2
    return _run_pairs(g, _all_pairs(n), budget, start, every=True,
                      closure_complete=cl_complete)


def ore_check(g: Graph) -> bool:
    """Degree-sum sufficiency: n >= 3 and every nonadjacent pair sums to at
    least n + 1.  True implies Hamilton-connected.

    The classical statement also asks for 2-connectivity, which these degree
    sums already imply.  If G is disconnected, take a and b in different
    components A and B: d(a) + d(b) <= (|A| - 1) + (|B| - 1) <= n - 2.  If c
    is a cut vertex, take a and b in different components A and B of G - c:
    d(a) + d(b) <= |A| + |B| <= n - 1.  Either way a nonadjacent pair sums
    to less than n + 1.
    """
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


def is_hamiltonian(g: Graph, budget: int = DEFAULT_PAIR_BUDGET) -> OracleAnswer:
    """Spanning-cycle oracle (n >= 3): a cycle through vertex 0 exists iff
    some neighbor v of 0 admits a spanning 0-v path."""
    start = time.monotonic()
    if g.n < 3:
        raise BadParameters("Hamilton cycles need order >= 3")
    return _run_pairs(g, ((0, v) for v in g.neighbors(0)), budget, start, every=False)


def is_traceable(g: Graph, budget: int = DEFAULT_PAIR_BUDGET) -> OracleAnswer:
    """Spanning-path oracle: does any Hamilton path exist?"""
    start = time.monotonic()
    if g.n == 1:
        return OracleAnswer(verdict="yes", elapsed=time.monotonic() - start)
    return _run_pairs(g, _all_pairs(g.n), budget, start, every=False)


def validate_path(g: Graph, path: tuple[int, ...]) -> bool:
    """Does the path visit every vertex exactly once along edges of g?"""
    if len(path) != g.n or len(set(path)) != g.n:
        return False
    return all(g.has_edge(path[i], path[i + 1]) for i in range(len(path) - 1))
