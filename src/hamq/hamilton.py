"""Exact Hamilton-connectivity oracle, plus the Ore check.

The pair search is depth-first backtracking over bit-mask states with four
sound prunes:

(a) every unvisited vertex other than the target must keep at least two
    links into the open region (unvisited vertices plus the current frontier
    and the target) -- an interior vertex of any completing path needs both
    a predecessor and a successor there; the target itself needs at least
    one entry point;
(b) the open region must be reachable from the frontier inside it, by the
    same frontier sweep ``graph._reach_mask`` that answers connectivity;
(c) for n <= 24, failed (visited-set, frontier) states are memoized;
(d) an unvisited vertex with exactly two links into the open region uses
    both as path edges, and the frontier and the target each have one path
    edge left, so the state is dead once two such vertices link to the
    frontier or two link to the target (the degree-2 forced-edge rule of
    Vandegriend and Culberson 1998).  It is checked inside (a)'s loop.

The search is iterative: the path and, for each vertex on it, the mask of
neighbours not yet tried are kept on explicit lists, so a path of any length
is searched without recursion.  Neighbor expansion is in ascending index
order, so verdicts, witnesses and node counts are deterministic.  Budgets
count node expansions, not wall time, which keeps Timeout verdicts
reproducible.

``is_hamilton_connected`` scans the pairs in ascending order and searches
only those that have no path yet.  Every path a search finds is closed
under Posa rotations (Posa 1976) at both ends: if the end e of
(p0 ... pi pi+1 ... e) is adjacent to pi, then (p0 ... pi e ... pi+1) is a
spanning p0-pi+1 path.  Each newly reached pair is recorded once and
rotated in turn, at O(n + deg) per recorded path.  Rotation only adds valid
paths and is not budgeted; the search alone decides, so a "no" names the
same minimum failing pair as a search of every pair would.

Conventions at tiny orders: a one-vertex graph is Hamilton-connected
vacuously, a two-vertex graph is Hamilton-connected iff its edge exists.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadParameters, BudgetExceeded
from .graph import Graph, _degree_masks, _reach_mask

DEFAULT_PAIR_BUDGET = 10**8
MEMO_SIZE_GATE = 24


class OracleAnswer(NamedTuple):
    """Outcome of an exhaustive search: Yes/No with a witness, or Timeout.

    For a Yes, ``paths`` maps each vertex pair (u, v), u < v, in ascending
    order to a spanning path from u to v; for a No, ``failing_pair`` is the
    smallest pair with no spanning path between its ends.  ``paths`` has no
    default, so no two answers can share one dict; a No or a Timeout passes
    its own empty one.
    """

    verdict: str  # "yes" | "no" | "timeout"
    paths: dict[tuple[int, int], tuple[int, ...]]
    failing_pair: tuple[int, int] | None = None
    nodes_expanded: int = 0


def _pair_search(
    g: Graph, u: int, v: int, budget: int
) -> tuple[tuple[int, ...] | None, int]:
    """Spanning u-v path or None; returns (path, nodes expanded).

    Raises BudgetExceeded once ``budget`` node expansions are spent.
    """
    n = g.n
    rows = g._rows
    full = (1 << n) - 1
    target_bit = 1 << v
    memo: set[tuple[int, int]] | None = set() if n <= MEMO_SIZE_GATE else None
    expanded = 0
    path = [u]
    untried: list[int] = []  # per expanded path vertex, its neighbours not yet tried
    visited = 1 << u
    while True:
        cur = path[-1]
        expanded += 1
        if expanded > budget:
            raise BudgetExceeded(f"search budget of {budget} node expansions exhausted", budget)
        cand = 0
        if visited | target_bit == full:
            if rows[cur] & target_bit:
                return (*path, v), expanded
        elif memo is None or (visited, cur) not in memo:
            cur_bit = 1 << cur
            open_ = full & ~visited & ~target_bit
            region = open_ | cur_bit | target_bit
            feasible = True
            forced_cur = forced_target = 0
            m = open_
            while m:
                b = m & -m
                m ^= b
                aw = rows[b.bit_length() - 1] & (region & ~b)
                rest = aw & (aw - 1)
                if not rest:  # (a): fewer than two links left
                    feasible = False
                    break
                if not rest & (rest - 1):  # (d): exactly two links, both forced
                    forced_cur += bool(aw & cur_bit)
                    forced_target += bool(aw & target_bit)
                    if forced_cur > 1 or forced_target > 1:
                        feasible = False
                        break
            if feasible and not rows[v] & (open_ | cur_bit):
                feasible = False
            if feasible and (open_ | target_bit) & ~_reach_mask(rows, cur, region):
                feasible = False
            if feasible:
                cand = rows[cur] & open_
        untried.append(cand)
        # back up to the deepest path vertex with a neighbour left to try;
        # each vertex left behind failed in its state (re-adding a memoized
        # state is a no-op, and a fully visited state is never looked up)
        while untried and not untried[-1]:
            untried.pop()
            w = path.pop()
            if memo is not None:
                memo.add((visited, w))
            visited ^= 1 << w
        if not untried:
            return None, expanded
        b = untried[-1] & -untried[-1]
        untried[-1] ^= b
        path.append(b.bit_length() - 1)
        visited |= b


def _rotate_fill(
    rows: tuple[int, ...], path: tuple[int, ...], paths: dict[tuple[int, int], tuple[int, ...]]
) -> None:
    """Record every spanning path reachable from the recorded ``path`` by
    Posa rotations at either end, each under its end pair and oriented from
    the smaller end.  Once every pair has a path no key can be added, so the
    rotations stop there."""
    pairs = len(path) * (len(path) - 1) // 2
    pending = [path]
    while pending and len(paths) < pairs:
        p = pending.pop()
        last = len(p) - 1
        pos = dict(zip(p, range(len(p))))  # index in p; in p[::-1] it is last - index
        for q, rev in ((p, False), (p[::-1], True)):  # rotate at the far end, keeping q[0] fixed
            m = rows[q[last]] & ~(1 << q[last - 1])
            while m:
                b = m & -m
                m ^= b
                i = pos[b.bit_length() - 1]
                if rev:
                    i = last - i
                x, y = q[0], q[i + 1]
                key = (x, y) if x < y else (y, x)
                if key not in paths:
                    new = q[: i + 1] + q[: i : -1]
                    paths[key] = new if x < y else new[::-1]
                    pending.append(new)


def is_hamilton_connected(
    g: Graph, budget: int = DEFAULT_PAIR_BUDGET
) -> OracleAnswer:
    """Exhaustive Hamilton-connectivity oracle.

    Pairs are scanned in ascending order; a pair without a path yet is
    searched with ``budget`` node expansions, and each path found is closed
    under rotations (see the module docstring).  The first pair the search
    refutes ends the scan with "no", so the reported pair is the minimum
    one; "yes" carries a path for every pair.  A timed-out pair search adds
    its spent budget to ``nodes_expanded``.  A negative budget is rejected.
    """
    if budget < 0:
        raise BadParameters(f"pair search needs a budget >= 0, got {budget}")
    n = g.n
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    total = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in paths:
                continue
            try:
                path, nodes = _pair_search(g, u, v, budget)
            except BudgetExceeded as exc:
                return OracleAnswer(verdict="timeout", paths={},
                                    nodes_expanded=total + exc.budget)
            total += nodes
            if path is None:
                return OracleAnswer(verdict="no", paths={}, failing_pair=(u, v),
                                    nodes_expanded=total)
            paths[(u, v)] = path
            _rotate_fill(g._rows, path, paths)
    return OracleAnswer(verdict="yes", paths=dict(sorted(paths.items())),
                        nodes_expanded=total)


def ore_check(g: Graph) -> bool:
    """Degree-sum sufficiency: n >= 3 and every nonadjacent pair sums to at
    least n + 1.  True implies Hamilton-connected.

    The classical statement also asks for 2-connectivity, which these degree
    sums already imply.  If G is disconnected, take a and b in different
    components A and B: d(a) + d(b) <= (|A| - 1) + (|B| - 1) <= n - 2.  If c
    is a cut vertex, take a and b in different components A and B of G - c:
    d(a) + d(b) <= |A| + |B| <= n - 1.  Either way a nonadjacent pair sums
    to less than n + 1.

    The pairs are read as masks: with ``ge[t]`` the vertices of degree >= t
    (``graph._degree_masks``), a non-neighbour v != u of u sums to at least
    n + 1 iff v lies in ``ge[n + 1 - d(u)]``, so the check fails iff some u
    has ``ge[n + 1 - d(u)] | N[u]`` short of all n vertices.  ``ge[n] == 0``
    stands in for t = n + 1 (d(u) = 0), which no vertex reaches either.
    Cost: O(n) operations on n-bit integers, not the O(n^2) pair loop.

    Two cheaper steps come first.  With 2 * delta >= n + 1 every pair sums
    to at least n + 1.  Otherwise a vertex u of minimum degree asks the most
    of its non-neighbours (degree >= n + 1 - delta), so most failing graphs
    fail there: u's non-neighbours are scanned, up to the first one that
    falls short, before the masks are built.
    """
    n = g.n
    if n < 3:
        return False
    deg = g._deg
    rows = g._rows
    full = (1 << n) - 1
    d = min(deg)
    if 2 * d >= n + 1:  # every pair sums to at least 2 * delta
        return True
    u = deg.index(d)
    row, need = rows[u], n + 1 - d
    for v, dv in enumerate(deg):
        if dv < need and v != u and not row >> v & 1:
            return False
    ge = _degree_masks(deg)
    for u, d in enumerate(deg):
        if (ge[min(n + 1 - d, n)] | rows[u] | 1 << u) != full:
            return False
    return True
