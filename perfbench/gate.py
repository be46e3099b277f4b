"""Correctness gate: every verdict against the truth its input's construction
gives, with certificates replayed on the input.

Replays use only the graph's adjacency rows and this file's own
connectivity sweep, except the Ore replay, which runs ``hamq.ore_check``
again.  A "not Hamilton-connected" claim is accepted when its witness is a
separator: if G is Hamilton-connected, removing any set S of at least two
vertices leaves at most |S| - 1 components, because a spanning path between
two vertices of S falls into at most |S| - 1 pieces.
"""

from __future__ import annotations

from typing import Any

import hamq
from hamq import Graph

CERTIFIED = "CertifiedHamiltonConnected"
EXCEPTIONAL = "ExceptionalFamily"
NOT_HC = "NotHamiltonConnected"

# exit codes of `hamq certify`, from its documented contract
EXIT_CODES = {CERTIFIED: 0, "ExactYes": 0, "ExactNo": 1, NOT_HC: 1,
              "Inconclusive": 2, "Timeout": 3}


def expected_exit(report: dict[str, Any]) -> int:
    if report["outcome"] == EXCEPTIONAL:
        return 1 if report["witnesses"].get("non_hamilton_connected") else 2
    return EXIT_CODES[report["outcome"]]


def unsettled(report: dict[str, Any]) -> bool:
    """Timeout, or an exceptional finding left unconfirmed (counted as failed)."""
    return report["outcome"] == "Timeout" or (
        report["outcome"] == EXCEPTIONAL
        and not report["witnesses"].get("non_hamilton_connected"))


def components(g: Graph, removed: set[int]) -> int:
    """Number of connected components of g minus ``removed``."""
    left = 0
    for v in range(g.n):
        if v not in removed:
            left |= 1 << v
    count = 0
    while left:
        reached = left & -left
        frontier = reached
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= g.row(b.bit_length() - 1)
            frontier = nxt & left & ~reached
            reached |= frontier
        left &= ~reached
        count += 1
    return count


def _replay_closure(g: Graph, additions: list) -> str | None:
    n = g.n
    rows = [g.row(v) for v in range(n)]
    deg = [r.bit_count() for r in rows]
    for u, v in additions:
        if u == v or rows[u] >> v & 1:
            return f"closure addition ({u},{v}) is not a missing edge"
        if deg[u] + deg[v] < n + 1:
            return f"closure addition ({u},{v}) has degree sum {deg[u] + deg[v]} < {n + 1}"
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
    if sum(deg) != n * (n - 1):
        return "closure trace does not end at the complete graph"
    return None


def _separator_of(witnesses: dict[str, Any]) -> list[int] | None:
    for key in ("embedding", "membership"):
        w = witnesses.get(key)
        if w is not None:
            return list(w["Y"] if isinstance(w, dict) else w.Y)
    return None


def check(g: Graph, truth: str | None, report: dict[str, Any]) -> str | None:
    """None when the verdict is consistent with the truth and its certificate
    replays on ``g``; otherwise the reason it is not.

    ``report`` has the keys of ``hamq.explain``: outcome, fired_condition,
    witnesses.
    """
    outcome = report["outcome"]
    witnesses = report["witnesses"]
    if outcome in (CERTIFIED, "ExactYes"):
        if truth == "not-hc":
            return f"{outcome} on a graph that is not Hamilton-connected"
        fired = (report["fired_condition"] or {}).get("name")
        if fired == "Ore":
            return None if hamq.ore_check(g) else "Ore certificate does not replay"
        if fired == "ClosureComplete":
            return _replay_closure(g, witnesses["closure_additions"])
        return f"no replay for a certificate fired by {fired}"
    if outcome == NOT_HC:
        if witnesses.get("reason") == "disconnected":
            return None if components(g, set()) > 1 else "claimed disconnected, is connected"
        if witnesses.get("reason") == "cut-vertex":
            c = witnesses["cut_vertex"]
            return None if components(g, {c}) > 1 else f"vertex {c} is not a cut vertex"
        return f"unknown NotHamiltonConnected reason {witnesses.get('reason')!r}"
    if outcome == EXCEPTIONAL and witnesses.get("non_hamilton_connected"):
        y = _separator_of(witnesses)
        if y is None or len(y) < 2 or components(g, set(y)) < len(y):
            return "exceptional verdict without a separating host partition"
    return None
