"""Exhaustive corpora of small graphs up to isomorphism.

Graphs on up to 7 vertices are generated internally (no external data): each
level extends every (n-1)-vertex representative by one new vertex with every
possible neighborhood, then deduplicates by a canonical form.  The canonical
form is the minimum upper-triangle bit string over all vertex permutations,
evaluated for all permutations at once with a precomputed numpy index table;
at these orders that is both simple and fast.  The generated counts are
validated against the published numbers of connected graphs (112 at n=6,
853 at n=7) by the test suite, which pins the generator end to end.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb
from typing import TYPE_CHECKING

from .errors import BadParameters, SizeLimit
from .graph import Graph, is_connected

if TYPE_CHECKING:
    import numpy as np

CANON_SIZE_GATE = 8

# published counts used as generator validation anchors
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    t = 0
    for u in range(n):
        for v in range(u + 1, n):
            idx[(u, v)] = t
            t += 1
    return idx


@lru_cache(maxsize=None)
def _perm_slot_table(n: int) -> np.ndarray:
    """Row p maps edge-slot i of the permuted graph to a source slot."""
    import numpy as np

    idx = _pair_index(n)
    slots = list(idx)
    table = np.empty((len(list(permutations(range(n)))), len(slots)), dtype=np.int16)
    for p, perm in enumerate(permutations(range(n))):
        for i, (u, v) in enumerate(slots):
            a, b = perm[u], perm[v]
            table[p, i] = idx[(a, b) if a < b else (b, a)]
    return table


@lru_cache(maxsize=None)
def _slot_weights(n: int) -> np.ndarray:
    import numpy as np

    nbits = comb(n, 2)
    return (1 << np.arange(nbits, dtype=np.uint64))[::-1].astype(np.uint64)


def _edge_bits(g: Graph) -> np.ndarray:
    import numpy as np

    bits = np.zeros(comb(g.n, 2), dtype=np.uint64)
    t = 0
    for u in range(g.n):
        row = g.row(u)
        for v in range(u + 1, g.n):
            bits[t] = row >> v & 1
            t += 1
    return bits


def canonical_key(g: Graph) -> int:
    """Isomorphism-invariant key: min edge bit string over all relabelings."""
    n = g.n
    if n > CANON_SIZE_GATE:
        raise SizeLimit(f"canonical form is gated at n <= {CANON_SIZE_GATE}")
    if n == 1:
        return 0
    bits = _edge_bits(g)
    table = _perm_slot_table(n)
    packed = bits[table] @ _slot_weights(n)
    return int(packed.min())


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs of order n up to isomorphism (n <= 7)."""
    if n > 7:
        raise SizeLimit("exhaustive corpus is gated at n <= 7")
    if n < 1:
        raise BadParameters(f"graph order must be >= 1, got {n}")
    if n == 1:
        return (Graph(1),)
    reps: dict[int, Graph] = {}
    for h in all_graphs(n - 1):
        base_rows = list(h._rows)
        for mask in range(1 << (n - 1)):
            rows = base_rows + [mask]
            rows = [
                rows[v] | ((mask >> v & 1) << (n - 1)) if v < n - 1 else mask
                for v in range(n)
            ]
            g = Graph._from_rows(n, rows)
            key = canonical_key(g)
            if key not in reps:
                reps[key] = g
    return tuple(reps[k] for k in sorted(reps))


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs of order n up to isomorphism (n <= 7)."""
    return tuple(g for g in all_graphs(n) if is_connected(g))
