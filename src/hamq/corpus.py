"""Exhaustive corpora of small graphs up to isomorphism.

Graphs on up to 7 vertices are generated internally (no external data): each
level extends every (n-1)-vertex representative by one new vertex with every
possible neighborhood, then deduplicates by a canonical form.

The canonical form is the minimum upper-triangle bit string, read column by
column, over the relabelings that list the vertices in increasing order of
the label ``deg(v) << 6 | sum of deg(u) over the neighbors u of v``, with
vertices of equal label permuted among themselves in every way.  The label
is an isomorphism invariant, so an isomorphism G -> H carries the admissible
relabelings of G onto those of H and both reach the same minimum; and the
bit string spells out the adjacency matrix of a relabeled copy, so
non-isomorphic graphs never share a key.  For n <= ``CANON_SIZE_GATE`` = 8
the neighbor-degree sum is at most 49 < 64, so the label packs (degree, sum)
without collisions; the sum splits most degree classes.  The minimum is
built one column at a time, keeping only the partial relabelings whose
columns spell the least prefix so far.

The generated counts are validated against the published numbers of
connected graphs (112 at n=6, 853 at n=7) by the test suite, which pins the
generator end to end.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BadParameters
from .graph import Graph, is_connected, iter_bits

CANON_SIZE_GATE = 8
CORPUS_SIZE_GATE = 7  # the largest order the exhaustive corpora hold


def canonical_key(g: Graph) -> int:
    """Isomorphism-invariant key: the minimum column-by-column edge bit string
    over the relabelings that sort the vertices by their invariant label."""
    n = g.n
    if n > CANON_SIZE_GATE:
        raise BadParameters(f"canonical form is gated at n <= {CANON_SIZE_GATE}")
    rows = [g.row(v) for v in range(n)]
    deg = g.degrees()
    label = [deg[v] << 6 | sum(deg[u] for u in iter_bits(rows[v])) for v in range(n)]
    # fill the slots in label order, one column at a time, keeping every
    # partial relabeling whose columns so far spell the least prefix
    orders: list[tuple[int, ...]] = [()]
    key = 0
    for j, want in enumerate(sorted(label)):
        least, grown = -1, []
        for order in orders:
            for v in range(n):
                if label[v] != want or v in order:
                    continue
                col = 0
                for u in order:
                    col = col << 1 | (rows[v] >> u & 1)
                if least < 0 or col < least:
                    least, grown = col, [order + (v,)]
                elif col == least:
                    grown.append(order + (v,))
        key = key << j | least
        orders = grown
    return key


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs of order n up to isomorphism (n <= ``CORPUS_SIZE_GATE``)."""
    if n > CORPUS_SIZE_GATE:
        raise BadParameters(f"exhaustive corpus is gated at n <= {CORPUS_SIZE_GATE}")
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
    """All connected graphs of order n up to isomorphism (n <= ``CORPUS_SIZE_GATE``)."""
    return tuple(g for g in all_graphs(n) if is_connected(g))
