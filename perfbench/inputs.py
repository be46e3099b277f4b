"""Seeded inputs for the benchmark workloads.

Graphs are drawn with ``random.Random(seed)``, not with hamq's own generator,
so the inputs stay the same when the program changes.  Family hosts come from
the public ``build_S`` / ``build_T`` constructors; members and perturbations
are made here and relabeled by a seeded permutation, so that recognition
works on scrambled labels.

Each :class:`Item` carries the truth its construction proves: ``"not-hc"``
for family hosts' spanning subgraphs and for graphs with a cut vertex,
``None`` where the construction proves nothing.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

import hamq
from hamq import Graph


@dataclass(frozen=True)
class Item:
    label: str
    graph: Graph
    truth: str | None
    path: Path | None = None  # the input file, for items given to the CLI


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    rand = rng.random
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rand() < p])


def relabeled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _host(kind: str, n: int, k: int):
    return (hamq.build_S if kind == "S" else hamq.build_T)(n, k)


def _e0_sample(rng: random.Random, n: int, k: int, count: int) -> list[tuple[int, int]]:
    """Distinct pairs inside Y u Z, which is the index prefix 0..n-k."""
    p = n - k + 1
    picked: set[tuple[int, int]] = set()
    while len(picked) < count:
        u, v = sorted(rng.sample(range(p), 2))
        picked.add((u, v))
    return sorted(picked)


def family_member(rng: random.Random, clazz: str, n: int, k: int) -> Item:
    """A relabeled class member with the class's largest deletion count."""
    h = _host(clazz[0], n, k)
    g = hamq.delete_edges(h.graph, _e0_sample(rng, n, k, hamq.class_bound(clazz, k)))
    return Item(f"{clazz}-n{n}", relabeled(rng, g), "not-hc")


def host_plus_xz(rng: random.Random, kind: str, n: int, k: int) -> Item:
    """A host with one X-Z edge added; the layout is kept, because closure's
    cost depends on where the new edge sits in the scan order."""
    h = _host(kind, n, k)
    g = Graph(n, h.graph.edges() + [(rng.choice(h.X), rng.choice(h.Z))])
    return Item(f"{kind}host+xz-n{n}", g, None)


def near_host(rng: random.Random, kind: str, n: int, k: int, adds: int) -> Item:
    """A host with 2..6 deletions inside Y u Z and ``adds`` added X-Z edges.

    Without added edges the graph is a spanning subgraph of the host, so it
    is not Hamilton-connected.
    """
    h = _host(kind, n, k)
    g = hamq.delete_edges(h.graph, _e0_sample(rng, n, k, rng.randint(2, 6)))
    extra: set[tuple[int, int]] = set()
    while len(extra) < adds:
        extra.add((rng.choice(h.Z), rng.choice(h.X)))
    g = Graph(n, g.edges() + sorted(extra))
    return Item(f"near-{kind}host+{adds}-n{n}", relabeled(rng, g), None if adds else "not-hc")


def cut_vertex(rng: random.Random, n: int, p: float) -> Item:
    """Two dense blocks sharing vertex n // 2.

    The shared vertex keeps a fixed index so that cut-vertex search (a scan
    in vertex order) costs the same for every seed.
    """
    c = n // 2
    edges = []
    for block in (range(0, c + 1), range(c, n)):
        b = list(block)
        edges += [(b[i], b[j]) for i in range(len(b)) for j in range(i + 1, len(b))
                  if rng.random() < p]
    return Item(f"cut-vertex-n{n}", Graph(n, edges), "not-hc")


def spread(groups: list[list]) -> list:
    """Interleave the groups so that each one is spread evenly over the whole
    sequence; a slow spell of the machine then touches every kind of item."""
    keyed = [((i + 0.5) / len(g), j, i) for j, g in enumerate(groups) for i in range(len(g))]
    return [groups[j][i] for _, j, i in sorted(keyed)]


def edgelist_text(g: Graph) -> str:
    return "".join([f"{g.n} {g.m}\n"] + [f"{u} {v}\n" for u, v in g.edges()])


def digest(chunks: list[bytes]) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def max_exceptional_k(g: Graph) -> int:
    """Largest k >= 3 at which g could reach host confirmation, or 0.

    ``certify`` only tries host embedding and family membership at
    k <= min degree, and both need k - 1 vertices of degree <= k.
    """
    deg = sorted(g.degrees())
    for k in range(deg[0], 2, -1):
        if 2 * k <= g.n and deg[k - 2] <= k:
            return k
    return 0
