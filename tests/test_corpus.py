"""Small-graph corpus generation and canonical forms."""

import pytest

from hamq.corpus import all_graphs, canonical_key, connected_graphs
from hamq.errors import BadParameters
from hamq.graph import Graph, complete
from hamq.rng import SplitMix64, gnp

from conftest import cycle, relabel

# published counts of graphs up to isomorphism (OEIS A000088 and A001349),
# the anchors that validate the generator
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_counts_match_published_values():
    for n in range(1, 8):
        assert len(all_graphs(n)) == ALL_GRAPH_COUNTS[n]
        assert len(connected_graphs(n)) == CONNECTED_GRAPH_COUNTS[n]


def test_canonical_key_is_isomorphism_invariant():
    rng = SplitMix64(13)
    for _ in range(200):
        n = 2 + rng.next_below(6)
        g = gnp(n, rng.next_float(), rng)
        h = relabel(g, rng.permutation(n))
        assert canonical_key(g) == canonical_key(h)


def test_canonical_key_separates_nonisomorphic():
    a = cycle(6)
    b = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert a.m == b.m
    assert canonical_key(a) != canonical_key(b)


def test_corpus_members_are_pairwise_nonisomorphic():
    keys = [canonical_key(g) for g in all_graphs(6)]
    assert len(keys) == len(set(keys))


def test_canonical_gate():
    with pytest.raises(BadParameters, match="gated at n <= "):
        canonical_key(complete(9))


def test_corpus_builds_without_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hamq

    env = dict(os.environ)
    src = str(Path(hamq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys, hamq.corpus; hamq.corpus.connected_graphs(5); "
              "print('numpy' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stdout.strip() == "False", res.stderr
