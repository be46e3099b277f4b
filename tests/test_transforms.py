"""Closure operator and the Kelmans transformation."""

import pytest

from hamq.corpus import all_graphs
from hamq.errors import BadParameters
from hamq.families import build_S, build_T
from hamq.graph import Graph, _degree_masks, complete, delete_edges, is_connected
from hamq.rng import SplitMix64, gnp, random_connected_gnp
from hamq.spectral import perron_pair
from hamq.transforms import closure, kelmans
from hamq.verify import _closure_with_order

from conftest import add_edges, cycle, path_graph


def test_closure_examples():
    g, tr = closure(cycle(4))
    assert g == cycle(4) and tr.added == ()
    g, tr = closure(delete_edges(complete(5), [(0, 1)]))
    assert g == complete(5) and tr.added == ((0, 1),)
    g, tr = closure(cycle(5))
    assert g == cycle(5) and tr.added == ()


def _lexicographic_closure(g):
    """Independent route: scan pairs lexicographically, restarting after each addition."""
    return _closure_with_order(g, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)])


def _assert_trace_replays(g, cl, tr):
    rows = [g.row(v) for v in range(g.n)]
    deg = list(g.degrees())
    for u, v in tr.added:
        # a missing edge whose degree sum held at the moment of addition
        assert u != v and not rows[u] >> v & 1
        assert deg[u] + deg[v] >= g.n + 1
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
    assert Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if rows[u] >> v & 1]) == cl


def test_closure_trace_replays():
    rng = SplitMix64(53)
    for _ in range(40):
        n = 4 + rng.next_below(8)
        g = gnp(n, 0.3 + 0.4 * rng.next_float(), rng)
        cl, tr = closure(g)
        _assert_trace_replays(g, cl, tr)


def test_closure_matches_the_lexicographic_scan_on_every_small_graph():
    # every graph of order 1..7, disconnected ones included
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    assert len(graphs) == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    added = 0
    for g in graphs:
        cl, tr = closure(g)
        assert cl == _lexicographic_closure(g)
        _assert_trace_replays(g, cl, tr)
        added += len(tr.added)
    assert added > 0


def test_closure_skips_the_pass_when_no_pair_reaches_n_plus_1(small_connected, monkeypatch):
    # when the two largest degrees sum to at most n, closure returns g itself
    # without building the degree masks; on either side of that cut-off
    # (sums n - 3 .. n + 3 on seeded gnp, n = 3..60) it agrees with the
    # restart scan.  A graph that is not skipped builds the masks once on the
    # worklist (fewer than 4n missing pairs), once per round otherwise
    import hamq.transforms as transforms

    built = []
    monkeypatch.setattr(transforms, "_degree_masks",
                        lambda deg: built.append(deg) or _degree_masks(deg))
    near = []
    rng = SplitMix64(79)
    while len(near) < 400:
        n = 3 + rng.next_below(58)
        g = gnp(n, 0.25 + 0.3 * rng.next_float(), rng)
        if abs(sum(sorted(g.degrees())[-2:]) - n) <= 3:
            near.append(g)
    graphs = [g for n in range(1, 8) for g in small_connected[n]] + near
    skipped = 0
    for g in graphs:
        cl, tr = closure(g)
        assert cl == _lexicographic_closure(g)
        _assert_trace_replays(g, cl, tr)
        if sum(sorted(g.degrees())[-2:]) <= g.n:
            assert cl is g and tr.added == () and built == []
            skipped += 1
        elif _missing(g) < 4 * g.n:
            assert len(built) == 1
        else:
            assert len(built) >= 1
        built.clear()
    assert skipped > 300 and len(graphs) - skipped > 300


def test_closure_fixpoint_and_idempotence():
    rng = SplitMix64(59)
    for _ in range(40):
        n = 4 + rng.next_below(9)
        g = gnp(n, 0.4, rng)
        cl, _ = closure(g)
        deg = cl.degrees()
        for u in range(n):
            for v in range(u + 1, n):
                if not cl.has_edge(u, v):
                    assert deg[u] + deg[v] <= n
        again, tr = closure(cl)
        assert again == cl and tr.added == ()


def test_closure_order_independence():
    # independent route: closure under shuffled scan orders
    rng = SplitMix64(61)
    for _ in range(60):
        n = 4 + rng.next_below(9)  # 4..12
        g = gnp(n, 0.2 + 0.6 * rng.next_float(), rng)
        ref, _ = closure(g)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(10):
            order = [pairs[i] for i in rng.permutation(len(pairs))]
            assert _closure_with_order(g, order) == ref


def _larger_closure_inputs():
    rng = SplitMix64(73)
    for _ in range(12):
        n = 20 + rng.next_below(21)  # 20..40
        yield gnp(n, 0.3 + 0.4 * rng.next_float(), rng)
    for build in (build_S, build_T):
        h = build(92, 2)
        for _ in range(3):
            x = h.X[rng.next_below(len(h.X))]
            z = h.Z[rng.next_below(len(h.Z))]
            yield add_edges(h.graph, [(x, z)])


def _missing(g):
    return g.n * (g.n - 1) // 2 - g.m


def _with_missing(g, target, rng):
    """g with random pairs joined or cut until exactly ``target`` pairs are missing."""
    rows = [g.row(v) for v in range(g.n)]
    missing = _missing(g)
    while missing != target:
        u, v = rng.next_below(g.n), rng.next_below(g.n)
        if u == v or bool(rows[u] >> v & 1) != (missing < target):
            continue
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        missing += 1 if missing < target else -1
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if rows[u] >> v & 1])


def _gate_edge_inputs():
    # seeded gnp reaches a complete closure at these counts; the hosts stop short
    rng = SplitMix64(83)
    for n in (20, 40, 92):
        for base in (gnp(n, 0.5, rng), build_S(n, 2).graph, build_T(n, 2).graph):
            for target in (4 * n - 1, 4 * n):
                yield _with_missing(base, target, rng)


def test_closure_matches_restart_scan_at_larger_orders(monkeypatch):
    # also on either side of the round gate: 4n - 1 missing pairs take the
    # worklist, which builds the degree masks exactly once; 4n take the
    # rounds, which build them once per round and replay in order
    import hamq.transforms as transforms

    built = []
    monkeypatch.setattr(transforms, "_degree_masks",
                        lambda deg: built.append(deg) or _degree_masks(deg))
    added = 0
    sides = {"worklist": 0, "rounds": 0, "incomplete": 0}
    for g in [*_larger_closure_inputs(), *_gate_edge_inputs()]:
        cl, tr = closure(g)
        assert cl == _lexicographic_closure(g)
        _assert_trace_replays(g, cl, tr)
        added += len(tr.added)
        if sum(sorted(g.degrees())[-2:]) <= g.n:
            assert built == []
        elif _missing(g) < 4 * g.n:
            assert len(built) == 1
            sides["worklist"] += 1
        else:
            assert len(built) >= 1
            sides["rounds"] += 1
        sides["incomplete"] += _missing(cl) > 0
        built.clear()
    assert added > 0
    assert sides["worklist"] >= 9 + 6 and sides["rounds"] >= 9 and sides["incomplete"] >= 12


def test_closure_of_closed_graph_adds_nothing():
    for g in _larger_closure_inputs():
        cl, _ = closure(g)
        again, tr = closure(cl)
        assert again == cl and tr.added == ()


def test_kelmans_examples():
    p3 = path_graph(3)
    assert kelmans(p3, 0, 2) == p3  # nothing to move
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    moved = kelmans(c4, 0, 1)
    assert sorted(moved.edges()) == [(0, 1), (0, 2), (0, 3), (2, 3)]
    g = complete(5)
    assert kelmans(g, 1, 3) == g  # neighborhoods nested
    with pytest.raises(BadParameters):
        kelmans(c4, 2, 2)


def test_kelmans_structure_preservation():
    rng = SplitMix64(67)
    for _ in range(60):
        n = 4 + rng.next_below(10)
        g = gnp(n, 0.3 + 0.5 * rng.next_float(), rng)
        u, v = rng.next_below(n), rng.next_below(n)
        if u == v:
            continue
        gs = kelmans(g, u, v)
        assert gs.has_edge(u, v) == g.has_edge(u, v)
        for x in range(n):
            if x not in (u, v):
                assert gs.degree(x) == g.degree(x)
        assert gs.m == g.m


def test_kelmans_never_decreases_radius():
    rng = SplitMix64(71)
    done = 0
    while done < 60:
        n = 4 + rng.next_below(12)
        g = random_connected_gnp(n, 0.3 + 0.4 * rng.next_float(), rng)
        u, v = rng.next_below(n), rng.next_below(n)
        if u == v:
            continue
        gs = kelmans(g, u, v)
        if not is_connected(gs):
            continue
        done += 1
        a, b = perron_pair(g), perron_pair(gs)
        assert b.q_hat >= a.q_hat - 1e-8
        assert a.lo <= b.hi + 1e-8
