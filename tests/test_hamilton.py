"""Exact oracles: pair search, Hamilton-connectivity, degree-sum check."""

import pytest

from hamq.errors import BadParameters, SearchTimeout
from hamq.graph import (
    Graph,
    add_edges,
    complete,
    cycle,
    delete_edges,
    disjoint_union,
    is_2_connected,
    is_connected,
    join,
    path_graph,
)
from hamq.hamilton import (
    hamilton_path_between,
    is_hamilton_connected,
    is_hamiltonian,
    is_traceable,
    ore_check,
    validate_path,
)
from hamq.rng import SplitMix64, gnp
from hamq.transforms import closure

from conftest import (
    brute_hamilton_connected,
    brute_hamilton_path,
    brute_hamiltonian,
    brute_traceable,
    petersen,
)


def s62():
    return join(complete(2), disjoint_union(complete(3), complete(1)))


def test_path_between_examples():
    p = hamilton_path_between(complete(4), 0, 3)
    assert p is not None and validate_path(complete(4), p)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert hamilton_path_between(c4, 0, 2) is None
    p4 = path_graph(4)
    assert hamilton_path_between(p4, 0, 3) == (0, 1, 2, 3)
    with pytest.raises(BadParameters):
        hamilton_path_between(p4, 1, 1)


def test_path_search_matches_brute_force():
    rng = SplitMix64(73)
    for _ in range(300):
        n = 3 + rng.next_below(5)  # 3..7
        g = gnp(n, 0.2 + 0.6 * rng.next_float(), rng)
        u = rng.next_below(n)
        v = rng.next_below(n)
        if u == v:
            continue
        ours = hamilton_path_between(g, u, v)
        brute = brute_hamilton_path(g, u, v)
        assert (ours is None) == (brute is None)
        if ours is not None:
            assert validate_path(g, ours) and ours[0] == u and ours[-1] == v


def test_hamilton_connected_examples():
    assert is_hamilton_connected(complete(4)).verdict == "yes"
    ans = is_hamilton_connected(cycle(5))
    assert ans.verdict == "no" and ans.failing_pair == (0, 2)
    ans = is_hamilton_connected(s62())
    assert ans.verdict == "no"
    assert ans.failing_pair == (0, 1)  # both hub vertices


def test_hamilton_connected_conventions():
    assert is_hamilton_connected(complete(1)).verdict == "yes"
    assert is_hamilton_connected(complete(2)).verdict == "yes"
    assert is_hamilton_connected(Graph(2)).verdict == "no"


def test_hamilton_connected_witnesses_validate():
    g = complete(6)
    ans = is_hamilton_connected(g)
    assert ans.verdict == "yes" and len(ans.paths) == 15
    for (u, v), path in ans.paths.items():
        assert validate_path(g, path) and path[0] == u and path[-1] == v


def test_oracle_matches_brute_force_on_corpus(small_connected):
    for n in (1, 2, 3, 4, 5, 6):
        for g in small_connected[n]:
            assert (is_hamilton_connected(g).verdict == "yes") == brute_hamilton_connected(g)


def test_monotone_under_edge_addition():
    rng = SplitMix64(79)
    done = 0
    while done < 25:
        n = 4 + rng.next_below(5)
        g = gnp(n, 0.5, rng)
        if is_hamilton_connected(g).verdict != "yes" or g.m == n * (n - 1) // 2:
            continue
        done += 1
        missing = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        extra = missing[rng.next_below(len(missing))]
        assert is_hamilton_connected(add_edges(g, [extra])).verdict == "yes"


def test_ore_examples():
    assert ore_check(complete(5))
    assert not ore_check(cycle(6))
    k6_minus_pm = delete_edges(complete(6), [(0, 1), (2, 3), (4, 5)])
    assert ore_check(k6_minus_pm)
    assert is_hamilton_connected(k6_minus_pm).verdict == "yes"


def test_ore_check_equals_the_classical_statement(small_connected):
    # the classical statement asks for 2-connectivity as well; the degree
    # sums imply it (see ore_check), so both agree on every graph
    def classical(g):
        n, deg = g.n, g.degrees()
        sums = all(g.has_edge(u, v) or deg[u] + deg[v] >= n + 1
                   for u in range(n) for v in range(u + 1, n))
        return is_2_connected(g) and sums

    graphs = [g for n in range(1, 8) for g in small_connected[n]]
    rng = SplitMix64(97)
    for _ in range(1000):
        n = 1 + rng.next_below(14)
        graphs.append(gnp(n, 0.3 + 0.7 * rng.next_float(), rng))
    # two cliques sharing a cut vertex, and two disjoint cliques
    for a in range(1, 7):
        for b in range(1, 7):
            graphs.append(join(complete(1), disjoint_union(complete(a), complete(b))))
            graphs.append(disjoint_union(complete(a), complete(b)))
    assert any(not is_connected(g) for g in graphs)
    fired = 0
    for g in graphs:
        assert ore_check(g) == classical(g)
        fired += ore_check(g)
    assert fired > 100


def test_hamiltonian_and_traceable():
    assert is_hamiltonian(cycle(5)).verdict == "yes"
    assert is_hamiltonian(path_graph(5)).verdict == "no"
    assert is_traceable(path_graph(5)).verdict == "yes"
    pet = petersen()
    assert is_hamiltonian(pet).verdict == "no"  # classical hypohamiltonicity
    assert is_traceable(pet).verdict == "yes"
    with pytest.raises(BadParameters):
        is_hamiltonian(complete(2))


def test_cycle_and_path_oracles_match_brute_force():
    rng = SplitMix64(83)
    for _ in range(120):
        n = 3 + rng.next_below(4)
        g = gnp(n, 0.3 + 0.5 * rng.next_float(), rng)
        assert (is_hamiltonian(g).verdict == "yes") == brute_hamiltonian(g)
        assert (is_traceable(g).verdict == "yes") == brute_traceable(g)


def test_hierarchy_on_small_corpus(small_connected):
    # spanning-path hierarchy; cycle oracle needs order >= 3
    for n in (3, 4, 5, 6, 7):
        for g in small_connected[n]:
            hc = is_hamilton_connected(g).verdict == "yes"
            ham = is_hamiltonian(g).verdict == "yes"
            tr = is_traceable(g).verdict == "yes"
            assert not hc or ham
            assert not ham or tr


def test_closure_gate_consistency():
    rng = SplitMix64(89)
    for _ in range(150):
        n = 4 + rng.next_below(6)  # 4..9
        g = gnp(n, 0.4 + 0.4 * rng.next_float(), rng)
        cl, _ = closure(g, n + 1)
        if cl.m == n * (n - 1) // 2:
            assert is_hamilton_connected(g).verdict == "yes"


def test_budget_timeout():
    with pytest.raises(SearchTimeout):
        hamilton_path_between(complete(12), 0, 1, budget=5)
    ans = is_hamilton_connected(complete(12), budget=5)
    assert ans.verdict == "timeout"
    # the aborted pair's expansions count: it spent its whole budget
    assert ans.nodes_expanded == 5
    ans = is_hamilton_connected(cycle(9), 3)
    assert ans.verdict == "timeout" and ans.nodes_expanded == 3
    ans = is_hamiltonian(complete(12), budget=5)
    assert ans.verdict == "timeout" and ans.nodes_expanded == 5
    ans = is_traceable(complete(12), budget=5)
    assert ans.verdict == "timeout" and ans.nodes_expanded == 5


def test_all_pairs_search_on_exhaustive_corpus(small_connected):
    # every pair of every connected 6-vertex graph, against permutations
    for g in small_connected[6]:
        for u in range(6):
            for v in range(u + 1, 6):
                ours = hamilton_path_between(g, u, v)
                brute = brute_hamilton_path(g, u, v)
                assert (ours is None) == (brute is None)
