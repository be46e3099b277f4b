"""Exact oracle: pair search, Hamilton-connectivity, degree-sum check."""

import hashlib
import json

import pytest

from hamq.errors import BadParameters, BudgetExceeded
from hamq.families import CLASSES, build_S, build_T, enumerate_class
from hamq.graph import (
    Graph,
    complete,
    delete_edges,
    disjoint_union,
    is_2_connected,
    is_connected,
    join,
)
from hamq.hamilton import (
    _pair_search,
    is_hamilton_connected,
    ore_check,
)
from hamq.rng import SplitMix64, gnp
from hamq.transforms import closure

from conftest import (
    add_edges,
    brute_failing_pair,
    brute_hamilton_path,
    brute_ore,
    cycle,
    path_graph,
    validate_path,
)


def s62():
    return join(complete(2), disjoint_union(complete(3), complete(1)))


def path_between(g, u, v, budget=10**8):
    return _pair_search(g, u, v, budget)[0]


def assert_path_table(g, ans):
    # a "yes" carries one spanning u-v path per pair u < v, in pair order
    n = g.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert list(ans.paths) == pairs
    for (u, v), path in ans.paths.items():
        assert validate_path(g, path) and path[0] == u and path[-1] == v


def test_path_between_examples():
    p = path_between(complete(4), 0, 3)
    assert p is not None and validate_path(complete(4), p)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert path_between(c4, 0, 2) is None
    p4 = path_graph(4)
    assert path_between(p4, 0, 3) == (0, 1, 2, 3)


def test_path_search_matches_brute_force():
    rng = SplitMix64(73)
    for _ in range(300):
        n = 3 + rng.next_below(5)  # 3..7
        g = gnp(n, 0.2 + 0.6 * rng.next_float(), rng)
        u = rng.next_below(n)
        v = rng.next_below(n)
        if u == v:
            continue
        ours = path_between(g, u, v)
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
    assert ans.verdict == "yes"
    assert_path_table(g, ans)


def test_oracle_matches_brute_force_on_corpus(small_connected):
    # verdict and failing pair against permutation enumeration; most pairs
    # of a "yes" come from rotations, so every path of the table is checked
    for n in range(1, 8):
        for g in small_connected[n]:
            ans = is_hamilton_connected(g)
            failing = brute_failing_pair(g)
            assert ans.verdict == ("yes" if failing is None else "no")
            assert ans.failing_pair == failing
            if failing is None:
                assert_path_table(g, ans)


def test_answers_never_share_a_paths_dict():
    # paths has no shared default: every answer, whatever its verdict, owns
    # its dict, so filling one leaves the others empty
    for g, budget, verdict in [(cycle(5), 100, "no"), (complete(5), 0, "timeout")]:
        a, b = is_hamilton_connected(g, budget), is_hamilton_connected(g, budget)
        assert a.verdict == b.verdict == verdict and a.paths == b.paths == {}
        a.paths[(0, 1)] = (0, 1)
        assert b.paths == {} and is_hamilton_connected(g, budget).paths == {}


def test_yes_answers_carry_every_pair_on_random_graphs():
    rng = SplitMix64(101)
    yes = 0
    for _ in range(300):
        n = 3 + rng.next_below(12)  # 3..14
        g = gnp(n, 0.4 + 0.55 * rng.next_float(), rng)
        ans = is_hamilton_connected(g)
        if ans.verdict == "yes":
            yes += 1
            assert_path_table(g, ans)
        else:
            assert ans.verdict == "no" and not ans.paths
            assert path_between(g, *ans.failing_pair) is None
    assert yes > 100


def test_dense_random_graph_needs_few_expansions():
    # one search finds a path; rotations fill the other C(n, 2) - 1 pairs
    g = gnp(92, 0.5, SplitMix64(1))
    ans = is_hamilton_connected(g)
    assert ans.verdict == "yes" and ans.nodes_expanded <= 10 * g.n
    assert_path_table(g, ans)


def _oracle_digest(graphs):
    """sha256 over the verdict, failing pair, node count and sorted path
    table of each graph's oracle answer."""
    digest = hashlib.sha256()
    for g in graphs:
        ans = is_hamilton_connected(g)
        record = [ans.verdict, ans.failing_pair, ans.nodes_expanded, sorted(ans.paths.items())]
        digest.update(json.dumps(record).encode())
    return digest.hexdigest()


def _gnp_pin_corpus():
    rng = SplitMix64(2026)
    for n in range(3, 17):
        for _ in range(30):
            yield gnp(n, 0.3 + 0.6 * rng.next_float(), rng)


def complete_bipartite(a, b):
    return Graph(a + b, [(u, a + w) for u in range(a) for w in range(b)])


# The oracle's answers pinned beyond the certify report corpus (which pins
# node counts only for n <= 9): any change to the search's prunes, memo or
# expansion order that alters a verdict, a failing pair, a node count or a
# path shows here.  K_{a,b} is never Hamilton-connected; its refutation
# depends on the memo (K_{7,7} takes 15,443 expansions).
ORACLE_GNP_DIGEST = "62f5a616eabe316742bdff5a98c7232fe8341dc463f15a146108dd4bcbd63203"
ORACLE_BIPARTITE_DIGEST = "0939137ead552a944bb06447f2ace9d25e51d228bdcec1d5a0c82bac2653cc5e"


def test_oracle_answers_are_pinned_on_seeded_gnp():
    assert _oracle_digest(_gnp_pin_corpus()) == ORACLE_GNP_DIGEST


def test_oracle_answers_are_pinned_on_complete_bipartite_graphs():
    graphs = [complete_bipartite(a, b) for a in range(2, 8) for b in range(a, 8)]
    assert is_hamilton_connected(graphs[-1]).nodes_expanded == 15_443
    assert _oracle_digest(graphs) == ORACLE_BIPARTITE_DIGEST


def test_k3_hosts_and_members_refuted_at_n33():
    # the first pair is refuted by the forced-edge prune: after a few steps
    # both X vertices keep exactly two links each, both to the target 1
    for build in (build_S, build_T):
        ans = is_hamilton_connected(build(33, 3).graph, 10**6)
        assert ans.verdict == "no" and ans.failing_pair == (0, 1)
    for clazz in CLASSES:
        for member in enumerate_class(clazz, 33, 3, mode="sample", seed=1, count=5):
            assert is_hamilton_connected(member.graph, 10**6).verdict == "no"


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


def _one_tight_pair(n, u, v, slack, rng):
    """K_n minus uv and minus n - 4 - slack further edges at u or v, to
    disjoint vertex sets, so d(u) + d(v) = n + slack; every other
    nonadjacent pair joins u or v to a vertex of degree n - 2 and sums to
    about 3n/2."""
    rest = [w for w in rng.permutation(n) if w not in (u, v)]
    total = n - 4 - slack
    a = total // 2
    gone = [(u, v)] + [(u, x) for x in rest[:a]] + [(v, y) for y in rest[a:total]]
    return delete_edges(complete(n), gone)


def _hidden_tight_pair(n, u, a, b, extra, rng):
    """K_n with d(u) = n // 2 - 1 the unique minimum degree, every
    non-neighbour of u of degree >= n - 4, and a, b (neighbours of u)
    nonadjacent with d(a) = d(b) = n // 2 + extra: for n >= 12 the only pair
    that can fail Ore is (a, b), which fails iff extra == 0."""
    h = n // 2
    rest = [w for w in rng.permutation(n) if w not in (u, a, b)]
    far = rest[len(rest) - (n - 2 - h - extra):]  # a and b miss these
    gone = ([(a, b)] + [(u, x) for x in rest[:n - h]]
            + [(a, y) for y in far] + [(b, y) for y in far])
    return delete_edges(complete(n), gone)


@pytest.mark.parametrize("n", [63, 64, 65, 92, 270, 652])
def test_ore_check_equals_the_pair_loop_across_word_boundaries(n):
    # the mask form against the pair loop where rows span one, two and
    # more 64-bit words
    rng = SplitMix64(1000 + n)
    graphs = [complete(n), disjoint_union(complete(n - 1), complete(1)),
              disjoint_union(complete(1), complete(n - 1))]
    for p in (0.5, 0.55, 0.6, 0.7, 0.9) if n <= 270 else (0.55, 0.6):
        graphs.append(gnp(n, p, rng))
    # exactly one nonadjacent pair at the boundary: degree sum n or n + 1
    ends = [(0, n - 1), (n - 2, n - 1), (62, 63 % n), (63 % n, 64 % n), (31, n // 2 + 1)]
    tight = []
    for u, v in ends:
        for slack in (0, 1):
            g = _one_tight_pair(n, u, v, slack, rng)
            assert g.degree(u) + g.degree(v) == n + slack
            tight.append((g, slack == 1))
    # the minimum-degree vertex passes, and only a pair of higher degree fails
    for u, a, b in ((62, 63 % n, 64 % n), (n // 2, 0, n - 1)):
        for extra in (0, 1):
            g = _hidden_tight_pair(n, u, a, b, extra, rng)
            assert min(g.degrees()) == g.degree(u) < g.degree(a) == g.degree(b)
            assert g.degree(a) + g.degree(b) == 2 * (n // 2 + extra)
            tight.append((g, extra == 1))
    for g in graphs:
        assert ore_check(g) == brute_ore(g)
    for g, holds in tight:
        assert ore_check(g) == brute_ore(g) == holds
    assert any(ore_check(g) for g in graphs[3:]) and not all(ore_check(g) for g in graphs[3:])


def test_closure_gate_consistency():
    rng = SplitMix64(89)
    for _ in range(150):
        n = 4 + rng.next_below(6)  # 4..9
        g = gnp(n, 0.4 + 0.4 * rng.next_float(), rng)
        cl, _ = closure(g)
        if cl.m == n * (n - 1) // 2:
            assert is_hamilton_connected(g).verdict == "yes"


def test_deep_search_is_not_bounded_by_the_recursion_limit():
    # the search holds its path on a list, so a path longer than Python's
    # recursion limit is searched like any other
    ans = is_hamilton_connected(cycle(1100), 10**4)
    assert ans.verdict == "no" and ans.failing_pair == (0, 2)


def test_budget_timeout():
    with pytest.raises(BudgetExceeded, match="budget of 5 node expansions") as exc:
        path_between(complete(12), 0, 1, budget=5)
    assert exc.value.budget == 5
    ans = is_hamilton_connected(complete(12), budget=5)
    assert ans.verdict == "timeout"
    # the aborted pair's expansions count: it spent its whole budget
    assert ans.nodes_expanded == 5
    ans = is_hamilton_connected(cycle(9), 3)
    assert ans.verdict == "timeout" and ans.nodes_expanded == 3


def test_negative_budget_is_rejected():
    with pytest.raises(BadParameters, match="budget >= 0"):
        is_hamilton_connected(cycle(6), -1)
    assert is_hamilton_connected(cycle(6), 0).verdict == "timeout"


def test_all_pairs_search_on_exhaustive_corpus(small_connected):
    # every pair of every connected 6-vertex graph, against permutations
    for g in small_connected[6]:
        for u in range(6):
            for v in range(u + 1, 6):
                ours = path_between(g, u, v)
                brute = brute_hamilton_path(g, u, v)
                assert (ours is None) == (brute is None)
