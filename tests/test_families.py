"""Family construction, enumeration, recognition, thresholds, exact bounds."""

from fractions import Fraction
from math import comb

import pytest

from hamq import families
from hamq.certifier import certify
from hamq.errors import BadParameters, BudgetExceeded
from hamq.families import (
    CLASSES,
    DEFAULT_ENUM_BUDGET,
    appendix_check,
    build_S,
    build_T,
    indicator_rayleigh_value,
    class_bound,
    enumerate_class,
    family_member,
    hub_partitions,
    indicator_vector,
    membership,
    refined_partition,
    spanning_subgraph_of,
    thresholds,
)
from hamq.graph import Graph, complete, component_count, delete_edges
from hamq.hamilton import is_hamilton_connected
from hamq.rng import SplitMix64
from hamq.spectral import perron_pair, rayleigh_quotient_exact
from hamq.transforms import closure
from hamq.verify import run_appendix

from conftest import cycle, neighbors, relabel


def test_build_S_examples():
    h = build_S(6, 2)
    assert h.graph.m == 12
    assert sorted(h.graph.degrees()) == [2, 4, 4, 4, 5, 5]
    assert h.X == (5,) and h.Y == (0, 1) and h.Z == (2, 3, 4)


def test_build_T_examples():
    h = build_T(7, 3)
    assert h.graph.m == comb(5, 2) + 4 + 1 == 15
    assert len(h.X) == 2 and len(h.Y) == 2 and len(h.Z) == 3


def test_S_and_T_coincide_at_k2():
    for n in (6, 9, 14):
        assert build_S(n, 2).graph == build_T(n, 2).graph


def test_degree_spectrum_invariant():
    for n, k in [(10, 3), (12, 4), (15, 5), (9, 2)]:
        hs = build_S(n, k)
        degs = hs.graph.degrees()
        assert sum(1 for d in degs if d == k) == k - 1
        assert sum(1 for d in degs if d == n - 1) == k
        assert sum(1 for d in degs if d == n - k) == n - 2 * k + 1
        ht = build_T(n, k)
        degt = ht.graph.degrees()
        assert sum(1 for d in degt if d == k) == k - 1
        assert sum(1 for d in degt if d == n - 1) == 2
        assert sum(1 for d in degt if d == n - k) == n - k - 1


def test_edge_count_formulas():
    for n, k in [(9, 3), (12, 4), (20, 5), (92, 2)]:
        assert build_S(n, k).graph.m == comb(n - k + 1, 2) + k * (k - 1)
        assert build_T(n, k).graph.m == comb(n - k + 1, 2) + 2 * (k - 1) + comb(k - 1, 2)


def test_build_rejects_bad_parameters():
    for n, k in [(4, 2), (9, 1), (9, 5), (8, 6)]:
        with pytest.raises(BadParameters):
            build_S(n, k)


def test_family_member():
    base = build_S(9, 3)
    assert base.e0_size == comb(7, 2) == 21
    m = family_member(base, [(0, 3)])
    assert m.graph.m == base.graph.m - 1 and m.deleted == frozenset({(0, 3)})
    with pytest.raises(BadParameters, match="outside Y u Z"):
        family_member(base, [(0, 8)])  # endpoint in X
    with pytest.raises(BadParameters):
        family_member(m, [(0, 4)])  # base must be pristine
    # the base is left as built, and the member differs only in its edges
    assert base == build_S(9, 3) and base.graph.m == m.graph.m + 1
    assert m._replace(deleted=frozenset(), graph=base.graph) == base


@pytest.mark.parametrize("make", [
    lambda: thresholds(3),
    lambda: build_S(9, 2),
    lambda: next(hub_partitions(build_T(9, 2).graph, "T", 2)),
    lambda: appendix_check(3, 300),
    lambda: closure(cycle(6))[1],
    lambda: is_hamilton_connected(complete(4)),
    lambda: perron_pair(complete(4)),
    lambda: certify(cycle(6)),
    lambda: run_appendix(k_values=[2]),
], ids=["Thresholds", "FamilyHandle", "FamilyHandle-recognized", "AppendixReport",
        "ClosureTrace", "OracleAnswer", "SpectralEstimate", "Certificate", "SuiteReport"])
def test_records_are_frozen_and_compare_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and type(a) is type(b)
    field = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))


def test_class_bounds():
    assert class_bound("S1", 4) == 3
    assert class_bound("T2", 2) == 1
    assert class_bound("S1", 2) == 0
    assert class_bound("S2", 3) == 2
    assert class_bound("T1", 3) == 1


def test_enumerate_exhaustive_counts():
    assert len(list(enumerate_class("S1", 6, 2, "exhaustive"))) == 1
    assert len(list(enumerate_class("T1", 9, 3, "exhaustive"))) == 22
    assert sum(1 for _ in enumerate_class("S2", 92, 2, "exhaustive")) == 4095


def test_enumerate_orders_and_dedup():
    seen = set()
    sizes = []
    for member in enumerate_class("S1", 9, 3, "exhaustive"):
        key = tuple(sorted(member.deleted))
        assert key not in seen
        seen.add(key)
        sizes.append(len(member.deleted))
    assert sizes == sorted(sizes)  # by size, then lexicographic within size


def test_enumerate_sample_deterministic():
    a = [m.deleted for m in enumerate_class("T2", 9, 3, "sample", seed=7, count=10)]
    b = [m.deleted for m in enumerate_class("T2", 9, 3, "sample", seed=7, count=10)]
    assert a == b
    assert all(len(d) == 2 for d in a)  # exact class size


def test_enumerate_sample_rejects_a_negative_count():
    with pytest.raises(BadParameters):
        list(enumerate_class("S1", 9, 3, "sample", count=-2))
    assert list(enumerate_class("S1", 9, 3, "sample", count=0)) == []


def test_enumerate_budget():
    # S2(92, 3) has C(4005, 2) = 8,018,010 members: refused before any is drawn
    with pytest.raises(BudgetExceeded, match="has 8018010 members, budget is 1000000") as exc:
        enumerate_class("S2", 92, 3, "exhaustive")
    assert exc.value.budget == DEFAULT_ENUM_BUDGET


def test_membership_examples():
    s62 = build_S(6, 2)
    w = membership(s62.graph, "S1", 2)
    assert w is not None and w.deleted == frozenset()
    # a recognized partition carries the graph it was read from
    assert w.graph is s62.graph and w.n == 6 and w == s62
    assert membership(complete(6), "S1", 2) is None


def test_membership_recovers_relabeled_members():
    rng = SplitMix64(97)
    cases = 0
    for k in (2, 3, 4, 5):
        for _ in range(50):
            n = max(2 * k, 7) + rng.next_below(8)
            clazz = ("S1", "T1", "S2", "T2")[rng.next_below(4)]
            base = build_S(n, k) if clazz[0] == "S" else build_T(n, k)
            bound = class_bound(clazz, k)
            size = bound if clazz[1] == "2" else rng.next_below(bound + 1)
            p = n - k + 1
            e0 = [(u, v) for u in range(p) for v in range(u + 1, p)]
            if size > len(e0):
                continue
            picks = [e0[i] for i in rng.sample_distinct(size, len(e0))]
            member = family_member(base, picks)
            shuffled = relabel(member.graph, rng.permutation(n))
            w = membership(shuffled, clazz, k)
            assert w is not None, (clazz, n, k, picks)
            assert len(w.deleted) == size
            cases += 1
    assert cases == 200


def test_membership_rejects_near_misses():
    base = build_S(9, 3)
    member = family_member(base, [(0, 3), (3, 4)])  # two deletions: class S2
    assert membership(member.graph, "S1", 3) is None
    assert membership(member.graph, "S2", 3) is not None


def test_spanning_subgraph_examples():
    s62 = build_S(6, 2)
    sub = delete_edges(s62.graph, [(2, 3)])
    assert spanning_subgraph_of(sub, "S", 2) is not None
    assert spanning_subgraph_of(complete(6), "S", 2) is None
    host = build_T(8, 3)
    assert spanning_subgraph_of(host.graph, "T", 3) is not None


def brute_embeds_in_S(g, k):
    """Reference search over all (X, Y) labelings."""
    from itertools import combinations

    n = g.n
    for x_set in combinations(range(n), k - 1):
        if any(g.has_edge(a, b) for a in x_set for b in x_set if a < b):
            continue
        nbrs = set()
        for x in x_set:
            nbrs.update(neighbors(g, x))
        if nbrs & set(x_set):
            continue
        if len(nbrs) <= k:
            return True
    return False


def test_spanning_subgraph_matches_brute_force():
    rng = SplitMix64(101)
    from hamq.rng import gnp

    agree = 0
    for _ in range(150):
        n = 6 + rng.next_below(4)
        k = 2 + rng.next_below(2)
        if 2 * k > n:
            continue
        g = gnp(n, 0.2 + 0.5 * rng.next_float(), rng)
        ours = spanning_subgraph_of(g, "S", k) is not None
        assert ours == brute_embeds_in_S(g, k)
        agree += 1
    assert agree >= 100
    # the cycle case, pinned by the same reference search
    c6 = cycle(6)
    assert (spanning_subgraph_of(c6, "S", 2) is not None) == brute_embeds_in_S(c6, 2)


def test_spanning_witness_is_valid_embedding():
    rng = SplitMix64(103)
    base = build_S(10, 3)
    member = family_member(base, [(0, 4), (5, 6)])
    perm = rng.permutation(10)
    g = relabel(member.graph, perm)
    w = spanning_subgraph_of(g, "S", 3)
    assert w is not None
    x_set, y_set = set(w.X), set(w.Y)
    for u, v in g.edges():
        if u in x_set or v in x_set:
            # X vertices may only touch Y
            other = v if u in x_set else u
            assert other in y_set
    assert w.deleted == _pairwise_missing(g, w)
    assert w.deleted == {tuple(sorted((perm[u], perm[v]))) for u, v in member.deleted}


def test_thresholds():
    th = thresholds(2)
    assert th.n_min == 92
    assert th.edge(22) == 196
    assert thresholds(3).spectral(270) == 534
    assert thresholds(3).n_min == 270
    assert thresholds(4).n_min == 652
    assert thresholds(5).n_min == 1352


def test_class1_certificate_identity():
    # generic exact quotient equals the closed form and clears the threshold
    rng = SplitMix64(107)
    for k in (2, 3, 4):
        for n in (max(2 * k + 1, 8), 20):
            for clazz in ("S1", "T1"):
                for member in enumerate_class(clazz, n, k, "sample", seed=5, count=20):
                    got = rayleigh_quotient_exact(member.graph, indicator_vector(member))
                    assert got == indicator_rayleigh_value(member)
                    assert got >= 2 * n - 2 * k


def test_refined_partition():
    base = build_S(10, 3)
    member = family_member(base, [(0, 5)])
    parts = refined_partition(member)
    assert parts["Y2"] == (0,) and 5 in parts["Z2"]
    assert set(parts["Y1"]) | set(parts["Y2"]) == set(member.Y)
    assert set(parts["Z1"]) | set(parts["Z2"]) == set(member.Z)


def test_appendix_examples():
    r = appendix_check(2, 92)
    assert r.branch == 2 and r.primed and r.bound == 2 and r.holds
    r = appendix_check(4, 652)
    assert r.branch == 0 and not r.primed and r.bound == 4 and r.holds
    r = appendix_check(3, 270)
    assert r.branch == 3 and r.deleted_count == 2 and r.holds


def test_appendix_branch_deletion_formula():
    # the branch table on k mod 4: the class-2 deletion count
    # floor(k(k-1)/4) + 1, and the primed term family (bound 2) for k = 2, 3 mod 4
    for k in range(2, 61):
        r = appendix_check(k, thresholds(k).n_min)
        assert r.branch == k % 4
        assert r.deleted_count == k * (k - 1) // 4 + 1
        assert r.primed == (k % 4 in (2, 3))
        assert r.bound == (2 if r.primed else 4)


def test_appendix_below_threshold_flag():
    r = appendix_check(3, 100)
    assert not r.hypothesis_met
    assert isinstance(r.holds, bool)


def test_appendix_margin_consistency():
    r = appendix_check(5, thresholds(5).n_min)
    assert r.margin == r.bound - (r.a1 + r.a2 + r.a3 - r.a4)
    assert isinstance(r.a1, Fraction)


def test_sidecar_schema():
    member = family_member(build_S(8, 3), [(0, 2)])
    side = member.sidecar()
    assert set(side) == {"kind", "n", "k", "X", "Y", "Z", "deleted"}
    assert side["deleted"] == [[0, 2]]


def test_spanning_search_budget():
    from hamq.rng import gnp

    g = gnp(12, 0.25, SplitMix64(19))
    with pytest.raises(BudgetExceeded):
        spanning_subgraph_of(g, "S", 3, budget=1)


def test_host_spectrum_clears_exact_lower_bound():
    from hamq.spectral import perron_pair

    host = build_S(92, 2)
    est = perron_pair(host.graph)
    assert est.lo >= 180 + Fraction(2, 91) - Fraction(1, 10**9)


def test_membership_agrees_with_canonical_recognizer(small_connected):
    # independent route: a graph is a class member iff its canonical form
    # appears among the canonical forms of all enumerated members
    from hamq.corpus import canonical_key

    for n in (6, 7):
        corpus_keys = {g: canonical_key(g) for g in small_connected[n]}
        for k in (2, 3):
            if 2 * k > n:
                continue
            for clazz in ("S1", "T1", "S2", "T2"):
                member_keys = {
                    canonical_key(m.graph)
                    for m in enumerate_class(clazz, n, k, "exhaustive")
                }
                for g, key in corpus_keys.items():
                    got = membership(g, clazz, k) is not None
                    assert got == (key in member_keys), (n, k, clazz, g.edges())


def test_membership_witness_reconstructs_the_graph(small_connected):
    # replaying a witness (host minus deleted edges under the relabeling)
    # must reproduce the input graph exactly
    from hamq.graph import Graph

    checked = 0
    for n in (6, 7):
        for g in small_connected[n]:
            for k in (2, 3):
                if 2 * k > n:
                    continue
                for clazz in ("S1", "S2", "T1", "T2"):
                    w = membership(g, clazz, k)
                    if w is None:
                        continue
                    host = (build_S if w.kind == "S" else build_T)(n, k)
                    perm = [0] * n
                    canon = host.Y + host.Z + host.X
                    found = w.Y + w.Z + w.X
                    for c, f in zip(canon, found):
                        perm[c] = f
                    rebuilt = relabel(host.graph, perm)
                    rebuilt = delete_edges(rebuilt, w.deleted)
                    assert rebuilt == g
                    checked += 1
    assert checked > 50


def test_boundary_host_n_equals_2k():
    # smallest legal hosts: the Z side collapses to one vertex (S) and the
    # two clique blocks become symmetric (T)
    for k in (2, 3, 4):
        n = 2 * k
        if n < 5:
            continue
        hs = build_S(n, k)
        assert len(hs.Z) == 1
        ht = build_T(n, k)
        assert len(ht.Z) == len(ht.X) == k - 1
        for clazz in ("S1", "T1"):
            for m in enumerate_class(clazz, n, k, "exhaustive"):
                w = membership(m.graph, clazz, k)
                assert w is not None


def test_enumerate_budget_boundary(monkeypatch):
    # the budget is read from DEFAULT_ENUM_BUDGET when the function is called
    total = 1 + 21  # T1(9,3): empty set plus single deletions
    monkeypatch.setattr(families, "DEFAULT_ENUM_BUDGET", total)
    assert len(list(enumerate_class("T1", 9, 3, "exhaustive"))) == total
    monkeypatch.setattr(families, "DEFAULT_ENUM_BUDGET", total - 1)
    with pytest.raises(BudgetExceeded, match=f"has {total} members, budget is {total - 1}") as exc:
        enumerate_class("T1", 9, 3, "exhaustive")
    assert exc.value.budget == total - 1


def test_prefix_pair_unrank_matches_sorted_edges():
    from hamq.rng import pair_unrank

    base = build_S(11, 3)
    p = 11 - 3 + 1
    unranked = [pair_unrank(p, i) for i in range(base.e0_size)]
    assert unranked == [(u, v) for u in range(p) for v in range(u + 1, p)]


def test_hub_partition_items_fit_their_host():
    # what lets hub_partitions skip fit checks and certify trust its count:
    # an S item's X is independent with open neighbourhood Y, a T item has
    # |Y| = 2 and no X-Z edge, and either leaves c(G - Y) >= |Y| >= 2
    rng = SplitMix64(17)
    graphs = [(m.graph, k) for k in (2, 3) for clazz in CLASSES
              for m in enumerate_class(clazz, 12, k, mode="sample", seed=k, count=4)]
    graphs += [(Graph(n, [(u, v) for u in range(k) for v in range(k, n)]), k)
               for n in (6, 9) for k in (2, 3)]
    graphs += [(relabel(g, rng.permutation(g.n)), k) for g, k in graphs]
    items = 0
    for g, k in graphs:
        for kind in "ST":
            for item in hub_partitions(g, kind, k):
                items += 1
                x, y, z = item.X, item.Y, item.Z
                y_bits = sum(1 << v for v in y)
                z_bits = sum(1 << v for v in z)
                assert len(x) == k - 1 and len(y) == (k if kind == "S" else 2)
                if kind == "S":
                    assert all(g.row(v) == y_bits for v in x)
                assert all(g.row(v) & z_bits == 0 for v in x)
                assert component_count(g, y) >= len(y) >= 2
    assert items >= len(graphs)


def test_appendix_terms_equal_product_form_exactly():
    # independent algebraic route: the four-term decomposition must equal
    # the expanded product bound as exact rationals at every probe point
    for k in range(2, 15):
        for n in (2 * k + 1, 3 * k + 5, k * k + 11, thresholds(k).n_min):
            r = appendix_check(k, n)
            t = Fraction(k, 2 * n - 3 * k - 1)
            u = Fraction(k * k + 6 * k + 6, 2 * (n - 2 * k))
            c = 2 if r.primed else 4
            product_form = k * (k - 1) * (1 + t) ** 2 - (k * (k - 1) + c) * (1 - u) ** 2
            assert r.a1 + r.a2 + r.a3 - r.a4 - c == product_form


def brute_embeds_in_T(g, k):
    """Reference search: X slots may be internally adjacent, outside
    neighborhood must fit a common 2-set."""
    from itertools import combinations

    n = g.n
    for x_set in combinations(range(n), k - 1):
        outside = set()
        for x in x_set:
            outside.update(w for w in neighbors(g, x) if w not in x_set)
        if len(outside) <= 2:
            return True
    return False


def test_spanning_subgraph_T_matches_brute_force():
    from hamq.rng import gnp

    rng = SplitMix64(113)
    agree = 0
    for _ in range(150):
        n = 6 + rng.next_below(4)
        k = 2 + rng.next_below(2)
        if 2 * k > n:
            continue
        g = gnp(n, 0.15 + 0.5 * rng.next_float(), rng)
        assert (spanning_subgraph_of(g, "T", k) is not None) == brute_embeds_in_T(g, k)
        agree += 1
    assert agree >= 100
    host = build_T(9, 3)
    member = family_member(host, [(0, 2), (3, 4)])
    perm = SplitMix64(5).permutation(9)
    g = relabel(member.graph, perm)
    w = spanning_subgraph_of(g, "T", 3)
    assert w is not None
    x_set, y_set = set(w.X), set(w.Y)
    for u, v in g.edges():
        if u in x_set or v in x_set:
            other = v if u in x_set else u
            assert other in y_set or other in x_set
    assert w.deleted == _pairwise_missing(g, w)
    assert w.deleted == {tuple(sorted((perm[u], perm[v]))) for u, v in member.deleted}


def _pairwise_missing(g, w):
    """Reference: every non-adjacent pair inside Y u Z, one pair at a time."""
    yz = sorted(set(range(g.n)) - set(w.X))
    return frozenset(
        (u, v) for i, u in enumerate(yz) for v in yz[i + 1:] if not g.has_edge(u, v)
    )


def test_membership_deleted_matches_pairwise_scan_on_small_members():
    checked = 0
    for k in (2, 3):
        for n in range(max(5, 2 * k), 11):
            for clazz in CLASSES:
                for member in enumerate_class(clazz, n, k, "exhaustive"):
                    w = membership(member.graph, clazz, k)
                    assert w is not None, (clazz, n, k, sorted(member.deleted))
                    assert w.deleted == _pairwise_missing(member.graph, w)
                    assert len(w.deleted) == len(member.deleted)
                    checked += 1
    assert checked > 1000


def test_membership_deleted_matches_pairwise_scan_at_paper_orders():
    rng = SplitMix64(101)
    for n, k in ((92, 2), (270, 3)):
        assert membership(complete(n), "S1", k) is None
        for clazz in CLASSES:
            for member in enumerate_class(clazz, n, k, "sample", seed=n, count=3):
                perm = rng.permutation(n)
                g = relabel(member.graph, perm)
                w = membership(g, clazz, k)
                assert w is not None
                assert w.deleted == _pairwise_missing(g, w)
                assert w.deleted == {
                    tuple(sorted((perm[u], perm[v]))) for u, v in member.deleted
                }
                if clazz[1] == "2":  # one deletion too many for class 1
                    assert membership(g, clazz[0] + "1", k) is None
