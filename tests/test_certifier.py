"""Certification pipeline outcomes, witnesses, and report stability."""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import comb

import pytest

from hamq.certifier import (
    OUTCOME_CERTIFIED,
    OUTCOME_EXACT_NO,
    OUTCOME_EXACT_YES,
    OUTCOME_EXCEPTIONAL,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NOT_HC,
    _separator_confirmation,
    certify,
    explain,
)
from hamq.families import (
    CLASSES,
    build_S,
    build_T,
    enumerate_class,
    family_member,
    hub_partitions,
    membership,
    spanning_subgraph_of,
    thresholds,
)
from hamq.graph import (
    Graph,
    complete,
    cut_vertex,
    delete_edges,
    disjoint_union,
    is_connected,
    join,
    min_degree,
)
from hamq.hamilton import is_hamilton_connected, ore_check
from hamq.rng import SplitMix64, gnm, gnp, pair_unrank
from hamq.spectral import perron_pair
from hamq.transforms import closure

from conftest import add_edges, cycle, path_graph, relabel, validate_path


def test_certify_complete_graph_fires_ore():
    cert = certify(complete(22))
    assert cert.outcome == OUTCOME_CERTIFIED
    assert cert.fired_condition == {"name": "Ore"}
    assert cert.exit_code() == 0


def test_certify_tiny_graphs():
    assert certify(complete(1)).outcome == OUTCOME_CERTIFIED
    assert certify(complete(2)).fired_condition == {"name": "ClosureComplete"}


def test_certify_quick_negatives():
    cert = certify(disjoint_union(complete(3), complete(2)))
    assert cert.outcome == OUTCOME_NOT_HC and cert.exit_code() == 1
    cert = certify(path_graph(4))
    assert cert.outcome == OUTCOME_NOT_HC
    assert cert.witnesses["reason"] == "cut-vertex"


def test_screen_reports_disconnection_from_the_cut_vertex_search(monkeypatch):
    import hamq.certifier as certifier

    calls = []

    def counted(g):
        calls.append(g.n)
        return is_connected(g)

    monkeypatch.setattr(certifier, "is_connected", counted)
    cases = [Graph(2, [])]  # 2K1
    for n in (3, 4, 10, 92):
        lone0 = disjoint_union(complete(1), complete(n - 1))  # vertex 0 isolated
        lone1 = relabel(lone0, [1, 0] + list(range(2, n)))  # vertex 1 isolated
        cases += [lone0, lone1]
    for g in cases:
        cert = certify(g)
        assert cert.outcome == OUTCOME_NOT_HC and cert.exit_code() == 1
        assert cert.witnesses == {"reason": "disconnected"}
        assert [t["condition"] for t in cert.trace] == ["Connectivity"]
    assert len(calls) == len(cases)
    # a connected graph is asked only when a cut vertex turns up
    calls.clear()
    for g in (complete(1), complete(2), complete(5), cycle(6), path_graph(4)):
        certify(g)
    assert calls == [2, 4]


def _two_blocks(n, p, rng, shared):
    """gnp(p) on 0..n//2 and on n//2..n-1, sharing vertex n//2 when
    ``shared``, else with the upper block shifted off it."""
    c = n // 2
    lower = [(u, v) for u in range(c + 1) for v in range(u + 1, c + 1) if rng.next_float() < p]
    top = c if shared else c + 1
    upper = [(u, v) for u in range(top, n) for v in range(u + 1, n) if rng.next_float() < p]
    return Graph(n, lower + upper)


def test_screen_record_spares_every_later_sweep(monkeypatch):
    # the cut-vertex search leaves connectivity on g, so neither the
    # screen's question nor the spectral bound's input check sweeps again
    import hamq.graph

    sweeps = []
    real = hamq.graph._reach_mask
    monkeypatch.setattr(hamq.graph, "_reach_mask", lambda *args: sweeps.append(args) or real(*args))
    rng = SplitMix64(157)
    sparse = gnp(270, 0.2, rng)
    cert = certify(sparse)
    assert cert.outcome == OUTCOME_INCONCLUSIVE and "q_upper_bound" in cert.parameters
    assert [t["k"] for t in cert.trace if t["condition"] == "Spectral"] == [3, 2]
    cut = _two_blocks(270, 0.6, rng, shared=True)
    cert = certify(cut)
    assert cert.witnesses == {"reason": "cut-vertex", "cut_vertex": 135}
    assert sweeps == []
    # a disconnected graph: the search stops short of the second block,
    # which the record says, and the verdict names the disconnection
    cert = certify(_two_blocks(270, 0.6, rng, shared=False))
    assert cert.witnesses == {"reason": "disconnected"}
    assert [t["condition"] for t in cert.trace] == ["Connectivity"]


def test_ore_graphs_skip_the_screen_it_could_not_fail(small_connected, monkeypatch):
    # certify asks Ore first and runs cut_vertex only where Ore fails; that
    # is sound because Ore implies connected with no cut vertex
    graphs = [g for n in range(1, 8) for g in small_connected[n]]
    rng = SplitMix64(131)
    for _ in range(1500):
        n = 3 + rng.next_below(38)  # 3..40
        graphs.append(gnp(n, 0.3 + 0.7 * rng.next_float(), rng))
    for n, p in ((92, 0.7), (92, 0.9), (270, 0.7), (270, 0.9)):
        graphs.append(gnp(n, p, rng))
    ore_graphs = [g for g in graphs if ore_check(g)]
    assert len(ore_graphs) > 500 and ore_graphs[-1].n == 270
    for g in ore_graphs:
        assert cut_vertex(g) is None and is_connected(g)

    import hamq.certifier as certifier

    searched = []
    monkeypatch.setattr(certifier, "cut_vertex", lambda g: searched.append(g) or cut_vertex(g))
    for g in ore_graphs[-8:]:
        assert [t["condition"] for t in certify(g).trace] == ["Ore"]
    assert searched == []
    # where Ore fails the screen still runs, and when it decides, its entry
    # is the whole trace
    for g in (path_graph(4), join(complete(1), disjoint_union(complete(45), complete(46)))):
        cert = certify(g)
        assert not ore_check(g) and searched.pop() is g
        assert explain(cert)["trace"] == [
            {"condition": "TwoConnectivity", "verdict": "fail",
             "hypotheses": [{"name": "two_connected", "required": True, "actual": False,
                             "passed": False}]}]
        assert cert.witnesses == {"reason": "cut-vertex", "cut_vertex": 0 if g.n == 92 else 1}
    cert = certify(cycle(6))
    assert searched.pop().n == 6 and cert.trace[0]["condition"] == "Ore"



def _edge_count_above(g, k):
    """The edge-count stage's threshold test m > C(n-k, 2) + k(k+1), at any k."""
    return g.m > comb(g.n - k, 2) + k * (k + 1)


def test_edge_count_rules_out_a_cut_vertex(small_connected):
    # the certifier docstring's lemma: m > C(n-k, 2) + k(k+1) with
    # 1 <= k <= delta leaves G connected with no cut vertex.  It is checked
    # at every such k, and the graphs where it holds at certify's own
    # k = min(delta, n/11) >= 2 are counted
    graphs = [g for n in range(1, 8) for g in small_connected[n]]
    rng = SplitMix64(283)
    for _ in range(400):
        n = 3 + rng.next_below(10)  # 3..12, disconnected ones included
        graphs.append(gnp(n, 0.2 + 0.8 * rng.next_float(), rng))
    for _ in range(400):
        n = 22 + rng.next_below(39)  # 22..60, around the threshold
        graphs.append(gnp(n, 0.8 + 0.2 * rng.next_float(), rng))
    for n, k in ((92, 2), (270, 3)):
        for clazz in CLASSES:
            graphs.extend(m.graph for m in enumerate_class(clazz, n, k, "sample", seed=n,
                                                           count=3))
        graphs += [build_S(n, k).graph, build_T(n, k).graph]
    for k in (2, 3):
        for n in (11 * k, 92):
            # the tight graph below, and its split counterpart
            graphs.append(join(complete(1), disjoint_union(complete(k), complete(n - 1 - k))))
            graphs.append(disjoint_union(complete(k + 1), complete(n - 1 - k)))
    held = at_certify_k = 0
    for g in graphs:
        delta = min_degree(g)
        if any(_edge_count_above(g, k) for k in range(1, delta + 1)):
            held += 1
            assert cut_vertex(g) is None and is_connected(g)
            k = min(delta, g.n // 11)
            at_certify_k += k >= 2 and _edge_count_above(g, k)
    assert held > 500 and at_certify_k > 200


def test_edge_count_screen_skip_is_tight():
    # K_1 v (K_k + K_{n-1-k}) has delta = k, a cut vertex, and k(k+1)/2
    # edges fewer than the threshold, the most the lemma allows: certify's
    # test fails there and the screen still reports the cut vertex
    for k in (2, 3):
        for n in (11 * k, 92):
            g = join(complete(1), disjoint_union(complete(k), complete(n - 1 - k)))
            assert min_degree(g) == k == min(k, n // 11)
            assert g.m == thresholds(k).edge(n) - k * (k + 1) // 2
            cert = certify(g)
            assert cert.outcome == OUTCOME_NOT_HC
            assert cert.witnesses == {"reason": "cut-vertex", "cut_vertex": 0}
            assert [t["condition"] for t in cert.trace] == ["TwoConnectivity"]


def test_edge_count_graphs_skip_the_screen_it_could_not_fail(monkeypatch):
    # certify runs cut_vertex only where its edge-count test fails, so the
    # class-2 members, a host plus an X-Z edge and the docstring's EdgeCount
    # graph reach their verdicts without it
    import hamq.certifier as certifier

    searched = []
    monkeypatch.setattr(certifier, "cut_vertex", lambda g: searched.append(g) or cut_vertex(g))
    host = build_S(270, 3)
    cases = [(m.graph, OUTCOME_EXCEPTIONAL) for clazz in ("S2", "T2")
             for m in enumerate_class(clazz, 92, 2, "sample", seed=9, count=3)]
    cases += [(add_edges(host.graph, [(host.Z[0], host.X[0])]), OUTCOME_CERTIFIED),
              (_k5_graph((0, 1, 2), [(51, 52), (52, 53), (53, 54), (51, 54)]),
               OUTCOME_CERTIFIED)]
    for g, outcome in cases:
        assert not ore_check(g)
        cert = certify(g)
        assert cert.outcome == outcome and cert.trace[0]["condition"] == "Ore"
    assert searched == []
    g = gnp(92, 0.2, SplitMix64(92))
    assert not _edge_count_above(g, min(min_degree(g), 8))
    certify(g)
    assert searched == [g]


def _exceptional_cases():
    """Relabeled S1/T1/S2/T2 members at (n, k) = (92, 2) and (270, 3), and
    near-hosts there with no added edge."""
    rng = SplitMix64(30)
    for n, k in ((92, 2), (270, 3)):
        for clazz in CLASSES:
            for m in enumerate_class(clazz, n, k, "sample", seed=n + 1, count=2):
                yield relabel(m.graph, rng.permutation(n)), k
        for kind in "ST":
            yield _near_host(rng, kind, n, k, 2 + rng.next_below(5), 0), k


def test_exceptional_graphs_skip_the_closure_they_could_not_fire(monkeypatch):
    # certify reads the host partition before the closure where the edge
    # count is above its threshold, and a graph with one never meets the
    # closure; every other graph meets it once, before the edge count
    import hamq.certifier as certifier

    closed = []
    monkeypatch.setattr(certifier, "closure", lambda g: closed.append(g) or closure(g))
    for g, k in _exceptional_cases():
        cert = certify(g)
        assert cert.outcome == OUTCOME_EXCEPTIONAL and cert.exit_code() == 1
        assert cert.trace == [
            {"condition": "Ore", "verdict": "fail",
             "hypotheses": [{"name": "degree_sum_condition", "required": True,
                             "actual": False, "passed": False}]},
            {"condition": "EdgeCount", "k": k,
             "hypotheses": [
                 {"name": "min_degree", "required": k, "actual": k, "passed": True},
                 {"name": "order", "required": 11 * k, "actual": g.n, "passed": True},
                 {"name": "edge_count_exceeds", "required": thresholds(k).edge(g.n),
                  "actual": g.m, "passed": True}],
             "verdict": "exceptional"},
            {"condition": "ExceptionalConfirmation", "verdict": "confirmed"}]
    assert closed == []
    host = build_S(270, 3)
    xz = add_edges(host.graph, [(host.Z[0], host.X[0])])
    k5 = _k5_graph((0, 1, 2), [(51, 52), (52, 53), (53, 54), (51, 54)])
    for g, fired in ((xz, "ClosureComplete"), (k5, "EdgeCount")):
        cert = certify(g)
        assert closed == [g] and cert.fired_condition["name"] == fired
        closed.clear()
    assert [(t["condition"], t["verdict"]) for t in cert.trace] == [
        ("Ore", "fail"), ("ClosureComplete", "fail"), ("EdgeCount", "fired")]


def test_host_read_needs_k_minus_1_vertices_of_degree_k(monkeypatch):
    # each hub_partitions group holds k - 1 vertices of degree k, so a graph
    # above the edge threshold with fewer goes to the closure unread
    import hamq.certifier as certifier

    read = []
    monkeypatch.setattr(certifier, "hub_partitions",
                        lambda g, kind, k: read.append(kind) or hub_partitions(g, kind, k))
    host = build_S(270, 3)
    rng = SplitMix64(31)
    cases = [add_edges(host.graph, [(host.Z[0], host.X[0])])]
    cases += [_near_host(rng, kind, 92, 2, 2 + rng.next_below(5), 1) for kind in "ST"]
    for g in cases:
        k = min(min_degree(g), g.n // 11)
        assert _edge_count_above(g, k) and g.degrees().count(k) < k - 1
        assert certify(g).fired_condition == {"name": "ClosureComplete"}
    assert read == []
    # a T1 member at k = 3 is read for S, then T
    member = next(enumerate_class("T1", 270, 3, "sample", seed=1, count=1))
    assert certify(member.graph).outcome == OUTCOME_EXCEPTIONAL
    assert read == ["S", "T"]


def test_exceptional_verdicts_have_incomplete_closures():
    # arbiter for the skip: a graph certify calls exceptional has a closure
    # that is not complete, so running it could not have certified the graph
    seen = 0
    graphs = chain(_pinned_corpus(), (g for g, _ in _exceptional_cases()))
    for g in graphs:
        if certify(g).outcome == OUTCOME_EXCEPTIONAL:
            seen += 1
            cl, _ = closure(g)
            assert cl.m < comb(g.n, 2)
    assert seen == 32 + 20


def test_certify_host_is_exceptional_with_confirmation():
    host = build_S(22, 2)
    assert host.graph.m == 212 > thresholds(2).edge(22) == 196
    cert = certify(host.graph)
    assert cert.outcome == OUTCOME_EXCEPTIONAL
    assert cert.witnesses["non_hamilton_connected"] is True
    assert cert.witnesses["family_class"] == "S1"
    assert cert.exit_code() == 1
    conditions = [t["condition"] for t in cert.trace]
    assert "EdgeCount" in conditions


def test_k3_hosts_confirmed_by_separator_at_paper_order():
    # no pair search: the count of G - Y settles both hosts at n = 270
    for host, c in ((build_S(270, 3), 3), (build_T(270, 3), 2)):
        cert = certify(host.graph)
        assert cert.outcome == OUTCOME_EXCEPTIONAL and cert.exit_code() == 1
        assert cert.witnesses["confirmation"] == {"separator": list(host.Y),
                                                  "components": c}
        assert cert.trace[-1] == {"condition": "ExceptionalConfirmation",
                                  "verdict": "confirmed"}


def test_separator_confirms_every_small_member():
    # certify's exceptional stages start at n = 11k, so at n <= 10 the count
    # is checked on the witnesses those stages would hold, and the exact
    # oracle arbitrates each member
    for clazz in CLASSES:
        for k in (2, 3):
            for n in range(max(5, 2 * k), 11):
                for member in enumerate_class(clazz, n, k):
                    g = member.graph
                    assert is_hamilton_connected(g).verdict == "no"
                    cert = certify(g, oracle_gate=0)
                    assert cert.outcome != OUTCOME_CERTIFIED
                    for w in (membership(g, clazz, k), spanning_subgraph_of(g, clazz[0], k)):
                        conf = _separator_confirmation(g, w.Y)
                        assert conf["components"] >= len(conf["separator"]) >= 2


def test_members_confirmed_where_the_edge_stage_runs():
    # every k = 2 member at n = 22 and a k = 3 sample at n = 33, each
    # arbitrated by the oracle within 10**6 expansions per pair
    members = [m for clazz in CLASSES for m in enumerate_class(clazz, 22, 2)]
    members += [m for clazz in CLASSES
                for m in enumerate_class(clazz, 33, 3, mode="sample", seed=1, count=10)]
    for member in members:
        cert = certify(member.graph, oracle_gate=0)
        assert cert.outcome == OUTCOME_EXCEPTIONAL and cert.exit_code() == 1
        conf = cert.witnesses["confirmation"]
        assert conf["components"] >= len(conf["separator"]) >= 2
        assert is_hamilton_connected(member.graph, 10**6).verdict == "no"


def test_certify_deleted_member_annotated_class2():
    member = family_member(build_S(92, 2), [(5, 7)])
    cert = certify(member.graph)
    assert cert.outcome == OUTCOME_EXCEPTIONAL
    assert cert.witnesses["family_class"] == "S2"
    assert cert.witnesses["non_hamilton_connected"] is True
    # the edge condition's hypotheses passed but the embedding escape fired
    entry = next(t for t in cert.trace if t["condition"] == "EdgeCount")
    assert entry["verdict"] == "exceptional"


def test_short_separator_count_is_an_internal_error():
    # every host partition's hub set leaves c(G - Y) >= |Y|, so a shorter
    # count is a bug and must not become a verdict
    with pytest.raises(AssertionError):
        _separator_confirmation(complete(5), (0, 1))


def _k5_graph(hub, x_edges):
    """K_51 on 0..50 plus X = {51..54} with edges ``x_edges``, every X
    vertex joined to ``hub``."""
    edges = [(u, v) for u in range(51) for v in range(u + 1, 51)]
    edges += x_edges + [(h, x) for x in range(51, 55) for h in hub]
    return Graph(55, edges)


def test_edge_count_fires_without_a_host_at_k5():
    # the edge-count theorem's own branch: above the threshold 1255 at
    # n = 55, k = 5, not Ore, closure not complete, and neither host holds
    # the graph.  The exact oracle times out here at 10**6 expansions per
    # pair, so Hamilton-connectivity rests on the theorem alone
    rng = SplitMix64(55)
    for g in (_k5_graph((0, 1, 2), [(51, 52), (52, 53), (53, 54), (51, 54)]),
              _k5_graph((0, 1, 2, 3), [(51, 52), (53, 54)])):
        assert g.m > thresholds(5).edge(55) == 1255 and min_degree(g) == 5
        for h in (g, relabel(g, rng.permutation(55))):
            cert = certify(h)
            assert cert.outcome == OUTCOME_CERTIFIED and cert.exit_code() == 0
            assert cert.fired_condition == {"name": "EdgeCount", "k": 5}
            assert [(t["condition"], t["verdict"]) for t in cert.trace] == [
                ("Ore", "fail"), ("ClosureComplete", "fail"), ("EdgeCount", "fired")]
            for kind in "ST":
                assert next(hub_partitions(h, kind, 5), None) is None
                assert spanning_subgraph_of(h, kind, 5) is None


def test_edge_count_checks_only_the_lowest_threshold():
    # the threshold C(n-k, 2) + k(k+1) drops by n - 3k - 3 > 0 from k to
    # k+1, so a graph that fails at k = min(delta, n/11) fails at every
    # smaller k and the stage tries that one k
    for n in range(22, 200):
        for k in range(2, n // 11):
            drop = thresholds(k).edge(n) - thresholds(k + 1).edge(n)
            assert drop == n - 3 * k - 3 > 0
    rng = SplitMix64(56)
    for kind, deletions in (("S", 40), ("T", 45), ("S", 2), ("T", 2)):
        g = _near_host(rng, kind, 55, 5, deletions, 0)
        cert = certify(g, oracle_gate=0)
        entries = [t for t in cert.trace if t["condition"] == "EdgeCount"]
        assert [t["k"] for t in entries] == [min(min_degree(g), 5)] == [5]
        above = g.m > thresholds(5).edge(55)
        assert entries[0]["verdict"] == ("exceptional" if above else "fail")


def test_certify_cycle_exact_no():
    cert = certify(cycle(6))
    assert cert.outcome == OUTCOME_EXACT_NO
    assert cert.witnesses["failing_pair"] == [0, 2]
    assert cert.exit_code() == 1


def test_exact_yes_carries_a_path_table(small_connected):
    # the oracle's spanning paths, one per pair u < v in pair order
    graphs = [g for n in (6, 7) for g in small_connected[n]]
    rng = SplitMix64(11)
    graphs += [gnp(9, 0.5 + 0.3 * rng.next_float(), rng) for _ in range(100)]
    seen = 0
    for g in graphs:
        cert = certify(g)
        if cert.outcome != OUTCOME_EXACT_YES:
            continue
        seen += 1
        paths = cert.witnesses["paths"]
        ends = [(p[0], p[-1]) for p in paths]
        assert ends == [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        assert all(validate_path(g, p) for p in paths)
        assert json.loads(cert.to_json())["witnesses"]["paths"] == [list(p) for p in paths]
    assert seen >= 14


def test_certify_inconclusive_beyond_gate():
    rng = SplitMix64(1)
    g = gnp(10, 0.2, rng)
    cert = certify(g, oracle_gate=0)
    assert cert.outcome in (OUTCOME_INCONCLUSIVE, OUTCOME_NOT_HC)
    if cert.outcome == OUTCOME_INCONCLUSIVE:
        assert cert.exit_code() == 2


def test_certified_implies_oracle_yes_small():
    rng = SplitMix64(5)
    for _ in range(300):
        g = gnp(3 + rng.next_below(6), 0.3 + 0.6 * rng.next_float(), rng)
        cert = certify(g, oracle_gate=0)
        if cert.outcome == OUTCOME_CERTIFIED:
            assert is_hamilton_connected(g).verdict == "yes"
        elif cert.outcome == OUTCOME_NOT_HC:
            assert is_hamilton_connected(g).verdict == "no"


def test_edge_threshold_is_strict():
    # at exactly the threshold the edge branch must not fire
    from hamq.rng import gnm

    n, k = 22, 2
    need = thresholds(k).edge(n)
    rng = SplitMix64(9)
    tried = 0
    while tried < 5:
        g = gnm(n, need, rng)
        from hamq.graph import min_degree

        if min_degree(g) < 2:
            continue
        tried += 1
        cert = certify(g, oracle_gate=0)
        for entry in cert.trace:
            if entry["condition"] == "EdgeCount":
                assert entry["verdict"] == "fail"


def test_explain_structure_and_stability():
    cert = certify(complete(4))
    report = explain(cert)
    assert set(report) == {"outcome", "fired_condition", "parameters",
                           "witnesses", "trace"}
    assert report == cert._asdict()
    # the certificate's own objects, not copies
    assert all(report[f] is getattr(cert, f) for f in cert._fields)
    ore_entry = next(t for t in report["trace"] if t["condition"] == "Ore")
    hyp = ore_entry["hypotheses"][0]
    assert set(hyp) == {"name", "required", "actual", "passed"}
    a = json.dumps(explain(certify(cycle(6))), sort_keys=True)
    b = json.dumps(explain(certify(cycle(6))), sort_keys=True)
    assert a == b
    # certificates compare by value
    assert certify(cycle(6)) == certify(cycle(6)) != cert
    assert repr(cert).startswith("Certificate(outcome='CertifiedHamiltonConnected', ")


def test_certificate_json_roundtrip():
    cert = certify(build_S(22, 2).graph)
    blob = cert.to_json()
    data = json.loads(blob)
    assert data["outcome"] == OUTCOME_EXCEPTIONAL
    assert data["witnesses"]["host"]["kind"] == "S"


# sha256 of every report and exit code of _pinned_corpus(); a change that
# alters report bytes on purpose updates it and says so
REPORT_DIGEST = "e7415bd4eacf06233d900a7a41d49e31c073ace4467bc70cf95f686680c69fed"
# the same without each report's trace: a change to the trace's format
# alone leaves it as it is
VERDICT_DIGEST = "baae28487e67bb0586aa6aba06332f8fb25a802b1ba0c90befafb2e4a3f67e6b"


def _pinned_corpus():
    from hamq.corpus import connected_graphs

    for n in range(1, 7):
        yield from connected_graphs(n)
    rng = SplitMix64(2024)
    for _ in range(200):
        yield gnp(8 + rng.next_below(7), 0.2 + 0.7 * rng.next_float(), rng)
    for k, n in ((3, 33), (4, 44)):
        for clazz in CLASSES:
            for member in enumerate_class(clazz, n, k, mode="sample", seed=n, count=4):
                yield relabel(member.graph, rng.permutation(n))


def test_report_bytes_are_pinned():
    digest = hashlib.sha256()
    outcomes = set()
    for g in _pinned_corpus():
        cert = certify(g)
        outcomes.add(cert.outcome)
        digest.update(json.dumps(explain(cert), sort_keys=True).encode())
        digest.update(b"%d\n" % cert.exit_code())
    assert {OUTCOME_EXCEPTIONAL, OUTCOME_EXACT_YES, OUTCOME_EXACT_NO} <= outcomes
    assert digest.hexdigest() == REPORT_DIGEST


def test_verdicts_are_pinned_apart_from_the_trace():
    digest = hashlib.sha256()
    for g in _pinned_corpus():
        cert = certify(g)
        report = {f: v for f, v in explain(cert).items() if f != "trace"}
        digest.update(json.dumps(report, sort_keys=True).encode())
        digest.update(b"%d\n" % cert.exit_code())
    assert digest.hexdigest() == VERDICT_DIGEST


def test_deciding_entries_rest_on_passed_hypotheses():
    # arbiter for every stage: a trace entry that fired or found an
    # exceptional host lists only hypotheses that hold, so no stage decides
    # outside its theorem; S(n, k) and T(n, k) at n = 11k - 1 and 11k pin the
    # edge-count stage's order floor from both sides
    edge = {}
    for k in (2, 3):
        for n in (11 * k - 1, 11 * k):
            edge[n] = [certify(build(n, k).graph) for build in (build_S, build_T)]
    assert {n: {c.outcome for c in certs} for n, certs in edge.items()} == {
        21: {OUTCOME_INCONCLUSIVE}, 22: {OUTCOME_EXCEPTIONAL},
        32: {OUTCOME_INCONCLUSIVE}, 33: {OUTCOME_EXCEPTIONAL},
    }
    certs = chain(map(certify, _pinned_corpus()), chain.from_iterable(edge.values()))
    deciding = 0
    for cert in certs:
        for entry in cert.trace:
            if entry["verdict"] in ("fired", "exceptional"):
                deciding += 1
                assert all(h["passed"] for h in entry["hypotheses"]), entry
    assert deciding == 164


def _annotate_class(g, k):
    # the class search certify ran before it read the class off its edge
    # stage's partition: membership for S1, T1, S2, T2 in turn
    for clazz in CLASSES:
        if membership(g, clazz, k) is not None:
            return clazz
    return None


def _near_host(rng, kind, n, k, deletions, adds):
    """A relabeled host minus ``deletions`` pairs inside Y u Z, plus ``adds``
    distinct X-Z edges."""
    host = build_S(n, k) if kind == "S" else build_T(n, k)
    dels = [pair_unrank(n - k + 1, i)
            for i in rng.sample_distinct(deletions, host.e0_size)]
    extra = set()
    while len(extra) < adds:
        extra.add((host.Z[rng.next_below(len(host.Z))], host.X[rng.next_below(len(host.X))]))
    g = add_edges(delete_edges(host.graph, dels), sorted(extra))
    return relabel(g, rng.permutation(n))


def _edge_stage_corpus():
    rng = SplitMix64(2024)
    for clazz in CLASSES:
        for m in enumerate_class(clazz, 22, 2):
            yield relabel(m.graph, rng.permutation(22))
    for n, count in ((33, 8), (270, 2)):
        for clazz in CLASSES:
            for m in enumerate_class(clazz, n, 3, mode="sample", seed=n, count=count):
                yield relabel(m.graph, rng.permutation(n))
    for n in (22, 33, 44):
        k = n // 11
        lo, hi = thresholds(k).edge(n) + 1, n * (n - 1) // 2
        done = 0
        while done < 40:
            g = gnm(n, lo + rng.next_below(hi - lo + 1), rng)
            if min_degree(g) >= k:
                done += 1
                yield g
    for kind in "ST":
        for adds in (0, 1, 2, 3):
            for _ in range(6):
                yield _near_host(rng, kind, 92, 2, 2 + rng.next_below(5), adds)


def test_edge_stage_partition_equals_the_embedding_search():
    # arbiter for the edge stage: where its hypotheses pass, the one
    # degree-k partition per kind gives the same embedding as the budgeted
    # search (S tried first, then T) and the same class as the membership
    # search; the pigeonhole bound on degree-k vertices is what makes it so,
    # and what lets certify read S first: at k >= 3 at most one kind yields
    # an item, and at k = 2 both kinds yield the same partition
    exceptional = both = 0
    for g in _edge_stage_corpus():
        cert = certify(g, oracle_gate=0)
        for k in range(min(min_degree(g), g.n // 11), 1, -1):
            if g.m <= thresholds(k).edge(g.n):
                continue
            assert sum(d == k for d in g.degrees()) <= k - 1
            found, items = {}, {}
            for kind in "ST":
                item = items[kind] = next(hub_partitions(g, kind, k), None)
                found[kind] = spanning_subgraph_of(g, kind, k)
                assert (item is None) == (found[kind] is None)
                if item is not None:
                    assert (item.X, item.Y, item.Z) == (found[kind].X, found[kind].Y,
                                                        found[kind].Z)
            if k >= 3:
                assert items["S"] is None or items["T"] is None
            elif items["S"] is not None and items["T"] is not None:
                both += 1
                s_item, t_item = items["S"], items["T"]
                assert (t_item.X, t_item.Y, t_item.Z, t_item.deleted) == (
                    s_item.X, s_item.Y, s_item.Z, s_item.deleted)
            w = found["S"] or found["T"]
            entries = [t for t in cert.trace if t["condition"] == "EdgeCount"
                       and t["k"] == k and t["verdict"] != "fail"]
            if entries:
                assert entries[0]["verdict"] == ("exceptional" if w else "fired")
                assert cert.witnesses.get("embedding") == (w and {
                    "kind": w.kind, "k": w.k, "X": w.X, "Y": w.Y, "Z": w.Z})
                if w is not None:
                    exceptional += 1
                    assert cert.witnesses["family_class"] == _annotate_class(g, k)
                    assert cert.witnesses["host"] == {"kind": w.kind, "n": g.n, "k": k}
            break
    assert exceptional > 400 and both > 300


def test_spectral_entries_are_annotations_on_near_hosts():
    # hosts at n = 92 with enough deletions to drop below every edge
    # threshold reach the spectral stage; the edge-count bound on q stays
    # under 2n - 2k, so the stage records and never decides
    rng = SplitMix64(92)
    n = 92
    for kind in "ST":
        for k in (2, 3, 4):
            for _ in range(4):
                g = _near_host(rng, kind, n, k, n - 3 * k + 1 + rng.next_below(30), 0)
                cert = certify(g)
                assert cert.outcome == OUTCOME_INCONCLUSIVE and cert.fired_condition is None
                assert all(t["condition"] != "CorollarySpectral" for t in cert.trace)
                spectral = [t for t in cert.trace if t["condition"] == "Spectral"]
                assert [t["k"] for t in spectral] == [2]
                for entry in spectral:
                    assert set(entry) == {"condition", "k", "threshold", "hypotheses", "verdict"}
                    assert entry["verdict"] == "fail"
                    assert Fraction(cert.parameters["q_upper_bound"]) < entry["threshold"]


def _annotated_corpus():
    rng = SplitMix64(270)
    for n, seeds in ((92, 3), (270, 1)):
        for p in (0.1, 0.2, 0.3, 0.4):
            for _ in range(seeds):
                yield gnp(n, p, rng)
    for kind in "ST":
        for n, k in ((92, 2), (270, 3)):
            yield _near_host(rng, kind, n, k, n - 3 * k + 1 + rng.next_below(30), 0)


def test_spectral_bound_is_exact_and_encloses_q():
    # the annotation carries 2m/(n-1) + n - 2 as an exact fraction, never a
    # float, and the float Perron enclosure stays under it
    def no_floats(text):
        raise AssertionError(f"JSON float {text} in a certificate")

    for g in _annotated_corpus():
        cert = certify(g)
        assert cert.outcome == OUTCOME_INCONCLUSIVE
        bound = Fraction(2 * g.m, g.n - 1) + g.n - 2
        assert cert.parameters["q_upper_bound"] == str(bound)
        assert perron_pair(g).hi <= float(bound) + 1e-9
        json.loads(cert.to_json(), parse_float=no_floats)
        spectral = [t for t in cert.trace if t["condition"] == "Spectral"]
        assert spectral and all(t["threshold"] == 2 * g.n - 2 * t["k"] > bound
                                and t["verdict"] == "fail" for t in spectral)


def test_spectral_bound_reaching_the_threshold_is_an_internal_error(monkeypatch):
    import hamq.certifier

    g = gnp(92, 0.2, SplitMix64(7))
    assert certify(g).outcome == OUTCOME_INCONCLUSIVE
    monkeypatch.setattr(hamq.certifier, "upper_bound_edge_count",
                        lambda g: Fraction(2 * g.n - 4))
    with pytest.raises(AssertionError, match="reaches 2n - 2k"):
        certify(g)


def test_dense_regime_soundness():
    # above the k=2 edge threshold at n=22 every run certifies or lands in a
    # host family, and the oracle agrees with the implied status
    from math import comb

    from hamq.rng import gnm
    from hamq.families import thresholds as th
    from hamq.graph import min_degree

    rng = SplitMix64(77)
    lo, hi = th(2).edge(22) + 1, comb(22, 2)
    done = 0
    while done < 30:
        g = gnm(22, lo + rng.next_below(hi - lo + 1), rng)
        if min_degree(g) < 2:
            continue
        done += 1
        cert = certify(g, oracle_gate=0)
        assert cert.outcome in (OUTCOME_CERTIFIED, OUTCOME_EXCEPTIONAL)
        oracle_yes = is_hamilton_connected(g).verdict == "yes"
        if cert.outcome == OUTCOME_CERTIFIED:
            assert oracle_yes
        else:
            assert not oracle_yes
            assert cert.witnesses["non_hamilton_connected"] is True


# gnp(n, 0.5, SplitMix64(n)) at the paper orders: the count and the sha256 of
# the sorted closure additions, computed before the round pass existed.  The
# pass may reorder the additions, never change their set
_PAPER_ORDER_CLOSURES = {
    92: (2136, "61e6fe9e90e0b368d1ac1df7919f7a415f4c3e0d6df4776505bd4533387336f4"),
    270: (18175, "59333dedb315490ff114b9fafc46fbacee38283f9f687992621ce349f8c57a1c"),
    652: (106169, "32999d4d3393f2e1c73c156b369ed90c6b4c4b359b9ee08fca8b8024066a273e"),
}


def test_paper_order_closures_replay_to_the_complete_graph():
    for n, (count, digest) in _PAPER_ORDER_CLOSURES.items():
        g = gnp(n, 0.5, SplitMix64(n))
        cert = certify(g)
        assert cert.outcome == OUTCOME_CERTIFIED
        assert cert.fired_condition == {"name": "ClosureComplete"}
        added = cert.witnesses["closure_additions"]
        assert cert.trace[-1]["edges_added"] == len(added) == count
        # replay in the given order, from g's degrees up to K_n
        rows = [g.row(v) for v in range(n)]
        deg = list(g.degrees())
        for u, v in added:
            assert u < v and not rows[u] >> v & 1
            assert deg[u] + deg[v] >= n + 1
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
        assert deg == [n - 1] * n
        assert hashlib.sha256(repr(sorted(added)).encode()).hexdigest() == digest


def _paper_order_corpus():
    """Seeded gnp across the census bands at n = 92, a few gnp at n = 270, a
    sparse and a dense gnp at n = 652, and relabeled hosts, near-hosts (one
    X-Z edge added, one X-Y edge removed) and class members at (92, 2) and
    (270, 3)."""
    rng = SplitMix64(2033)
    for p in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        for _ in range(3):
            yield gnp(92, p, rng)
    for p in (0.05, 0.2, 0.5, 0.9):
        yield gnp(270, p, rng)
    yield gnp(652, 0.05, rng)
    yield gnp(652, 0.5, rng)
    for n, k in ((92, 2), (270, 3)):
        for build in (build_S, build_T):
            h = build(n, k)
            x = h.X[rng.next_below(len(h.X))]
            y = h.Y[rng.next_below(len(h.Y))]
            z = h.Z[rng.next_below(len(h.Z))]
            for g in (h.graph, add_edges(h.graph, [(x, z)]), delete_edges(h.graph, [(x, y)])):
                yield relabel(g, rng.permutation(n))
        for clazz in CLASSES:
            for member in enumerate_class(clazz, n, k, mode="sample", seed=n, count=2):
                yield relabel(member.graph, rng.permutation(n))


def _census_key(cert):
    """The stage that settled a certificate: the fired condition, else the
    entry that found an exceptional host, else the screen entry of a
    negative, else "none"."""
    if cert.fired_condition:
        return cert.fired_condition["name"]
    for entry in cert.trace:
        if entry["verdict"] == "exceptional":
            return entry["condition"]
    if cert.outcome == OUTCOME_NOT_HC:
        return cert.trace[0]["condition"]
    return "none"


# (outcome, deciding stage) counts over _paper_order_corpus(), and the
# sha256 of its reports and exit codes with closure_additions sorted, since
# their order is the closure's choice; both computed before the closure's
# pass selection looked at the order n
_PAPER_ORDER_CENSUS = {
    ("CertifiedHamiltonConnected", "ClosureComplete"): 7,
    ("CertifiedHamiltonConnected", "Ore"): 3,
    ("ExceptionalFamily", "EdgeCount"): 20,
    ("Inconclusive", "none"): 17,
    ("NotHamiltonConnected", "Connectivity"): 2,
    ("NotHamiltonConnected", "TwoConnectivity"): 3,
}
_PAPER_ORDER_DIGEST = "bffc7f3990e14321cd0a563de9d086ec39d887f7dde173b6d4a2f871f4b9adb5"


def test_paper_order_verdicts_and_witness_sets_are_pinned():
    census = Counter()
    digest = hashlib.sha256()
    for g in _paper_order_corpus():
        cert = certify(g)
        census[cert.outcome, _census_key(cert)] += 1
        report = explain(cert)
        if "closure_additions" in report["witnesses"]:
            report["witnesses"] = {**report["witnesses"],
                                   "closure_additions": sorted(report["witnesses"]["closure_additions"])}
        digest.update(json.dumps(report, sort_keys=True).encode())
        digest.update(b"%d\n" % cert.exit_code())
    assert dict(census) == _PAPER_ORDER_CENSUS
    assert digest.hexdigest() == _PAPER_ORDER_DIGEST


def test_oracle_timeout_outcome():
    from hamq.certifier import OUTCOME_TIMEOUT

    # a starved oracle budget surfaces as a Timeout outcome (exit 3)
    rng = SplitMix64(3)
    g = gnp(9, 0.5, rng)
    cert = certify(g, pair_budget=3)
    if cert.outcome == OUTCOME_TIMEOUT:
        assert cert.exit_code() == 3
    else:
        # quick negatives may decide before the oracle; force a clean case
        cert = certify(cycle(9), pair_budget=3)
        assert cert.outcome == OUTCOME_TIMEOUT
        assert cert.exit_code() == 3


def test_negative_pair_budget_is_rejected_before_any_stage():
    from hamq.errors import BadParameters

    # Ore would certify K5 at once, but the budget is checked first
    for g in (complete(5), cycle(6)):
        with pytest.raises(BadParameters, match="budget >= 0, got -1"):
            certify(g, pair_budget=-1)
