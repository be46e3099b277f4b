"""Certification pipeline outcomes, witnesses, and report stability."""

import json

from hamq.certifier import (
    OUTCOME_CERTIFIED,
    OUTCOME_EXACT_NO,
    OUTCOME_EXCEPTIONAL,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NOT_HC,
    CertifyConfig,
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
    membership,
    spanning_subgraph_of,
    thresholds,
)
from hamq.graph import complete, cycle, disjoint_union, path_graph
from hamq.hamilton import is_hamilton_connected
from hamq.rng import SplitMix64, gnp


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
                    cert = certify(g, CertifyConfig(enable_oracle=False))
                    assert cert.outcome != OUTCOME_CERTIFIED
                    for w in (membership(g, clazz, k), spanning_subgraph_of(g, clazz[0], k)):
                        conf = _separator_confirmation(g, w.Y)
                        assert conf["components"] >= len(conf["separator"]) >= 2


def test_members_confirmed_where_the_edge_stage_runs():
    # every k = 2 member at n = 22 and a k = 3 sample at n = 33; the oracle
    # arbitrates only k = 2 here (on the k = 3 hosts at n = 33 its first
    # pair alone spends 10**6 expansions without an answer)
    members = [m for clazz in CLASSES for m in enumerate_class(clazz, 22, 2)]
    members += [m for clazz in CLASSES
                for m in enumerate_class(clazz, 33, 3, mode="sample", seed=1, count=10)]
    for member in members:
        cert = certify(member.graph, CertifyConfig(enable_oracle=False))
        assert cert.outcome == OUTCOME_EXCEPTIONAL and cert.exit_code() == 1
        conf = cert.witnesses["confirmation"]
        assert conf["components"] >= len(conf["separator"]) >= 2
        if member.k == 2:
            assert is_hamilton_connected(member.graph).verdict == "no"


def test_certify_deleted_member_annotated_class2():
    member = family_member(build_S(92, 2), [(5, 7)])
    cert = certify(member.graph)
    assert cert.outcome == OUTCOME_EXCEPTIONAL
    assert cert.witnesses["family_class"] == "S2"
    assert cert.witnesses["non_hamilton_connected"] is True
    # the edge condition's hypotheses passed but the embedding escape fired
    entry = next(t for t in cert.trace if t["condition"] == "EdgeCount")
    assert entry["verdict"] == "exceptional"


def test_certify_cycle_exact_no():
    cert = certify(cycle(6))
    assert cert.outcome == OUTCOME_EXACT_NO
    assert cert.witnesses["failing_pair"] == [0, 2]
    assert cert.exit_code() == 1


def test_certify_inconclusive_beyond_gate():
    rng = SplitMix64(1)
    g = gnp(10, 0.2, rng)
    cert = certify(g, CertifyConfig(enable_oracle=False))
    assert cert.outcome in (OUTCOME_INCONCLUSIVE, OUTCOME_NOT_HC)
    if cert.outcome == OUTCOME_INCONCLUSIVE:
        assert cert.exit_code() == 2


def test_certified_implies_oracle_yes_small():
    rng = SplitMix64(5)
    for _ in range(300):
        g = gnp(3 + rng.next_below(6), 0.3 + 0.6 * rng.next_float(), rng)
        cert = certify(g, CertifyConfig(enable_oracle=False))
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
        cert = certify(g, CertifyConfig(enable_oracle=False))
        for entry in cert.trace:
            if entry["condition"] == "EdgeCount":
                assert entry["verdict"] == "fail"


def test_explain_structure_and_stability():
    cert = certify(complete(4))
    report = explain(cert)
    assert set(report) == {"outcome", "fired_condition", "parameters",
                           "witnesses", "trace"}
    ore_entry = next(t for t in report["trace"] if t["condition"] == "Ore")
    hyp = ore_entry["hypotheses"][0]
    assert set(hyp) == {"name", "required", "actual", "passed"}
    a = json.dumps(explain(certify(cycle(6))), sort_keys=True)
    b = json.dumps(explain(certify(cycle(6))), sort_keys=True)
    assert a == b


def test_certificate_json_roundtrip():
    cert = certify(build_S(22, 2).graph)
    blob = cert.to_json()
    data = json.loads(blob)
    assert data["outcome"] == OUTCOME_EXCEPTIONAL
    assert data["witnesses"]["host"]["kind"] == "S"


def test_spectral_stage_escape_when_embedding_budget_exhausted():
    # with the embedding search starved, the host is caught by the spectral
    # stage's membership escape instead of the edge stage
    host = build_S(92, 2)
    cert = certify(host.graph, CertifyConfig(embed_budget=0))
    assert cert.outcome == OUTCOME_EXCEPTIONAL
    edge_entry = next(t for t in cert.trace if t["condition"] == "EdgeCount")
    assert edge_entry["verdict"] == "budget-exceeded"
    spectral_entry = next(t for t in cert.trace if t["condition"] == "Spectral")
    assert spectral_entry["verdict"] == "exceptional"
    assert cert.witnesses["family_class"] == "S1"


def test_spectral_and_corollary_fail_traces_on_class2_member():
    # class-2 members sit strictly below every spectral threshold, so with
    # the edge stage starved the run ends inconclusive with fail traces
    member = family_member(build_S(92, 2), [(3, 5), (7, 9)])
    cert = certify(member.graph, CertifyConfig(embed_budget=0))
    assert cert.outcome == OUTCOME_INCONCLUSIVE
    verdicts = {t["condition"]: t["verdict"] for t in cert.trace}
    assert verdicts["Spectral"] == "fail"
    assert verdicts["CorollarySpectral"] == "fail"
    assert cert.parameters["q_interval"][1] < 180


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
        cert = certify(g, CertifyConfig(enable_oracle=False))
        assert cert.outcome in (OUTCOME_CERTIFIED, OUTCOME_EXCEPTIONAL)
        oracle_yes = is_hamilton_connected(g).verdict == "yes"
        if cert.outcome == OUTCOME_CERTIFIED:
            assert oracle_yes
        else:
            assert not oracle_yes
            assert cert.witnesses["non_hamilton_connected"] is True


def test_oracle_timeout_outcome():
    from hamq.certifier import OUTCOME_TIMEOUT

    # a starved oracle budget surfaces as a Timeout outcome (exit 3)
    rng = SplitMix64(3)
    g = gnp(9, 0.5, rng)
    cert = certify(g, CertifyConfig(pair_budget=3))
    if cert.outcome == OUTCOME_TIMEOUT:
        assert cert.exit_code() == 3
    else:
        # quick negatives may decide before the oracle; force a clean case
        from hamq.graph import cycle as cyc

        cert = certify(cyc(9), CertifyConfig(pair_budget=3))
        assert cert.outcome == OUTCOME_TIMEOUT
        assert cert.exit_code() == 3
