"""Suite registry, claim coverage, report determinism, reduced-scale runs."""

import json

import pytest

import hamq.verify
from hamq.certifier import (
    OUTCOME_CERTIFIED,
    OUTCOME_EXCEPTIONAL,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NOT_HC,
    certify,
)
from hamq.errors import BadParameters
from hamq.graph import complete, cut_vertex, emit_graph6, is_connected, parse_graph6
from hamq.rng import SplitMix64, gnp
from hamq.spectral import perron_pair
from hamq.verify import (
    CLAIM_COVERAGE,
    SUITES,
    _case_seeds,
    _edge_at,
    _report,
    run_appendix,
    run_closure,
    run_corollary,
    run_family_nonhc,
    run_hunt,
    run_kelmans,
    run_ore,
    run_qbound,
    run_qlower,
    run_qupper,
    run_suite,
)

from conftest import pairwise_gnp


def test_registry_contains_all_contracted_suites():
    assert set(SUITES) == {
        "ore", "closure", "kelmans", "qbound", "q-lower", "q-upper",
        "appendix", "corollary", "family-nonhc",
    }


def test_every_claim_has_a_runnable_home():
    runnable = set(SUITES) | {"hunt"}
    for claim, homes in CLAIM_COVERAGE.items():
        assert homes, claim
        for home in homes:
            assert home in runnable, (claim, home)


def test_run_suite_dispatch_and_bad_suite():
    report = run_suite("appendix", k_values=[2, 3])
    assert report.suite == "appendix" and report.ok
    with pytest.raises(BadParameters, match="unknown suite"):
        run_suite("nope")


def test_reports_are_byte_stable():
    a = run_kelmans(count=20, seed=5).to_stable_json()
    b = run_kelmans(count=20, seed=5).to_stable_json()
    assert a == b
    assert "elapsed" not in a
    # _report sorts the failures its checks and finish return, whatever
    # their order, and the four fields are the JSON keys
    a_fail, b_fail, c_fail = {"graph6": "A"}, {"graph6": "B"}, {"graph6": "C"}
    report = _report("s", {"n": 1}, ([1, 2], lambda case: [c_fail] if case == 1 else [a_fail]),
                     finish=lambda: [b_fail])
    assert report.failures == [a_fail, b_fail, c_fail]
    assert json.loads(report.to_stable_json()) == {
        "suite": "s", "params": {"n": 1}, "cases": 2, "failures": report.failures}


def test_failures_are_replayable():
    # force failures: q-upper's strict bound q < 2n - 2k holds only from
    # n_min(2) = 92 on, so at n = 5 class-2 members break it, and each
    # failure's graph6 must replay the violation
    n, k = 5, 2
    report = run_qupper(cases=[(k, n, "exhaustive", 0)])
    assert report.cases == 12 and len(report.failures) == 10
    for failure in report.failures:
        g = parse_graph6(failure["graph6"])
        assert g.n == n and perron_pair(g).hi >= 2 * n - 2 * k


def test_qupper_runs_maximizer_checks_only_on_exhaustive_cases(monkeypatch):
    # a one-member sample's best member is not the class maximizer: here
    # hub 0 lost an edge, so Y2 = {0} and the maximizer's ordering Z1 above
    # Z2 u Y2 fails on it, though no member check does
    report = run_qupper(cases=[(3, 270, "sample", 1)], seed=48)
    assert report.ok and report.cases == 2, report.failures

    # an exhaustive case still sends one maximizer per class to the checks,
    # and a sample case beside it sends none
    seen = []
    monkeypatch.setattr(hamq.verify, "_qupper_maximizer_checks",
                        lambda member, est: seen.append(member) or [])
    run_qupper(cases=[(2, 5, "exhaustive", 0), (3, 270, "sample", 1)], seed=48)
    assert sorted((m.kind, m.n, m.k) for m in seen) == [("S", 5, 2), ("T", 5, 2)]


def test_reduced_scale_suites_pass():
    # the case counts pin each suite's case set
    for report, cases in [
        (run_ore(trials=200, seed=1), 1196),
        (run_closure(random_per_n=20, seed=2, order_trials=30), 1066),
        (run_kelmans(count=60, seed=3), 60),
        (run_qbound(count=200, seed=4), 200),
        (run_qlower(cases=[(2, 92, "exhaustive", 0), (3, 40, "exhaustive", 0),
                           (4, 40, "sample", 60)]), 1530),
        (run_qupper(cases=[(2, 92, "sample", 40)]), 80),
        (run_appendix(), 22),
        (run_corollary(), 6),
        (run_family_nonhc(k_values=(2, 3), n_values=(8, 9)), 80),
        (run_hunt(n=7, model="all-connected"), 853),
        (run_hunt(n=8, trials=200, seed=42, model="gnp(0.5)"), 200),
    ]:
        assert report.ok, report.suite
        assert report.cases == cases, report.suite


def test_hunt_models():
    assert run_hunt(n=12, trials=30, seed=2, model="gnm(40)").ok
    assert run_hunt(n=22, trials=5, seed=7,
                    model="dense-above-edge-threshold(k=2)").ok


def _lie(monkeypatch, lie_when, outcome):
    """Make the hunt's certifier answer ``outcome`` wherever ``lie_when(g,
    cert)`` holds; returns the graph6 strings of the graphs it lied about."""
    lied = []

    def lying_certify(g, **kwargs):
        cert = certify(g, **kwargs)
        if not lie_when(g, cert):
            return cert
        lied.append(emit_graph6(g))
        return cert._replace(outcome=outcome)

    monkeypatch.setattr(hamq.verify, "certify", lying_certify)
    return lied


@pytest.mark.parametrize("lie_when, outcome, model", [
    # a cut vertex: never Hamilton-connected
    (lambda g, cert: cut_vertex(g) is not None, OUTCOME_CERTIFIED, "gnp(0.5)"),
    # K_8: Hamilton-connected
    (lambda g, cert: g == complete(g.n), OUTCOME_NOT_HC, "gnp(1)"),
    # certified graphs: the oracle says "yes" on every one
    (lambda g, cert: cert.outcome == OUTCOME_CERTIFIED, OUTCOME_EXCEPTIONAL, "gnp(0.5)"),
], ids=["certified-cut-vertex", "not-hc-complete", "exceptional-hc"])
def test_hunt_catches_a_lying_certifier(monkeypatch, lie_when, outcome, model):
    lied = _lie(monkeypatch, lie_when, outcome)
    report = run_hunt(n=8, trials=100, model=model)
    assert lied
    assert sorted(f["graph6"] for f in report.failures) == sorted(lied)
    assert all(f"certifier said {outcome}" in f["violated"] for f in report.failures)


# The pinned report digests hold graphs only where a check fails, so they
# cannot see a changed stream.  These tests record the graphs each suite that
# draws with gnps checks, and compare them with a stream drawn one pair and
# one case at a time (pairwise_gnp, redrawn while disconnected).


def _record(monkeypatch, check_name, graph_of):
    seen = []

    def check(item):
        seen.append(graph_of(item))
        return []

    monkeypatch.setattr(hamq.verify, check_name, check)
    return seen


def _connected_pairwise(n, p, rng):
    """The first connected pairwise draw, and whether the first draw was not."""
    g = pairwise_gnp(n, p, rng)
    redrawn = not is_connected(g)
    while not is_connected(g):
        g = pairwise_gnp(n, p, rng)
    return g, redrawn


def test_hunt_checks_the_one_at_a_time_gnp_stream(monkeypatch):
    seen = _record(monkeypatch, "_hunt_check", lambda g: g)
    assert run_hunt(n=8, trials=1000, seed=42, model="gnp(0.5)").cases == 1000
    assert seen == [pairwise_gnp(8, 0.5, SplitMix64(s)) for s in _case_seeds(42, 1000)]


def test_qbound_checks_the_one_at_a_time_stream(monkeypatch):
    # each graph with its generator's state when the check starts drawing
    seen = _record(monkeypatch, "_qbound_check", lambda item: (item[0][0], item[0][1].state))
    redraws = 0
    for seed in (4, 5, 123):
        seen.clear()
        run_qbound(count=375, seed=seed)
        by_order = {}
        for case_seed in _case_seeds(seed, 375):
            rng = SplitMix64(case_seed)
            n = 3 + rng.next_below(48)
            g, redrawn = _connected_pairwise(n, 0.25 + 0.65 * rng.next_float(), rng)
            redraws += redrawn
            by_order.setdefault(n, []).append((g, rng.state))
        assert seen == [case for cases in by_order.values() for case in cases], seed
    assert redraws == 49


def test_closure_checks_the_one_at_a_time_random_stream(monkeypatch):
    seen = _record(monkeypatch, "_closure_equiv_check", lambda g: g)
    run_closure(random_per_n=250, seed=2, order_trials=0, exhaustive_n=())
    want = []
    for i, case_seed in enumerate(_case_seeds(2, 500)):
        rng = SplitMix64(case_seed)
        want.append(_connected_pairwise(8 if i < 250 else 9, 0.2 + 0.6 * rng.next_float(), rng)[0])
    assert seen == want


def test_hunt_asks_the_oracle_only_about_decided_verdicts(monkeypatch):
    def no_oracle(g, *args, **kwargs):
        raise RuntimeError("oracle asked")

    monkeypatch.setattr(hamq.verify, "is_hamilton_connected", no_oracle)
    seen = set()
    for seed in range(30):
        graphs = [gnp(8, 0.5, SplitMix64(s)) for s in _case_seeds(seed, 3)]
        all_inconclusive = all(certify(g, oracle_gate=0).outcome == OUTCOME_INCONCLUSIVE
                               for g in graphs)
        seen.add(all_inconclusive)
        if all_inconclusive:
            assert run_hunt(n=8, trials=3, seed=seed).ok
        else:
            with pytest.raises(RuntimeError, match="oracle asked"):
                run_hunt(n=8, trials=3, seed=seed)
    assert seen == {True, False}


def test_edge_at_is_the_indexed_edge():
    rng = SplitMix64(71)
    for n in range(3, 51):
        for g in (gnp(n, rng.next_float(), rng), complete(n)):
            assert [_edge_at(g, i) for i in range(g.m)] == g.edges()
        with pytest.raises(IndexError):
            _edge_at(g, g.m)


def test_corollary_skips_k2():
    report = run_corollary(k_values=(2, 3), n_values=(30,))
    assert 2 not in report.params["k_values"]
    assert "coincide" in report.params["skipped"]


@pytest.mark.parametrize("run, kwargs", [
    (run_ore, {"trials": -1}),
    (run_closure, {"random_per_n": -1}),
    (run_kelmans, {"count": -1}),
    (run_qbound, {"count": -3}),
    (run_hunt, {"trials": -3}),
])
def test_negative_case_count_is_rejected(run, kwargs):
    with pytest.raises(BadParameters):
        run(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"trials": 3, "model": "all-connected"},
    {"trials": "exhaustive", "model": "gnp(0.5)"},
    {"trials": "abc"},
    {"trials": 2.5, "model": "gnm(9)"},
    # trials is an integer only; the exhaustive hunt is the all-connected model
    {"trials": "exhaustive", "model": "all-connected"},
])
def test_hunt_rejects_a_mismatched_trials_and_model(kwargs):
    with pytest.raises(BadParameters, match="do not go with"):
        run_hunt(n=5, **kwargs)


@pytest.mark.parametrize("kwargs, trials, model", [
    # the CLI passes trials=None when --trials is not given
    ({"trials": None, "model": "all-connected"}, "exhaustive", "all-connected"),
    ({"model": "all-connected"}, "exhaustive", "all-connected"),
    ({"trials": 3}, 3, "gnp(0.5)"),
])
def test_hunt_selects_the_partner_of_a_lone_argument(kwargs, trials, model):
    report = run_hunt(n=5, **kwargs)
    assert report.params == {"n": 5, "trials": trials, "seed": 42, "model": model}


def test_hunt_defaults_to_10000_trials_of_gnp():
    import inspect

    assert run_hunt(n=3, model="gnm(0)").params["trials"] == 10_000
    defaults = {k: p.default for k, p in inspect.signature(run_hunt).parameters.items()}
    assert defaults == {"n": None, "trials": None, "seed": 42, "model": None}
    assert run_hunt(model="gnm(0)", trials=2).params["n"] == 8
