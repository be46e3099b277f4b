"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output).  Tolerances and scales are pinned
here; the underlying machinery lives in the library and the verification
suites.  Runtime ceilings are asserted as part of the criteria.
"""

from __future__ import annotations

import time

from hamq.corpus import connected_graphs
from hamq.graph import complete, emit_graph6
from hamq.hamilton import is_hamilton_connected, ore_check
from hamq.rng import SplitMix64, random_connected_gnp
from hamq.spectral import perron_pair
from hamq.verify import (
    run_closure,
    run_corollary,
    run_family_nonhc,
    run_hunt,
    run_kelmans,
    run_qbound,
    run_qlower,
    run_qupper,
)
from hamq.families import appendix_check, thresholds

from conftest import cycle

ORACLE_BUDGET = 10**8


def _report(num: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} ({elapsed:6.1f}s) {detail}")


def test_criterion_01_spectral_sanity():
    start = time.monotonic()
    worst = 0.0
    for n in range(3, 201):
        worst = max(worst, abs(perron_pair(complete(n)).q_hat - (2 * n - 2)))
        worst = max(worst, abs(perron_pair(cycle(n)).q_hat - 4.0))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10
    _report(1, ok, elapsed, f"complete/cycle radii for n in 3..200, worst defect {worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < 10


def test_criterion_02_edge_count_radius_bound():
    start = time.monotonic()
    report = run_qbound(count=10_000, seed=4)
    elapsed = time.monotonic() - start
    ok = report.ok and elapsed < 120
    _report(2, ok, elapsed,
            f"2m/(n-1)+n-2 bound on {report.cases} random connected graphs, "
            f"{len(report.failures)} failure(s)")
    assert report.ok, report.failures[:3]
    assert elapsed < 120


def test_criterion_03_kelmans_monotonicity():
    start = time.monotonic()
    report = run_kelmans(count=1000, seed=3)
    elapsed = time.monotonic() - start
    ok = report.ok and elapsed < 60
    _report(3, ok, elapsed,
            f"radius never drops across {report.cases} transformations")
    assert report.ok, report.failures[:3]
    assert elapsed < 60


def test_criterion_04_closure_equivalence():
    start = time.monotonic()
    report = run_closure(random_per_n=250, seed=2, order_trials=0,
                         exhaustive_n=(6, 7))
    elapsed = time.monotonic() - start
    ok = report.ok and elapsed < 300
    _report(4, ok, elapsed,
            f"oracle(G) == oracle(closure) on {report.cases} graphs "
            f"(exhaustive n=6,7 plus 500 random n=8,9)")
    assert report.ok, report.failures[:3]
    assert elapsed < 300


def test_criterion_05_ore_soundness():
    start = time.monotonic()
    failures = []
    cases = 0
    for n in (6, 7):
        for g in connected_graphs(n):
            cases += 1
            if ore_check(g) and is_hamilton_connected(g, ORACLE_BUDGET).verdict != "yes":
                failures.append(emit_graph6(g))
    rng = SplitMix64(2)
    for i in range(500):
        n = 8 if i < 250 else 9
        g = random_connected_gnp(n, 0.2 + 0.6 * rng.next_float(), rng)
        cases += 1
        if ore_check(g) and is_hamilton_connected(g, ORACLE_BUDGET).verdict != "yes":
            failures.append(emit_graph6(g))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300
    _report(5, ok, elapsed,
            f"degree-sum check implies oracle yes on {cases} graphs, "
            f"{len(failures)} exception(s)")
    assert not failures, failures[:3]
    assert elapsed < 300


def test_criterion_06_class1_exact_lower_bound():
    start = time.monotonic()
    cases = []
    for k in (2, 3):
        for n in (thresholds(k).n_min, 40):
            cases.append((k, n, "exhaustive", 0))
    for k in (4, 5):
        for n in (thresholds(k).n_min, 40):
            cases.append((k, n, "sample", 500))
    report = run_qlower(cases=cases, seed=1)
    elapsed = time.monotonic() - start
    ok = report.ok and elapsed < 300
    _report(6, ok, elapsed,
            f"exact rational certificates >= 2n-2k for {report.cases} class-1 members")
    assert report.ok, report.failures[:3]
    assert elapsed < 300


def test_criterion_07_class2_upper_bound_with_claims():
    start = time.monotonic()
    report = run_qupper(cases=[(2, 92, "exhaustive", 0), (3, 270, "sample", 200)],
                        seed=1)
    elapsed = time.monotonic() - start
    ok = report.ok and elapsed < 1800
    _report(7, ok, elapsed,
            f"class-2 members below threshold with eigenvector claims, "
            f"{report.cases} members")
    assert report.ok, report.failures[:3]
    assert elapsed < 1800


def test_criterion_08_appendix_exact_rationals():
    start = time.monotonic()
    branches = set()
    bad = []
    for k in range(2, 13):
        n_min = thresholds(k).n_min
        for n in (n_min, n_min + 1000):
            rep = appendix_check(k, n)
            branches.add(rep.branch)
            if not rep.holds:
                bad.append((k, n))
    elapsed = time.monotonic() - start
    ok = not bad and branches == {0, 1, 2, 3} and elapsed < 1
    _report(8, ok, elapsed,
            f"closed-form inequality holds for k in 2..12, branches {sorted(branches)}")
    assert not bad and branches == {0, 1, 2, 3}
    assert elapsed < 1


def test_criterion_09_families_are_exceptional():
    start = time.monotonic()
    report = run_family_nonhc(k_values=(2, 3), n_values=range(8, 13))
    elapsed = time.monotonic() - start
    ok = report.ok and elapsed < 600
    _report(9, ok, elapsed,
            f"every class-1 member fails the oracle, {report.cases} members")
    assert report.ok, report.failures[:3]
    assert elapsed < 600


def test_criterion_10_certifier_consistency():
    start = time.monotonic()
    r1 = run_hunt(n=7, model="all-connected")
    r2 = run_hunt(n=8, trials=10_000, seed=42, model="gnp(0.5)")
    r3 = run_hunt(n=22, trials=100, seed=7, model="dense-above-edge-threshold(k=2)")
    elapsed = time.monotonic() - start
    disagreements = len(r1.failures) + len(r2.failures) + len(r3.failures)
    cases = r1.cases + r2.cases + r3.cases
    ok = disagreements == 0 and elapsed < 1200
    _report(10, ok, elapsed,
            f"certifier vs oracle on {cases} graphs, {disagreements} disagreement(s)")
    assert disagreements == 0, (r1.failures + r2.failures + r3.failures)[:3]
    assert elapsed < 1200


def test_criterion_11_host_radius_ordering():
    start = time.monotonic()
    report = run_corollary(k_values=(3, 4, 5), n_values=(30, 60))
    elapsed = time.monotonic() - start
    ok = report.ok and elapsed < 10
    _report(11, ok, elapsed,
            f"radius ordering with gaps > 1e-6 on {report.cases} (k, n) pairs; "
            f"k=2 skipped ({report.params['skipped']})")
    assert report.ok, report.failures[:3]
    assert elapsed < 10
