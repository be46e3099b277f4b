"""Named verification suites: every inequality the toolkit relies on, at desk
scale, against independent oracles.

Each suite replays one verified claim, in-process, over a deterministic
case set derived from a single seed.  Per-case generator streams are forked
up front, so a case does not depend on the cases before it, with one
exception: ``closure``'s order trials draw in turn from one shared stream,
``SplitMix64(seed ^ 0xC10)``, so each trial depends on the ones before it.
A suite is its params, a stream of cases and a per-case check that returns
the case's failures; ``_report`` is the one case loop that walks the
stream, counts the cases, gathers and sorts the failures, and builds every
``SuiteReport``.  The class-member suites draw their cases from
``_members``.  The spectral suites solve their graphs with ``perron_pairs``:
``q-upper`` and ``qbound`` pass their streams through ``_estimated``, which
feeds them to it as they come, and ``kelmans`` and ``corollary`` stack the
two graphs of a case.  The suites that draw one G(n, p) graph per case from
the case's own generator (a gnp hunt, ``ore``, ``closure``'s random graphs
and ``qbound``) pass one stream of ``(n, p, rng)`` cases to ``gnps`` or
``random_connected_gnps``, which cuts each run of one order into stacks and
leaves each case the graph and generator state of its own ``gnp`` call;
``ore`` and ``qbound`` read every case's order first and group the cases by
order (``_gnp_cases``), so their runs are long.  Failures
carry the graph6 string of the offending graph and the violated inequality
with its numbers (``_fail``), so every failure is replayable.  Reports carry
no timing and their failures are sorted, so they are byte-stable for fixed
(params, seed); callers that want wall time measure the call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat, tee
from math import comb
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .certifier import (
    OUTCOME_CERTIFIED,
    OUTCOME_EXCEPTIONAL,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NOT_HC,
    certify,
)
from .corpus import CORPUS_SIZE_GATE, connected_graphs
from .errors import BadParameters
from .families import (
    FamilyHandle,
    Thresholds,
    appendix_check,
    build_S,
    build_T,
    indicator_rayleigh_value,
    enumerate_class,
    indicator_vector,
    refined_partition,
    thresholds,
)
from .graph import Graph, emit_graph6, is_connected, min_degree
from .hamilton import is_hamilton_connected, ore_check
from .rng import GnpCase, SplitMix64, gnm, gnp, gnps, random_connected_gnp, random_connected_gnps
from .spectral import (
    DEFAULT_TOL,
    SpectralEstimate,
    adjacent_pair_identity_defect,
    perron_pairs,
    rayleigh_quotient_exact,
    upper_bound_edge_count,
)
from .transforms import closure, kelmans


class SuiteReport(NamedTuple):
    """Outcome of one suite run; empty ``failures`` means success.  Only
    ``_report`` builds one, with the failures sorted, so the report is
    byte-stable."""

    suite: str
    params: dict[str, Any]
    cases: int
    failures: list[dict[str, Any]]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_stable_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)


def _case_seeds(seed: int, count: int) -> list[int]:
    if count < 0:
        raise BadParameters("a case count cannot be negative")
    rng = SplitMix64(seed)
    return [rng.next_u64() for _ in range(count)]


Failures = list[dict[str, Any]]


def _fail(g: Graph | None, violated: str) -> dict[str, Any]:
    """One failure: the offending graph's graph6 ("" for a check on closed
    forms) and the violated inequality with its numbers."""
    return {"graph6": "" if g is None else emit_graph6(g), "violated": violated}


def _report(
    suite: str,
    params: dict[str, Any],
    *parts: tuple[Iterable[Any], Callable[[Any], Failures]],
    finish: Callable[[], Failures] | None = None,
) -> SuiteReport:
    """The case loop of every suite: walk each ``(cases, check)`` part in
    order, count every case and gather the failures its check returns, then
    add the suite-level failures ``finish`` returns once the walk is done,
    and sort them all.  A run that walked no case checked nothing, so it
    fails."""
    count = 0
    failures: Failures = []
    for cases, check in parts:
        for case in cases:
            count += 1
            failures.extend(check(case))
    if finish is not None:
        failures.extend(finish())
    if count == 0:
        failures.append(_fail(None, "no case ran"))
    failures.sort(key=lambda f: (f.get("graph6", ""), str(sorted(f.items()))))
    return SuiteReport(suite, params, count, failures)


# a class member tagged with its (case index, class)
Member = tuple[tuple[int, str], FamilyHandle]


def _members(
    cases: Iterable[tuple[int, int, str, int]], classes: tuple[str, ...], seed: int
) -> Iterator[Member]:
    """``((case index, class), member)`` for every member of every class of
    every ``(k, n, mode, count)`` case; exhaustive mode ignores seed and count."""
    for i, (k, n, mode, count) in enumerate(cases):
        for clazz in classes:
            for member in enumerate_class(clazz, n, k, mode, seed=seed, count=count):
                yield (i, clazz), member


def _estimated(
    items: Iterable[Any], graph_of: Callable[[Any], Graph], tol: float = DEFAULT_TOL
) -> Iterator[tuple[Any, SpectralEstimate]]:
    """``(item, perron_pair(graph_of(item), tol))`` for every item, in stream
    order.  ``perron_pairs`` reads the graphs a stack at a time, so only the
    items of one stack are drawn ahead of the check."""
    items, ahead = tee(items)
    return zip(items, perron_pairs(map(graph_of, ahead), tol))


def _gnp_cases(seed: int, count: int, n_max: int, p_lo: float, p_width: float) -> list[GnpCase]:
    """``count`` G(n, p) cases, each on its own case seed's generator, which
    gives n in 3..n_max and then p = p_lo + p_width * next_float(); grouped
    by order, the orders in the order they first appear.  Each case draws
    from its own generator, so the grouping changes no graph."""
    by_order: dict[int, list[GnpCase]] = {}
    for case_seed in _case_seeds(seed, count):
        rng = SplitMix64(case_seed)
        n = 3 + rng.next_below(n_max - 2)
        by_order.setdefault(n, []).append((n, p_lo + p_width * rng.next_float(), rng))
    return [case for cases in by_order.values() for case in cases]


# -- ore: degree-sum sufficiency ------------------------------------------------


def _ore_case(g: Graph) -> Failures:
    if not ore_check(g):
        return []
    verdict = is_hamilton_connected(g).verdict
    if verdict == "yes":
        return []
    return [_fail(g, f"degree-sum condition held but oracle verdict was {verdict}")]


def run_ore(trials: int = 10_000, seed: int = 1) -> SuiteReport:
    """Degree-sum sufficiency: whenever the check fires, the oracle agrees,
    on every connected graph of order <= 7 and on ``trials`` random graphs
    of orders 3..8, grouped by order (``_gnp_cases``)."""
    corpus = (g for n in range(1, 8) for g in connected_graphs(n))
    return _report(
        "ore",
        {"trials": trials, "seed": seed, "corpus": "connected n<=7"},
        (chain(corpus, gnps(_gnp_cases(seed, trials, 8, 0.15, 0.7))), _ore_case),
    )


# -- closure: equivalence gate and well-definedness -----------------------------


def _closure_with_order(g: Graph, order: list[tuple[int, int]]) -> Graph:
    """Independent route: the (n+1)-closure under an arbitrary fixed pair scan
    order, adding the first pair whose degree sum is >= n + 1 and restarting
    the scan."""
    k = g.n + 1
    rows = [g.row(v) for v in range(g.n)]
    deg = list(g.degrees())
    changed = True
    while changed:
        changed = False
        for u, v in order:
            if not rows[u] >> v & 1 and deg[u] + deg[v] >= k:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                deg[u] += 1
                deg[v] += 1
                changed = True
                break
    return Graph._from_rows(g.n, rows)


def _closure_equiv_check(g: Graph) -> Failures:
    cl, _ = closure(g)
    a = is_hamilton_connected(g).verdict
    # closure returns g itself when it adds nothing, and the oracle is
    # deterministic, so that verdict is a's
    b = a if cl is g else is_hamilton_connected(cl).verdict
    if a == b:
        return []
    return [_fail(g, f"oracle(G)={a} but oracle(closure)={b}")]


def _closure_order_trial(rng: SplitMix64) -> Failures:
    """Well-definedness on one graph drawn from the shared ``rng``: ten random
    scan orders give the same closure, which is idempotent and a fixpoint."""
    n = 4 + rng.next_below(9)  # 4..12
    g = gnp(n, 0.2 + 0.6 * rng.next_float(), rng)
    k = n + 1
    ref, _tr = closure(g)
    bad = []
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(10):
        order = [pairs[i] for i in rng.permutation(len(pairs))]
        if _closure_with_order(g, order) != ref:
            bad.append(_fail(g, f"closure at k={k} depends on scan order"))
            break
    again, tr2 = closure(ref)
    if tr2.added or again != ref:
        bad.append(_fail(g, "closure is not idempotent"))
    deg = ref.degrees()
    for u in range(n):
        for v in range(u + 1, n):
            if not ref.has_edge(u, v) and deg[u] + deg[v] >= k:
                bad.append(_fail(g, f"closure fixpoint violated at pair ({u},{v})"))
    return bad


def run_closure(
    random_per_n: int = 250,
    seed: int = 2,
    order_trials: int = 500,
    exhaustive_n: Iterable[int] = range(1, 8),
) -> SuiteReport:
    """Closure preserves the Hamilton-connectivity verdict; the closure edge
    set is scan-order independent and the operator is idempotent."""
    ns = list(exhaustive_n)
    graphs = [g for n in ns for g in connected_graphs(n)]
    rngs = map(SplitMix64, _case_seeds(seed, 2 * random_per_n))
    orders = chain(repeat(8, random_per_n), repeat(9))  # n = 8, then n = 9
    graphs += random_connected_gnps((n, 0.2 + 0.6 * rng.next_float(), rng)
                                    for n, rng in zip(orders, rngs))
    return _report(
        "closure",
        {"random_per_n": random_per_n, "order_trials": order_trials,
         "seed": seed, "corpus": f"connected n in {sorted(ns)}"},
        (graphs, _closure_equiv_check),
        (repeat(SplitMix64(seed ^ 0xC10), order_trials), _closure_order_trial),
    )


# -- kelmans: spectral monotonicity ---------------------------------------------


def _kelmans_case(case_seed: int) -> Failures:
    rng = SplitMix64(case_seed)
    for _ in range(200):
        n = 4 + rng.next_below(27)  # 4..30
        g = random_connected_gnp(n, 0.15 + 0.6 * rng.next_float(), rng)
        u = rng.next_below(n)
        v = rng.next_below(n)
        if u == v:
            continue
        gs = kelmans(g, u, v)
        if not is_connected(gs):
            continue
        a, b = perron_pairs([g, gs])
        if b.q_hat < a.q_hat - 1e-8 or a.lo > b.hi + 1e-8:
            return [_fail(g, f"kelmans({u},{v}) dropped the radius: "
                             f"q(G)~{a.q_hat:.12f} vs q(G*)~{b.q_hat:.12f}")]
        return []
    return []


def run_kelmans(count: int = 1000, seed: int = 3) -> SuiteReport:
    """The neighborhood-shift transformation never decreases the radius."""
    return _report("kelmans", {"count": count, "seed": seed, "n_max": 30},
                   (_case_seeds(seed, count), _kelmans_case))


# -- qbound: edge-count upper bound and eigen-equation checks --------------------


def _qbound_check(item: tuple[tuple[Graph, SplitMix64], SpectralEstimate]) -> Failures:
    (g, rng), est = item
    bound = float(upper_bound_edge_count(g))
    if est.lo > bound + 1e-9:
        return [_fail(g, f"certified lower bound {est.lo:.12f} above "
                         f"2m/(n-1)+n-2 = {bound:.12f}")]
    if bound - (est.q_hat - est.residual) < -1e-9:
        return [_fail(g, f"radius {est.q_hat:.12f} (residual {est.residual:.2e}) "
                         f"exceeds 2m/(n-1)+n-2 = {bound:.12f}")]
    if est.converged and est.residual > 10 * est.tol:
        return [_fail(g, f"eigen-equation residual {est.residual:.2e} > 10*tol")]
    # adjacent-pair identity on one random edge
    u, v = _edge_at(g, rng.next_below(g.m))
    defect = adjacent_pair_identity_defect(g, est, u, v)
    if est.converged and defect > 10 * est.tol + 1e-9:
        return [_fail(g, f"adjacent-pair identity defect {defect:.2e} at ({u},{v})")]
    # enclosure soundness: integer-rounded eigenvector stays below hi
    scaled = [round(t * 10**6) for t in est.f]
    exact = rayleigh_quotient_exact(g, scaled)
    if float(exact) > est.hi + 1e-9:
        return [_fail(g, f"exact quotient {float(exact):.12f} above hi={est.hi:.12f}")]
    return []


def _edge_at(g: Graph, i: int) -> tuple[int, int]:
    """``g.edges()[i]``, found by the popcounts of the rows' upper triangles."""
    for u in range(g.n):
        upper = g.row(u) >> (u + 1)
        count = upper.bit_count()
        if i < count:
            for _ in range(i):
                upper &= upper - 1  # drop the lowest neighbour
            return u, u + (upper & -upper).bit_length()
        i -= count
    raise IndexError("edge index out of range")


def run_qbound(count: int = 10_000, seed: int = 4) -> SuiteReport:
    """Edge-count bound on the radius, plus residual/identity sanity.

    The cases are grouped by order (``_gnp_cases``), and drawn, solved with
    ``perron_pairs`` at tol 1e-8 and checked one stack at a time; each check
    goes on drawing from its case's generator.
    """
    cases = _gnp_cases(seed, count, 50, 0.25, 0.65)
    draws = zip(random_connected_gnps(cases), (rng for _, _, rng in cases))
    return _report("qbound", {"count": count, "seed": seed, "n_max": 50},
                   (_estimated(draws, lambda item: item[0], 1e-8), _qbound_check))


# -- q-lower: exact class-1 certificates -----------------------------------------


def _qlower_check(item: Member) -> Failures:
    (_, clazz), member = item
    n, k = member.n, member.k
    got = rayleigh_quotient_exact(member.graph, indicator_vector(member))
    want = indicator_rayleigh_value(member)
    threshold = Fraction(2 * n - 2 * k)
    if got == want and got >= threshold:
        return []
    return [_fail(member.graph, f"{clazz}(n={n},k={k}) |E'|={len(member.deleted)}: "
                                f"quotient {got} (closed form {want}) vs threshold {threshold}")]


def run_qlower(
    cases: Iterable[tuple[int, int, str, int]] | None = None, seed: int = 1
) -> SuiteReport:
    """Every class-1 member certifies ``q >= 2n - 2k`` in exact rationals.

    The generic rational quotient must also equal the closed-form value
    derived from the member's deletion count (two independent routes).
    """
    if cases is None:
        cases = [(k, n, "exhaustive", 0) for k in (2, 3) for n in (thresholds(k).n_min, 40)]
        cases += [(k, n, "sample", 500) for k in (4, 5) for n in (thresholds(k).n_min, 40)]
    cases = list(cases)
    return _report("q-lower", {"cases": [list(c) for c in cases], "seed": seed},
                   (_members(cases, ("S1", "T1"), seed), _qlower_check))


# -- q-upper: class-2 members sit strictly below the threshold -------------------


def _qupper_member_checks(member: FamilyHandle, est: SpectralEstimate) -> list[str]:
    bad = []
    n, k = member.n, member.k
    threshold = 2 * n - 2 * k
    if est.hi >= threshold:
        bad.append(f"hi={est.hi:.12f} not below {threshold}")
    if est.lo <= threshold - 1:
        bad.append(f"lo={est.lo:.12f} not above {threshold - 1}")
    exact = rayleigh_quotient_exact(member.graph, indicator_vector(member))
    if exact != indicator_rayleigh_value(member):
        bad.append(f"indicator quotient {exact} disagrees with the closed form")
    if exact <= threshold - 1:
        bad.append(f"exact indicator quotient {exact} not above {threshold - 1}")
    if est.converged:
        fx = max(est.f[x] for x in member.X)
        cap = k / (est.q_hat - k) + 1e-8
        if fx > cap:
            bad.append(f"max f over X = {fx:.12f} exceeds k/(q-k) = {cap:.12f}")
        # eigen-equation orderings that hold for every member: an untouched
        # hub dominates touched hubs and untouched non-hubs; an untouched
        # non-hub dominates touched ones
        parts = refined_partition(member)
        f = est.f
        y1, y2, z1, z2 = parts["Y1"], parts["Y2"], parts["Z1"], parts["Z2"]
        if y1 and (y2 or z1):
            gap = min(f[u] for u in y1) - max(f[v] for v in y2 + z1)
            if gap <= 0:
                bad.append(f"Y1 does not dominate Y2 u Z1 (gap {gap:.3e})")
        if z1 and z2:
            gap = min(f[u] for u in z1) - max(f[v] for v in z2)
            if gap <= 0:
                bad.append(f"Z1 does not dominate Z2 (gap {gap:.3e})")
    else:
        bad.append("perron pair did not converge")
    return bad


def _qupper_maximizer_checks(member: FamilyHandle, est: SpectralEstimate) -> list[str]:
    """The checks only the radius maximizer gets: Z1 above Z2 u Y2, and the
    hub spread.  (Y1 above Y2 u Z1 is a member check already, and an estimate
    that did not converge fails there.)"""
    bad = []
    n, k = member.n, member.k
    parts = refined_partition(member)
    f = est.f
    y2, z1, z2 = parts["Y2"], parts["Z1"], parts["Z2"]
    if z1 and z2 and y2:
        lo_side = min(f[u] for u in z1)
        hi_side = max(f[v] for v in z2 + y2)
        if lo_side <= hi_side:
            bad.append(
                f"ordering violated: min f over Z1 = {lo_side:.12f} <= "
                f"max f over Z2 u Y2 = {hi_side:.12f}"
            )
    yz = member.Y + member.Z
    spread = max(f[v] for v in yz) - min(f[v] for v in yz)
    cap = (k * k + 6 * k + 6) / (2 * (est.q_hat - n + 1)) + 1e-8
    if spread > cap:
        bad.append(f"hub spread {spread:.12f} exceeds {cap:.12f}")
    return bad


def run_qupper(
    cases: Iterable[tuple[int, int, str, int]] | None = None, seed: int = 1
) -> SuiteReport:
    """Class-2 members: certified interval strictly below the threshold but
    above threshold-1, eigenvector bounds per member, orderings and spread on
    the radius-maximizing member of each (case, class) of an exhaustive case.
    A sample need not hold the maximizer, so its best member gets only the
    member checks.

    The members stream from ``_members`` to ``perron_pairs`` a stack of one
    order at a time and are checked in stream order, so the maximizer is the
    first member with the strictly largest ``q_hat``, as with one call per
    member.

    The strict upper bound only holds once n clears the order threshold
    (quartic in k); running a case below it reports honest failures.
    """
    if cases is None:
        cases = [(2, thresholds(2).n_min, "exhaustive", 0),
                 (3, thresholds(3).n_min, "sample", 200)]
    cases = list(cases)
    exhaustive = {i for i, case in enumerate(cases) if case[2] == "exhaustive"}
    best: dict[tuple[int, str], tuple[FamilyHandle, SpectralEstimate]] = {}

    def check(item: tuple[Member, SpectralEstimate]) -> Failures:
        (group, member), est = item
        if group[0] in exhaustive and (group not in best or est.q_hat > best[group][1].q_hat):
            best[group] = (member, est)
        where = f"{group[1]}(n={member.n},k={member.k})"
        return [_fail(member.graph, f"{where}: {msg}")
                for msg in _qupper_member_checks(member, est)]

    def maximizers() -> Failures:
        return [_fail(member.graph, f"{clazz}(n={member.n},k={member.k}) maximizer: {msg}")
                for (_, clazz), (member, est) in best.items()
                for msg in _qupper_maximizer_checks(member, est)]

    return _report("q-upper", {"cases": [list(c) for c in cases], "seed": seed},
                   (_estimated(_members(cases, ("S2", "T2"), seed), lambda item: item[1].graph),
                    check), finish=maximizers)


# -- appendix: exact rational inequality -----------------------------------------


def run_appendix(k_values: Iterable[int] = range(2, 13)) -> SuiteReport:
    """The closed-form bounding inequality holds in exact rationals at the
    order threshold and comfortably above it, over all four k mod 4 branches."""
    ks = list(k_values)
    branches = set()

    def check(case: tuple[int, int]) -> Failures:
        k, n = case
        rep = appendix_check(k, n)
        branches.add(rep.branch)
        if rep.holds and rep.hypothesis_met:
            return []
        return [_fail(None, f"k={k} n={n}: holds={rep.holds} "
                            f"margin={rep.margin} hypothesis_met={rep.hypothesis_met}")]

    def coverage() -> Failures:
        if len(ks) < 4 or branches == {0, 1, 2, 3}:
            return []
        return [_fail(None, f"k mod 4 branches exercised: {sorted(branches)}")]

    orders = [(k, n) for k in ks for n in (thresholds(k).n_min, thresholds(k).n_min + 1000)]
    return _report("appendix", {"k_values": ks}, (orders, check), finish=coverage)


# -- corollary: host radius ordering ---------------------------------------------


def _corollary_check(case: tuple[int, int]) -> Failures:
    k, n = case
    s_host = build_S(n, k).graph
    s_est, t_est = perron_pairs([s_host, build_T(n, k).graph])
    base = 2 * n - 2 * k
    if s_est.lo - t_est.hi > 1e-6 and t_est.lo - base > 1e-6:
        return []
    return [_fail(s_host, f"k={k} n={n}: q(S)~[{s_est.lo:.9f},{s_est.hi:.9f}] "
                          f"q(T)~[{t_est.lo:.9f},{t_est.hi:.9f}] base={base}")]


def run_corollary(
    k_values: Iterable[int] = (3, 4, 5), n_values: Iterable[int] = (30, 60)
) -> SuiteReport:
    """Certified ordering q(S host) > q(T host) > 2n - 2k with gaps > 1e-6.

    The k=2 case is skipped: the S and T hosts coincide there, so the first
    comparison is void by construction (recorded in the report params).
    """
    ks = [k for k in k_values if k != 2]
    ns = list(n_values)
    return _report(
        "corollary",
        {"k_values": ks, "n_values": ns, "skipped": "k=2 (S and T hosts coincide)"},
        ([(k, n) for k in ks for n in ns], _corollary_check),
    )


# -- family-nonhc: exceptional families really are exceptional -------------------


def _family_nonhc_check(item: Member) -> Failures:
    (_, clazz), member = item
    verdict = is_hamilton_connected(member.graph).verdict
    if verdict == "no":
        return []
    return [_fail(member.graph, f"{clazz}(n={member.n},k={member.k}) "
                                f"|E'|={len(member.deleted)}: oracle said {verdict}")]


def run_family_nonhc(
    k_values: Iterable[int] = (2, 3), n_values: Iterable[int] = range(8, 13)
) -> SuiteReport:
    """Every class-1 member at desk scale fails the exact oracle."""
    ks, ns = list(k_values), list(n_values)
    cases = [(k, n, "exhaustive", 0) for k in ks for n in ns if 2 * k <= n]
    return _report("family-nonhc", {"k_values": ks, "n_values": ns},
                   (_members(cases, ("S1", "T1"), 0), _family_nonhc_check))


# -- hunt: certifier vs oracle consistency ----------------------------------------


def _hunt_check(g: Graph) -> Failures:
    outcome = certify(g, oracle_gate=0).outcome
    if outcome == OUTCOME_INCONCLUSIVE:
        return []  # no oracle verdict contradicts it, so none is asked for
    oracle = is_hamilton_connected(g).verdict
    if ((outcome == OUTCOME_CERTIFIED and oracle != "yes")
            or (outcome == OUTCOME_NOT_HC and oracle != "no")
            # hosts and their spanning subgraphs are never Hamilton-connected
            or (outcome == OUTCOME_EXCEPTIONAL and oracle == "yes")):
        return [_fail(g, f"certifier said {outcome} but oracle said {oracle}")]
    return []


def run_hunt(
    n: int | None = None,
    trials: int | None = None,
    seed: int = 42,
    model: str | None = None,
) -> SuiteReport:
    """Random (or exhaustive) consistency search: the condition pipeline must
    never contradict the exact oracle.  A hit would be an implementation bug.
    The oracle runs only on the graphs ``certify`` decides; no oracle verdict
    contradicts Inconclusive, so those graphs cost one ``certify`` call.
    ``model="all-connected"`` enumerates every connected graph of order n and
    takes no ``trials``; any other model (default ``gnp(0.5)``) samples
    ``trials`` graphs, 10,000 by default, and ``trials`` must be an integer.
    ``n`` defaults to 7, the largest order the exhaustive corpus holds, for
    ``all-connected`` and to 8 for any other model.  The report records the
    resolved n, trials (``"exhaustive"`` for ``all-connected``) and model."""
    model = "gnp(0.5)" if model is None else model
    sample = _parse_model(model)
    if trials is None:
        trials = "exhaustive" if sample is None else 10_000
    elif sample is None or not isinstance(trials, int):
        raise BadParameters(f"trials {trials!r} do not go with model {model!r}")
    if n is None:
        n = CORPUS_SIZE_GATE if sample is None else 8
    graphs = (connected_graphs(n) if sample is None
              else sample(n, map(SplitMix64, _case_seeds(seed, trials))))
    return _report("hunt", {"n": n, "trials": trials, "seed": seed, "model": model},
                   (graphs, _hunt_check))


Sampler = Callable[[int, Iterator[SplitMix64]], Iterable[Graph]]


def _parse_model(model: str) -> Sampler | None:
    """The sampler a hunt model names, or None for ``all-connected``, which
    enumerates instead of sampling.  A sampler maps the order and the stream
    of case generators to the stream of graphs, one per case and lazily: a
    gnp model draws them with ``gnps`` a stack at a time, and the others
    draw case by case."""
    model = model.strip()
    if model == "all-connected":
        return None
    name, paren, arg = model.partition("(")
    if paren and arg.endswith(")"):
        arg = arg[:-1]
        if name == "gnp":
            p = _model_number(float, arg, model)
            if not 0 <= p <= 1:
                raise BadParameters(f"gnp probability must lie in [0, 1]: {model!r}")
            return lambda n, rngs: gnps((n, p, rng) for rng in rngs)
        if name == "gnm":
            m = _model_number(int, arg, model)
            if m < 0:
                raise BadParameters(f"gnm edge count must be non-negative: {model!r}")
            return lambda n, rngs: (gnm(n, m, rng) for rng in rngs)
        if name == "dense-above-edge-threshold":
            if not arg.startswith("k="):
                raise BadParameters("dense model takes k=<int>")
            th = thresholds(_model_number(int, arg[2:], model))
            return lambda n, rngs: (_dense_sample(n, th, rng) for rng in rngs)
    raise BadParameters(f"unknown model {model!r}")


def _model_number(kind: type, text: str, model: str) -> Any:
    try:
        return kind(text)
    except ValueError:
        raise BadParameters(f"bad {kind.__name__} {text!r} in model {model!r}") from None


def _dense_sample(n: int, th: Thresholds, rng: SplitMix64) -> Graph:
    """gnm with m uniform above the edge threshold, redrawn until
    min degree >= k."""
    hi = comb(n, 2)
    if n < th.k or th.edge(n) >= hi:
        raise BadParameters(f"no graph of order {n} lies above the k={th.k} edge threshold")
    lo = th.edge(n) + 1
    while True:
        g = gnm(n, lo + rng.next_below(hi - lo + 1), rng)
        if min_degree(g) >= th.k:
            return g


# -- registry and claim coverage ---------------------------------------------------

SUITES: dict[str, Callable[..., SuiteReport]] = {
    "ore": run_ore,
    "closure": run_closure,
    "kelmans": run_kelmans,
    "qbound": run_qbound,
    "q-lower": run_qlower,
    "q-upper": run_qupper,
    "appendix": run_appendix,
    "corollary": run_corollary,
    "family-nonhc": run_family_nonhc,
}

# Every claim the toolkit verifies, mapped to the suite (or the hunt command)
# that exercises it.  A claim without a runnable home fails the coverage test.
CLAIM_COVERAGE: dict[str, tuple[str, ...]] = {
    "eigen-equation-residual": ("qbound",),
    "adjacent-pair-identity": ("qbound",),
    "degree-sum-sufficiency": ("ore",),
    "closure-equivalence": ("closure",),
    "closure-well-definedness": ("closure",),
    "kelmans-monotonicity": ("kelmans",),
    "edge-count-radius-bound": ("qbound",),
    # unchecked in practice: the hunt never reaches EdgeCount, since Ore decides its dense
    # samples, gnp(0.5) at n = 8 lies below n >= 11k, and n = 55, k = 5 outruns the oracle
    "edge-count-sufficiency": ("hunt",),
    "spectral-sufficiency": ("hunt", "q-lower", "q-upper"),
    "class1-lower-bound": ("q-lower",),
    "class2-upper-bound": ("q-upper",),
    "class2-eigenvector-claims": ("q-upper",),
    "class2-closed-form-inequality": ("appendix",),
    "host-radius-ordering": ("corollary",),
    "family-exceptionality": ("family-nonhc",),
}


def run_suite(suite: str, **params: Any) -> SuiteReport:
    if suite not in SUITES:
        raise BadParameters(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    return SUITES[suite](**params)
