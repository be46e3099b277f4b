"""Named verification suites: every inequality the toolkit relies on, at desk
scale, against independent oracles.

Each suite replays one verified claim, in-process, over a deterministic
case set derived from a single seed (per-case generator streams are forked
up front, so the case set does not depend on execution order).  Failures
carry the graph6 string of the offending graph and the violated inequality
with its numbers, so every failure is replayable.  Reports carry no timing
and keep their failures sorted, so they are byte-stable for fixed (params,
seed); callers that want wall time measure the call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Any, Callable, Iterable

from .certifier import (
    OUTCOME_CERTIFIED,
    OUTCOME_EXCEPTIONAL,
    OUTCOME_NOT_HC,
    CertifyConfig,
    certify,
)
from .corpus import connected_graphs
from .errors import BadParameters, BadSuite
from .families import (
    Thresholds,
    build_S,
    build_T,
    indicator_rayleigh_value,
    enumerate_class,
    indicator_vector,
    refined_partition,
    thresholds,
)
from .graph import Graph, add_edges, emit_graph6, is_connected, min_degree
from .hamilton import is_hamilton_connected, ore_check
from .rng import SplitMix64, gnm, gnp, random_connected_gnp
from .spectral import (
    adjacent_pair_identity_defect,
    perron_pair,
    rayleigh_quotient_exact,
    upper_bound_edge_count,
)
from .transforms import closure, kelmans


@dataclass
class SuiteReport:
    """Outcome of one suite run; empty ``failures`` means success.  The
    failures are sorted on construction, so the report is byte-stable."""

    suite: str
    params: dict[str, Any]
    cases: int
    failures: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.failures.sort(key=lambda f: (f.get("graph6", ""), str(sorted(f.items()))))

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_stable_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def _case_seeds(seed: int, count: int) -> list[int]:
    rng = SplitMix64(seed)
    return [rng.next_u64() for _ in range(count)]


def _failures(check: Callable[[Any], dict | None], cases: Iterable) -> list[dict]:
    return [f for f in map(check, cases) if f is not None]


# -- ore: degree-sum sufficiency ------------------------------------------------


def _ore_case(case_seed: int) -> dict | None:
    rng = SplitMix64(case_seed)
    n = 3 + rng.next_below(6)  # 3..8
    g = gnp(n, 0.15 + 0.7 * rng.next_float(), rng)
    if not ore_check(g):
        return None
    ans = is_hamilton_connected(g)
    if ans.verdict == "yes":
        return None
    return {
        "graph6": emit_graph6(g),
        "violated": "degree-sum condition held but oracle verdict was "
        + ans.verdict,
    }


def run_ore(trials: int = 10_000, seed: int = 1) -> SuiteReport:
    """Degree-sum sufficiency: whenever the check fires, the oracle agrees."""
    failures = []
    cases = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            cases += 1
            if ore_check(g) and is_hamilton_connected(g).verdict != "yes":
                failures.append({
                    "graph6": emit_graph6(g),
                    "violated": "degree-sum condition held but oracle said no",
                })
    failures.extend(_failures(_ore_case, _case_seeds(seed, trials)))
    cases += trials
    return SuiteReport(
        suite="ore",
        params={"trials": trials, "seed": seed, "corpus": "connected n<=7"},
        cases=cases,
        failures=failures,
    )


# -- closure: equivalence gate and well-definedness -----------------------------


def _closure_with_order(g: Graph, k: int, order: list[tuple[int, int]]) -> Graph:
    """Independent route: closure under an arbitrary fixed pair scan order."""
    cur = g
    changed = True
    while changed:
        changed = False
        deg = cur.degrees()
        for u, v in order:
            if not cur.has_edge(u, v) and deg[u] + deg[v] >= k:
                cur = add_edges(cur, [(u, v)])
                changed = True
                break
    return cur


def _closure_equiv_check(g: Graph) -> dict | None:
    n = g.n
    cl, _ = closure(g, n + 1)
    a = is_hamilton_connected(g).verdict
    b = is_hamilton_connected(cl).verdict
    if a != b:
        return {
            "graph6": emit_graph6(g),
            "violated": f"oracle(G)={a} but oracle(closure)={b}",
        }
    return None


def run_closure(
    random_per_n: int = 250,
    seed: int = 2,
    order_trials: int = 500,
    exhaustive_n: Iterable[int] = range(1, 8),
) -> SuiteReport:
    """Closure preserves the Hamilton-connectivity verdict; the closure edge
    set is scan-order independent and the operator is idempotent."""
    graphs = [g for n in exhaustive_n for g in connected_graphs(n)]
    for i, s in enumerate(_case_seeds(seed, 2 * random_per_n)):
        rng = SplitMix64(s)
        n = 8 if i < random_per_n else 9
        graphs.append(random_connected_gnp(n, 0.2 + 0.6 * rng.next_float(), rng))
    failures = _failures(_closure_equiv_check, graphs)
    cases = len(graphs)

    # well-definedness: scan order does not change the closure edge set
    rng = SplitMix64(seed ^ 0xC10)
    for _ in range(order_trials):
        n = 4 + rng.next_below(9)  # 4..12
        g = gnp(n, 0.2 + 0.6 * rng.next_float(), rng)
        k = n + 1
        ref, _tr = closure(g, k)
        cases += 1
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(10):
            order = [pairs[i] for i in rng.permutation(len(pairs))]
            alt = _closure_with_order(g, k, order)
            if alt != ref:
                failures.append({
                    "graph6": emit_graph6(g),
                    "violated": f"closure at k={k} depends on scan order",
                })
                break
        again, tr2 = closure(ref, k)
        if tr2.added or again != ref:
            failures.append({
                "graph6": emit_graph6(g),
                "violated": "closure is not idempotent",
            })
        deg = ref.degrees()
        for u in range(n):
            for v in range(u + 1, n):
                if not ref.has_edge(u, v) and deg[u] + deg[v] >= k:
                    failures.append({
                        "graph6": emit_graph6(g),
                        "violated": f"closure fixpoint violated at pair ({u},{v})",
                    })
    return SuiteReport(
        suite="closure",
        params={"random_per_n": random_per_n, "order_trials": order_trials,
                "seed": seed, "corpus": f"connected n in {sorted(exhaustive_n)}"},
        cases=cases,
        failures=failures,
    )


# -- kelmans: spectral monotonicity ---------------------------------------------


def _kelmans_case(case_seed: int) -> dict | None:
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
        a = perron_pair(g)
        b = perron_pair(gs)
        if b.q_hat < a.q_hat - 1e-8 or a.lo > b.hi + 1e-8:
            return {
                "graph6": emit_graph6(g),
                "violated": f"kelmans({u},{v}) dropped the radius: "
                f"q(G)~{a.q_hat:.12f} vs q(G*)~{b.q_hat:.12f}",
            }
        return None
    return None


def run_kelmans(count: int = 1000, seed: int = 3) -> SuiteReport:
    """The neighborhood-shift transformation never decreases the radius."""
    return SuiteReport(
        suite="kelmans",
        params={"count": count, "seed": seed, "n_max": 30},
        cases=count,
        failures=_failures(_kelmans_case, _case_seeds(seed, count)),
    )


# -- qbound: edge-count upper bound and eigen-equation checks --------------------


def _qbound_case(case_seed: int) -> dict | None:
    rng = SplitMix64(case_seed)
    n = 3 + rng.next_below(48)  # 3..50
    g = random_connected_gnp(n, 0.25 + 0.65 * rng.next_float(), rng)
    est = perron_pair(g, tol=1e-8)
    bound = float(upper_bound_edge_count(g))
    if est.lo > bound + 1e-9:
        return {
            "graph6": emit_graph6(g),
            "violated": f"certified lower bound {est.lo:.12f} above "
            f"2m/(n-1)+n-2 = {bound:.12f}",
        }
    if bound - (est.q_hat - est.residual) < -1e-9:
        return {
            "graph6": emit_graph6(g),
            "violated": f"radius {est.q_hat:.12f} (residual {est.residual:.2e}) "
            f"exceeds 2m/(n-1)+n-2 = {bound:.12f}",
        }
    if est.converged and est.residual > 10 * est.tol:
        return {
            "graph6": emit_graph6(g),
            "violated": f"eigen-equation residual {est.residual:.2e} > 10*tol",
        }
    # adjacent-pair identity on one random edge
    edges = g.edges()
    u, v = edges[rng.next_below(len(edges))]
    defect = adjacent_pair_identity_defect(g, est, u, v)
    if est.converged and defect > 10 * est.tol + 1e-9:
        return {
            "graph6": emit_graph6(g),
            "violated": f"adjacent-pair identity defect {defect:.2e} at ({u},{v})",
        }
    # enclosure soundness: integer-rounded eigenvector stays below hi
    scaled = [round(t * 10**6) for t in est.f]
    exact = rayleigh_quotient_exact(g, scaled)
    if float(exact) > est.hi + 1e-9:
        return {
            "graph6": emit_graph6(g),
            "violated": f"exact quotient {float(exact):.12f} above hi={est.hi:.12f}",
        }
    return None


def run_qbound(count: int = 10_000, seed: int = 4) -> SuiteReport:
    """Edge-count bound on the radius, plus residual/identity sanity."""
    return SuiteReport(
        suite="qbound",
        params={"count": count, "seed": seed, "n_max": 50},
        cases=count,
        failures=_failures(_qbound_case, _case_seeds(seed, count)),
    )


# -- q-lower: exact class-1 certificates -----------------------------------------


def run_qlower(
    cases: Iterable[tuple[int, int, str, int]] | None = None, seed: int = 1
) -> SuiteReport:
    """Every class-1 member certifies ``q >= 2n - 2k`` in exact rationals.

    The generic rational quotient must also equal the closed-form value
    derived from the member's deletion count (two independent routes).
    """
    if cases is None:
        cases = []
        for k in (2, 3):
            for n in (thresholds(k).n_min, 40):
                cases.append((k, n, "exhaustive", 0))
        for k in (4, 5):
            for n in (thresholds(k).n_min, 40):
                cases.append((k, n, "sample", 500))
    failures = []
    total = 0
    for k, n, mode, count in cases:
        for clazz in ("S1", "T1"):
            kw = {"count": count, "seed": seed} if mode == "sample" else {}
            for member in enumerate_class(clazz, n, k, mode, **kw):
                total += 1
                got = rayleigh_quotient_exact(member.graph, indicator_vector(member))
                want = indicator_rayleigh_value(member)
                threshold = Fraction(2 * n - 2 * k)
                if got != want or got < threshold:
                    failures.append({
                        "graph6": emit_graph6(member.graph),
                        "violated": f"{clazz}(n={n},k={k}) |E'|={len(member.deleted)}: "
                        f"quotient {got} (closed form {want}) vs threshold {threshold}",
                    })
    return SuiteReport(
        suite="q-lower",
        params={"cases": [list(c) for c in cases], "seed": seed},
        cases=total,
        failures=failures,
    )


# -- q-upper: class-2 members sit strictly below the threshold -------------------


def _qupper_member_checks(member, est, n: int, k: int) -> list[str]:
    bad = []
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


def _qupper_maximizer_checks(member, est, n: int, k: int) -> list[str]:
    bad = []
    parts = refined_partition(member)
    f = est.f
    y1, y2, z1, z2 = parts["Y1"], parts["Y2"], parts["Z1"], parts["Z2"]
    if y1 and y2:
        lo_side = min(f[u] for u in y1)
        hi_side = max(f[v] for v in y2 + z1)
        if lo_side <= hi_side:
            bad.append(
                f"ordering violated: min f over Y1 = {lo_side:.12f} <= "
                f"max f over Y2 u Z1 = {hi_side:.12f}"
            )
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
    the radius-maximizing member.

    The strict upper bound only holds once n clears the order threshold
    (quartic in k); running a case below it reports honest failures.
    """
    if cases is None:
        cases = [(2, thresholds(2).n_min, "exhaustive", 0),
                 (3, thresholds(3).n_min, "sample", 200)]
    failures = []
    total = 0
    for k, n, mode, count in cases:
        for clazz in ("S2", "T2"):
            kw = {"count": count, "seed": seed} if mode == "sample" else {}
            best = None  # (q_hat, member, estimate)
            for member in enumerate_class(clazz, n, k, mode, **kw):
                total += 1
                est = perron_pair(member.graph)
                for msg in _qupper_member_checks(member, est, n, k):
                    failures.append({
                        "graph6": emit_graph6(member.graph),
                        "violated": f"{clazz}(n={n},k={k}): {msg}",
                    })
                if best is None or est.q_hat > best[0]:
                    best = (est.q_hat, member, est)
            if best is not None:
                _, member, est = best
                for msg in _qupper_maximizer_checks(member, est, n, k):
                    failures.append({
                        "graph6": emit_graph6(member.graph),
                        "violated": f"{clazz}(n={n},k={k}) maximizer: {msg}",
                    })
    return SuiteReport(
        suite="q-upper",
        params={"cases": [list(c) for c in cases], "seed": seed},
        cases=total,
        failures=failures,
    )


# -- appendix: exact rational inequality -----------------------------------------


def run_appendix(k_values: Iterable[int] = range(2, 13)) -> SuiteReport:
    """The closed-form bounding inequality holds in exact rationals at the
    order threshold and comfortably above it, over all four k mod 4 branches."""
    from .families import appendix_check

    failures = []
    cases = 0
    branches = set()
    ks = list(k_values)
    for k in ks:
        n_min = thresholds(k).n_min
        for n in (n_min, n_min + 1000):
            cases += 1
            rep = appendix_check(k, n)
            branches.add(rep.branch)
            if not rep.holds or not rep.hypothesis_met:
                failures.append({
                    "graph6": "",
                    "violated": f"k={k} n={n}: holds={rep.holds} "
                    f"margin={rep.margin} hypothesis_met={rep.hypothesis_met}",
                })
    if len(ks) >= 4 and branches != {0, 1, 2, 3}:
        failures.append({
            "graph6": "",
            "violated": f"k mod 4 branches exercised: {sorted(branches)}",
        })
    return SuiteReport(
        suite="appendix",
        params={"k_values": ks},
        cases=cases,
        failures=failures,
    )


# -- corollary: host radius ordering ---------------------------------------------


def run_corollary(
    k_values: Iterable[int] = (3, 4, 5), n_values: Iterable[int] = (30, 60)
) -> SuiteReport:
    """Certified ordering q(S host) > q(T host) > 2n - 2k with gaps > 1e-6.

    The k=2 case is skipped: the S and T hosts coincide there, so the first
    comparison is void by construction (recorded in the report params).
    """
    failures = []
    cases = 0
    ks = [k for k in k_values if k != 2]
    for k in ks:
        for n in n_values:
            cases += 1
            s_est = perron_pair(build_S(n, k).graph)
            t_est = perron_pair(build_T(n, k).graph)
            base = 2 * n - 2 * k
            if not (s_est.lo - t_est.hi > 1e-6 and t_est.lo - base > 1e-6):
                failures.append({
                    "graph6": emit_graph6(build_S(n, k).graph),
                    "violated": f"k={k} n={n}: q(S)~[{s_est.lo:.9f},{s_est.hi:.9f}] "
                    f"q(T)~[{t_est.lo:.9f},{t_est.hi:.9f}] base={base}",
                })
    return SuiteReport(
        suite="corollary",
        params={"k_values": ks, "n_values": list(n_values),
                "skipped": "k=2 (S and T hosts coincide)"},
        cases=cases,
        failures=failures,
    )


# -- family-nonhc: exceptional families really are exceptional -------------------


def run_family_nonhc(
    k_values: Iterable[int] = (2, 3), n_values: Iterable[int] = range(8, 13)
) -> SuiteReport:
    """Every class-1 member at desk scale fails the exact oracle."""
    failures = []
    cases = 0
    for k in k_values:
        for n in n_values:
            if 2 * k > n:
                continue
            for clazz in ("S1", "T1"):
                for member in enumerate_class(clazz, n, k, "exhaustive"):
                    cases += 1
                    ans = is_hamilton_connected(member.graph)
                    if ans.verdict != "no":
                        failures.append({
                            "graph6": emit_graph6(member.graph),
                            "violated": f"{clazz}(n={n},k={k}) |E'|="
                            f"{len(member.deleted)}: oracle said {ans.verdict}",
                        })
    return SuiteReport(
        suite="family-nonhc",
        params={"k_values": list(k_values), "n_values": list(n_values)},
        cases=cases,
        failures=failures,
    )


# -- hunt: certifier vs oracle consistency ----------------------------------------


def _hunt_check(g: Graph) -> dict | None:
    outcome = certify(g, CertifyConfig(oracle_gate=0)).outcome
    oracle = is_hamilton_connected(g).verdict
    if ((outcome == OUTCOME_CERTIFIED and oracle != "yes")
            or (outcome == OUTCOME_NOT_HC and oracle != "no")
            # hosts and their spanning subgraphs are never Hamilton-connected
            or (outcome == OUTCOME_EXCEPTIONAL and oracle == "yes")):
        return {
            "graph6": emit_graph6(g),
            "violated": f"certifier said {outcome} but oracle said {oracle}",
        }
    return None


def run_hunt(
    n: int = 8,
    trials: int | str = 10_000,
    seed: int = 42,
    model: str = "gnp(0.5)",
) -> SuiteReport:
    """Random (or exhaustive) consistency search: the condition pipeline must
    never contradict the exact oracle.  A hit would be an implementation bug."""
    sample = _parse_model(model)
    if sample is None:
        graphs = connected_graphs(n)
        cases = len(graphs)
    else:
        if not isinstance(trials, int) or trials < 0:
            raise BadParameters("numeric models need a non-negative integer trial count")
        graphs = (sample(n, SplitMix64(s)) for s in _case_seeds(seed, trials))
        cases = trials
    return SuiteReport(
        suite="hunt",
        params={"n": n, "trials": trials, "seed": seed, "model": model},
        cases=cases,
        failures=_failures(_hunt_check, graphs),
    )


def _parse_model(model: str) -> Callable[[int, SplitMix64], Graph] | None:
    """The sampler ``(n, rng) -> Graph`` a hunt model names, or None for
    ``all-connected``, which enumerates instead of sampling."""
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
            return lambda n, rng: gnp(n, p, rng)
        if name == "gnm":
            m = _model_number(int, arg, model)
            if m < 0:
                raise BadParameters(f"gnm edge count must be non-negative: {model!r}")
            return lambda n, rng: gnm(n, m, rng)
        if name == "dense-above-edge-threshold":
            if not arg.startswith("k="):
                raise BadParameters("dense model takes k=<int>")
            th = thresholds(_model_number(int, arg[2:], model))
            return lambda n, rng: _dense_sample(n, th, rng)
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
    if suite == "hunt":
        return run_hunt(**params)
    if suite not in SUITES:
        raise BadSuite(f"unknown suite {suite!r}; known: {sorted(SUITES)} + hunt")
    return SUITES[suite](**params)
