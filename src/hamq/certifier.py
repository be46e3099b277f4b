"""Certification pipeline: sufficient conditions in increasing cost order.

``certify`` runs, in order: a structural screen (disconnected graphs and
graphs with a cut vertex are never Hamilton-connected at order >= 3), the
degree-sum condition, the closure-completeness gate, the edge-count
condition with a host-embedding escape, the spectral threshold condition
with a family-membership escape, the host-comparison variant, and finally
(size-gated) the exact oracle.  The first decisive step wins and the full
attempt trace is kept on the certificate.

Two comparison rules keep certificates sound:

* spectral thresholds are compared against the certified interval only --
  the condition fires when ``lo >= threshold`` and is inconclusive when the
  threshold lies inside ``[lo, hi]``;
* an exceptional finding (the graph embeds into a host or is a relabeled
  family member) asserts non-Hamilton-connectivity only once confirmed on
  the graph itself: the witness names the host's hub set Y, and removing Y
  must leave at least |Y| >= 2 components.  A Hamilton-connected graph has
  c(G - S) <= |S| - 1 for every vertex set S with |S| >= 2, since a spanning
  path between two vertices of S falls into at most |S| - 1 pieces once S
  is removed (Chvatal 1973), so the count settles the verdict in O(n + m).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any

from .families import (
    EmbeddingWitness,
    MembershipWitness,
    build_S,
    build_T,
    membership,
    spanning_subgraph_of,
    thresholds,
)
from .errors import BudgetExceeded
from .graph import Graph, component_count, cut_vertex, is_connected, min_degree
from .hamilton import DEFAULT_PAIR_BUDGET, is_hamilton_connected, ore_check
from .spectral import DEFAULT_TOL, SpectralEstimate, perron_pair
from .transforms import closure

OUTCOME_CERTIFIED = "CertifiedHamiltonConnected"
OUTCOME_EXCEPTIONAL = "ExceptionalFamily"
OUTCOME_NOT_HC = "NotHamiltonConnected"
OUTCOME_INCONCLUSIVE = "Inconclusive"
OUTCOME_EXACT_YES = "ExactYes"
OUTCOME_EXACT_NO = "ExactNo"
OUTCOME_TIMEOUT = "Timeout"

EXIT_CODES = {
    OUTCOME_CERTIFIED: 0,
    OUTCOME_EXACT_YES: 0,
    OUTCOME_EXACT_NO: 1,
    OUTCOME_NOT_HC: 1,
    OUTCOME_INCONCLUSIVE: 2,
    OUTCOME_TIMEOUT: 3,
}


@dataclass
class CertifyConfig:
    """Knobs for one certification run."""

    oracle_gate: int = 9  # run the standalone exact oracle only for n <= gate
    pair_budget: int = DEFAULT_PAIR_BUDGET  # per path search of that oracle
    enable_oracle: bool = True
    embed_budget: int = 200_000
    tol: float = DEFAULT_TOL


@dataclass
class Certificate:
    """Auditable outcome; ``trace`` lists every condition attempted."""

    outcome: str
    fired_condition: dict[str, Any] | None
    parameters: dict[str, Any]
    witnesses: dict[str, Any]
    trace: list[dict[str, Any]] = field(default_factory=list)

    def exit_code(self) -> int:
        if self.outcome == OUTCOME_EXCEPTIONAL:
            return 1 if self.witnesses.get("non_hamilton_connected") else 2
        return EXIT_CODES[self.outcome]

    def to_json(self) -> str:
        return json.dumps(_jsonable(self.__dict__), sort_keys=True)


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (MembershipWitness, EmbeddingWitness)):
        return _jsonable(obj.__dict__)
    return obj


def _separator_confirmation(g: Graph, y: tuple[int, ...]) -> dict[str, Any] | None:
    """The separator witness c(G - Y) >= |Y| >= 2, or None if it fails."""
    c = component_count(g, y)
    if len(y) >= 2 and c >= len(y):
        return {"separator": sorted(y), "components": c}
    return None


def _hyp(name: str, required: Any, actual: Any) -> dict[str, Any]:
    ok = bool(actual >= required) if isinstance(required, (int, float)) else bool(actual == required)
    return {"name": name, "required": required, "actual": actual, "passed": ok}


def certify(g: Graph, config: CertifyConfig | None = None) -> Certificate:
    cfg = config or CertifyConfig()
    n = g.n
    delta = min_degree(g)
    params: dict[str, Any] = {"n": n, "min_degree": delta, "edge_count": g.m}
    trace: list[dict[str, Any]] = []

    def done(outcome: str, fired: dict[str, Any] | None, witnesses: dict[str, Any]) -> Certificate:
        return Certificate(
            outcome=outcome,
            fired_condition=fired,
            parameters=params,
            witnesses=witnesses,
            trace=trace,
        )

    # structural screen: these graphs cannot be Hamilton-connected
    if n >= 2 and not is_connected(g):
        trace.append({"condition": "Connectivity", "verdict": "fail",
                      "hypotheses": [_hyp("connected", True, False)]})
        return done(OUTCOME_NOT_HC, None, {"reason": "disconnected"})
    cut = cut_vertex(g)
    if cut is not None:
        trace.append({"condition": "TwoConnectivity", "verdict": "fail",
                      "hypotheses": [_hyp("two_connected", True, False)]})
        return done(OUTCOME_NOT_HC, None, {"reason": "cut-vertex", "cut_vertex": cut})

    # degree-sum condition
    ore = ore_check(g)
    trace.append({"condition": "Ore", "verdict": "fired" if ore else "fail",
                  "hypotheses": [_hyp("degree_sum_condition", True, ore)]})
    if ore:
        return done(OUTCOME_CERTIFIED, {"name": "Ore"}, {})

    # closure completeness
    cl, cl_trace = closure(g, n + 1)
    cl_complete = cl.m == n * (n - 1) // 2
    trace.append({
        "condition": "ClosureComplete",
        "verdict": "fired" if cl_complete else "fail",
        "hypotheses": [_hyp("closure_complete", True, cl_complete)],
        "edges_added": len(cl_trace.added),
    })
    if cl_complete:
        return done(OUTCOME_CERTIFIED, {"name": "ClosureComplete"},
                    {"closure_additions": list(cl_trace.added)})

    exceptional: dict[str, Any] | None = None

    # edge-count condition, k from large to small
    for k in range(min(delta, n // 11, n // 2), 1, -1):
        th = thresholds(k)
        need = th.edge(n)
        hyps = [
            _hyp("min_degree", k, delta),
            _hyp("order", 11 * k, n),
            {"name": "edge_count_exceeds", "required": need, "actual": g.m,
             "passed": g.m > need},
        ]
        entry: dict[str, Any] = {"condition": "EdgeCount", "k": k, "hypotheses": hyps}
        if not all(h["passed"] for h in hyps):
            entry["verdict"] = "fail"
            trace.append(entry)
            continue
        try:
            ws = spanning_subgraph_of(g, "S", k, cfg.embed_budget)
            wt = spanning_subgraph_of(g, "T", k, cfg.embed_budget)
        except BudgetExceeded:
            entry["verdict"] = "budget-exceeded"
            trace.append(entry)
            continue
        if ws is None and wt is None:
            entry["verdict"] = "fired"
            trace.append(entry)
            return done(OUTCOME_CERTIFIED, {"name": "EdgeCount", "k": k},
                        {"edge_threshold": need})
        entry["verdict"] = "exceptional"
        trace.append(entry)
        if exceptional is None:
            w = ws if ws is not None else wt
            exceptional = {"stage": "EdgeCount", "k": k, "embedding": w}
        break  # an embedding into a host settles the graph's status

    if exceptional is None:
        # spectral condition, certified-interval comparison
        ks = [k for k in range(min(delta, n // 2), 1, -1) if n >= thresholds(k).n_min]
        est: SpectralEstimate | None = None
        if ks:
            est = perron_pair(g, cfg.tol)
            params["q_interval"] = [est.lo, est.hi]
            params["q_converged"] = est.converged
        for k in ks:
            thr = float(thresholds(k).spectral(n))
            hyps = [
                _hyp("min_degree", k, delta),
                _hyp("order", thresholds(k).n_min, n),
            ]
            entry = {"condition": "Spectral", "k": k, "threshold": thr,
                     "interval": [est.lo, est.hi], "hypotheses": hyps}
            if est.lo >= thr:
                mem_s = membership(g, "S1", k)
                mem_t = membership(g, "T1", k)
                entry["membership_S1"] = mem_s is not None
                entry["membership_T1"] = mem_t is not None
                if mem_s is None and mem_t is None:
                    entry["verdict"] = "fired"
                    trace.append(entry)
                    return done(OUTCOME_CERTIFIED, {"name": "Spectral", "k": k},
                                {"threshold": thr, "q_lower": est.lo})
                entry["verdict"] = "exceptional"
                trace.append(entry)
                mem = mem_s if mem_s is not None else mem_t
                exceptional = {"stage": "Spectral", "k": k, "membership": mem}
                break
            elif est.hi < thr:
                entry["verdict"] = "fail"
            else:
                entry["verdict"] = "inconclusive-interval"
            trace.append(entry)

        # host-comparison variant: q(G) at least the S-host radius
        if exceptional is None:
            for k in ks:
                host = _host_interval("S", n, k, cfg.tol)
                entry = {"condition": "CorollarySpectral", "k": k,
                         "host_interval": [host.lo, host.hi],
                         "interval": [est.lo, est.hi]}
                if est.lo >= host.hi:
                    mem = membership(g, "S1", k)
                    if mem is not None and not mem.deleted:
                        entry["verdict"] = "exceptional"
                        trace.append(entry)
                        exceptional = {"stage": "CorollarySpectral", "k": k,
                                       "membership": mem}
                        break
                    entry["verdict"] = "fired"
                    trace.append(entry)
                    return done(
                        OUTCOME_CERTIFIED,
                        {"name": "CorollarySpectral", "k": k},
                        {"host_q_upper": host.hi, "q_lower": est.lo},
                    )
                entry["verdict"] = "fail"
                trace.append(entry)

    if exceptional is not None:
        k = exceptional["k"]
        key = "embedding" if "embedding" in exceptional else "membership"
        w = exceptional[key]
        witnesses: dict[str, Any] = {
            "host": {"kind": w.kind, "n": n, "k": k},
            "family_class": _annotate_class(g, k),
            key: w,
        }
        confirmation = _separator_confirmation(g, w.Y)
        if confirmation is not None:
            witnesses["confirmation"] = confirmation
        witnesses["non_hamilton_connected"] = True if confirmation else None
        trace.append({"condition": "ExceptionalConfirmation",
                      "verdict": "confirmed" if confirmation else "unconfirmed"})
        return done(OUTCOME_EXCEPTIONAL, None, witnesses)

    # exact oracle, size-gated
    if cfg.enable_oracle and n <= cfg.oracle_gate:
        ans = is_hamilton_connected(g, cfg.pair_budget)
        trace.append({"condition": "Oracle", "verdict": ans.verdict,
                      "nodes_expanded": ans.nodes_expanded})
        if ans.verdict == "yes":
            return done(OUTCOME_EXACT_YES, {"name": "Oracle"}, {})
        if ans.verdict == "no":
            return done(OUTCOME_EXACT_NO, {"name": "Oracle"},
                        {"failing_pair": list(ans.failing_pair)})
        return done(OUTCOME_TIMEOUT, {"name": "Oracle"}, {})

    return done(OUTCOME_INCONCLUSIVE, None, {})


def _annotate_class(g: Graph, k: int) -> str | None:
    """Which deleted-edge class (if any) the graph belongs to, by search."""
    for clazz in ("S1", "T1", "S2", "T2"):
        if membership(g, clazz, k) is not None:
            return clazz
    return None


@lru_cache(maxsize=256)
def _host_interval(kind: str, n: int, k: int, tol: float) -> SpectralEstimate:
    handle = build_S(n, k) if kind == "S" else build_T(n, k)
    return perron_pair(handle.graph, tol)


def explain(cert: Certificate) -> dict[str, Any]:
    """JSON-ready hypothesis report with stable structure for diffing."""
    return _jsonable({
        "outcome": cert.outcome,
        "fired_condition": cert.fired_condition,
        "parameters": cert.parameters,
        "witnesses": cert.witnesses,
        "trace": cert.trace,
    })
