"""Certification pipeline: sufficient conditions in increasing cost order.

``certify`` runs, in order: a structural screen (disconnected graphs and
graphs with a cut vertex are never Hamilton-connected at order >= 3), the
degree-sum condition, the closure-completeness gate, the edge-count
condition with its exceptional hosts, the spectral annotation, and finally
(size-gated) the exact oracle.  The first decisive step wins and the full
attempt trace is kept on the certificate.  One exception to that order:
where the edge count is above its threshold, the stage's host partition is
read before the closure, and a graph that has one is decided exceptional
without running the closure (the closure could not have fired; see the
last paragraph).  Its trace is Ore, EdgeCount (exceptional),
ExceptionalConfirmation, with no ClosureComplete entry: the trace lists
the conditions attempted.  Every other graph meets the closure before the
edge count, so a graph whose closure is complete is certified by the
closure's additions, which a reader can replay, rather than by the count.

The degree-sum condition is evaluated first, in O(n) mask operations, and
the edge-count stage's threshold test (at k = min(delta, n/11) >= 2, below)
right after it; the screen's depth-first search runs only where neither
holds.  The trace keeps the order above: a graph that passes either test is
connected with no cut vertex, so the screen would have passed it, and the
screen writes an entry only when it decides, as the whole trace.  For the
degree sums see ``ore_check``.  For the edge count, let 1 <= k <= delta and
m > C(n-k, 2) + k(k+1), and suppose G - c splits for a vertex c, or G
itself does.  Every piece has at least k vertices, because a vertex of a
piece has all its neighbours in that piece and c.  Take a piece A of a
vertices and the b vertices outside A and c (no c when G splits):
a, b >= k, a + b >= n-1, and no pair between the two sides is an edge, so
at least ab >= k(a + b - k) >= k(n-1-k) pairs are missing.  Hence
m <= C(n, 2) - k(n-1-k) = C(n-k, 2) + k(k+1) - k(k+1)/2, below the
threshold.

The edge-count stage checks one k, min(delta, n/11), so delta >= k and
n >= 11k hold; once also m > C(n-k, 2) + k(k+1) it decides.  That k has
the lowest threshold: it drops by n - 3k - 3 > 0 from k to k+1, so a graph
that fails there fails at every smaller k.  The stage needs no search
budget: a graph with d >= k vertices of degree k has m <= C(n-d, 2) + dk,
which is convex in d and, for n >= 11k and k <= d <= n, never exceeds
C(n-k, 2) + k^2, so at most k-1 vertices have degree k.  Embedding into
S(n, k) or T(n, k) then forces X to be all of them, sharing one open (S) or
closed (T) neighborhood: exactly the one group ``hub_partitions`` can
yield.  It is read for S first, then T: an S and a T group share at most
one vertex v (the other S members are not adjacent to v, the other T
members are), so at k >= 3 both would need 2k - 3 > k - 1 vertices of
degree k; at k = 2 both read X = {v}, Y = N(v), the same Z and missing
pairs, under equal class bounds (S1/T1 0, S2/T2 1).  Its missing-pair count
names the class, the first of kind 1, kind 2 that fits.  When neither kind
yields an item the stage certifies on the paper's edge-count theorem alone,
and that branch is live: at n = 55, K_51 plus a 4-cycle X = {51..54} with
every X vertex joined to {0, 1, 2} has m = 1291 > 1255, fails Ore and
closure, and has no item at k = 5.

The spectral stage is an annotation and never decides.  It records the
exact bound U = 2m/(n-1) + n - 2 >= q, through which the paper's spectral
theorem reaches its dense regime, against 2n - 2k at each k the theorem
covers.  Such a k has k <= delta and n >= n_min(k) >= 11k, so the edge-count
stage failed at min(delta, n/11) >= k, where the edge threshold is lowest:
m <= C(n-k, 2) + k(k+1).  Since (n-1)(n-2k+2) - 2(C(n-k, 2) + k(k+1)) =
2n - 3k^2 - k - 2 > 0, U < 2n - 2k, and a bound reaching it is an internal
error.  The host-comparison variant (q >= q(S(n, k))) is not run:
q(S(n, k)) >= 2n - 2k + k(k-1)/(n-k+1) (the indicator Rayleigh quotient on
Y u Z), so it could only fire where the spectral threshold had.

An exceptional finding carries the partition's kind, k, X, Y and Z as its
``embedding`` witness, and is confirmed on the graph itself: removing the
hub set Y leaves at least |Y| >= 2 components.
A Hamilton-connected graph has c(G - S) <= |S| - 1 for every vertex set S
with |S| >= 2, since a spanning path between two vertices of S falls into
at most |S| - 1 pieces once S is removed (Chvatal 1973), so the count,
found in O(n + m), is the witness.  Every item leaves that many: for S,
G - Y has the k - 1 X vertices as isolated vertices plus a nonempty Z; for
T, X has no edge to Z and both are nonempty.  A short count is therefore an
internal error, never a verdict.

The same count is why the closure is skipped on these graphs.  A graph with
a host partition is not Hamilton-connected (Chvatal 1973, above), and a
graph whose (n+1)-closure is Hamilton-connected is itself Hamilton-connected
(Bondy and Chvatal 1976); the complete graph is, so the closure of a graph
with a host partition is never complete, and running it would only have
counted its additions.  The read is guarded by one count: every
``hub_partitions`` group holds k - 1 vertices of degree k, so a graph with
fewer has none and goes on to the closure without a read.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from .errors import BadParameters
from .families import class_size_ok, hub_partitions, thresholds
from .graph import Graph, component_count, cut_vertex, is_connected, min_degree
from .hamilton import DEFAULT_PAIR_BUDGET, is_hamilton_connected, ore_check
from .spectral import upper_bound_edge_count
from .transforms import closure

DEFAULT_ORACLE_GATE = 9

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
    OUTCOME_EXCEPTIONAL: 1,
    OUTCOME_INCONCLUSIVE: 2,
    OUTCOME_TIMEOUT: 3,
}


class Certificate(NamedTuple):
    """Auditable outcome; ``trace`` lists every condition attempted."""

    outcome: str
    fired_condition: dict[str, Any] | None
    parameters: dict[str, Any]
    witnesses: dict[str, Any]
    trace: list[dict[str, Any]]

    def exit_code(self) -> int:
        return EXIT_CODES[self.outcome]

    def to_json(self) -> str:
        return json.dumps(explain(self), sort_keys=True)


def _separator_confirmation(g: Graph, y: tuple[int, ...]) -> dict[str, Any]:
    """The separator witness c(G - Y) >= |Y| >= 2 of a host partition's Y."""
    c = component_count(g, y)
    if not 2 <= len(y) <= c:
        raise AssertionError(f"hub set {sorted(y)} leaves {c} components")
    return {"separator": sorted(y), "components": c}


def _hyp(name: str, required: int, actual: int) -> dict[str, Any]:
    return {"name": name, "required": required, "actual": actual, "passed": actual >= required}


def certify(
    g: Graph, *, oracle_gate: int = DEFAULT_ORACLE_GATE, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> Certificate:
    """Run the pipeline of the module docstring on ``g``.

    The standalone exact oracle runs only for n <= ``oracle_gate``, with
    ``pair_budget`` node expansions per pair search; a negative budget is
    rejected before any stage runs.
    """
    if pair_budget < 0:
        raise BadParameters(f"pair search needs a budget >= 0, got {pair_budget}")
    n = g.n
    delta = min_degree(g)
    params: dict[str, Any] = {"n": n, "min_degree": delta, "edge_count": g.m}
    trace: list[dict[str, Any]] = []

    def done(outcome: str, fired: dict[str, Any] | None, witnesses: dict[str, Any]) -> Certificate:
        return Certificate(outcome, fired, params, witnesses, trace)

    # degree-sum condition, evaluated before the structural screen and
    # traced after it: a graph it holds on is connected with no cut vertex
    # (see ore_check), so the screen could not have stopped it
    ore = ore_check(g)
    ore_entry = {"condition": "Ore", "verdict": "fired" if ore else "fail",
                 "hypotheses": [_hyp("degree_sum_condition", True, ore)]}
    if ore:
        trace.append(ore_entry)
        return done(OUTCOME_CERTIFIED, {"name": "Ore"}, {})

    # the edge-count stage's k and threshold test, read before the screen:
    # above at k >= 2 means connected with no cut vertex (see the module
    # docstring), so the screen could not have stopped the graph
    k = min(delta, n // 11)
    need = thresholds(k).edge(n) if k >= 2 else None
    above = k >= 2 and g.m > need

    # structural screen: these graphs cannot be Hamilton-connected.  For
    # n >= 3 every disconnected graph has a vertex whose removal leaves it
    # disconnected, so connectivity is asked only when cut_vertex finds one
    if not above:
        cut = cut_vertex(g)
        if (cut is not None or n == 2) and not is_connected(g):
            trace.append({"condition": "Connectivity", "verdict": "fail",
                          "hypotheses": [_hyp("connected", True, False)]})
            return done(OUTCOME_NOT_HC, None, {"reason": "disconnected"})
        if cut is not None:
            trace.append({"condition": "TwoConnectivity", "verdict": "fail",
                          "hypotheses": [_hyp("two_connected", True, False)]})
            return done(OUTCOME_NOT_HC, None, {"reason": "cut-vertex", "cut_vertex": cut})
    trace.append(ore_entry)

    # the edge-count stage's host partition, read for S first, then T (see
    # the module docstring) and before the closure: a graph that has one is
    # not Hamilton-connected, so its closure is incomplete.  Each group needs
    # k - 1 vertices of degree k, which one count rules out on most graphs
    part = None
    if above and g._deg.count(k) >= k - 1:
        part = next(hub_partitions(g, "S", k), None) or next(hub_partitions(g, "T", k), None)

    # closure completeness, ahead of the edge count so that a complete
    # closure certifies with its replayable additions
    if part is None:
        cl, cl_trace = closure(g)
        cl_complete = cl.m == n * (n - 1) // 2
        trace.append({
            "condition": "ClosureComplete",
            "verdict": "fired" if cl_complete else "fail",
            "hypotheses": [_hyp("closure_complete", True, cl_complete)],
            "edges_added": len(cl_trace.added),
        })
        if cl_complete:
            return done(OUTCOME_CERTIFIED, {"name": "ClosureComplete"},
                        {"closure_additions": cl_trace.added})

    # edge-count condition at the k with the lowest threshold
    if k >= 2:
        trace.append({
            "condition": "EdgeCount", "k": k,
            "hypotheses": [
                _hyp("min_degree", k, delta),
                _hyp("order", 11 * k, n),
                {"name": "edge_count_exceeds", "required": need, "actual": g.m,
                 "passed": above},
            ],
            "verdict": "exceptional" if part else "fired" if above else "fail",
        })
        if above and part is None:
            return done(OUTCOME_CERTIFIED, {"name": "EdgeCount", "k": k},
                        {"edge_threshold": need})
        if part is not None:
            witnesses: dict[str, Any] = {
                "host": {"kind": part.kind, "n": n, "k": k},
                "family_class": next((c for c in (part.kind + "1", part.kind + "2")
                                      if class_size_ok(c, k, len(part.deleted))), None),
                "embedding": {"kind": part.kind, "k": k, "X": part.X, "Y": part.Y, "Z": part.Z},
                "confirmation": _separator_confirmation(g, part.Y),
                "non_hamilton_connected": True,
            }
            trace.append({"condition": "ExceptionalConfirmation", "verdict": "confirmed"})
            return done(OUTCOME_EXCEPTIONAL, None, witnesses)

    # spectral annotation: the exact bound U on q against 2n - 2k at every k
    # the theorem covers; it never decides (see the module docstring)
    ks = [k for k in range(min(delta, n // 2), 1, -1) if n >= thresholds(k).n_min]
    if ks:
        bound = upper_bound_edge_count(g)
        params["q_upper_bound"] = str(bound)
        for k in ks:
            thr = thresholds(k).spectral(n)
            if bound >= thr:
                raise AssertionError(f"q bound {bound} reaches 2n - 2k = {thr} at k = {k}")
            trace.append({"condition": "Spectral", "k": k, "threshold": thr,
                          "hypotheses": [_hyp("min_degree", k, delta),
                                         _hyp("order", thresholds(k).n_min, n)],
                          "verdict": "fail"})

    # exact oracle, size-gated
    if n <= oracle_gate:
        ans = is_hamilton_connected(g, pair_budget)
        trace.append({"condition": "Oracle", "verdict": ans.verdict,
                      "nodes_expanded": ans.nodes_expanded})
        if ans.verdict == "yes":
            return done(OUTCOME_EXACT_YES, {"name": "Oracle"},
                        {"paths": list(ans.paths.values())})
        if ans.verdict == "no":
            return done(OUTCOME_EXACT_NO, {"name": "Oracle"},
                        {"failing_pair": list(ans.failing_pair)})
        return done(OUTCOME_TIMEOUT, {"name": "Oracle"}, {})

    return done(OUTCOME_INCONCLUSIVE, None, {})


def explain(cert: Certificate) -> dict[str, Any]:
    """The five fields as one dict, ``cert._asdict()``, for ``to_json`` and diffing.

    The fields are the certificate's own objects, not copies: a caller that
    edits the report edits the certificate.  Witnesses keep their tuples
    (paths, X/Y/Z, closure additions); ``json.dumps`` writes a tuple as an
    array, so ``Certificate.to_json`` serializes the report as it is.
    """
    return cert._asdict()
