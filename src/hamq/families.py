"""Extremal families: construction, enumeration, recognition, thresholds.

Two host families drive the whole certification story.  For ``n >= 5`` and
``2 <= k <= n/2``:

* ``S(n, k)``: a clique on ``n - k + 1`` vertices with ``k - 1`` extra
  independent vertices each joined to the same k-subset of the clique.
* ``T(n, k)``: a clique on ``n - k + 1`` and a clique on ``k + 1`` glued
  along two shared vertices.

Both graphs are built with a fixed vertex layout so partitions are
reproducible: Y (the high-degree hub set, degree n-1) occupies the lowest
indices, then Z (degree n-k), then X (degree k) at the tail.  ``Y u Z`` is
always the index prefix ``0..n-k`` and induces a clique; its edge set is the
eligible deletion set E0.  A *family member* deletes a subset E' of E0:

* class 1 members allow ``|E'|`` up to ``floor(k(k-1)/4)`` (S) or
  ``floor((k-1)/2)`` (T);
* class 2 members have exactly one more deletion than the class-1 maximum.

One record, ``FamilyHandle(kind, k, X, Y, Z, deleted, graph)``, states a
partition from construction through recognition to the certificate: X, Y,
Z in the labels of ``graph`` and ``deleted`` the missing Y u Z pairs, which
name the class; the order ``n`` is read off ``graph``.  A constructed
member's graph is the host minus ``deleted``; a recognized one's is the
graph it was read from.  ``hub_partitions`` groups the degree-k vertices by
open (S) or closed (T) neighborhood and yields each candidate partition;
``membership`` returns the first whose ``deleted`` fits a class, and the
certifier's edge stage takes the first.  ``spanning_subgraph_of`` searches
for a host embedding (every edge of G mapped onto a host edge) over all
vertices of degree <= k, under a node budget, so it also answers when the
minimum degree is below k.  Both recognizers read ``deleted`` with one
missing-pair scan.  ``appendix_check`` evaluates, in exact rational
arithmetic, the closed-form inequality (split on k mod 4) that bounds the
class-2 spectral radius strictly below 2n - 2k once n clears the order
threshold ``n_min(k) = k^4 + 5k^3 + 2k^2 + 8k + 12``.
"""

from __future__ import annotations

from itertools import chain, combinations, compress
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .errors import BadParameters, BudgetExceeded
from .graph import (
    Edge,
    Graph,
    _bit_selector,
    complete,
    copies,
    delete_edges,
    disjoint_union,
    edge_set,
    iter_bits,
    join,
)

if TYPE_CHECKING:
    from fractions import Fraction

CLASSES = ("S1", "T1", "S2", "T2")
DEFAULT_ENUM_BUDGET = 1_000_000
DEFAULT_EMBED_BUDGET = 200_000


# -- partitions ---------------------------------------------------------------


class FamilyHandle(NamedTuple):
    """A host partition of ``graph`` in its own labels (see the module
    docstring): X the degree-k vertices, Y the hub set, Z the rest,
    ``deleted`` the missing Y u Z pairs."""

    kind: str  # "S" | "T"
    k: int
    X: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]
    deleted: frozenset[Edge]
    graph: Graph

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def e0_size(self) -> int:
        return comb(self.n - self.k + 1, 2)

    def sidecar(self) -> dict:
        """JSON-ready description of the member."""
        return {
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "X": list(self.X),
            "Y": list(self.Y),
            "Z": list(self.Z),
            "deleted": sorted(list(e) for e in self.deleted),
        }


def _in_domain(n: int, k: int) -> bool:
    """The families' domain: n >= 5 and 2 <= k <= n/2."""
    return n >= 5 and 2 <= k and 2 * k <= n


def _check_family_params(n: int, k: int) -> None:
    if not _in_domain(n, k):
        raise BadParameters(f"family needs n >= 5 and 2 <= k <= n/2, got n={n} k={k}")


def build_S(n: int, k: int) -> FamilyHandle:
    """Host member of the S family with no deletions.

    Layout: Y = 0..k-1 (degree n-1), Z = k..n-k (degree n-k),
    X = n-k+1..n-1 (degree k, independent, all joined to Y).
    """
    _check_family_params(n, k)
    g = join(complete(k), disjoint_union(complete(n - 2 * k + 1), copies(k - 1, complete(1))))
    return FamilyHandle(kind="S", k=k, X=tuple(range(n - k + 1, n)), Y=tuple(range(k)),
                        Z=tuple(range(k, n - k + 1)), deleted=frozenset(), graph=g)


def build_T(n: int, k: int) -> FamilyHandle:
    """Host member of the T family with no deletions.

    Layout: Y = {0, 1} (degree n-1), Z = 2..n-k (degree n-k),
    X = n-k+1..n-1 (degree k, a clique, all joined to Y).
    """
    _check_family_params(n, k)
    g = join(complete(2), disjoint_union(complete(n - k - 1), complete(k - 1)))
    return FamilyHandle(kind="T", k=k, X=tuple(range(n - k + 1, n)), Y=(0, 1),
                        Z=tuple(range(2, n - k + 1)), deleted=frozenset(), graph=g)


def family_member(base: FamilyHandle, edges: Iterable[Edge]) -> FamilyHandle:
    """Delete a subset of E0 from a pristine host handle."""
    if base.deleted:
        raise BadParameters("family_member needs a pristine host handle")
    deleted = edge_set(edges)
    for u, v in deleted:  # u < v; Y u Z is 0..n-k
        if u < 0 or v > base.n - base.k:
            raise BadParameters(f"{(u, v)} has an endpoint outside Y u Z")
    return base._replace(graph=delete_edges(base.graph, deleted), deleted=deleted)


def class_bound(clazz: str, k: int) -> int:
    """Deletion budget of a class: maximum |E'| for class 1, exact for class 2."""
    if clazz not in CLASSES:
        raise BadParameters(f"unknown class {clazz!r}")
    if k < 2:
        raise BadParameters(f"class bound needs k >= 2, got {k}")
    base = k * (k - 1) // 4 if clazz[0] == "S" else (k - 1) // 2
    return base if clazz[1] == "1" else base + 1


def refined_partition(handle: FamilyHandle) -> dict[str, tuple[int, ...]]:
    """Split Y and Z by whether a deleted edge touches the vertex.

    Y1/Z1 keep their host degree (n-1 and n-k); Y2/Z2 lost at least one edge.
    """
    touched = set()
    for u, v in handle.deleted:
        touched.add(u)
        touched.add(v)
    return {
        "Y1": tuple(y for y in handle.Y if y not in touched),
        "Y2": tuple(y for y in handle.Y if y in touched),
        "Z1": tuple(z for z in handle.Z if z not in touched),
        "Z2": tuple(z for z in handle.Z if z in touched),
    }


# -- enumeration --------------------------------------------------------------


def enumerate_class(
    clazz: str,
    n: int,
    k: int,
    mode: str = "exhaustive",
    seed: int = 0,
    count: int | None = None,
) -> Iterator[FamilyHandle]:
    """Stream members of a class.

    Exhaustive mode yields every admissible E' exactly once, ordered by size
    then lexicographically by sorted edge tuple; it refuses upfront (raising
    BudgetExceeded) if the total member count exceeds
    ``DEFAULT_ENUM_BUDGET``.  Sample mode is deterministic in ``seed`` and
    yields ``count`` members; class-1 samples draw |E'| uniformly from
    0..bound, class-2 samples always use the exact class size.  The
    arguments and the budget, read from ``DEFAULT_ENUM_BUDGET`` at that
    moment, are checked when the function is called, before any member is
    drawn.
    """
    from .rng import SplitMix64, pair_unrank  # here, so certify's start-up skips it

    _check_family_params(n, k)
    bound = class_bound(clazz, k)
    base = build_S(n, k) if clazz[0] == "S" else build_T(n, k)
    e0 = base.e0_size
    p = n - k + 1
    sizes = list(range(bound + 1)) if clazz[1] == "1" else [bound]
    if mode == "exhaustive":
        total = sum(comb(e0, s) for s in sizes)
        if total > DEFAULT_ENUM_BUDGET:
            raise BudgetExceeded(
                f"exhaustive enumeration of {clazz}(n={n},k={k}) has {total} members,"
                f" budget is {DEFAULT_ENUM_BUDGET}", DEFAULT_ENUM_BUDGET)
        draws = chain.from_iterable(combinations(range(e0), s) for s in sizes)
    elif mode == "sample":
        if count is None or count < 0:
            raise BadParameters(f"sample mode needs a count >= 0, got {count}")
        rng = SplitMix64(seed)
        draws = (rng.sample_distinct(sizes[rng.next_below(len(sizes))] if len(sizes) > 1
                                     else sizes[0], e0) for _ in range(count))
    else:
        raise BadParameters(f"unknown mode {mode!r}")
    return (family_member(base, [pair_unrank(p, i) for i in idxs]) for idxs in draws)


# -- recognition --------------------------------------------------------------


def class_size_ok(clazz: str, k: int, size: int) -> bool:
    """Whether ``size`` deletions fit the class: at most its bound for
    class 1, exactly its bound for class 2."""
    bound = class_bound(clazz, k)
    return size <= bound if clazz[1] == "1" else size == bound


def _missing_pairs(rows: tuple[int, ...], yz_bits: int) -> frozenset[Edge]:
    """The pairs (u, v), u < v, inside the vertex mask ``yz_bits`` that are
    not edges: the mask's vertices are read at C speed, and bit i of
    ``gaps`` is the non-neighbour u + 1 + i of u."""
    missing = []
    for u in compress(range(len(rows)), _bit_selector(yz_bits)):
        gaps = (yz_bits & ~rows[u]) >> (u + 1)
        if gaps:
            missing.extend((u, u + 1 + i) for i in iter_bits(gaps))
    return frozenset(missing)


def hub_partitions(g: Graph, kind: str, k: int) -> Iterator[FamilyHandle]:
    """Candidate host partitions of g for one kind.

    Candidate X vertices must have degree exactly k (deletions never touch
    X).  For S the members of X share one open neighborhood of size k; for T
    they share one closed neighborhood of size k+1.  Degree-k vertices are
    grouped by that neighborhood; every group of at least k-1 yields X = its
    k-1 smallest vertices, the hub set Y = key - X, Z = the rest, and as
    ``deleted`` the pairs inside Y u Z that are not edges.  Every group fits
    its host: for S, X is independent, since a vertex is never in its own
    open neighborhood and all members share one; for T, every member lies in
    the shared closed neighborhood, so Y has (k+1) - (k-1) = 2 vertices.
    Groups come in increasing mask order.  X then touches nothing outside
    Y, so every item is also a host embedding; ``membership`` filters the
    items by class size.
    """
    n = g.n
    if not _in_domain(n, k):
        return
    rows = g._rows
    buckets: dict[int, list[int]] = {}  # ascending members
    for v in compress(range(n), map(k.__eq__, g._deg)):
        key = rows[v] if kind == "S" else rows[v] | (1 << v)
        buckets.setdefault(key, []).append(v)
    want_pop = k if kind == "S" else k + 1
    for key in sorted(buckets):
        members = buckets[key]
        if len(members) < k - 1 or key.bit_count() != want_pop:
            continue
        x_set = tuple(members[: k - 1])
        x_bits = sum(1 << x for x in x_set)
        y_bits = key & ~x_bits
        yz_bits = ((1 << n) - 1) & ~x_bits
        yield FamilyHandle(kind, k, x_set, tuple(iter_bits(y_bits)),
                           tuple(compress(range(n), _bit_selector(yz_bits & ~y_bits))),
                           _missing_pairs(rows, yz_bits), g)


def membership(g: Graph, clazz: str, k: int) -> FamilyHandle | None:
    """Recognize a (possibly relabeled) class member; None means absent.

    The first ``hub_partitions`` record whose ``deleted`` pairs fit the class
    is the witness; the remaining structure (Y u Z clique minus E', no X-Z
    edges) holds by construction of the record.
    """
    if clazz not in CLASSES:
        raise BadParameters(f"unknown class {clazz!r}")
    return next((p for p in hub_partitions(g, clazz[0], k)
                 if class_size_ok(clazz, k, len(p.deleted))), None)


def spanning_subgraph_of(
    g: Graph, kind: str, k: int, budget: int = DEFAULT_EMBED_BUDGET
) -> FamilyHandle | None:
    """The partition of a labeling under which every edge of g is an edge of
    the host, with ``deleted`` the missing Y u Z pairs; None if there is none.

    The only constraints a host imposes are at the X slots: X vertices may
    touch nothing outside Y (for S, X is also independent; for T, X may be
    internally adjacent and |Y| = 2).  The search walks ascending candidate
    vertices of degree <= k, pruning on the running neighborhood union, and
    raises BudgetExceeded past ``budget`` explored nodes.
    """
    if kind not in ("S", "T"):
        raise BadParameters(f"unknown family kind {kind!r}")
    n = g.n
    if not _in_domain(n, k):
        return None
    y_size = k if kind == "S" else 2
    cands = [v for v in range(n) if g.degree(v) <= k]
    if len(cands) < k - 1:
        return None
    nodes = 0

    def finish(x_list: list[int], union: int) -> FamilyHandle | None:
        x_bits = sum(1 << x for x in x_list)
        outside = union & ~x_bits
        if outside.bit_count() > y_size:
            return None
        y_list = list(iter_bits(outside))
        for v in range(n):  # pad Y with the smallest free vertices
            if len(y_list) == y_size:
                break
            if not (x_bits >> v & 1) and not (outside >> v & 1):
                y_list.append(v)
        y_list.sort()
        y_bits = sum(1 << y for y in y_list)
        # final validation: no X-Z edges, and for S no X-X edges
        for x in x_list:
            if g.row(x) & ~(y_bits | x_bits):
                return None
            if kind == "S" and g.row(x) & x_bits:
                return None
        yz_bits = ((1 << n) - 1) & ~x_bits
        return FamilyHandle(kind, k, tuple(x_list), tuple(y_list),
                            tuple(iter_bits(yz_bits & ~y_bits)),
                            _missing_pairs(g._rows, yz_bits), g)

    def dfs(start: int, x_list: list[int], union: int) -> FamilyHandle | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"embedding search exceeded {budget} nodes", budget)
        if len(x_list) == k - 1:
            return finish(x_list, union)
        slots_left = (k - 1) - len(x_list)
        for i in range(start, len(cands)):
            v = cands[i]
            if kind == "S":
                if union >> v & 1:  # adjacent to a chosen X vertex
                    continue
                new_union = union | g.row(v)
                # X stays independent, so the union never meets X and must
                # fit inside the k-slot Y in the end
                if new_union.bit_count() <= k:
                    x_list.append(v)
                    res = dfs(i + 1, x_list, new_union)
                    if res is not None:
                        return res
                    x_list.pop()
            else:
                new_union = union | g.row(v)
                x_bits = 1 << v
                for x in x_list:
                    x_bits |= 1 << x
                outside = (new_union & ~x_bits).bit_count()
                # future X picks can absorb at most the remaining slots
                if outside <= 2 + (slots_left - 1):
                    x_list.append(v)
                    res = dfs(i + 1, x_list, new_union)
                    if res is not None:
                        return res
                    x_list.pop()
        return None

    return dfs(0, [], 0)


# -- thresholds and the exact rational inequality ------------------------------


class Thresholds(NamedTuple):
    """All order/edge/spectral thresholds attached to one k."""

    k: int
    n_min: int

    def spectral(self, n: int) -> int:
        return 2 * n - 2 * self.k

    def edge(self, n: int) -> int:
        return comb(n - self.k, 2) + self.k * (self.k + 1)


def thresholds(k: int) -> Thresholds:
    if k < 2:
        raise BadParameters(f"thresholds need k >= 2, got {k}")
    n_min = k**4 + 5 * k**3 + 2 * k**2 + 8 * k + 12
    return Thresholds(k=k, n_min=n_min)


class AppendixReport(NamedTuple):
    """Exact rational evaluation of the class-2 bounding inequality.

    ``holds`` is ``a1 + a2 + a3 - a4 < bound`` computed in rationals;
    ``margin`` is ``bound - (a1 + a2 + a3 - a4)``.  ``deleted_count`` is the
    class-2 deletion count ``class_bound("S2", k)`` = floor(k(k-1)/4) + 1;
    the branch on k mod 4 selects whether the primed term family (bound 2)
    or the unprimed one (bound 4) applies.
    """

    k: int
    n: int
    branch: int  # k mod 4
    deleted_count: int
    primed: bool
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    bound: int
    holds: bool
    margin: Fraction
    hypothesis_met: bool


def appendix_check(k: int, n: int) -> AppendixReport:
    """Evaluate the branch-appropriate closed-form inequality exactly.

    Computes even when n is below the order threshold; ``hypothesis_met``
    flags whether the threshold hypothesis holds.
    """
    from fractions import Fraction

    if k < 2:
        raise BadParameters(f"appendix check needs k >= 2, got {k}")
    if n <= 2 * k:
        raise BadParameters(f"appendix check needs n > 2k, got n={n}, k={k}")
    branch = k % 4
    primed = branch in (2, 3)
    a1 = Fraction(2 * k**3 - 2 * k**2, 2 * n - 3 * k - 1)
    a2 = Fraction(k**4 - k**3, 4 * n**2 - (12 * k + 4) * n + 9 * k**2 + 6 * k + 1)
    if not primed:
        a3 = Fraction(k**4 + 5 * k**3 + 4 * k**2 + 18 * k + 24, n - 2 * k)
        a4 = Fraction(
            k**6 + 11 * k**5 + 40 * k**4 + 72 * k**3 + 156 * k**2 + 252 * k + 144,
            4 * n**2 - 16 * k * n + 16 * k**2,
        )
        bound = 4
    else:
        a3 = Fraction(k**4 + 5 * k**3 + 2 * k**2 + 6 * k + 12, n - 2 * k)
        a4 = Fraction(
            k**6 + 11 * k**5 + 38 * k**4 + 48 * k**3 + 60 * k**2 + 108 * k + 72,
            4 * n**2 - 16 * k * n + 16 * k**2,
        )
        bound = 2
    total = a1 + a2 + a3 - a4
    return AppendixReport(
        k=k,
        n=n,
        branch=branch,
        deleted_count=class_bound("S2", k),
        primed=primed,
        a1=a1,
        a2=a2,
        a3=a3,
        a4=a4,
        bound=bound,
        holds=total < bound,
        margin=bound - total,
        hypothesis_met=n >= thresholds(k).n_min,
    )


def indicator_rayleigh_value(handle: FamilyHandle) -> Fraction:
    """Closed-form value of the indicator Rayleigh quotient on Y u Z.

    For any member, host or deleted, this equals
    ``(2n - 2k) + (c_k - 4|E'|) / (n - k + 1)`` where ``c_k`` is ``k(k-1)``
    for S members and ``2(k-1)`` for T members; used as the independent
    oracle against the generic exact quotient.
    """
    from fractions import Fraction

    n, k = handle.n, handle.k
    c_k = k * (k - 1) if handle.kind == "S" else 2 * (k - 1)
    return Fraction(2 * n - 2 * k) + Fraction(c_k - 4 * len(handle.deleted), n - k + 1)


def indicator_vector(handle: FamilyHandle) -> list[int]:
    """0/1 vector supported on Y u Z."""
    vec = [0] * handle.n
    for v in handle.Y + handle.Z:
        vec[v] = 1
    return vec
