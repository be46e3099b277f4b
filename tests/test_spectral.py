"""Spectral radius estimates, exact Rayleigh quotients, certified bounds."""

from fractions import Fraction

import numpy as np
import pytest

from hamq.errors import BadParameters
from hamq.families import enumerate_class
from hamq.graph import Graph, complete, delete_edges, disjoint_union, is_connected, join
from hamq.rng import SplitMix64, gnp, random_connected_gnp
from hamq.spectral import (
    DEFAULT_TOL,
    adjacency_stack,
    adjacent_pair_identity_defect,
    perron_pair,
    perron_pairs,
    rayleigh_quotient_exact,
    upper_bound_edge_count,
)

from conftest import cycle, eigen_residual, path_graph, plain_perron


def s62():
    return join(complete(2), disjoint_union(complete(3), complete(1)))


def test_perron_regular_graphs():
    for n in (2, 5, 9):
        est = perron_pair(complete(n))
        assert abs(est.q_hat - (2 * n - 2)) <= est.tol
        assert max(est.f) == 1.0 and min(est.f) > 0.99
    est = perron_pair(cycle(6))
    assert abs(est.q_hat - 4.0) <= est.tol


def test_perron_interval_on_family_host():
    est = perron_pair(s62())
    assert 8.4 <= est.lo <= est.hi <= 8.8
    assert est.hi - est.lo <= est.tol
    assert est.converged and est.residual <= 10 * est.tol


def test_perron_invariants():
    est = perron_pair(s62())
    assert est.lo <= est.q_hat <= est.hi
    assert all(t > 0 for t in est.f) and max(est.f) == 1.0
    direct = eigen_residual(s62(), est.q_hat, est.f)
    assert direct == pytest.approx(est.residual, abs=1e-12)


def test_perron_rejects_bad_input():
    with pytest.raises(BadParameters, match="requires a connected graph"):
        perron_pair(disjoint_union(complete(3), complete(2)))


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_perron_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(BadParameters):
        perron_pair(cycle(60), tol=tol)


def _exact_q(g):
    q = adjacency_stack([g])[0] + np.diag(np.asarray(g.degrees(), float))
    return float(np.linalg.eigvalsh(q).max())


def _gnp_3_to_50():
    rng = SplitMix64(59)
    return [random_connected_gnp(n, 0.15 + 0.75 * rng.next_float(), rng) for n in range(3, 51)]


def _class2_members(n, k, count):
    return [m.graph for clazz in ("S2", "T2")
            for m in enumerate_class(clazz, n, k, "sample", seed=1, count=count)]


# corpus -> (graphs, tolerances): the qbound suite's range, the q-upper
# suite's k = 2 members down to tol 1e-13, and k = 3 members at n_min(3)
ARBITRATED = {
    "gnp-3..50": (_gnp_3_to_50, (1e-8, DEFAULT_TOL)),
    "class2-k2-n92": (lambda: _class2_members(92, 2, 20), (1e-10, 1e-12, 1e-13)),
    "class2-k3-n270": (lambda: _class2_members(270, 3, 3), (DEFAULT_TOL,)),
}


@pytest.mark.parametrize("corpus", sorted(ARBITRATED))
def test_perron_agrees_with_the_every_step_loop(corpus):
    # the shifted block loop against the unshifted loop that checks every
    # iterate: same convergence, same radius, at most 8 more steps (the
    # triangle with a pendant vertex takes 13 against 11 at tol 1e-10)
    graphs, tols = ARBITRATED[corpus]
    for g in graphs():
        exact = _exact_q(g)
        slack = 16 * np.finfo(float).eps * exact  # eigvalsh's own rounding
        for tol in tols:
            est = perron_pair(g, tol=tol)
            q_hat, iterations, converged = plain_perron(g, tol)
            assert converged and est.converged
            assert est.lo - slack <= exact <= est.hi + slack
            assert abs(est.q_hat - q_hat) <= 2 * tol
            assert est.iterations <= iterations + 8


def _lollipop(clique, tail):
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    return Graph(clique + tail, edges + [(v, v + 1) for v in range(clique - 1, clique + tail - 1)])


# corpus -> [(graph, tol)]: m/n is 11.1 on the lollipop and 44.5 on the
# class-2 members, above their minimum degrees 1 and 2, so Q - (m/n) I has
# negative diagonal entries there; the star and P_40 are bipartite, so Q has
# the eigenvalue 0, which the shift moves to -m/n; P_40 runs to the step cap
SHIFTED = {
    "lollipop-30-10": lambda: [(_lollipop(30, 10), DEFAULT_TOL)],
    "star-40": lambda: [(Graph(41, [(0, v) for v in range(1, 41)]), DEFAULT_TOL)],
    "class2-k2-n92": lambda: [(g, DEFAULT_TOL) for g in _class2_members(92, 2, 5)],
    "path-40-at-1e-300": lambda: [(path_graph(40), 1e-300)],
}


@pytest.mark.parametrize("corpus", sorted(SHIFTED))
def test_perron_shift_keeps_the_enclosure_and_takes_no_more_steps(corpus):
    for g, tol in SHIFTED[corpus]():
        exact = _exact_q(g)
        slack = 16 * np.finfo(float).eps * exact  # eigvalsh's own rounding
        est = perron_pair(g, tol=tol)
        assert est.lo - slack <= exact <= est.hi + slack
        assert min(est.f) > 0 and max(est.f) == 1.0
        assert est.residual == pytest.approx(eigen_residual(g, est.q_hat, list(est.f)), abs=1e-12)
        assert est.iterations <= plain_perron(g, tol)[1]


def test_perron_encloses_where_shifted_iterates_leave_the_positive_cone():
    # K_20 with a pendant P_40: the Perron entries fall to about 1e-63 along
    # the path, and six blocks of shifted iterates have entries <= 0 there
    g = _lollipop(20, 40)
    exact = _exact_q(g)
    slack = 16 * np.finfo(float).eps * exact
    est = perron_pair(g)
    assert est.converged
    assert est.lo - slack <= exact <= est.hi + slack
    assert min(est.f) > 0 and max(est.f) == 1.0
    assert est.residual == pytest.approx(eigen_residual(g, est.q_hat, list(est.f)), abs=1e-12)


def _stack_mix():
    # qbound-range gnp of several orders (two of order 30 stop in one block
    # at steps 27 and 29; three of order 40, the order of P_40), S2/T2
    # members at n = 92 (more than one stack of 7), the K_20 + P_40 lollipop
    # (65 steps) and complete graphs (done in the first step)
    rng = SplitMix64(67)
    gnps = [random_connected_gnp(n, 0.25 + 0.65 * rng.next_float(), rng)
            for n in (5, 5, 5, 12, 12, 12, 12, 30, 30, 30, 40, 40, 40, 50)]
    return gnps + _class2_members(92, 2, 5) + [
        path_graph(40), _lollipop(20, 40), complete(5), complete(40), complete(92)]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-300])
def test_perron_estimate_does_not_depend_on_its_stack(tol):
    graphs = _stack_mix()
    if tol == 1e-300:  # P_40 runs to the step cap while K_40, in its stack, stops at once
        graphs = [complete(5), path_graph(40), complete(40)]
    mixed = list(perron_pairs(graphs, tol))
    assert [est.tol for est in mixed] == [tol] * len(graphs)
    assert mixed == [perron_pair(g, tol) for g in graphs]
    rng = SplitMix64(71)
    for _ in range(3):
        order = list(range(len(graphs)))
        for i in range(len(order) - 1, 0, -1):  # Fisher-Yates
            j = rng.next_below(i + 1)
            order[i], order[j] = order[j], order[i]
        start = 0
        while start < len(order):
            part = order[start:start + 1 + rng.next_below(12)]
            start += len(part)
            # stacks are cut from runs of one order, so sort to stack the part
            part.sort(key=lambda i: graphs[i].n)
            assert list(perron_pairs([graphs[i] for i in part], tol)) == [mixed[i] for i in part]
    if tol == 1e-300:
        by_graph = dict(zip(graphs, mixed))
        assert by_graph[path_graph(40)].iterations == 200 * 40 + 10_000
        assert by_graph[complete(40)].iterations == 1


@pytest.mark.parametrize("graphs, tol, message", [
    ([complete(6), path_graph(6), disjoint_union(complete(3), complete(3)), complete(6)],
     DEFAULT_TOL, "requires a connected graph"),
    ([Graph(1), complete(5)], DEFAULT_TOL, "needs n >= 2"),
    ([complete(4)], float("inf"), "needs a finite tol > 0"),
])
def test_perron_pairs_checks_a_stack_before_its_power_steps(monkeypatch, graphs, tol, message):
    def no_power_step(*args, **kwargs):
        raise AssertionError("a power step ran")

    assert list(perron_pairs([])) == []
    monkeypatch.setattr(np, "matmul", no_power_step)
    with pytest.raises(BadParameters, match=message):
        list(perron_pairs(graphs, tol))


def test_perron_against_dense_eigensolver():
    # independent route: LAPACK on the dense matrix
    rng = SplitMix64(31)
    for _ in range(60):
        g = random_connected_gnp(3 + rng.next_below(18), 0.2 + 0.6 * rng.next_float(), rng)
        est = perron_pair(g)
        q = np.asarray(g.degrees(), float)
        exact = float(np.linalg.eigvalsh(adjacency_stack([g])[0] + np.diag(q)).max())
        assert est.lo - 1e-9 <= exact <= est.hi + 1e-9
        assert abs(est.q_hat - exact) <= 1e-8


def test_rayleigh_exact_examples():
    assert rayleigh_quotient_exact(complete(3), [1, 1, 1]) == 4
    assert rayleigh_quotient_exact(s62(), [1, 1, 1, 1, 1, 0]) == Fraction(42, 5)
    t93 = join(complete(2), disjoint_union(complete(5), complete(2)))
    c = [1] * 7 + [0, 0]
    assert rayleigh_quotient_exact(t93, c) == Fraction(88, 7) >= 12
    with pytest.raises(BadParameters, match="zero vector"):
        rayleigh_quotient_exact(complete(3), [0, 0, 0])


def test_rayleigh_exact_generic_matches_indicator_fast_path():
    rng = SplitMix64(37)
    for _ in range(30):
        g = gnp(3 + rng.next_below(10), 0.5, rng)
        x01 = [rng.next_below(2) for _ in range(g.n)]
        if not any(x01):
            continue
        xgen = [t * 3 for t in x01]  # scale-invariant: same quotient
        assert rayleigh_quotient_exact(g, x01) == rayleigh_quotient_exact(g, xgen)


def test_rayleigh_exact_checks_every_entry_before_the_zero_test():
    import numpy as np

    for x in ([0, 0, 0.0], [0, True, 0], [True] * 3, [1, 1, "1"], [0, None, 0],
              [0, np.int64(1), 0], [np.int64(0)] * 3, [2, 1.0, 0]):
        with pytest.raises(BadParameters, match="integer entries"):
            rayleigh_quotient_exact(complete(3), x)
    with pytest.raises(BadParameters, match="vector length"):
        rayleigh_quotient_exact(complete(3), [1, 1])
    with pytest.raises(BadParameters, match="vector length"):
        rayleigh_quotient_exact(complete(3), [1.0, 1.0])

    class Count(int):
        pass

    # a subclass of int is an integer entry, on both routes
    assert rayleigh_quotient_exact(complete(3), [Count(1)] * 3) == 4
    assert rayleigh_quotient_exact(complete(3), [Count(1), 1, 0]) == 3
    assert rayleigh_quotient_exact(complete(3), [Count(2), 1, 0]) == Fraction(14, 5)
    with pytest.raises(BadParameters, match="zero vector"):
        rayleigh_quotient_exact(complete(3), [Count(0), 0, 0])


def test_rayleigh_exact_matches_the_edge_sum_on_signed_vectors():
    # entries -1 and 2 keep a vector off the 0/1 path; the edge sum is the reference
    rng = SplitMix64(43)
    for _ in range(40):
        g = gnp(3 + rng.next_below(10), 0.5, rng)
        x = [rng.next_below(4) - 1 for _ in range(g.n)]  # -1..2
        if not any(x):
            continue
        want = Fraction(sum((x[u] + x[v]) ** 2 for u, v in g.edges()), sum(t * t for t in x))
        assert rayleigh_quotient_exact(g, x) == want


def test_rayleigh_exact_matches_the_edge_sum_on_both_branches():
    # 0/1 vectors take the popcount route; entries beyond 2**64 and of
    # either sign take the generic one; both must equal the plain edge sum
    rng = SplitMix64(47)
    for _ in range(60):
        n = 1 + rng.next_below(40)
        g = gnp(n, rng.next_float(), rng)
        indicator = [rng.next_below(2) for _ in range(n)]
        generic = [(rng.next_u64() << 7) * (rng.next_below(3) - 1) for _ in range(n)]
        for x in (indicator, generic):
            if not any(x):
                continue
            want = Fraction(sum((x[u] + x[v]) ** 2 for u, v in g.edges()),
                            sum(t * t for t in x))
            assert rayleigh_quotient_exact(g, x) == want
            assert rayleigh_quotient_exact(g, tuple(x)) == want


def test_rayleigh_is_lower_bound():
    rng = SplitMix64(41)
    for _ in range(25):
        g = random_connected_gnp(4 + rng.next_below(10), 0.5, rng)
        est = perron_pair(g)
        x = [1 + rng.next_below(5) for _ in range(g.n)]
        assert float(rayleigh_quotient_exact(g, x)) <= est.hi + 1e-9


def test_upper_bound_examples():
    assert upper_bound_edge_count(complete(4)) == 6
    assert upper_bound_edge_count(cycle(5)) == Fraction(11, 2)
    assert upper_bound_edge_count(s62()) == Fraction(44, 5)
    with pytest.raises(BadParameters, match="requires a connected graph"):
        upper_bound_edge_count(disjoint_union(complete(2), complete(2)))


def test_upper_bound_tight_on_complete_graphs():
    for n in (3, 7, 12):
        est = perron_pair(complete(n))
        assert float(upper_bound_edge_count(complete(n))) == pytest.approx(est.q_hat)


def test_eigen_residual_examples():
    assert eigen_residual(complete(3), 4.0, [1.0, 1.0, 1.0]) == 0.0
    assert eigen_residual(cycle(4), 4.0, [1.0] * 4) == 0.0
    assert eigen_residual(complete(3), 3.9, [1.0, 1.0, 1.0]) == pytest.approx(0.1)


def test_edge_monotonicity_of_certified_intervals():
    rng = SplitMix64(43)
    done = 0
    while done < 30:
        g = random_connected_gnp(4 + rng.next_below(12), 0.4 + 0.4 * rng.next_float(), rng)
        edges = g.edges()
        e = edges[rng.next_below(len(edges))]
        h = delete_edges(g, [e])
        if not is_connected(h):
            continue
        done += 1
        a, b = perron_pair(g), perron_pair(h)
        assert b.lo <= a.hi + 1e-9  # q(G - e) <= q(G)


def test_adjacent_pair_identity():
    rng = SplitMix64(47)
    for _ in range(25):
        g = random_connected_gnp(4 + rng.next_below(12), 0.5, rng)
        est = perron_pair(g)
        edges = g.edges()
        u, v = edges[rng.next_below(len(edges))]
        assert adjacent_pair_identity_defect(g, est, u, v) <= 10 * est.tol


def test_perron_takes_at_most_max_iter_steps():
    # the step cap is 200 n + 10000; whatever the tolerance, the run stops by
    # then, and the returned pair encloses q with its own residual
    for g in (random_connected_gnp(30, 0.3, SplitMix64(61)), path_graph(40)):
        exact = _exact_q(g)
        for tol in (1e-2, 1e-6, 1e-10, 1e-13, 1e-300):
            est = perron_pair(g, tol=tol)
            assert 1 <= est.iterations <= 200 * g.n + 10_000
            assert est.lo - 1e-9 <= exact <= est.hi + 1e-9
            # the residual is that of the returned pair, converged or not
            direct = eigen_residual(g, est.q_hat, list(est.f))
            assert direct == pytest.approx(est.residual, abs=1e-9)


def test_unconverged_estimate_still_encloses():
    # no double reaches tol = 1e-300, so the iteration runs to its step cap
    # of 200 n + 10000: 18,000 steps on P_40 and 14,000 on the gnp graph
    for g in (path_graph(40), random_connected_gnp(20, 0.3, SplitMix64(53))):
        est = perron_pair(g, tol=1e-300)
        assert est.iterations == 200 * g.n + 10_000
        assert not est.converged
        assert est.lo <= est.q_hat <= est.hi
        exact = _exact_q(g)
        assert est.lo - 1e-9 <= exact <= est.hi + 1e-9
