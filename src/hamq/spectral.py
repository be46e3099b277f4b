"""Signless Laplacian spectral radius with certified enclosures.

The signless Laplacian of a graph is ``Q = D + A`` (degree diagonal plus
adjacency), built once as a dense matrix so that a power step is one
matrix-vector product.  Its largest eigenvalue ``q`` is approximated by power
iteration from the all-ones vector, which is strictly positive and therefore
converges to the Perron direction on a connected graph.  Two rigorous
enclosures are tracked at the checked iterates:

* ``lo``: the best Rayleigh quotient seen (a lower bound for any vector);
* ``hi``: the minimum of ``max_v (Qx)_v / x_v`` (the Collatz-Wielandt
  bound, valid for a nonnegative irreducible matrix and any positive ``x``).

Every step normalizes the iterate, but the enclosure is checked only after
1, 2, 4, then every 8 steps while ``hi - lo`` is above ``1000 * tol``, and
after every step once it is within that.  Both bounds hold at any positive
iterate, so the enclosure stays rigorous whichever iterates are checked.  In
exact arithmetic both also improve monotonically along the power iterates
(Q is nonnegative and positive semidefinite), so skipped iterates lose
nothing.  Near ``tol``, rounding can make a later iterate's bound slightly
worse than an earlier one's; checking every step there keeps the min and max
over all late iterates, which is what convergence at small ``tol`` needs.
Iteration stops once ``hi - lo <= tol`` and the eigen-equation residual of
the returned pair is at most ``5 * tol`` (computed only once the gap is
within ``tol``, or at the step cap of ``200 n + 10000`` power steps); at the
cap the best enclosure so far is returned with ``converged=False``.

Exact arithmetic backs the certification paths: ``rayleigh_quotient_exact``
evaluates ``sum((x_u + x_v)^2 for uv in E) / sum(x_v^2)`` over the integers,
and ``upper_bound_edge_count`` gives the rational bound ``2m/(n-1) + n - 2``
valid for every connected graph.
"""

from __future__ import annotations

from itertools import compress
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import BadParameters
from .graph import Graph, _bit_selector, is_connected, iter_bits

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

DEFAULT_TOL = 1e-10
# the enclosure is checked every step once hi - lo is within this many tol,
# and after at most this many unchecked steps before that
_DENSE_CHECKS = 1e3
_MAX_STRIDE = 8
# the 0/1 bytes of a support selector as the digits of a base-2 literal
_SUPPORT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class SpectralEstimate(NamedTuple):
    """Approximate Perron pair with a certified enclosure of q(G).

    ``f`` is strictly positive with max entry 1; ``residual`` is
    ``max_v |(q_hat - d(v)) f_v - sum(f_u for u ~ v)|``; ``lo <= q <= hi``.
    ``iterations`` counts every power step taken, checked or not, and is at
    most the step cap ``200 n + 10000``.
    """

    q_hat: float
    f: tuple[float, ...]
    residual: float
    lo: float
    hi: float
    iterations: int
    converged: bool
    tol: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency as float64 (row-major, vertex order preserved)."""
    import numpy as np

    n = g.n
    nbytes = (n + 7) // 8
    buf = b"".join(g.row(v).to_bytes(nbytes, "little") for v in range(n))
    bits = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(n, nbytes),
        axis=1,
        bitorder="little",
    )[:, :n]
    return bits.astype(np.float64)


def perron_pair(g: Graph, tol: float = DEFAULT_TOL) -> SpectralEstimate:
    """Power iteration Perron pair with certified interval [lo, hi].

    Deterministic: all-ones start, fixed update rule and check schedule (see
    the module docstring): the enclosure is checked after 1, 2, 4 and then
    every 8 steps while far from ``tol``, and after every step once
    ``hi - lo <= 1000 * tol``, so that the last iterates, where rounding
    decides convergence, are all checked.  ``f`` and ``residual`` belong to
    the last checked iterate.  At most ``200 n + 10000`` steps are taken.
    Raises BadParameters for ``tol <= 0`` and disconnected input (Perron
    positivity needs irreducibility); callers decompose into components
    themselves.
    """
    import numpy as np

    if not tol > 0:  # also rejects nan
        raise BadParameters(f"perron_pair needs tol > 0, got {tol!r}")
    n = g.n
    if n < 2:
        raise BadParameters("perron_pair needs n >= 2")
    if not is_connected(g):
        raise BadParameters("perron_pair requires a connected graph")
    step_cap = 200 * n + 10_000

    q = adjacency_matrix(g)
    q[np.diag_indices(n)] = g.degrees()  # Q = A + D; A has a zero diagonal
    x = np.ones(n, dtype=np.float64)
    hi = np.inf
    best_ray = -np.inf
    converged = False
    residual = np.inf
    stride = 1
    next_check = 1
    for iterations in range(1, step_cap + 1):
        y = q @ x
        if iterations == next_check or iterations == step_cap:
            hi = min(hi, float((y / x).max()))
            best_ray = max(best_ray, float(x @ y) / float(x @ x))
            gap = hi - best_ray
            if gap <= tol or iterations == step_cap:
                # residual of the pair that will be returned (best_ray with
                # this x, whose max entry is 1); the internal threshold is
                # 5*tol so that both the residual and the adjacent-pair
                # identity defect (at most twice it) land within 10*tol
                residual = float(np.abs(y - best_ray * x).max())
                converged = gap <= tol and residual <= 5.0 * tol
                if converged or iterations == step_cap:
                    break
            stride = 1 if gap <= _DENSE_CHECKS * tol else min(2 * stride, _MAX_STRIDE)
            next_check = iterations + stride
        x = y / float(y.max())

    lo = best_ray
    hi = max(float(hi), lo)  # guard the enclosure against rounding crossover
    return SpectralEstimate(
        q_hat=best_ray,
        f=tuple(x.tolist()),
        residual=residual,
        lo=lo,
        hi=hi,
        iterations=iterations,
        converged=converged,
        tol=tol,
    )


def rayleigh_quotient_exact(g: Graph, x: Sequence[int]) -> Fraction:
    """Exact rational Rayleigh quotient for an integer vector.

    Equals ``sum((x_u + x_v)^2 for uv in E) / sum(x_v^2)`` and is a certified
    lower bound on q(G).  The numerator is summed as
    ``sum(x_v * (d(v) x_v + sum(x_u for u ~ v)))`` over the support v of x,
    each inner sum by ``itertools.compress`` under a byte selector of v's row
    (``graph._bit_selector``).  A 0/1 vector with support S takes the
    popcount route instead: ``sum(d(v) + |N(v) & S| for v in S)``.  The
    vector is read by builtins at C speed: the entry types as a set (with a
    per-entry test only for subclasses of int), the squares by ``map``, the
    support as a byte selector.
    """
    from fractions import Fraction

    if len(x) != g.n:
        raise BadParameters(f"vector length {len(x)} != n={g.n}")
    if not set(map(type, x)) <= {int} and not all(
        isinstance(t, int) and not isinstance(t, bool) for t in x
    ):
        raise BadParameters("rayleigh_quotient_exact needs integer entries")
    den = sum(map(mul, x, x))
    if den == 0:
        raise BadParameters("zero vector has no Rayleigh quotient")
    support = bytes(map(bool, x))
    if den == sum(x):  # t * t >= t, equal only at 0 and 1: popcount over the support
        mask = int(support[::-1].translate(_SUPPORT_DIGITS), 2)
        num = sum(compress(g._deg, support)) + sum(
            map(int.bit_count, map(mask.__and__, compress(g._rows, support)))
        )
    else:
        num = 0
        for t, d, row in compress(zip(x, g._deg, g._rows), support):
            num += t * (d * t + sum(compress(x, _bit_selector(row))))
    return Fraction(num, den)


def upper_bound_edge_count(g: Graph) -> Fraction:
    """Exact rational upper bound 2m/(n-1) + n - 2, valid for connected graphs."""
    from fractions import Fraction

    if g.n < 2:
        raise BadParameters("bound needs n >= 2")
    if not is_connected(g):
        raise BadParameters("edge-count bound requires a connected graph")
    return Fraction(2 * g.m, g.n - 1) + (g.n - 2)


def adjacent_pair_identity_defect(
    g: Graph, est: SpectralEstimate, u: int, v: int
) -> float:
    """Defect of the adjacent-pair eigenvector identity.

    For adjacent u, v and an exact Perron pair,
    ``(q - d(u) + 1)(f_u - f_v)`` equals
    ``(d(u) - d(v)) f_v + sum(f_s, s in N(u)\\N[v]) - sum(f_t, t in N(v)\\N[u])``;
    returns the absolute difference for the approximate pair.
    """
    if not g.has_edge(u, v):
        raise BadParameters(f"({u},{v}) must be an edge")
    f = est.f
    nu, nv = g.row(u), g.row(v)
    closed_u = nu | (1 << u)
    closed_v = nv | (1 << v)
    lhs = (est.q_hat - g.degree(u) + 1.0) * (f[u] - f[v])
    rhs = (g.degree(u) - g.degree(v)) * f[v]
    rhs += sum(f[s] for s in iter_bits(nu & ~closed_v))
    rhs -= sum(f[t] for t in iter_bits(nv & ~closed_u))
    return abs(lhs - rhs)
