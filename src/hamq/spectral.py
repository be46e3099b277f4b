"""Signless Laplacian spectral radius with certified enclosures.

The signless Laplacian of a graph is ``Q = D + A`` (degree diagonal plus
adjacency).  Its largest eigenvalue ``q`` is approximated by power iteration
from the all-ones vector, which is strictly positive and therefore converges
to the Perron direction on a connected graph.  Two rigorous enclosures are
tracked along the way:

* ``lo``: the best Rayleigh quotient seen (a lower bound for any vector);
* ``hi``: the minimum over iterates of ``max_v (Qx)_v / x_v`` (a valid upper
  bound for a nonnegative irreducible matrix and positive ``x``).

Iteration stops once ``hi - lo <= tol`` and the eigen-equation residual of
the returned pair is at most ``10 * tol``; otherwise the best enclosure so
far is returned with ``converged=False``.

Exact arithmetic backs the certification paths: ``rayleigh_quotient_exact``
evaluates ``sum((x_u + x_v)^2 for uv in E) / sum(x_v^2)`` over the integers,
and ``upper_bound_edge_count`` gives the rational bound ``2m/(n-1) + n - 2``
valid for every connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import BadParameters
from .graph import Graph, is_connected, iter_bits

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class SpectralEstimate:
    """Approximate Perron pair with a certified enclosure of q(G).

    ``f`` is strictly positive with max entry 1; ``residual`` is
    ``max_v |(q_hat - d(v)) f_v - sum(f_u for u ~ v)|``; ``lo <= q <= hi``.
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


def perron_pair(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> SpectralEstimate:
    """Power iteration Perron pair with certified interval [lo, hi].

    Deterministic: all-ones start, fixed update rule.  Raises BadParameters on
    disconnected input (Perron positivity needs irreducibility); callers
    decompose into components themselves.
    """
    import numpy as np

    if not tol > 0:  # also rejects nan
        raise BadParameters(f"perron_pair needs tol > 0, got {tol!r}")
    n = g.n
    if n < 2:
        raise BadParameters("perron_pair needs n >= 2")
    if not is_connected(g):
        raise BadParameters("perron_pair requires a connected graph")
    if max_iter is None:
        max_iter = 200 * n + 10_000

    a = adjacency_matrix(g)
    deg = np.asarray(g.degrees(), dtype=np.float64)
    x = np.ones(n, dtype=np.float64)
    hi = np.inf
    best_ray = -np.inf
    converged = False
    iterations = 0
    residual = np.inf
    y = x
    for iterations in range(1, max_iter + 1):
        y = deg * x + a @ x
        hi = min(hi, float((y / x).max()))
        ray = float(x @ y) / float(x @ x)
        best_ray = max(best_ray, ray)
        # residual of the pair that will be returned (best_ray with this x);
        # the internal threshold is 5*tol so that both the residual and the
        # adjacent-pair identity defect (at most twice it) land within 10*tol
        residual = float(np.abs(y - best_ray * x).max()) / float(x.max())
        if hi - best_ray <= tol and residual <= 5.0 * tol:
            converged = True
            break
        x = y / float(y.max())

    scale = float(x.max())
    lo = best_ray
    hi = max(float(hi), lo)  # guard the enclosure against rounding crossover
    return SpectralEstimate(
        q_hat=best_ray,
        f=tuple(float(t) for t in x / scale),
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
    lower bound on q(G).
    """
    if len(x) != g.n:
        raise BadParameters(f"vector length {len(x)} != n={g.n}")
    for t in x:
        if not isinstance(t, int) or isinstance(t, bool):
            raise BadParameters("rayleigh_quotient_exact needs integer entries")
    den = sum(t * t for t in x)
    if den == 0:
        raise BadParameters("zero vector has no Rayleigh quotient")
    if all(t in (0, 1) for t in x):
        # indicator fast path: popcount over the support mask
        mask = 0
        for v, t in enumerate(x):
            if t:
                mask |= 1 << v
        num = sum(
            g.degree(v) + (g.row(v) & mask).bit_count() for v in iter_bits(mask)
        )
    else:
        num = 0
        for v in range(g.n):
            s = 0
            for u in iter_bits(g.row(v)):
                s += x[u]
            num += x[v] * (g.degree(v) * x[v] + s)
    return Fraction(num, den)


def upper_bound_edge_count(g: Graph) -> Fraction:
    """Exact rational upper bound 2m/(n-1) + n - 2, valid for connected graphs."""
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
