"""Signless Laplacian spectral radius with certified enclosures.

The signless Laplacian of a graph is ``Q = D + A`` (degree diagonal plus
adjacency), built once as a dense matrix so that a power step is one
matrix-vector product.  Its largest eigenvalue ``q`` is approximated by power
iteration from the all-ones vector, which has a positive component along the
Perron vector of a connected graph.  Two rigorous enclosures are computed at
every iterate ``x``:

* ``lo``: the best Rayleigh quotient seen (a lower bound for any vector);
* ``hi``: the minimum of ``max_v (Qx)_v / x_v`` over the positive iterates
  (the Collatz-Wielandt bound, valid for a nonnegative irreducible matrix
  and any positive ``x``).

The first 8 steps multiply by ``Q``; every later step multiplies by the
shifted matrix ``M = Q - sigma I`` with ``sigma = m / n`` (Golub and Van
Loan, *Matrix Computations*, 7.3), and both bounds read ``Q x = M x +
sigma x``.  Why the shift converges faster: the all-ones Rayleigh quotient
gives ``q >= 4m/n = 4 sigma`` and every eigenvalue of ``Q`` is ``>= 0``, so
``M`` contracts the non-Perron components by at most ``max(q2 - sigma,
sigma) / (q - sigma) <= max(q2 / q, 1/3)``.  A component of eigenvalue ``t``
shrinks slower under ``M`` than under ``Q`` only when ``t < sigma q /
(2q - sigma) <= q / 7``, and the unshifted first block has already scaled
those by ``(t / q)^8 < 7^-8`` against the Perron component.  Without that
block, at tol 1e-10, P_3 took 20 steps against the unshifted 2 and the star
K_{1,40} 9 against 2 (the shift keeps the eigenvalue 0 of a bipartite graph,
which one step on ``Q`` removes), and K_30 with a pendant P_10 took 45
against 29 (tiny Perron entries along the path let small eigenvalues hold
the Collatz-Wielandt bound back); with it they take 2, 2 and 23.  The
first block bounds the slow components, not the step count: ``M`` has
negative diagonal entries where a degree is below ``sigma``, so an iterate
may have entries <= 0 where the Perron entries are tiny, and ``hi`` is
taken only from positive iterates.  On K_20 with a pendant P_40, whose
Perron entries fall to about 1e-63 along the path, that costs 65 steps
against the unshifted 29.

The steps are taken 8 at a time, without normalizing, and both bounds and
the residual of all 8 iterates come from a few reductions along the rows of
the block.  The iteration stops at the first iterate that is positive, whose
running enclosure ``hi - lo`` is within ``tol`` and whose eigen-equation
residual with ``lo`` is at most ``5 * tol``: the iterate where a loop
checking after every step would stop.  At the step cap of ``200 n + 10000``
power steps the last iterate and the best enclosure so far are returned with
``converged=False``.

``perron_pairs`` runs that loop over a stream of graphs, a stack at a
time.  At the orders the suites use, a block costs more in numpy calls than
in arithmetic: a stack of B graphs of order n is one ``(B, n, n)`` array of
``Q`` matrices, built with one ``unpackbits``, each power step is one
stacked ``matmul`` into a ``(9, B, n)`` buffer, and every check of a block
is one reduction over its ``(8, B, n)`` iterates, which gives each graph its
own shift, positivity, enclosure, residual, stop iterate and step cap.  A
graph that stops leaves the stack, and the others go on.  A stack is cut
from a run of consecutive graphs of one exact order and never padded to a
common order, so each graph meets the arithmetic it meets alone: a stacked
``matmul`` runs one BLAS ``gemv`` per graph, every reduction runs along one
graph's row, and every other operation is elementwise.  So a graph's
estimate equals (``==``, every field) its one-graph estimate, whatever
stack it rides in; padding to a common order instead changed the ``gemv``
rounding on most qbound-range graphs.  A stack holds at most ``65536``
float64 matrix entries (512 KiB): 7 graphs at n = 92, 26 at n = 50, and one
from n = 256 up.  The cap is a fixed constant, and only one stack is drawn
from the stream at a time, so the memory a call takes does not grow with
the number of graphs it is fed (an uncapped stack of a suite's cases raised
its peak memory by 7%), while small stacks already save most of the
per-call cost: on class-2 members at n = 92 (2 cores), a graph took
2.3-2.7 times less time in a stack of 7 than alone, 2.7-3.4 in a stack of
12, and 2.2-2.5 in a stack of 32.

Exact arithmetic backs the certification paths: ``rayleigh_quotient_exact``
evaluates ``sum((x_u + x_v)^2 for uv in E) / sum(x_v^2)`` over the integers,
and ``upper_bound_edge_count`` gives the rational bound ``2m/(n-1) + n - 2``
valid for every connected graph.
"""

from __future__ import annotations

from itertools import compress, groupby, islice
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import BadParameters
from .graph import Graph, _bit_selector, is_connected, iter_bits

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

DEFAULT_TOL = 1e-10
# power steps taken between two looks at the iterates
_BLOCK = 8
# float64 matrix entries one perron_pairs stack may hold (512 KiB)
_STACK_ENTRIES = 65_536
# the 0/1 bytes of a support selector as the digits of a base-2 literal
_SUPPORT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class SpectralEstimate(NamedTuple):
    """Approximate Perron pair with a certified enclosure of q(G).

    ``f`` is strictly positive with max entry 1; ``residual`` is
    ``max_v |(q_hat - d(v)) f_v - sum(f_u for u ~ v)|``; ``lo <= q <= hi``.
    ``iterations`` counts the power steps up to the returned iterate (the
    steps taken after it in its block of 8 are not counted) and is at most
    the step cap ``200 n + 10000``.
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


def adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """Dense 0/1 adjacency matrices of same-order graphs as a ``(B, n, n)``
    float64 stack (row-major, vertex order preserved)."""
    import numpy as np

    n = graphs[0].n
    nbytes = (n + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for g in graphs for row in g._rows)
    bits = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(len(graphs) * n, nbytes),
        axis=1,
        bitorder="little",
    )[:, :n]
    return bits.astype(np.float64).reshape(len(graphs), n, n)


def perron_pair(g: Graph, tol: float = DEFAULT_TOL) -> SpectralEstimate:
    """Shifted power iteration Perron pair with certified interval [lo, hi]:
    the one estimate ``perron_pairs([g], tol)`` yields.

    Deterministic: all-ones start, one block of 8 steps on ``Q``, then blocks
    of 8 on ``Q - (m/n) I`` (see the module docstring for the shift, its
    convergence and the block checks).  Returns the first iterate that is
    positive, whose running enclosure ``hi - lo`` is within ``tol`` and whose
    residual is at most ``5 * tol``: the iterate where a loop checking every
    step would stop.  ``f`` and ``residual`` belong to that iterate, and
    ``iterations`` counts the power steps up to it, at most ``200 n +
    10000``; at that cap the last iterate and the best enclosure so far are
    returned with ``converged=False``.  The estimate is the one ``g`` gets in
    any ``perron_pairs`` stack.  Raises BadParameters for a ``tol`` that is
    not finite and positive, and for disconnected input (Perron positivity
    needs irreducibility); callers decompose into components themselves.
    """
    return next(perron_pairs([g], tol))


def perron_pairs(graphs: Iterable[Graph], tol: float = DEFAULT_TOL) -> Iterator[SpectralEstimate]:
    """``perron_pair`` of every graph, in input order, a stack at a time.

    Lazy: each run of consecutive graphs of one order is read and solved in
    stacks of at most 65,536 // n² graphs (at least one), one stack in
    memory at a time (see the module docstring).  Each estimate equals the
    graph's ``perron_pair``, whatever stack it rides in.  ``tol`` is checked
    at the call, and each graph before any power step of its stack, with
    ``perron_pair``'s BadParameters messages.
    """
    if not 0 < tol < float("inf"):  # also rejects nan
        raise BadParameters(f"perron_pair needs a finite tol > 0, got {tol!r}")
    return _stacked(graphs, tol)


def _stacked(graphs: Iterable[Graph], tol: float) -> Iterator[SpectralEstimate]:
    """The estimates of checked graphs, each stack read only when the last
    one's estimates are taken."""
    for n, run in groupby(map(_perron_input, graphs), key=lambda g: g.n):
        size = max(1, _STACK_ENTRIES // (n * n))
        while stack := list(islice(run, size)):
            yield from _perron_stack(stack, tol)


def _perron_input(g: Graph) -> Graph:
    """``g``, once it is checked to be a graph ``perron_pair`` can solve."""
    if g.n < 2:
        raise BadParameters("perron_pair needs n >= 2")
    if not is_connected(g):
        raise BadParameters("perron_pair requires a connected graph")
    return g


def _perron_stack(graphs: list[Graph], tol: float) -> list[SpectralEstimate]:
    """The power loop over a stack of valid graphs of one order."""
    import numpy as np

    n = graphs[0].n
    step_cap = 200 * n + 10_000  # a multiple of _BLOCK
    q = adjacency_stack(graphs)
    # Q = A + D: A has a zero diagonal, and its row sums are the degrees
    q.reshape(len(graphs), -1)[:, :: n + 1] = q.sum(axis=2)
    sigma = np.array([g.m / n for g in graphs])  # each graph's shift
    shift = 0.0  # the first block runs on Q itself, every later one on Q - (m/n) I
    left = list(range(len(graphs)))  # the graphs still in the stack
    out: dict[int, SpectralEstimate] = {}
    buf = np.empty((_BLOCK + 1, len(graphs), n))  # row j + 1 is the matrix times row j
    buf[0] = 1.0
    x, image = buf[:-1], buf[1:]  # the block's iterates and their images
    hi, best_ray = np.inf, -np.inf
    # a row that is not positive gives no Collatz-Wielandt bound, and its
    # ratios may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        for done in range(0, step_cap, _BLOCK):
            for j in range(_BLOCK):
                np.matmul(q, buf[j, ..., None], out=buf[j + 1, ..., None])
            # Q x = image + shift x, so the ratios and quotients of Q are those
            # of the iterated matrix plus the shift
            positive = x.min(axis=2) > 0
            rows_hi = np.where(positive, (image / x).max(axis=2), np.inf) + shift
            rows_ray = (x * image).sum(axis=2) / (x * x).sum(axis=2) + shift
            run_hi = np.minimum(np.minimum.accumulate(rows_hi), hi)
            run_ray = np.maximum(np.maximum.accumulate(rows_ray), best_ray)
            last = done + _BLOCK == step_cap
            close = positive & (run_hi - run_ray <= tol)
            if close.any() or last:
                # residual of each pair that could be returned (the running
                # best quotient with x scaled to max entry 1); the threshold
                # is 5*tol so that both the residual and the adjacent-pair
                # identity defect (at most twice it) land within 10*tol
                top = x.max(axis=2)  # > 0: x keeps a positive Perron component
                residual = np.abs(image - (run_ray - shift)[..., None] * x).max(axis=2) / top
                stop = close & (residual <= 5.0 * tol)
                stopped = stop.any(axis=0).nonzero()[0].tolist()
                finished = list(range(len(left))) if last else stopped
                first = stop.argmax(axis=0).tolist()  # 0 where none stops
                for b in finished:
                    j = first[b] if stop[first[b], b] else _BLOCK - 1
                    lo = float(run_ray[j, b])
                    out[left[b]] = SpectralEstimate(
                        q_hat=lo,
                        f=tuple((x[j, b] / top[j, b]).tolist()),
                        residual=float(residual[j, b]),
                        lo=lo,
                        # guard the enclosure against rounding crossover
                        hi=max(float(run_hi[j, b]), lo),
                        iterations=done + j + 1,
                        converged=bool(stop[j, b]),
                        tol=tol,
                    )
                if len(finished) == len(left):
                    break
                if finished:  # the others go on in a smaller stack
                    keep = [b for b in range(len(left)) if b not in finished]
                    left = [left[b] for b in keep]
                    q, buf, sigma = q[keep], buf[:, keep], sigma[keep]
                    run_hi, run_ray = run_hi[:, keep], run_ray[:, keep]
                    x, image = buf[:-1], buf[1:]
            hi, best_ray = run_hi[-1], run_ray[-1]
            np.divide(buf[_BLOCK], buf[_BLOCK].max(axis=1, keepdims=True), out=buf[0])
            if done == 0:
                q.reshape(len(left), -1)[:, :: n + 1] -= sigma[:, None]
            shift = sigma
    return [out[i] for i in range(len(graphs))]


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
