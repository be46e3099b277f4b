"""Immutable simple graphs on dense integer vertices with bit-set adjacency.

A :class:`Graph` is a value: every edit returns a new instance, so graphs can
be shared freely across threads and reused as dictionary keys.  Vertices are
``0..n-1``.  Adjacency is stored as one Python integer bit mask per vertex,
which makes neighborhood intersections, connectivity sweeps and popcount-based
degree queries cheap even without numpy.

Constructors document their vertex-order contract so that partitions built on
top of them (see :mod:`hamq.families`) are reproducible:

* ``join(G, H)`` keeps G's vertices first (``0..n_G-1``), then H's.
* ``disjoint_union(G, H)`` and ``copies(k, G)`` lay blocks out left to right.

Structural queries work on whole row masks.  ``cut_vertex`` applies the
lowpoint criterion for articulation points (Hopcroft-Tarjan 1973) to subtree
masks of one depth-first search: every non-tree edge joins an ancestor to a
descendant, so a non-root p is a cut vertex exactly when some child subtree
has no outside neighbour but p.  That is O(n) big-integer operations, not one
reachability sweep per vertex.

Serialization supports the standard graph6 byte layout (bit-exact) and a
plain edge-list text format (first line ``"n m"``, then ``m`` lines ``"u v"``).
graph6 is read and written a word at a time: the body's six-bit groups are
base64 in another alphabet, so one byte translation and ``binascii`` turn the
body into one bit string; column j of the upper triangle is one slice of it.
The columns, each zero-padded to n, make one n x n string, and row v is the
head of v's own column followed by a strided slice down the later columns.
A plain edge list (ASCII digits, spaces and tabs, LF, CRLF or CR line ends,
every line blank or two tokens) is read in one bulk pass; any other input,
and any plain input with a fault, is read line by line.  A ``ParseError``
from either reader carries the byte offset in the text as given: leading
whitespace, blank lines, a ``>>graph6<<`` header and the UTF-8 width of
every character before the fault all count.
"""

from __future__ import annotations

import binascii
import re
from itertools import compress, repeat
from typing import Iterable, Iterator, Sequence

from .errors import BadParameters, ParseError

Edge = tuple[int, int]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_selector(mask: int) -> bytes:
    """Byte i is bit i of ``mask`` (0 or 1), up to its highest set bit: a
    selector for ``itertools.compress`` that picks the set positions at C
    speed."""
    return format(mask, "b")[::-1].encode().translate(_BIT_BYTES)


def normalize_edge(u: int, v: int) -> Edge:
    """Return the pair as ``(min, max)``; loops are rejected."""
    if u == v:
        raise BadParameters(f"loop at vertex {u} is not a simple edge")
    return (u, v) if u < v else (v, u)


def edge_set(pairs: Iterable[Sequence[int]]) -> frozenset[Edge]:
    """Normalize an iterable of vertex pairs into a canonical edge set."""
    return frozenset(normalize_edge(u, v) for u, v in pairs)


class Graph:
    """Undirected simple graph; immutable value semantics.

    Invariants (established at construction): no loops, symmetric adjacency,
    cached degrees equal to row popcounts, ``2m == sum(degrees)``.
    ``_connected`` is None until the first ``is_connected`` call fills it,
    so callers that each validate connectivity sweep the graph once.
    """

    __slots__ = ("n", "_rows", "_deg", "_m", "_connected")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 1:
            raise BadParameters(f"graph order must be >= 1, got {n}")
        rows = [0] * n
        m = 0
        for u, v in edges:
            if u == v:  # normalize_edge, inlined
                raise BadParameters(f"loop at vertex {u} is not a simple edge")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < n):
                raise BadParameters(f"edge ({u},{v}) out of range for n={n}")
            if rows[u] >> v & 1:
                raise BadParameters(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m += 1
        self.n = n
        self._rows = tuple(rows)
        self._deg = tuple(map(int.bit_count, rows))
        self._m = m
        self._connected = None

    @classmethod
    def _from_rows(cls, n: int, rows: Sequence[int]) -> "Graph":
        """Internal fast path; caller guarantees symmetry and no loops."""
        g = object.__new__(cls)
        g.n = n
        g._rows = tuple(rows)
        g._deg = tuple(map(int.bit_count, rows))
        g._m = sum(g._deg) // 2
        g._connected = None
        return g

    # -- basic queries ------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def degree(self, v: int) -> int:
        return self._deg[v]

    def degrees(self) -> tuple[int, ...]:
        return self._deg

    def row(self, v: int) -> int:
        """Adjacency bit mask of ``v``."""
        return self._rows[v]

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self._rows[u] >> v & 1)

    def edges(self) -> list[Edge]:
        """All edges as ``(u, v)`` with ``u < v``, lexicographically."""
        n = self.n
        out: list[Edge] = []
        for u, row in enumerate(self._rows):
            upper = compress(range(u + 1, n), _bit_selector(row >> (u + 1)))
            out += zip(repeat(u), upper)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


# -- constructors -----------------------------------------------------------


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    if n < 1:
        raise BadParameters(f"graph order must be >= 1, got {n}")
    full = (1 << n) - 1
    return Graph._from_rows(n, [full ^ (1 << v) for v in range(n)])


def join(g: Graph, h: Graph) -> Graph:
    """Join of two graphs: all cross edges added.

    Vertex order: g's vertices come first (0..g.n-1), then h's.
    """
    ng, nh = g.n, h.n
    g_ones = (1 << ng) - 1
    h_ones = ((1 << nh) - 1) << ng
    rows = [g.row(v) | h_ones for v in range(ng)]
    rows += [(h.row(v) << ng) | g_ones for v in range(nh)]
    return Graph._from_rows(ng + nh, rows)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; g's block first, then h's."""
    rows = list(g._rows) + [h.row(v) << g.n for v in range(h.n)]
    return Graph._from_rows(g.n + h.n, rows)


def copies(k: int, g: Graph) -> Graph:
    """k vertex-disjoint copies of g, laid out block by block."""
    if k < 1:
        raise BadParameters(f"need k >= 1 copies, got {k}")
    rows = []
    for i in range(k):
        shift = i * g.n
        rows += [g.row(v) << shift for v in range(g.n)]
    return Graph._from_rows(k * g.n, rows)


def delete_edges(g: Graph, edges: Iterable[Sequence[int]]) -> Graph:
    """Remove the given edges; raises BadParameters if a pair is absent."""
    rows = list(g._rows)
    for pair in edge_set(edges):
        u, v = pair
        if not (0 <= u and v < g.n):
            raise BadParameters(f"({u},{v}) out of range for n={g.n}")
        if not rows[u] >> v & 1:
            raise BadParameters(f"({u},{v}) is not an edge")
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Graph._from_rows(g.n, rows)


# -- structural queries -----------------------------------------------------


def min_degree(g: Graph) -> int:
    return min(g._deg)


def _degree_masks(deg: Sequence[int]) -> list[int]:
    """``ge[t]``, the mask of vertices of degree >= t, for t = 0..n.

    Degrees are at most n - 1, so ``ge[n] == 0``.  Cost: O(n) operations on
    n-bit integers.
    """
    n = len(deg)
    ge = [0] * (n + 1)
    for v, d in enumerate(deg):
        ge[d] |= 1 << v
    for t in range(n - 1, -1, -1):
        ge[t] |= ge[t + 1]
    return ge


def _reach_mask(rows: Sequence[int], start: int, allowed: int) -> int:
    """Bit mask of vertices reachable from start inside ``allowed``."""
    reached = (1 << start) & allowed
    frontier = reached
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            f ^= b
            nxt |= rows[b.bit_length() - 1]
        frontier = nxt & allowed & ~reached
        reached |= frontier
    return reached


def is_connected(g: Graph) -> bool:
    if g._connected is None:
        full = (1 << g.n) - 1
        g._connected = _reach_mask(g._rows, 0, full) == full
    return g._connected


def cut_vertex(g: Graph) -> int | None:
    """The smallest vertex v such that G - v is disconnected, or None.

    Graphs of order <= 2 have none: removing a vertex leaves at most one.

    On a connected graph this is the smallest articulation point, found by
    one depth-first search from vertex 0 over the row masks.  ``sub[c]`` is
    the vertex mask of c's subtree and ``nb[c]`` the union of its rows.  The
    root is a cut vertex iff it has two or more tree children; any other p
    is one iff some child c has ``nb[c] & ~sub[c] == 1 << p``, i.e. no edge
    leaves c's subtree except the tree edge to p (non-tree edges join
    ancestors to descendants, so nothing else can lie outside).  Cost: O(n)
    operations on n-bit integers.

    On a disconnected graph G - v stays disconnected for every v unless G
    is one isolated vertex u plus one connected component; the answer is 0,
    or 1 when u = 0.
    """
    n = g.n
    if n < 3:
        return None
    rows = g._rows
    full = (1 << n) - 1
    parent = [0] * n
    order = [0]
    stack = [0]
    unvisited = full ^ 1
    root_children = 0
    while stack and unvisited:
        nxt = rows[stack[-1]] & unvisited
        if nxt:
            b = nxt & -nxt
            unvisited ^= b
            c = b.bit_length() - 1
            parent[c] = stack[-1]
            root_children += len(stack) == 1
            order.append(c)
            stack.append(c)
        else:
            stack.pop()
    if unvisited:
        if len(order) == 1 and _reach_mask(rows, 1, full ^ 1) == full ^ 1:
            return 1
        return 0
    if root_children >= 2:
        return 0
    sub = [1 << v for v in range(n)]
    nb = list(rows)
    best = None
    for c in reversed(order[1:]):
        p = parent[c]
        s = sub[c]
        if p and nb[c] & ~s == 1 << p and (best is None or p < best):
            best = p
        sub[p] |= s
        nb[p] |= nb[c]
    return best


def component_count(g: Graph, removed: Iterable[int] = ()) -> int:
    """Number of connected components of G minus the ``removed`` vertices."""
    left = (1 << g.n) - 1
    for v in removed:
        left &= ~(1 << v)
    count = 0
    while left:
        left &= ~_reach_mask(g._rows, (left & -left).bit_length() - 1, left)
        count += 1
    return count


def is_2_connected(g: Graph) -> bool:
    """Connected with no cut vertex; graphs of order < 3 are not
    2-connected under this convention."""
    return g.n >= 3 and cut_vertex(g) is None


# -- graph6 and edge-list serialization --------------------------------------

_G6_HEADER = ">>graph6<<"
# graph6 writes six bits per byte as 63 + value; base64 writes the same six
# bits in its own alphabet, so binascii packs and unpacks them at C speed
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64)
_B64_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_G6_INVALID = re.compile(b"[^?-~]")  # a byte outside 63..126


def emit_graph6(g: Graph) -> str:
    """Encode in graph6 (no header), bit-exact per the standard byte layout."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    elif n <= 68719476735:
        head = "~~" + "".join(chr(63 + (n >> s & 63)) for s in (30, 24, 18, 12, 6, 0))
    else:
        raise BadParameters(f"graph6 cannot encode n={n}")
    rows = g._rows
    nbytes = (n * (n - 1) // 2 + 5) // 6
    # column j is the pairs (0, j), (1, j), ..., (j - 1, j), one bit each;
    # zero bits pad the body to whole base64 quanta of 24 bits
    bits = "".join(format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 24)
    raw = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    body = binascii.b2a_base64(raw, newline=False).translate(_B64_TO_G6)
    return head + body[:nbytes].decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record; raises ParseError with a byte offset.

    Whitespace around the record and a ``>>graph6<<`` header are skipped.
    Checks run in this order: the order field, the body length, the first
    byte outside 63..126, the padding bits; only then is anything decoded.
    """
    record = text.lstrip()
    skipped = text[: len(text) - len(record)]
    if record.startswith(_G6_HEADER):
        skipped += _G6_HEADER
        record = record[len(_G6_HEADER):]
    s = record.rstrip().encode()
    lead = len(skipped.encode())  # offsets count the bytes of text as given

    def check_bytes(start: int, stop: int) -> None:
        bad = _G6_INVALID.search(s, start, stop)
        if bad:
            raise ParseError(f"invalid graph6 byte {s[bad.start()]}", lead + bad.start())

    if not s:
        raise ParseError("empty graph6 record", lead)
    # the order field is one byte, or "~" and three, or "~~" and six
    if not s.startswith(b"~"):
        field = 0
    elif len(s) > 1 and not s.startswith(b"~~"):
        field = 1
    else:
        field = 2
    idx = (1, 4, 8)[field]
    if len(s) < idx:
        raise ParseError("truncated graph6 order field", lead + len(s))
    check_bytes(field, idx)
    n = 0
    for c in s[field:idx]:
        n = n << 6 | c - 63
    if n < 1:
        raise ParseError(f"unsupported graph6 order {n}", lead)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - idx != nbytes:
        raise ParseError(
            f"graph6 body has {len(s) - idx} bytes, expected {nbytes}", lead + idx
        )
    check_bytes(idx, len(s))
    if nbytes and (s[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise ParseError("nonzero padding bits", lead + len(s) - 1)
    # the body bits run over the upper triangle column by column: (0,1),
    # (0,2), (1,2), (0,3), ...; column j is the j bits from j(j-1)/2 on
    data = s[idx:].translate(_G6_TO_B64)
    raw = binascii.a2b_base64(data + b"A" * (-len(data) % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    # square[j*n + u] is the pair (u, j) for u < j and "0" from u = j on, so
    # row v is column v's own v bits, then the pairs (v, u) for u >= v read
    # down the later columns with stride n (the first is v's zero diagonal)
    zeros = "0" * n
    square = "".join([bits[j * (j - 1) // 2 : j * (j + 1) // 2] + zeros[j:] for j in range(n)])
    rows = [int((square[v * n : v * n + v] + square[v * n + v :: n])[::-1], 2) for v in range(n)]
    return Graph._from_rows(n, rows)


# a line's shape: digits to "1", spaces and tabs to " ", CR and LF to "\n";
# the lines of a plain edge list come in a few shapes, such as "1 111"
_PLAIN_BYTES = b"0123456789 \t\r\n"
_SHAPE = bytes.maketrans(_PLAIN_BYTES, b"1111111111  \n\n")


def parse_edgelist(text: str) -> Graph:
    """Parse the edge-list format: first line ``n m``, then m lines ``u v``.

    Plain input (ASCII digits, spaces and tabs, LF, CRLF or CR line ends,
    every line blank or two tokens) is read in one bulk pass: one check per
    distinct line shape (digits as "1", blanks as " "), one ``split``, one
    ``int`` per distinct token, a range check on the distinct values, one
    OR per endpoint, and one edge count, which falls short of m on a loop
    or a repeated edge.  Any fault there, an ``int`` refused for its length
    among them, and any other input (Unicode digits or spaces, signs,
    underscores, other line breaks) go to the line-by-line reader, which
    alone raises.  It checks each edge once, as its row bits are set, and
    keeps lines by index; the UTF-8 byte offset of a line is counted only
    when an error there is raised, so the first fault in line order is the
    one reported.
    """
    g = _parse_plain_edgelist(text)
    return g if g is not None else _parse_edgelist_lines(text)


def _parse_plain_edgelist(text: str) -> Graph | None:
    """The graph of a plain edge list with no fault, else None."""
    if not text.isascii():
        return None
    data = text.encode()
    shapes = set(data.translate(_SHAPE).split(b"\n"))
    # a byte plain input does not hold, or a line of other than 0 or 2 tokens
    if data.translate(None, _PLAIN_BYTES) or any(len(s.split()) not in (0, 2) for s in shapes):
        return None
    tokens = data.split()
    if not tokens:
        return None
    ends = tokens[2:]
    try:
        n, m = int(tokens[0]), int(tokens[1])
        value = {t: int(t) for t in set(ends)}
    except ValueError:  # a token over int()'s digit limit
        return None
    if n < 1 or len(ends) != 2 * m or max(value.values(), default=0) >= n:
        return None
    rows = [0] * n
    it = map(value.__getitem__, ends)
    for u, v in zip(it, it):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    # a new edge sets two bits, a loop one and a repeated line none, so the
    # bits add up to 2m only when every line is a new edge
    g = Graph._from_rows(n, rows)
    return g if g.m == m else None


def _parse_edgelist_lines(text: str) -> Graph:
    """The line-by-line edge-list reader; raises at the first fault."""
    raw = text.splitlines(keepends=True)

    def error(message: str, i: int) -> ParseError:
        return ParseError(message, len("".join(raw[:i]).encode("utf-8")))

    lines = []
    for i, ln in enumerate(raw):
        stripped = ln.strip()
        if stripped:
            lines.append((stripped, i))
    if not lines:
        raise ParseError("empty edge list", 0)
    header, hi = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise error("header must be 'n m'", hi)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise error("header must contain two integers", hi) from None
    if n < 1 or m < 0:
        raise error(f"invalid header n={n} m={m}", hi)
    if len(lines) - 1 != m:
        raise error(f"expected {m} edge lines, found {len(lines) - 1}", hi)
    rows = [0] * n
    for ln, i in lines[1:]:
        ps = ln.split()
        if len(ps) != 2:
            raise error("edge line must be 'u v'", i)
        try:
            u, v = int(ps[0]), int(ps[1])
        except ValueError:
            raise error("edge line must contain two integers", i) from None
        if u == v:
            raise error(f"loop at vertex {u}", i)
        if not (0 <= u < n and 0 <= v < n):
            raise error(f"edge ({u},{v}) out of range", i)
        if rows[u] >> v & 1:
            raise error(f"duplicate edge ({u},{v})", i)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._from_rows(n, rows)
