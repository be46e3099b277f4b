"""Graph value type: constructors, edits, queries, serialization."""

import pytest

from hamq.errors import BadParameters, ParseError
from hamq.graph import (
    Graph,
    _parse_edgelist_lines,
    _parse_plain_edgelist,
    _reach_mask,
    complete,
    component_count,
    copies,
    cut_vertex,
    delete_edges,
    disjoint_union,
    emit_graph6,
    is_2_connected,
    is_connected,
    join,
    min_degree,
    parse_edgelist,
    parse_graph6,
)
from hamq.families import build_S, build_T
from hamq.rng import SplitMix64, gnp

from conftest import (
    add_edges,
    bitwise_emit_graph6,
    bitwise_parse_graph6,
    cycle,
    emit_edgelist,
    path_graph,
    relabel,
)


def test_complete_small():
    g = complete(1)
    assert g.n == 1 and g.m == 0
    g = complete(4)
    assert g.m == 6
    assert all(g.degree(v) == 3 for v in range(4))


def test_complete_edge_count_formula():
    assert complete(22).m == 22 * 21 // 2 == 231


def test_handshake_identity():
    rng = SplitMix64(5)
    for _ in range(50):
        g = gnp(2 + rng.next_below(15), rng.next_float(), rng)
        assert sum(g.degrees()) == 2 * g.m


def test_join_identities():
    assert join(complete(2), complete(1)) == complete(3)
    s62 = join(complete(2), disjoint_union(complete(3), complete(1)))
    assert s62.m == 12
    p3 = join(complete(1), copies(2, complete(1)))
    assert p3.m == 2 and sorted(p3.degrees()) == [1, 1, 2]


def test_join_degree_law():
    g, h = cycle(5), path_graph(4)
    j = join(g, h)
    for v in range(g.n):
        assert j.degree(v) == g.degree(v) + h.n
    for v in range(h.n):
        assert j.degree(g.n + v) == h.degree(v) + g.n


def test_disjoint_union_and_copies():
    g = disjoint_union(complete(1), complete(1))
    assert g.n == 2 and g.m == 0
    g = copies(3, complete(2))
    assert g.n == 6 and g.m == 3
    g = disjoint_union(complete(5), complete(1))
    assert g.n == 6 and g.m == 10 and not is_connected(g)


def test_is_connected_sweeps_a_graph_once(monkeypatch):
    import hamq.graph

    sweeps = []
    monkeypatch.setattr(hamq.graph, "_reach_mask",
                        lambda *args: sweeps.append(args) or _reach_mask(*args))
    rng = SplitMix64(17)
    graphs = [gnp(9, 0.2, rng) for _ in range(40)] + [Graph(6, [(0, 1), (2, 3)]), complete(4)]
    first = [is_connected(g) for g in graphs]
    assert len(sweeps) == len(graphs)
    assert [is_connected(g) for g in graphs] == first  # the cached answers
    assert len(sweeps) == len(graphs)
    full = [(1 << g.n) - 1 for g in graphs]
    assert first == [_reach_mask(g._rows, 0, f) == f for g, f in zip(graphs, full)]
    assert True in first and False in first


def test_delete_edges():
    p3 = delete_edges(complete(3), [(0, 1)])
    assert p3.m == 2 and not p3.has_edge(0, 1)
    assert delete_edges(complete(5), []) == complete(5)
    with pytest.raises(BadParameters, match="is not an edge"):
        delete_edges(p3, [(0, 1)])


def test_delete_then_add_roundtrip():
    rng = SplitMix64(11)
    for _ in range(30):
        g = gnp(3 + rng.next_below(10), 0.5, rng)
        if g.m == 0:
            continue
        edges = g.edges()
        drop = [edges[rng.next_below(len(edges))]]
        assert add_edges(delete_edges(g, drop), drop) == g


def test_relabel_preserves_structure():
    g = cycle(6)
    rng = SplitMix64(3)
    h = relabel(g, rng.permutation(6))
    assert sorted(h.degrees()) == sorted(g.degrees())
    assert h.m == g.m


def test_min_degree():
    s62 = join(complete(2), disjoint_union(complete(3), complete(1)))
    assert min_degree(s62) == 2


def test_two_connectivity():
    assert not is_2_connected(path_graph(4))
    assert is_2_connected(cycle(5))
    assert is_2_connected(complete(3))
    assert not is_2_connected(complete(2))
    assert not is_2_connected(disjoint_union(cycle(3), cycle(3)))


def _brute_cut_vertex(g):
    """Smallest v with G - v disconnected, by rebuilding G - v."""
    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        pos = {u: i for i, u in enumerate(keep)}
        rest = Graph(g.n - 1, [(pos[a], pos[b]) for a, b in g.edges() if v not in (a, b)])
        if not is_connected(rest):
            return v
    return None


def _sweep_cut_vertex(g):
    """Reference: one reachability sweep of G - v per vertex v."""
    full = (1 << g.n) - 1
    for v in range(g.n):
        allowed = full ^ (1 << v)
        if _reach_mask(g._rows, 1 if v == 0 else 0, allowed) != allowed:
            return v
    return None


def test_cut_vertex_examples():
    assert cut_vertex(path_graph(3)) == 1
    assert cut_vertex(join(complete(1), copies(3, complete(1)))) == 0  # star, hub 0
    assert cut_vertex(path_graph(2)) is None
    assert cut_vertex(complete(1)) is None
    assert cut_vertex(cycle(6)) is None


def test_cut_vertex_small_orders():
    assert cut_vertex(complete(1)) is None
    assert cut_vertex(complete(2)) is None
    assert cut_vertex(copies(2, complete(1))) is None
    assert cut_vertex(complete(3)) is None
    assert cut_vertex(path_graph(3)) == 1
    assert cut_vertex(Graph(3, [(0, 2), (1, 2)])) == 2
    assert cut_vertex(disjoint_union(complete(1), complete(2))) == 1
    assert cut_vertex(disjoint_union(complete(2), complete(1))) == 0
    assert cut_vertex(copies(3, complete(1))) == 0


def _blocks(rng, sizes, p):
    """Blocks of the given sizes chained left to right, each sharing its
    first vertex with the previous block's last; every block is a cycle
    through its vertices plus gnp(p) chords, hence 2-connected."""
    edges, shared, start = set(), [], 0
    for i, size in enumerate(sizes):
        block = list(range(start, start + size))
        edges |= {tuple(sorted((block[j], block[(j + 1) % size]))) for j in range(size)}
        for a in range(size):
            for b in range(a + 2, size):
                if rng.next_float() < p:
                    edges.add((block[a], block[b]))
        if i:
            shared.append(start)
        start += size - 1
    return Graph(start + 1, edges), shared


def _relabel_with(rng, g, fixed):
    """A random relabeling that sends each key of ``fixed`` to its value."""
    perm = rng.permutation(g.n)
    for v, target in fixed.items():
        w = perm.index(target)
        perm[v], perm[w] = target, perm[v]
    return relabel(g, perm), perm


def test_cut_vertex_two_dense_blocks_at_paper_orders():
    rng = SplitMix64(41)
    for n in (92, 270):
        g, (shared,) = _blocks(rng, [n // 2 + 1, n - n // 2], 0.6)
        assert g.n == n
        for target in (0, n // 2, n - 1):
            h, _ = _relabel_with(rng, g, {shared: target})
            assert cut_vertex(h) == target == _sweep_cut_vertex(h)
            assert not is_2_connected(h)


def test_cut_vertex_chain_of_blocks_returns_the_smallest():
    rng = SplitMix64(43)
    g, shared = _blocks(rng, [9, 3, 12, 5, 8], 0.5)
    assert cut_vertex(g) == min(shared) == _sweep_cut_vertex(g)
    for _ in range(20):
        h, perm = _relabel_with(rng, g, {})
        assert cut_vertex(h) == min(perm[v] for v in shared) == _sweep_cut_vertex(h)


def test_cut_vertex_path_and_cycle_at_depth_652():
    n = 652
    assert cut_vertex(path_graph(n)) == 1
    assert cut_vertex(cycle(n)) is None and is_2_connected(cycle(n))
    perm = SplitMix64(47).permutation(n)
    inner = [perm[v] for v in range(1, n - 1)]
    assert cut_vertex(relabel(path_graph(n), perm)) == min(inner)
    assert cut_vertex(relabel(cycle(n), perm)) is None


def test_cut_vertex_isolated_vertices_plus_a_clique():
    # G - v is connected only when v is the isolated vertex of K1 + K_{n-1}
    for n in (3, 4, 10, 92):
        two = copies(2, complete(1))
        assert cut_vertex(disjoint_union(complete(1), complete(n - 1))) == 1
        assert cut_vertex(disjoint_union(complete(n - 1), complete(1))) == 0
        assert cut_vertex(disjoint_union(two, complete(n - 2))) == 0
        assert cut_vertex(disjoint_union(complete(n - 2), two)) == 0


def test_component_count():
    assert component_count(complete(5)) == 1
    assert component_count(complete(5), [0, 3]) == 1
    assert component_count(complete(5), range(5)) == 0
    assert component_count(path_graph(7), [2, 4]) == 3
    assert component_count(path_graph(7), [0, 6]) == 1
    assert component_count(disjoint_union(cycle(3), cycle(4))) == 2
    # the hub set Y of an S host cuts off each of the k - 1 vertices of X
    # from Z; for a T host it cuts the clique on X off from Z
    s, t = build_S(12, 3), build_T(12, 3)
    assert component_count(s.graph, s.Y) == 3
    assert component_count(t.graph, t.Y) == 2
    assert component_count(s.graph, s.Y[:2]) == 1


def test_cut_vertex_matches_brute_force():
    rng = SplitMix64(31)
    for _ in range(1000):
        n = 2 + rng.next_below(13)
        g = gnp(n, 0.1 + 0.5 * rng.next_float(), rng)
        cut = cut_vertex(g)
        assert cut == _brute_cut_vertex(g) == _sweep_cut_vertex(g)
        assert is_2_connected(g) == (n >= 3 and is_connected(g) and cut is None)


def test_graph6_known_encodings():
    assert emit_graph6(complete(1)) == "@"
    assert emit_graph6(complete(3)) == "Bw"
    assert emit_graph6(complete(4)) == "C~"


def test_graph6_roundtrip_randomized():
    # randomized generator as the oracle: decode(encode(g)) must equal g
    rng = SplitMix64(23)
    for _ in range(1000):
        n = 1 + rng.next_below(30)
        g = gnp(n, rng.next_float(), rng)
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_large_order_form():
    g = complete(100)
    assert parse_graph6(emit_graph6(g)) == g
    assert emit_graph6(g).startswith("~")


def test_graph6_header_and_errors():
    g = cycle(5)
    assert parse_graph6(">>graph6<<" + emit_graph6(g)) == g
    with pytest.raises(ParseError):
        parse_graph6("B")  # truncated body
    with pytest.raises(ParseError) as err:
        parse_graph6("B" + chr(20))  # byte below printable range
    assert err.value.offset == 1


def test_graph6_padding_errors_in_large_order_form():
    # n = 63: 1953 body bits, so the last byte carries 3 padding bits
    for g in (Graph(63), complete(63)):
        enc = emit_graph6(g)
        assert enc.startswith("~")
        bad = enc[:-1] + chr(ord(enc[-1]) + 1)  # sets the lowest padding bit
        with pytest.raises(ParseError) as err:
            parse_graph6(bad)
        assert err.value.offset == len(enc) - 1
        # an invalid byte is reported at its own offset, ahead of the padding
        with pytest.raises(ParseError) as err:
            parse_graph6(bad[:6] + chr(20) + bad[7:])
        assert err.value.offset == 6


def test_edgelist_roundtrip_and_errors():
    assert parse_edgelist("3 2\n0 1\n1 2") == path_graph(3)
    g = gnp(9, 0.4, SplitMix64(2))
    assert parse_edgelist(emit_edgelist(g)) == g
    with pytest.raises(ParseError):
        parse_edgelist("3 2\n0 1")
    with pytest.raises(ParseError):
        parse_edgelist("3 1\n0 3")
    with pytest.raises(ParseError):
        parse_edgelist("3 2\n0 1\n0 1")


def test_edgelist_error_messages_and_offsets():
    # every message and byte offset of the reader, one case per check; the
    # offset counts utf-8 bytes of skipped blank lines too (\xa0 is two)
    cases = [
        ("", "empty edge list", 0),
        ("\n  \n", "empty edge list", 0),
        ("1 2 3\n", "header must be 'n m'", 0),
        ("\n\n3 x\n", "header must contain two integers", 2),
        ("0 0\n", "invalid header n=0 m=0", 0),
        ("3 2\n0 1\n", "expected 2 edge lines, found 1", 0),
        ("3 1\n0 1 2\n", "edge line must be 'u v'", 4),
        ("3 1\n0 a\n", "edge line must contain two integers", 4),
        ("3 1\n2 2\n", "loop at vertex 2", 4),
        ("3 1\n0 3\n", "edge (0,3) out of range", 4),
        ("3 1\n-1 2\n", "edge (-1,2) out of range", 4),
        ("3 2\n0 1\n1 0\n", "duplicate edge (1,0)", 8),
        ("3 2\n\xa0\n0 1\n\r\n1 1\n", "loop at vertex 1", 13),
        # int() reads Unicode digits; U+0661 (ARABIC-INDIC ONE) is two bytes
        ("3 2\n0 \u0661\n\u0661 1\n", "loop at vertex 1", 9),
    ]
    for text, message, offset in cases:
        with pytest.raises(ParseError) as err:
            parse_edgelist(text)
        assert str(err.value) == f"{message} (byte offset {offset})"
        assert err.value.offset == offset


def test_edgelist_reader_matches_the_constructor():
    rng = SplitMix64(23)
    for _ in range(30):
        n = 1 + rng.next_below(40)
        edges = gnp(n, rng.next_float(), rng).edges()
        lines = [f"{v} {u}" if rng.next_below(2) else f"{u} {v}" for u, v in edges]
        g = parse_edgelist("\n".join([f"{n} {len(edges)}", *lines]) + "\n")
        assert g == Graph(n, edges)
        assert g.m == len(edges) and g.degrees() == Graph(n, edges).degrees()


def test_edgelist_faults_go_to_the_line_reader():
    # the bulk pass checks range, loops and duplicates over the whole list,
    # and int() refuses a string of more than 4,300 digits, so each fault
    # here goes back to the line reader, which names the first in line order
    huge = "1" * 5000
    cases = [
        # a duplicate on line 3 ahead of a loop on line 5
        ("4 4\n0 1\n1 0\n2 3\n2 2\n", "duplicate edge (1,0)", 8),
        ("4 3\n2 2\n0 9\n0 1\n", "loop at vertex 2", 4),
        ("4 3\n0 9\n2 2\n0 1\n", "edge (0,9) out of range", 4),
        ("4 3\n0 1\n0 1\n0 9\n", "duplicate edge (0,1)", 8),
        ("4 3\n0 1\n1 2 3\n0 9\n", "edge line must be 'u v'", 8),
        ("4 3\n0 1\n3\n1 2 3\n", "edge line must be 'u v'", 8),
        # six numbers for the header's three edges, on two lines
        ("4 3\n0 1 2\n3 1 3\n", "expected 3 edge lines, found 2", 0),
        # a lone surrogate has no UTF-8 form, so only the line reader sees it
        ("3 1\n0 1\ud800\n", "edge line must contain two integers", 4),
        (f"3 1\n0 {huge}\n", "edge line must contain two integers", 4),
        (f"3 2\n0 1\n{'0' * 4999}2 1\n", "edge line must contain two integers", 8),
        (f"{huge} 1\n0 1\n", "header must contain two integers", 0),
    ]
    for text, message, offset in cases:
        assert _parse_plain_edgelist(text) is None
        with pytest.raises(ParseError) as err:
            parse_edgelist(text)
        assert str(err.value) == f"{message} (byte offset {offset})"


def test_edgelist_line_forms_read_alike():
    # CRLF, CR, tabs, blank lines and leading zeros are plain input and take
    # the bulk pass; Unicode spaces and digits take the line reader; all read
    # the graph the LF form does
    rng = SplitMix64(31)
    for n in (1, 2, 9, 40, 92):
        g = gnp(n, 0.3, rng)
        plain = emit_edgelist(g)
        lines = plain.splitlines()
        forms = [
            ("plain", plain),
            ("plain", plain.rstrip("\n")),
            ("plain", plain.replace("\n", "\r\n")),
            ("plain", plain.replace("\n", "\r")),
            ("plain", "\t" + plain.replace(" ", " \t ").replace("\n", "\t\n")),
            ("plain", "\n \n" + "\n\n\t\n".join(lines) + "\n \n"),
            ("plain", "\n".join(" ".join(t.zfill(7) for t in ln.split()) for ln in lines)),
            ("lines", plain.replace(" ", "\xa0")),
            ("lines", plain.replace(" ", " \u0660")),
            ("lines", plain.replace("\n", "\u2028")),
        ]
        for kind, text in forms:
            assert (_parse_plain_edgelist(text) is not None) == (kind == "plain")
            assert parse_edgelist(text) == _parse_edgelist_lines(text) == g


def test_edgelist_bulk_pass_agrees_with_the_line_reader():
    # random edits of small plain lists: where the line reader raises, the
    # bulk pass returns None and parse_edgelist raises the same error; where
    # it reads a graph, the bulk pass reads the same one
    rng = SplitMix64(37)
    faults = 0
    for _ in range(400):
        n = 1 + rng.next_below(8)
        g = gnp(n, rng.next_float(), rng)
        lines = emit_edgelist(g).splitlines()
        for _ in range(1 + rng.next_below(3)):
            if not lines:
                break
            i = rng.next_below(len(lines))
            kind = rng.next_below(6)
            if kind == 0:
                lines.insert(i, lines[i])
            elif kind == 1:
                del lines[i]
            elif kind == 2:
                lines[i] += f" {rng.next_below(n + 2)}"
            elif kind == 3:
                lines[i] = " ".join(lines[i].split()[:1])
            elif kind == 4:
                v = rng.next_below(n + 2)
                lines.insert(i + 1, f"{v} {v if rng.next_below(2) else n}")
            else:
                lines[i] = " ".join(reversed(lines[i].split()))
        if lines and rng.next_below(2):
            lines[0] = f"{n} {len(lines) - 1}"  # so the deeper checks are reached
        text = "\n".join(lines)
        fast = _parse_plain_edgelist(text)
        try:
            slow = _parse_edgelist_lines(text)
        except ParseError as exc:
            faults += 1
            assert fast is None
            with pytest.raises(ParseError) as err:
                parse_edgelist(text)
            assert (str(err.value), err.value.offset) == (str(exc), exc.offset)
        else:
            assert fast == slow == parse_edgelist(text)
    assert faults > 100 and 400 - faults > 30


def test_constructor_rejects_bad_input():
    with pytest.raises(BadParameters):
        Graph(0)
    with pytest.raises(BadParameters):
        Graph(3, [(0, 0)])
    with pytest.raises(BadParameters):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(BadParameters):
        Graph(3, [(0, 5)])


def test_constructor_messages_keep_their_order_of_checks():
    # a loop is reported before its range, a reversed pair in its normal form
    cases = [
        ([(5, 5)], "loop at vertex 5 is not a simple edge"),
        ([(-1, -1)], "loop at vertex -1 is not a simple edge"),
        ([(4, 1)], "edge (1,4) out of range for n=3"),
        ([(2, -1)], "edge (-1,2) out of range for n=3"),
        ([(0, 1), (1, 0)], "duplicate edge (0,1)"),
    ]
    for edges, message in cases:
        with pytest.raises(BadParameters) as err:
            Graph(3, edges)
        assert str(err.value) == message


def test_edges_lists_the_upper_rows_in_lexicographic_order():
    rng = SplitMix64(29)
    for _ in range(40):
        n = 1 + rng.next_below(70)
        g = gnp(n, rng.next_float(), rng)
        want = [(u, v) for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v)]
        assert g.edges() == want
        assert Graph(n, [(v, u) for u, v in reversed(want)]) == g
    assert complete(1).edges() == [] and Graph(5).edges() == []
    assert complete(9).edges() == [(u, v) for u in range(9) for v in range(u + 1, 9)]


def test_graph_values_are_hashable_and_immutable():
    a, b = cycle(4), cycle(4)
    assert a == b and hash(a) == hash(b) and a is not b
    assert len({a, b}) == 1


def test_graph6_against_independent_reference():
    nx = pytest.importorskip("networkx")
    rng = SplitMix64(29)
    for _ in range(200):
        n = 1 + rng.next_below(40)
        g = gnp(n, rng.next_float(), rng)
        ours = emit_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        ref = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == ref
        assert nx.from_graph6_bytes(ours.encode()).number_of_edges() == g.m
        assert parse_graph6(ref) == g


def test_graph6_order_form_boundaries():
    # 62 is the last short-form order; 63 switches to the 3-byte form
    for n in (61, 62, 63, 64, 258047 // 1000):
        g = path_graph(n)
        enc = emit_graph6(g)
        assert parse_graph6(enc) == g
        assert enc.startswith("~") == (n > 62)


def _assert_graph6_matches_the_arbiters(g):
    enc = emit_graph6(g)
    assert enc == bitwise_emit_graph6(g)
    assert parse_graph6(enc) == bitwise_parse_graph6(enc) == g
    assert parse_graph6(enc)._rows == g._rows


def test_graph6_matches_the_bitwise_arbiters_on_every_small_graph(small_connected):
    for graphs in small_connected.values():
        for g in graphs:
            _assert_graph6_matches_the_arbiters(g)


def test_graph6_matches_the_bitwise_arbiters_on_seeded_gnp():
    # every short-form order, both sides of the switch to the 3-byte form
    # at 63, and the paper orders 92, 270 and 652
    rng = SplitMix64(59)
    for n in [*range(1, 71), 92, 270, 652]:
        for p in (0.0, 0.5, 1.0):
            _assert_graph6_matches_the_arbiters(gnp(n, p, rng))


def test_graph6_error_messages_and_offsets():
    # every message of the reader, one case per check; the offset counts the
    # utf-8 bytes of the text as given: skipped whitespace and blank lines,
    # the header, and the width of each character before the fault (\xa0 is
    # two bytes, and so is é, which also makes a 2-byte body for n = 5)
    big = "~~???~??"  # the 6-byte order field of n = 258048
    cases = [
        ("", "empty graph6 record", 0),
        (" >>graph6<< \n", "empty graph6 record", 11),
        ("~", "truncated graph6 order field", 1),
        ("\t~??", "truncated graph6 order field", 4),
        ("~~????", "truncated graph6 order field", 6),
        ("\xa0\xa0B\x14", "invalid graph6 byte 20", 5),
        ("éB", "invalid graph6 byte 195", 0),
        ("Dé", "invalid graph6 byte 195", 1),
        ("~?\x14?", "invalid graph6 byte 20", 2),
        ("\n  ?", "unsupported graph6 order 0", 3),
        ("B", "graph6 body has 0 bytes, expected 1", 1),
        ("\n\n  Bw\x7f\n", "graph6 body has 2 bytes, expected 1", 5),
        (">>graph6<<Bw\x7f", "graph6 body has 2 bytes, expected 1", 11),
        ("Cé", "graph6 body has 2 bytes, expected 1", 1),
        (big + "???", f"graph6 body has 3 bytes, expected {(258048 * 258047 // 2 + 5) // 6}", 8),
        ("Bx", "nonzero padding bits", 1),
        ("\r\n>>graph6<<Bx", "nonzero padding bits", 13),
    ]
    for text, message, offset in cases:
        with pytest.raises(ParseError) as err:
            parse_graph6(text)
        assert str(err.value) == f"{message} (byte offset {offset})", repr(text)
        assert err.value.offset == offset


def test_graph6_third_order_form_rejects_a_truncated_body_without_allocating_it():
    # n >= 258048 needs the "~~" field, and its body would hold about 5.5 GB:
    # only the order field is read before the body length is refused
    import tracemalloc

    for field in ("~~???~??", "~~~~~~~~"):  # n = 258048, and 2^36 - 1
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="graph6 body has 2 bytes") as err:
                parse_graph6(field + "??")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.offset == 8
        assert peak < 64 * 1024
