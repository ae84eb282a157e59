import random
import sys

import numpy as np
import pytest

from domset import Cover, Graph, ParseError, Solution, gnp, parse_ds, parse_solution, to_ds, write_solution

from conftest import neighbors, path_graph, star_graph


def test_parse_basic_path():
    g = parse_ds("p ds 3 2\n1 2\n2 3\n")
    assert g.n == 3
    assert g.m == 2
    assert list(map(len, g.closed)) == [2, 3, 2]


def test_parse_drops_self_loops():
    g = parse_ds("p ds 2 2\n1 1\n1 2\n")
    assert list(map(len, g.closed)) == [2, 2]
    assert g.m == 1


def test_parse_edgeless():
    g = parse_ds("p ds 4 0\n")
    assert g.n == 4
    assert g.m == 0
    assert list(map(len, g.closed)) == [1, 1, 1, 1]


def test_parse_collapses_duplicates():
    g = parse_ds("p ds 3 4\n1 2\n2 1\n1 2\n2 3\n")
    assert g.m == 2
    assert list(map(len, g.closed)) == [2, 3, 2]


def test_parse_accepts_comments_and_blanks():
    text = "c header comment\n\np ds 3 2\nc between edges\n1 2\n\n2 3\nc trailing\n\n"
    g = parse_ds(text)
    assert list(map(len, g.closed)) == [2, 3, 2]


def test_parse_accepts_bytes():
    assert parse_ds(b"p ds 2 1\n1 2\n") == parse_ds("p ds 2 1\n1 2\n")


def test_parse_is_deterministic():
    text = "p ds 5 4\n1 2\n4 5\n2 3\n3 4\n"
    assert parse_ds(text) == parse_ds(text)


@pytest.mark.parametrize(
    "text,line",
    [
        ("p dom 3 2\n1 2\n2 3\n", 1),
        ("p ds 3\n", 1),
        ("p ds 0 0\n", 1),
        ("p ds x 2\n", 1),
        ("p ds 3 2\n1 2\n2 4\n", 3),
        ("p ds 3 2\n1 2\n2 z\n", 3),
        ("p ds 3 1\n1 2\n2 3\n", 3),
        ("p ds 3 2\n1 2 3\n2 3\n", 2),
        ("1 2\n", 1),
        ("p ds 2147483648 0\n", 1),
        ("c comment\r\np ds 100000000000 0\r\n", 2),
        # int() takes underscores and non-ASCII digits; integers here are
        # ASCII digits after an optional '+'.
        ("c x\np ds 1_0 0\n", 2),
        ("p ds 12 ٣\n", 1),
        ("p ds 12 2\n1 2\n\n٢ 3\n", 4),
        ("p ds 12 1\n1 1_0\n", 2),
        ("p ds 12 1\n٣ 1\n", 2),
        ("p ds 5 -0\n", 1),
        ("p ds 12 1\n++1 2\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as excinfo:
        parse_ds(text)
    assert excinfo.value.line == line


def test_parse_missing_header():
    with pytest.raises(ParseError, match="header"):
        parse_ds("c nothing else\n")


def test_parse_fewer_edges_than_declared():
    with pytest.raises(ParseError, match="found only 1"):
        parse_ds("p ds 3 2\n1 2\n")


def test_csr_invariants_on_random_edge_lists():
    # closed[v] is N[v]: v once, its neighbours, ascending and symmetric.
    # The fixed cases take n = 1 and the edgeless return of from_edges.
    rng = random.Random(1234)
    cases = [(1, []), (1, [(0, 0)]), (4, [])]
    for _ in range(50):
        n = rng.randint(1, 40)
        cases.append((n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]))
    for n, edges in cases:
        g = Graph.from_edges(n, edges)
        assert len(g.closed) == n
        assert sum(map(len, g.closed)) == g.n + 2 * g.m
        expected = [set() for _ in range(n)]
        for u, v in edges:
            if u != v:
                expected[u].add(v)
                expected[v].add(u)
        assert [set(neighbors(g, v)) for v in range(n)] == expected
        for v in range(n):
            near = g.closed[v]
            assert type(near) is tuple
            assert near.count(v) == 1
            assert all(a < b for a, b in zip(near, near[1:]))
            assert all(v in g.closed[w] for w in near)


def test_parse_interns_neighbor_ids():
    # Both parse paths give the N[v] tuples written out from the edge
    # lines, as plain ints, and the n + 2m entries share at most n objects.
    from domset.graph import _parse_ds_bulk

    text = to_ds(gnp(2000, 10 / 1999, seed=7))
    n = 2000
    closed = [{v} for v in range(n)]
    for line in text.splitlines()[1:]:
        u, v = (int(t) - 1 for t in line.split())
        closed[u].add(v)
        closed[v].add(u)
    expected = [tuple(sorted(near)) for near in closed]
    crlf = "c per-line path\r\n" + text.replace("\n", "\r\n")
    assert _parse_ds_bulk(text) is not None and _parse_ds_bulk(crlf) is None
    graphs = (parse_ds(text), parse_ds(crlf))
    assert graphs[0].closed == graphs[1].closed
    for g in graphs:
        assert g.closed == expected
        assert all(type(near) is tuple for near in g.closed)
        entries = [x for near in g.closed for x in near]
        assert all(type(x) is int for x in entries)
        assert len({id(x) for x in entries}) <= g.n < len(entries) == g.n + 2 * g.m


def test_from_edges_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(-1, 0)])


def test_from_edges_rejects_a_negative_count_and_non_pairs():
    with pytest.raises(ValueError, match="non-negative"):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError, match="edges must be \\(u, v\\) pairs"):
        Graph.from_edges(3, np.zeros((2, 3), dtype=np.int64))


def test_self_loops_only_give_an_edgeless_graph():
    # Dropping the loops leaves no edge; from_edges takes its one general
    # path, and the bulk parser hands it the loops as an array.
    from domset.graph import _parse_ds_bulk

    text = "p ds 3 2\n1 1\n2 2\n"
    assert _parse_ds_bulk(text) is not None
    for g in (Graph.from_edges(3, [(0, 0), (1, 1)]), parse_ds(text)):
        assert (g.n, g.m) == (3, 0)
        assert g.closed == [(0,), (1,), (2,)]


def test_closed_neighborhood():
    star = star_graph(3)
    assert set(star.closed[0]) == {0, 1, 2, 3}
    assert len(star.closed[0]) == len(neighbors(star, 0)) + 1
    isolates = Graph.from_edges(2, [])
    assert isolates.closed[1] == (1,)
    p3 = path_graph(3)
    assert set(p3.closed[1]) == {0, 1, 2}
    assert p3.closed[1] == (0, 1, 2)


def test_write_solution_format():
    assert write_solution(Solution(3, [0, 2])) == "2\n1\n3\n"
    assert write_solution(Solution(3)) == "0\n"
    assert write_solution(Solution(6, [4])) == "1\n5\n"


def test_write_solution_sorts_external_ids():
    sol = Solution(5, [4, 0, 2])
    assert write_solution(sol) == "3\n1\n3\n5\n"


def test_parse_solution_roundtrip():
    sol = Solution(7, [6, 1, 3])
    parsed = parse_solution(write_solution(sol), 7)
    assert sorted(parsed.members) == [1, 3, 6]


def test_parse_solution_errors():
    with pytest.raises(ParseError) as err:
        parse_solution("2\n1\n", 5)  # fewer IDs than declared
    assert err.value.line is None
    with pytest.raises(ParseError) as err:
        parse_solution("1\n1\n2\n", 5)  # more IDs than declared
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_solution("1\n9\n", 5)  # out of range
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_solution("2\n1\n1\n", 5)  # duplicate
    assert err.value.line == 3
    with pytest.raises(ParseError, match="expected a single integer, got 2 tokens") as err:
        parse_solution("2\n1 2\n", 5)  # two IDs on one line
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_solution("", 5)
    assert err.value.line is None


def test_solution_constructor_validates():
    with pytest.raises(ValueError):
        Solution(3, [0, 0])
    with pytest.raises(ValueError):
        Solution(3, [5])
    # A Cover checks its member list the same way, with the same messages.
    g = path_graph(3)
    bad = {
        "member -1 out of range 0..2": [-1],
        "member 3 out of range 0..2": [0, 3],
        "duplicate member 1": [1, 0, 1],
    }
    for message, members in bad.items():
        for build in (lambda: Solution(3, members), lambda: Cover(g, members)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message


def test_solution_constructor_keeps_order_and_rejects_bad_ids():
    members = [2, 0]
    sol = Solution(4, members)
    assert sol.members == [2, 0]
    assert (sol.n, len(sol)) == (4, 2)
    members.append(1)  # the Solution holds its own list
    assert sol.members == [2, 0]
    with pytest.raises(ValueError, match="duplicate member 2"):
        Solution(4, [2, 0, 2])
    # An ID out of range is rejected; a negative one must not index a flag
    # list from the end.
    for v in (-1, 4):
        with pytest.raises(ValueError, match="out of range 0..3"):
            Solution(4, [2, 0, v])


def _fuzz_bases() -> list[bytes]:
    """Small instances in the shapes a .ds file takes: plain, commented,
    with blank lines, CRLF line ends and no final newline."""
    rng = random.Random(77)
    bases = []
    for n, count in ((6, 5), (12, 14), (30, 40)):
        edges = [f"{rng.randint(1, n)} {rng.randint(1, n)}" for _ in range(count)]
        plain = "\n".join([f"p ds {n} {count}", *edges]) + "\n"
        commented = f"c generated\n\np ds {n} {count}\n"
        commented += "".join(f"{e}\n" + ("c between\n" if i % 4 == 1 else "\n" if i % 5 == 2 else "") for i, e in enumerate(edges))
        bases += [plain.encode(), commented.encode(), plain.replace("\n", "\r\n").encode(), plain.rstrip("\n").encode()]
    return bases


_INJECTIONS = [b"\r", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x85", b"+", b"-", b"_", "٣".encode(), b"\xff", b"\n", b" ", b"c", b"0",
               b"9876543210987654321098765", b"0" * 23, b"0000000000000000000000012", b" 7", b"\n3 4", b"\n\n", b"c note\n", b"\t "]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    buf = bytearray(data)
    for _ in range(rng.choice((1, 1, 2, 3))):
        op = rng.randrange(6)
        at = rng.randint(0, len(buf))
        if rng.random() < 0.5:
            # Edits at a token or line boundary keep far more inputs valid.
            at = buf.find(rng.choice((b" ", b"\n")), at) + 1
        if op == 0 and buf:
            buf[min(at, len(buf) - 1)] = rng.randrange(256)
        elif op == 1:
            buf[at:at] = bytes([rng.randrange(256)])
        elif op == 2:
            del buf[at : at + rng.randint(1, 3)]
        elif op == 3:
            buf[at:at] = rng.choice(_INJECTIONS)
        elif op == 4:
            # Drop one token: the digit run that starts after a space.
            space = buf.find(b" ", at)
            if space >= 0:
                end = space + 1
                while end < len(buf) and chr(buf[end]).isdigit():
                    end += 1
                del buf[space:end]
        else:
            del buf[at:]
    return bytes(buf)


def _rewrite(rng: random.Random, data: bytes) -> bytes:
    """Respell a valid instance in ways the grammar allows: runs of spaces
    and tabs, leading zeros and '+', blank and comment lines, CRLF."""
    rate = rng.choice((0.02, 0.1, 0.3))
    out = bytearray()
    for i, byte in enumerate(data):
        ch = bytes([byte])
        if ch == b" " and rng.random() < rate:
            ch = rng.choice((b"  ", b"\t", b" \t ", b" " * 5))
        elif ch == b"\n" and rng.random() < rate:
            ch = rng.choice((b"\n\n", b"\n  \n", b"\r\n", b"\nc x\n", b" \n"))
        elif ch.isdigit() and not data[i - 1 : i].isdigit() and rng.random() < rate:
            ch = rng.choice((b"0", b"00", b"0" * 20, b"+")) + ch
        out += ch
    return bytes(out)


def _outcome(parse, data):
    try:
        return parse(data)
    except ParseError as exc:
        return (exc.line, str(exc))


def test_parse_ds_matches_line_parser_under_mutation():
    """parse_ds and the per-line reference accept the same inputs, build
    equal graphs and reject with the same line and message; nothing but
    ParseError escapes either."""
    from domset.graph import _parse_ds_bulk, _parse_ds_lines

    rng = random.Random(2024)
    bases = _fuzz_bases()
    outcomes = {"graph": 0, "error": 0, "bulk": 0}
    for i in range(6000):
        data = rng.choice(bases)
        if rng.random() < 0.5:
            data = _rewrite(rng, data)
        if rng.random() < 0.6:
            data = _mutate(rng, data)
        if i % 3 == 0:
            try:
                data = data.decode("utf-8")
            except UnicodeDecodeError:
                pass
        expected = _outcome(_parse_ds_lines, data)
        assert _outcome(parse_ds, data) == expected, data
        outcomes["graph" if isinstance(expected, Graph) else "error"] += 1
        outcomes["bulk"] += _parse_ds_bulk(data) is not None
    # Acceptance, rejection and the bulk path must each be well represented
    # for the comparison to mean anything.
    assert min(outcomes.values()) > 500, outcomes


@pytest.mark.parametrize("token", ["1_0", "٣", "٢", "-0", "+"])
def test_solution_integers_other_than_ascii_digits_are_rejected_at_their_line(token):
    for text, line in ((f"{token}\n", 1), (f"c x\n1\n{token}\n", 3)):
        for data in (text, text.encode()):
            with pytest.raises(ParseError) as excinfo:
                parse_solution(data, 12)
            assert excinfo.value.line == line, text


def test_plus_sign_and_leading_zeros_are_accepted():
    g = parse_ds("p ds +05 002\n+1 0002\n005 +4\n")
    assert (g.n, g.m) == (5, 2)
    assert g.closed == [(0, 1), (0, 1), (2,), (3, 4), (3, 4)]
    assert parse_ds(b"p ds 3 1\n01 +3\n") == parse_ds("p ds 3 1\n1 3\n")
    assert parse_solution("+02\n003\n+1\n", 3).members == [2, 0]


def test_token_longer_than_int_converts_is_a_parse_error():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("int() converts strings of any length here")
    with pytest.raises(ParseError) as excinfo:
        parse_ds("p ds 3 1\n1 " + "0" * limit + "2\n")
    assert excinfo.value.line == 2


_SPLITLINES_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", _SPLITLINES_BREAKS)
def test_header_reader_splits_lines_where_splitlines_does(brk):
    from domset.graph import _read_header

    assert ("a" + brk + "b").splitlines() == ["a", "b"]
    # \x1f and \t are whitespace to str.split but end no line.
    text = brk.join(["c one\x1fp ds 9 9", "", "  \t", "c two", "p ds 3 1", "1 2", ""])
    n, m, lineno, end = _read_header(text)
    assert (n, m, lineno) == (3, 1, text.splitlines().index("p ds 3 1") + 1) == (3, 1, 5)
    assert text[end:].splitlines() == text.splitlines()[lineno:] == ["1 2"]
    assert parse_ds(text).m == 1
    with pytest.raises(ParseError) as excinfo:
        parse_ds(brk.join(["c", "", "p ds 0 0"]))
    assert excinfo.value.line == 3
    with pytest.raises(ParseError) as excinfo:
        parse_ds(brk.join(["p ds 3 1", "c", "1 7"]))
    assert excinfo.value.line == 3


def test_non_ascii_comment_before_the_header_keeps_the_bulk_path():
    from domset.graph import _parse_ds_bulk, _parse_ds_lines

    text = "c graphe généré — ünïcode c second line\np ds 4 3\n1 2\n2 3\n3 4\n"
    for data in (text, text.encode()):
        g = _parse_ds_bulk(data)
        assert g is not None
        assert g == _parse_ds_lines(data) == parse_ds(data) == parse_ds("p ds 4 3\n1 2\n2 3\n3 4\n")
    # A non-ASCII character in the edge section still takes the per-line
    # path, from str and from bytes.
    assert _parse_ds_bulk(text + "c é\n") is None
    assert _parse_ds_bulk((text + "c é\n").encode()) is None
    assert parse_ds(text + "c é\n") == parse_ds(text)
