import random

import pytest

from domset import Graph, ParseError, Solution, parse_ds, parse_solution, write_solution

from conftest import adjacency_sets, path_graph, star_graph


def test_parse_basic_path():
    g = parse_ds("p ds 3 2\n1 2\n2 3\n")
    assert g.n == 3
    assert g.m == 2
    assert g.degree == [1, 2, 1]


def test_parse_drops_self_loops():
    g = parse_ds("p ds 2 2\n1 1\n1 2\n")
    assert g.degree == [1, 1]
    assert g.m == 1


def test_parse_edgeless():
    g = parse_ds("p ds 4 0\n")
    assert g.n == 4
    assert g.m == 0
    assert g.degree == [0, 0, 0, 0]


def test_parse_collapses_duplicates():
    g = parse_ds("p ds 3 4\n1 2\n2 1\n1 2\n2 3\n")
    assert g.m == 2
    assert g.degree == [1, 2, 1]


def test_parse_accepts_comments_and_blanks():
    text = "c header comment\n\np ds 3 2\nc between edges\n1 2\n\n2 3\nc trailing\n\n"
    g = parse_ds(text)
    assert g.degree == [1, 2, 1]


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
    rng = random.Random(1234)
    for _ in range(50):
        n = rng.randint(1, 40)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        g = Graph.from_edges(n, edges)
        assert g.off[0] == 0
        assert g.off[n] == len(g.nbr) == 2 * g.m
        assert all(g.off[v] <= g.off[v + 1] for v in range(n))
        assert all(g.off[v + 1] - g.off[v] == g.degree[v] for v in range(n))
        assert sum(g.degree) == 2 * g.m
        adj = adjacency_sets(g)
        expected = [set() for _ in range(n)]
        for u, v in edges:
            if u != v:
                expected[u].add(v)
                expected[v].add(u)
        assert adj == expected
        for v in range(n):
            slice_ = g.neighbors(v)
            assert v not in slice_
            assert len(slice_) == len(set(slice_))
            assert slice_ == sorted(slice_)


def test_from_edges_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(-1, 0)])


def test_closed_neighborhood():
    star = star_graph(3)
    assert set(star.closed_neighborhood(0)) == {0, 1, 2, 3}
    assert len(star.closed_neighborhood(0)) == star.degree[0] + 1
    isolates = Graph.from_edges(2, [])
    assert isolates.closed_neighborhood(1) == [1]
    p3 = path_graph(3)
    assert set(p3.closed_neighborhood(1)) == {0, 1, 2}
    assert p3.closed_neighborhood(1)[0] == 1


def test_write_solution_format():
    assert write_solution(Solution.from_members(3, [0, 2])) == "2\n1\n3\n"
    assert write_solution(Solution(3)) == "0\n"
    assert write_solution(Solution.from_members(6, [4])) == "1\n5\n"


def test_write_solution_sorts_external_ids():
    sol = Solution.from_members(5, [4, 0, 2])
    assert write_solution(sol) == "3\n1\n3\n5\n"


def test_parse_solution_roundtrip():
    sol = Solution.from_members(7, [6, 1, 3])
    parsed = parse_solution(write_solution(sol), 7)
    assert sorted(parsed.members) == [1, 3, 6]


def test_parse_solution_errors():
    with pytest.raises(ParseError):
        parse_solution("2\n1\n", 5)  # fewer IDs than declared
    with pytest.raises(ParseError):
        parse_solution("1\n1\n2\n", 5)  # more IDs than declared
    with pytest.raises(ParseError):
        parse_solution("1\n9\n", 5)  # out of range
    with pytest.raises(ParseError):
        parse_solution("2\n1\n1\n", 5)  # duplicate
    with pytest.raises(ParseError):
        parse_solution("", 5)


def test_solution_from_members_validates():
    with pytest.raises(ValueError):
        Solution.from_members(3, [0, 0])
    with pytest.raises(ValueError):
        Solution.from_members(3, [5])


def test_solution_add():
    sol = Solution(4)
    assert sol.add(2)
    assert not sol.add(2)
    assert sol.add(0)
    assert sol.members == [2, 0]
