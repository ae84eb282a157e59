from collections import deque

import pytest

from domset import generate_instance, gnp, grid, parse_ds, random_tree, star_forest, to_ds


def is_connected(g) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for x in g.adj[v]:
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return len(seen) == g.n


def test_gnp_p_zero_is_edgeless():
    g = gnp(10, 0.0, seed=1)
    assert g.m == 0
    assert g.degree == [0] * 10


def test_gnp_p_one_is_complete():
    g = gnp(5, 1.0, seed=1)
    assert g.m == 10
    assert g.degree == [4] * 5


def test_gnp_tiny_p_is_edgeless_not_an_error():
    # 1 - p rounds to 1 below p ~1.1e-16, so log(1 - p) is 0; below
    # ~1e-308 the skip length itself overflows to infinity.
    for p in (1e-17, 1e-300, 5e-324):
        g = gnp(10, p, seed=1)
        assert g.n == 10
        assert g.m == 0


def test_gnp_deterministic():
    assert gnp(50, 0.1, seed=7) == gnp(50, 0.1, seed=7)
    assert gnp(50, 0.1, seed=7) != gnp(50, 0.1, seed=8)


def test_tree_is_connected_with_n_minus_one_edges():
    for seed in range(5):
        g = random_tree(7, seed)
        assert g.m == 6
        assert is_connected(g)


def test_grid_shape():
    g = grid(3, 4)
    assert g.n == 12
    assert g.m == 3 * 3 + 2 * 4
    assert is_connected(g)
    # corner, edge, interior degrees
    assert g.degree[0] == 2
    assert g.degree[1] == 3
    assert g.degree[5] == 4


def test_star_forest_structure():
    g = star_forest(40, 6, seed=3)
    assert g.n == 40
    # every component is a star: no vertex has two neighbors of degree > 1
    for v in range(g.n):
        if g.degree[v] > 1:
            assert all(g.degree[x] == 1 for x in g.adj[v])


def test_star_forest_produces_leaves_or_isolates():
    g = star_forest(30, 5, seed=11)
    assert any(d <= 1 for d in g.degree)


def test_generated_instances_roundtrip_through_parser():
    cases = [
        generate_instance("gnp", 5, n=30, p=0.2),
        generate_instance("tree", 5, n=12),
        generate_instance("grid", 5, rows=4, cols=3),
        generate_instance("star-forest", 5, n=25, max_star=4),
    ]
    for g, text in cases:
        assert parse_ds(text) == g


def test_to_ds_lists_each_edge_once():
    g = gnp(20, 0.3, seed=2)
    text = to_ds(g)
    lines = text.strip().splitlines()
    assert lines[0] == f"p ds {g.n} {g.m}"
    assert len(lines) == 1 + g.m


def test_generator_validation():
    with pytest.raises(ValueError):
        gnp(0, 0.5, seed=1)
    with pytest.raises(ValueError):
        gnp(5, 1.5, seed=1)
    with pytest.raises(ValueError):
        random_tree(0, seed=1)
    with pytest.raises(ValueError):
        grid(0, 3)
    with pytest.raises(ValueError):
        star_forest(5, 0, seed=1)
    with pytest.raises(ValueError):
        generate_instance("gnp", 1, n=10)  # missing p
    with pytest.raises(ValueError):
        generate_instance("torus", 1, n=10)
