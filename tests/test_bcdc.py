from itertools import combinations
from pathlib import Path

import pytest

from conftest import neighbor_labels
from dcnconn import build_bcdc, build_crossed_cube, dim_neighbor, line_graph, min_vertex_cut
from dcnconn.bcdc import _PAIR_MAP, bn_vertex_neighbors, parse_bn_label
from dcnconn.errors import ParameterError
from dcnconn.io import render_edgelist

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "x,y,expected",
    [
        ("00", "00", True),
        ("10", "10", True),
        ("01", "11", True),
        ("11", "01", True),
        ("01", "01", False),
        ("11", "11", False),
        ("00", "01", False),
        ("10", "00", False),
    ],
)
def test_pair_related_table(x, y, expected):
    assert (_PAIR_MAP[x] == y) is expected


def test_cq2_is_c4():
    g = build_crossed_cube(2)
    assert {frozenset(e) for e in g.edges()} == {
        frozenset(e) for e in [("00", "01"), ("10", "11"), ("00", "10"), ("01", "11")]
    }


def test_cq3_fixture(cq3):
    assert render_edgelist(cq3, "cq", {"n": 3}) == (FIXTURES / "cq_n3.edgelist").read_text()
    assert neighbor_labels(cq3, "000") == {"001", "010", "100"}


@pytest.mark.parametrize("n", range(1, 9))
def test_cq_regular_triangle_free(n):
    g = build_crossed_cube(n)
    assert g.vertex_count == 2**n
    assert all(g.degree(v) == n for v in g.labels)
    for u, v in g.edges():
        assert not neighbor_labels(g, u) & neighbor_labels(g, v)


def test_dim_neighbor_examples():
    assert dim_neighbor("000", 0) == "001"
    assert dim_neighbor("011", 2) == "101"
    with pytest.raises(ParameterError):
        dim_neighbor("000", 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dim_neighbor_involution_and_adjacency(n):
    g = build_crossed_cube(n)
    for u in g.labels:
        near = neighbor_labels(g, u)
        seen = set()
        for d in range(n):
            v = dim_neighbor(u, d)
            assert dim_neighbor(v, d) == u
            assert v in near
            seen.add(v)
        assert seen == near


def test_build_bcdc2_listed_cycle():
    g = build_bcdc(2)
    assert g.labels == ("00|01", "00|10", "01|11", "10|11")
    assert g.edge_count == 4
    assert all(g.degree(v) == 2 for v in g.labels)


def test_b3_fixture(b3):
    assert render_edgelist(b3, "bcdc", {"n": 3}) == (FIXTURES / "bcdc_n3.edgelist").read_text()


def test_b4_counts(b4):
    assert b4.vertex_count == 32
    assert b4.edge_count == 96
    assert all(b4.degree(v) == 6 for v in b4.labels)


@pytest.mark.parametrize("n", range(2, 8))
def test_line_graph_equivalence(n):
    a = build_bcdc(n)
    b = line_graph(build_crossed_cube(n))
    assert a.labels == b.labels
    assert list(a.edge_ids()) == list(b.edge_ids())


@pytest.mark.parametrize("n", range(2, 8))
def test_order_size_regularity(n):
    g = build_bcdc(n)
    assert g.vertex_count == n * 2 ** (n - 1)
    assert g.edge_count == n * (n - 1) * 2 ** (n - 1)
    assert all(g.degree(v) == 2 * n - 2 for v in g.labels)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_min_cut_bn(n):
    assert min_vertex_cut(build_bcdc(n)) == 2 * n - 2


def _cliques(u):
    """N([v,w]) from the definition, split into the edges at v and at w."""
    v, w = parse_bn_label(u)
    near = bn_vertex_neighbors(u)
    return {x for x in near if v in parse_bn_label(x)}, {x for x in near if w in parse_bn_label(x)}


def test_decomposition_b3(b3):
    for u in b3.labels:
        a, b = _cliques(u)
        assert len(a) == len(b) == 2


def test_decomposition_b5_example(b5):
    a, b = _cliques("00000|10000")
    assert len(a) == len(b) == 4
    assert a | b == neighbor_labels(b5, "00000|10000")
    assert not a & b


@pytest.mark.parametrize("n", [3, 4, 5])
def test_decomposition_two_disjoint_cliques(n):
    g = build_bcdc(n)
    for u in g.labels:
        a, b = _cliques(u)
        assert len(a) == len(b) == n - 1
        assert not a & b
        assert a | b == neighbor_labels(g, u)
        for side in (a, b):
            for x, y in combinations(side, 2):
                assert y in neighbor_labels(g, x)
        for x in a:
            assert not neighbor_labels(g, x) & b


def test_bn_vertex_neighbors_matches_graph(b4):
    for u in b4.labels:
        assert bn_vertex_neighbors(u) == sorted(neighbor_labels(b4, u))


def test_parse_bn_label():
    assert parse_bn_label("00|01") == ("00", "01")
    with pytest.raises(ParameterError):
        parse_bn_label("0001")
