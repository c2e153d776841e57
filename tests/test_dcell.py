from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import neighbor_labels
from dcnconn import build_dcell, t_size
from dcnconn.dcell import dcell_neighbors, label_str, t_table
from dcnconn.errors import ParameterError
from dcnconn.graph import min_vertex_cut
from dcnconn.io import render_edgelist

FIXTURES = Path(__file__).parent / "fixtures"


def test_t_size_values():
    assert t_size(0, 4) == 4
    assert t_size(1, 4) == 20
    assert t_size(2, 2) == 42  # 2 -> 6 -> 42


def test_t_size_bad_params():
    with pytest.raises(ParameterError):
        t_size(-1, 4)
    with pytest.raises(ParameterError):
        t_size(0, 1)


def test_t_size_overflow_names_level():
    with pytest.raises(ParameterError, match="level"):
        t_size(40, 6)


def test_build_d05_is_k5():
    g = build_dcell(0, 5)
    assert g.vertex_count == 5 and g.edge_count == 10


def test_build_d14_counts(d14):
    assert d14.vertex_count == 20
    assert d14.edge_count == 40
    assert all(d14.degree(v) == 4 for v in d14.labels)


def test_d14_matches_fixture(d14):
    text = (FIXTURES / "dcell_m1_n4.edgelist").read_text()
    assert render_edgelist(d14, "dcell", {"m": 1, "n": 4}) == text


def test_d14_definition_oracle(d14):
    # brute-force pairing check straight from the adjacency rule
    def adjacent(u, v):
        if u[0] == v[0]:
            return u[1] != v[1]
        (a, ua), (b, vb) = sorted([u, v])
        return a == vb and b == ua + 1

    labels = [(x1, x0) for x1 in range(5) for x0 in range(4)]
    expected = {
        frozenset((label_str(u), label_str(v)))
        for u, v in combinations(labels, 2)
        if adjacent(u, v)
    }
    assert {frozenset(e) for e in d14.edges()} == expected


def test_d14_cross_edge(d14):
    assert "1.0" in neighbor_labels(d14, "0.0")


def test_outside_neighbor_examples():
    assert (1, 0) in dcell_neighbors((0, 0), 1, 4)


@pytest.mark.parametrize("m,n", [(1, 3), (1, 4), (2, 2)])
def test_one_edge_per_copy_pair(m, n):
    g = build_dcell(m, n)
    tt = t_table(m, n)
    copies = tt[m - 1] + 1
    counts = {}
    for u, v in g.edges():
        cu, cv = int(u.split(".")[0]), int(v.split(".")[0])
        if cu != cv:
            key = (min(cu, cv), max(cu, cv))
            counts[key] = counts.get(key, 0) + 1
    assert set(counts) == set(combinations(range(copies), 2))
    assert all(c == 1 for c in counts.values())


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_regularity_and_order(m, n):
    if t_size(m, n) > 10_000:
        pytest.skip("beyond generation grid")
    g = build_dcell(m, n)
    assert g.vertex_count == t_size(m, n)
    assert all(g.degree(v) == m + n - 1 for v in g.labels)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_cut_level1(n):
    assert min_vertex_cut(build_dcell(1, n)) == n


def test_min_cut_d22():
    assert min_vertex_cut(build_dcell(2, 2)) == 3


@pytest.mark.parametrize("n", [3, 4])
def test_min_cut_level2(n):
    assert min_vertex_cut(build_dcell(2, n)) == n + 1


def test_growth_bound_exact_rationals():
    # t_{m,n} >= (n + 1/2)^(2^m) - 1/2 in exact arithmetic
    for m in range(0, 4):
        for n in range(2, 7):
            bound = Fraction(2 * n + 1, 2) ** (2**m) - Fraction(1, 2)
            assert Fraction(t_size(m, n)) >= bound


def test_build_budget_rejected():
    with pytest.raises(ParameterError, match="requires"):
        build_dcell(2, 5, max_vertices=100)


def test_dcell_neighbors_matches_graph(d14):
    for lab in d14.labels:
        digits = tuple(int(x) for x in lab.split("."))
        expected = {label_str(t) for t in dcell_neighbors(digits, 1, 4)}
        assert neighbor_labels(d14, lab) == expected
