"""Property-based checks over random small graphs."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_first_cut, check_leaf_families, neighbor_labels, reference_answer
from dcnconn import (
    Graph,
    SearchBudget,
    ShapeSpec,
    StructureCut,
    build_graph,
    components,
    delete_vertices,
    enumerate_shape_copies,
    exists_cut_of_size,
    g_extra_connectivity,
    is_connected,
    is_shape,
    line_graph,
    min_vertex_cut,
    verify_cut,
)
from dcnconn import search
from dcnconn.cuts import VerificationReport
from dcnconn.shapes import STRUCTURE, SUBSTRUCTURE


@st.composite
def graphs(draw, min_vertices=1, max_vertices=8):
    n = draw(st.integers(min_vertices, max_vertices))
    labels = [f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return build_graph(labels, edges)


@st.composite
def connected_graphs(draw, min_vertices=2, max_vertices=8):
    n = draw(st.integers(min_vertices, max_vertices))
    labels = [f"v{i}" for i in range(n)]
    # random spanning tree first, then extra edges
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        edges.add((labels[j], labels[i]))
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    for p in pairs:
        if p not in edges and draw(st.booleans()):
            edges.add(p)
    return build_graph(labels, sorted(edges))


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_components_partition(g):
    comps = components(g)
    assert sum(len(c) for c in comps) == g.vertex_count
    seen = set()
    for c in comps:
        assert not (c & seen)
        seen |= c
    assert is_connected(g) == (len(comps) <= 1)


@st.composite
def sparse_graphs(draw, max_vertices=24):
    """Graphs of 1-24 vertices with about one edge per vertex, so that their
    components span several 8-vertex neighbour tables."""
    n = draw(st.integers(1, max_vertices))
    labels = [f"v{i}" for i in range(n)]
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=n))
    return build_graph(labels, sorted({(labels[min(p)], labels[max(p)])
                                       for p in pairs if p[0] != p[1]}))


@given(sparse_graphs())
@settings(max_examples=80, deadline=None)
def test_components_match_networkx(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.labels)
    h.add_edges_from(g.edges())
    expected = sorted(sorted(c) for c in nx.connected_components(h))
    assert sorted(sorted(c) for c in components(g)) == expected


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_the_neighbour_masks_are_the_given_edges(data):
    n = data.draw(st.integers(1, 20))
    ends = st.integers(0, n - 1)
    # repeated, reversed and unsorted id pairs, no self-loops
    given_edges = data.draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]),
                                     max_size=3 * n))
    g = Graph([f"v{i}" for i in range(n)], given_edges)
    pairs = sorted({(min(p), max(p)) for p in given_edges})
    masks = g.neighbor_masks
    assert masks == tuple(sum(1 << v for v in range(n) if (min(u, v), max(u, v)) in pairs)
                          for u in range(n))
    assert all(masks[v] >> u & 1 for u in range(n) for v in range(n) if masks[u] >> v & 1)
    assert not any(m >> u & 1 for u, m in enumerate(masks))
    assert [g.degree(lab) for lab in g.labels] == [m.bit_count() for m in masks]
    assert g.edge_count == sum(m.bit_count() for m in masks) // 2
    assert list(g.edge_ids()) == pairs
    drop = data.draw(st.sets(st.integers(0, n - 1)))
    rest = delete_vertices(g, [g.label_of(v) for v in drop])
    assert rest.labels == tuple(lab for v, lab in enumerate(g.labels) if v not in drop)
    assert list(rest.edges()) == [(g.label_of(u), g.label_of(v)) for u, v in pairs
                                  if u not in drop and v not in drop]


@given(connected_graphs())
@settings(max_examples=30, deadline=None)
def test_single_shape_cut_equals_vertex_connectivity(g):
    res = exists_cut_of_size(g, ShapeSpec.single(), STRUCTURE, 8)
    assert res.value == min_vertex_cut(g)


@given(connected_graphs(max_vertices=7))
@settings(max_examples=25, deadline=None)
def test_min_cut_matches_networkx(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.labels)
    h.add_edges_from(g.edges())
    expected = nx.node_connectivity(h) if g.edge_count else 0
    if g.vertex_count >= 2 and is_connected(g):
        assert min_vertex_cut(g) == expected


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_line_graph_counts(g):
    lg = line_graph(g)
    assert lg.vertex_count == g.edge_count
    assert lg.edge_count == sum(
        g.degree(v) * (g.degree(v) - 1) // 2 for v in g.labels
    )


@given(graphs(), st.sampled_from(["star", "path", "cycle", "clique"]), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_enumeration_canonical_and_valid(g, kind, size):
    if kind == "cycle":
        size = max(size, 3)
    shape = ShapeSpec(kind, size)
    for mode in (STRUCTURE, SUBSTRUCTURE):
        copies = list(enumerate_shape_copies(g, shape, mode))
        assert len(set(copies)) == len(copies)
        assert copies == list(enumerate_shape_copies(g, shape, mode))
        for ids in copies:
            assert is_shape(g, shape, tuple(g.label_of(i) for i in ids), mode)
        check_leaf_families(g, shape, mode)


@given(connected_graphs(max_vertices=7), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_substructure_not_larger_than_structure(g, t):
    shape = ShapeSpec.star(t)
    st_res = exists_cut_of_size(g, shape, STRUCTURE, 8)
    sub_res = exists_cut_of_size(g, shape, SUBSTRUCTURE, 8)
    if st_res.value is not None and sub_res.value is not None:
        assert sub_res.value <= st_res.value


@given(graphs(min_vertices=3))
@settings(max_examples=40, deadline=None)
def test_deletion_keeps_surviving_edges(g):
    victim = g.labels[0]
    h = delete_vertices(g, [victim])
    assert h.vertex_count == g.vertex_count - 1
    for u, v in h.edges():
        assert v in neighbor_labels(g, u)
    assert h.edge_count == g.edge_count - g.degree(victim)


def _reference_verify_cut(g, cut, shape, mode):
    """`verify_cut` on a rebuilt graph: remove the union with
    `delete_vertices` and read the split from `components`. A cut of another
    shape than the requested one has no valid member."""
    for mem in cut.members:
        for lab in mem:
            if not g.has_vertex(lab):
                raise ValueError(f"member vertex {lab!r} not in graph")
    valid = []
    for mem in cut.members:
        try:
            valid.append(is_shape(g, shape, mem, mode))
        except ValueError:
            valid.append(False)
    if cut.shape != shape:
        valid = [False] * len(valid)
    union = cut.vertex_union()
    rest = delete_vertices(g, union)
    comps = components(rest)
    return VerificationReport(
        member_count=len(cut.members),
        removed_vertices=len(union),
        component_count=len(comps),
        component_sizes=tuple(sorted(len(c) for c in comps)),
        passed=all(valid) and bool(valid) and (len(comps) >= 2 or rest.vertex_count <= 1),
    )


_VERIFY_SHAPES = st.sampled_from([ShapeSpec.single(), ShapeSpec.star(2), ShapeSpec.path(3),
                                  ShapeSpec.cycle(4), ShapeSpec.clique(3)])


@given(st.one_of(graphs(), sparse_graphs()), st.data(), _VERIFY_SHAPES, _VERIFY_SHAPES,
       st.sampled_from([STRUCTURE, SUBSTRUCTURE]))
@settings(max_examples=200, deadline=None)
def test_verify_cut_matches_the_rebuilt_graph_reference(g, data, cut_shape, shape, mode):
    ids = st.integers(0, g.vertex_count - 1)
    members = data.draw(st.lists(st.lists(ids, min_size=1, max_size=5), max_size=5))
    cut = StructureCut(cut_shape, tuple(tuple(g.label_of(i) for i in m) for m in members), mode)
    assert verify_cut(g, cut, shape, mode) == _reference_verify_cut(g, cut, shape, mode)


@given(connected_graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_swept_scans_match_the_brute_force_reference(g, data):
    # a sweep threshold of 1 sweeps every run of the last member that has a
    # family set left to meet, since these graphs have few copies, and one
    # above every run walks them all; the cap falls anywhere in the scan
    shape = data.draw(st.sampled_from([ShapeSpec.single(), ShapeSpec.star(1), ShapeSpec.star(2),
                                       ShapeSpec.path(3), ShapeSpec.cycle(3)]))
    mode = data.draw(st.sampled_from([STRUCTURE, SUBSTRUCTURE]))
    h = data.draw(st.integers(0, 2))
    copies = list(enumerate_shape_copies(g, shape, mode))
    units = [sum(1 << v for v in ids) for ids in copies]
    n, vertices = len(copies), g.vertex_count
    cuts = range(1, min(3, n) + 1)
    extras = range(1 if h == 0 else min_vertex_cut(g), vertices - 1)
    total = sum(comb(n, s) for s in cuts) + sum(comb(vertices, s) for s in extras)
    cap = data.draw(st.integers(1, total + 1))
    budget = SearchBudget(max_checks=cap)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_SWEEP_MIN", data.draw(st.sampled_from([1, 2, 4, 10**6])))
        got = exists_cut_of_size(g, shape, mode, 3, budget)
        extra = g_extra_connectivity(g, h, budget)
    status, value, bound, hit, checks, note = reference_answer(
        n, cuts, brute_force_first_cut(g, units, cuts), cap)
    witness = hit and StructureCut(shape, tuple(tuple(map(g.label_of, copies[i])) for i in hit),
                                   mode)
    assert got == search.OracleResult(status, value, bound, witness, checks, n, note)
    status, value, bound, hit, checks, note = reference_answer(
        vertices, extras, brute_force_first_cut(g, [1 << v for v in range(vertices)], extras, h),
        cap)
    # with no size of 1 or more to scan, the oracle enumerates no copy
    assert extra == search.OracleResult(status, value, bound, hit and tuple(map(g.label_of, hit)),
                                        checks, vertices if extras.stop > 1 else 0, note)
