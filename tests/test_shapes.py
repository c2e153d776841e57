from itertools import islice, zip_longest
from math import factorial

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnconn import (
    CutMember,
    ShapeSpec,
    build_bcdc,
    build_dcell,
    build_graph,
    enumerate_shape_copies,
    is_shape,
)
from dcnconn.errors import ParameterError
from dcnconn.shapes import MODES, STRUCTURE, SUBSTRUCTURE


@pytest.fixture()
def k4():
    labels = list("abcd")
    return build_graph(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]])


@pytest.fixture()
def c5():
    labels = [str(i) for i in range(5)]
    return build_graph(labels, [(labels[i], labels[(i + 1) % 5]) for i in range(5)])


def test_shape_param_bounds():
    with pytest.raises(ParameterError):
        ShapeSpec.cycle(2)
    with pytest.raises(ParameterError):
        ShapeSpec.star(0)
    assert ShapeSpec.cycle(3).tag == "C3"
    assert ShapeSpec.star(2).vertex_count == 3


def test_star_in_k4_both_modes(k4):
    member = CutMember(ShapeSpec.star(2), ("a", "b", "c"))
    assert is_shape(k4, member, STRUCTURE)
    assert is_shape(k4, member, SUBSTRUCTURE)


def test_no_triangle_in_c5(c5):
    member = CutMember(ShapeSpec.clique(3), ("0", "1", "2"))
    assert not is_shape(c5, member, STRUCTURE)


def test_any_edge_is_k11_in_b3(b3):
    u, v = next(iter(b3.edges()))
    assert is_shape(b3, CutMember(ShapeSpec.star(1), (u, v)), STRUCTURE)


def test_duplicate_vertex_rejected(k4):
    with pytest.raises(ValueError, match="duplicate"):
        is_shape(k4, CutMember(ShapeSpec.star(1), ("a", "a")), STRUCTURE)


def test_structure_star_needs_exact_leaf_count(k4):
    member = CutMember(ShapeSpec.star(3), ("a", "b", "c"))
    assert not is_shape(k4, member, STRUCTURE)
    assert is_shape(k4, member, SUBSTRUCTURE)


def test_substructure_accepts_k1(k4):
    for shape in (ShapeSpec.star(2), ShapeSpec.path(3), ShapeSpec.cycle(4), ShapeSpec.clique(3)):
        assert is_shape(k4, CutMember(shape, ("a",)), SUBSTRUCTURE)


def test_substructure_cycle_accepts_paths(c5):
    member = CutMember(ShapeSpec.cycle(5), ("0", "1", "2"))
    assert is_shape(c5, member, SUBSTRUCTURE)
    full = CutMember(ShapeSpec.cycle(5), ("0", "1", "2", "3", "4"))
    assert is_shape(c5, full, SUBSTRUCTURE)
    assert is_shape(c5, full, STRUCTURE)


def test_substructure_clique_needs_connected(k4, c5):
    # 0 and 2 are non-adjacent in C5: not a connected subgraph of K_2
    assert not is_shape(c5, CutMember(ShapeSpec.clique(2), ("0", "2")), SUBSTRUCTURE)
    assert is_shape(c5, CutMember(ShapeSpec.clique(3), ("0", "1", "2")), SUBSTRUCTURE)


def test_k4_triangle_count(k4):
    copies = list(enumerate_shape_copies(k4, ShapeSpec.clique(3), STRUCTURE))
    assert len(copies) == 4


def test_b4_edge_copy_count(b4):
    copies = list(enumerate_shape_copies(b4, ShapeSpec.star(1), STRUCTURE))
    assert len(copies) == 96  # = n(n-1)2^{n-1} edges at n=4


def test_b5_star2_copy_count(b5):
    # 80 vertices x C(8,2) leaf choices
    assert sum(1 for _ in enumerate_shape_copies(b5, ShapeSpec.star(2), STRUCTURE)) == 2240


def test_enumeration_no_duplicates_and_stable(k4, c5):
    for g in (k4, c5):
        for shape in (ShapeSpec.star(2), ShapeSpec.path(3), ShapeSpec.cycle(4), ShapeSpec.clique(2)):
            for mode in (STRUCTURE, SUBSTRUCTURE):
                one = list(enumerate_shape_copies(g, shape, mode))
                two = list(enumerate_shape_copies(g, shape, mode))
                assert one == two
                assert len(set(one)) == len(one)


def test_enumerated_copies_pass_is_shape(k4, b3):
    for g in (k4, b3):
        for shape in (ShapeSpec.star(2), ShapeSpec.path(4), ShapeSpec.cycle(4), ShapeSpec.clique(3)):
            for mode in (STRUCTURE, SUBSTRUCTURE):
                for ids in enumerate_shape_copies(g, shape, mode):
                    member = CutMember(shape, tuple(g.label_of(i) for i in ids))
                    assert is_shape(g, member, mode)


def test_path_copies_canonical(c5):
    for ids in enumerate_shape_copies(c5, ShapeSpec.path(3), STRUCTURE):
        assert ids[0] < ids[-1]


def test_cycle_copies_canonical(b3):
    for vs in enumerate_shape_copies(b3, ShapeSpec.cycle(4), STRUCTURE):
        assert min(vs) == vs[0]
        assert vs[1] < vs[-1]


def test_c5_cycle_count(c5):
    assert len(list(enumerate_shape_copies(c5, ShapeSpec.cycle(5), STRUCTURE))) == 1


# --- the pruned path and cycle DFS against the unpruned reference -----------


def _reference_path_ids(g, k):
    """Every simple path of k vertices grown from each start in id order, kept
    when its first id is below its last (the enumeration before the prunes)."""
    if k == 1:
        yield from ((v,) for v in range(g.vertex_count))
        return

    def extend(path, used):
        if len(path) == k:
            if path[0] < path[-1]:
                yield tuple(path)
            return
        for nb in sorted(g.neighbor_ids(path[-1])):
            if nb not in used:
                path.append(nb)
                used.add(nb)
                yield from extend(path, used)
                used.discard(nb)
                path.pop()

    for start in range(g.vertex_count):
        yield from extend([start], {start})


def _reference_cycle_ids(g, k):
    """Every path of k vertices above its start, kept when it closes into a
    cycle toward the smaller second id (the enumeration before the prunes)."""

    def extend(path, used):
        if len(path) == k:
            if path[0] in g.neighbor_ids(path[-1]) and path[1] < path[-1]:
                yield tuple(path)
            return
        for nb in sorted(g.neighbor_ids(path[-1])):
            if nb > path[0] and nb not in used:
                path.append(nb)
                used.add(nb)
                yield from extend(path, used)
                used.discard(nb)
                path.pop()

    for start in range(g.vertex_count):
        yield from extend([start], {start})


def _reference_copies(g, shape, mode):
    if mode == SUBSTRUCTURE:
        return (ids for j in range(1, shape.size + 1) for ids in _reference_path_ids(g, j))
    if shape.kind == "path":
        return _reference_path_ids(g, shape.size)
    return _reference_cycle_ids(g, shape.size)


def _same_stream(one, two) -> bool:
    end = object()
    return all(a == b for a, b in zip_longest(one, two, fillvalue=end))


def _complete(n):
    labels = [str(i) for i in range(n)]
    return build_graph(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]])


def _petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return build_graph([str(i) for i in range(10)], [(str(a), str(b)) for a, b in edges])


_ORDER_GRAPHS = {
    "K6": lambda: _complete(6),
    "petersen": _petersen,
    "B3": lambda: build_bcdc(3),
    "B4": lambda: build_bcdc(4),
    "D05": lambda: build_dcell(0, 5),
    "D14": lambda: build_dcell(1, 4),
}


@pytest.mark.parametrize("name", sorted(_ORDER_GRAPHS))
@pytest.mark.parametrize("kind", ["path", "cycle"])
def test_path_and_cycle_streams_match_the_unpruned_dfs(name, kind):
    g = _ORDER_GRAPHS[name]()
    for k in range(3, 9):
        shape = ShapeSpec(kind, k)
        for mode in MODES:
            assert _same_stream(
                enumerate_shape_copies(g, shape, mode), _reference_copies(g, shape, mode)
            ), (name, shape.tag, mode)


@pytest.mark.parametrize("kind", ["path", "cycle"])
def test_b5_streams_match_the_unpruned_dfs(b5, kind):
    for k in range(3, 7):
        shape = ShapeSpec(kind, k)
        for mode in MODES:
            assert _same_stream(
                enumerate_shape_copies(b5, shape, mode), _reference_copies(b5, shape, mode)
            ), (shape.tag, mode)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 12))
    labels = [f"v{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
    return build_graph(labels, [(labels[a], labels[b]) for a, b in pairs if a != b])


@given(_small_graphs(), st.sampled_from(["path", "cycle"]), st.integers(3, 7),
       st.sampled_from(MODES))
@settings(max_examples=150, deadline=None)
def test_streams_match_the_unpruned_dfs_on_random_graphs(g, kind, k, mode):
    shape = ShapeSpec(kind, k)
    assert _same_stream(enumerate_shape_copies(g, shape, mode), _reference_copies(g, shape, mode))


@pytest.mark.parametrize("name", ["B4", "D14"])
def test_cycle_counts_match_networkx(name):
    g = _ORDER_GRAPHS[name]()
    nxg = nx.Graph(list(g.edges()))
    lengths = [len(c) for c in nx.simple_cycles(nxg, length_bound=8)]
    for k in range(3, 9):
        got = sum(1 for _ in enumerate_shape_copies(g, ShapeSpec.cycle(k), STRUCTURE))
        assert got == lengths.count(k), (name, k)


@pytest.mark.parametrize("n", range(3, 8))
def test_cycle_counts_in_complete_graphs(n):
    g = _complete(n)
    for k in range(3, n + 1):
        got = sum(1 for _ in enumerate_shape_copies(g, ShapeSpec.cycle(k), STRUCTURE))
        assert got == factorial(n) // (factorial(n - k) * 2 * k), (n, k)


def test_b5_c8_prefix_read_by_the_table_matches_the_unpruned_dfs(b5):
    # the table's skip rule at --oracle-check-cap 30000 reads 30,001 copies
    shape = ShapeSpec.cycle(8)
    got = list(islice(enumerate_shape_copies(b5, shape, STRUCTURE), 30001))
    assert len(got) == 30001
    assert got == list(islice(_reference_cycle_ids(b5, 8), 30001))
