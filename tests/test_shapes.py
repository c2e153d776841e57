import random
from itertools import combinations, islice, permutations, zip_longest
from math import factorial

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALL_SHAPES, check_leaf_families, neighbor_set, reference_copies,
                      reference_cycle_ids)
from dcnconn import (
    ShapeSpec,
    build_bcdc,
    build_crossed_cube,
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


def test_a_single_vertex_is_k1():
    assert ShapeSpec.single() == ShapeSpec.clique(1)
    assert ShapeSpec.single().tag == "K1"
    with pytest.raises(ParameterError, match="unknown shape kind"):
        ShapeSpec("single", 1)


@pytest.mark.parametrize("shape", [ShapeSpec.clique(1), ShapeSpec.clique(12), ShapeSpec.star(1),
                                   ShapeSpec.star(12), ShapeSpec.path(1), ShapeSpec.cycle(3)],
                         ids=lambda shape: shape.tag)
def test_from_tag_inverts_tag(shape):
    assert ShapeSpec.from_tag(shape.tag) == shape


@pytest.mark.parametrize("tag", ["", "K", "P", "K1_", "K1_x", "Q7", "C-3", "P 4"])
def test_from_tag_rejects_a_malformed_tag(tag):
    with pytest.raises(ParameterError, match="unknown shape tag"):
        ShapeSpec.from_tag(tag)


@pytest.mark.parametrize("tag", ["C05", "P007", "K01", "K1_02", "K1_\u0662", "K\u0661",
                                 "C\uff15", "star", "single"])
def test_from_tag_accepts_only_the_tag_it_writes(tag):
    # a leading zero or a non-ASCII digit would read as a shape whose tag differs
    with pytest.raises(ParameterError) as exc:
        ShapeSpec.from_tag(tag)
    assert str(exc.value) == f"unknown shape tag: {tag!r} (the tags are K1_t, Pk, Ck and Ks)"


def test_star_in_k4_both_modes(k4):
    member = ("a", "b", "c")
    assert is_shape(k4, ShapeSpec.star(2), member, STRUCTURE)
    assert is_shape(k4, ShapeSpec.star(2), member, SUBSTRUCTURE)


def test_no_triangle_in_c5(c5):
    assert not is_shape(c5, ShapeSpec.clique(3), ("0", "1", "2"), STRUCTURE)


def test_any_edge_is_k11_in_b3(b3):
    u, v = next(iter(b3.edges()))
    assert is_shape(b3, ShapeSpec.star(1), (u, v), STRUCTURE)


def test_duplicate_vertex_rejected(k4):
    with pytest.raises(ValueError, match="duplicate"):
        is_shape(k4, ShapeSpec.star(1), ("a", "a"), STRUCTURE)


def test_structure_star_needs_exact_leaf_count(k4):
    member = ("a", "b", "c")
    assert not is_shape(k4, ShapeSpec.star(3), member, STRUCTURE)
    assert is_shape(k4, ShapeSpec.star(3), member, SUBSTRUCTURE)


def test_substructure_accepts_k1(k4):
    for shape in (ShapeSpec.star(2), ShapeSpec.path(3), ShapeSpec.cycle(4), ShapeSpec.clique(3)):
        assert is_shape(k4, shape, ("a",), SUBSTRUCTURE)


def test_substructure_cycle_accepts_paths(c5):
    c = ShapeSpec.cycle(5)
    assert is_shape(c5, c, ("0", "1", "2"), SUBSTRUCTURE)
    full = ("0", "1", "2", "3", "4")
    assert is_shape(c5, c, full, SUBSTRUCTURE)
    assert is_shape(c5, c, full, STRUCTURE)


def test_substructure_clique_needs_connected(k4, c5):
    # 0 and 2 are non-adjacent in C5: not a connected subgraph of K_2
    assert not is_shape(c5, ShapeSpec.clique(2), ("0", "2"), SUBSTRUCTURE)
    assert is_shape(c5, ShapeSpec.clique(3), ("0", "1", "2"), SUBSTRUCTURE)


def test_k4_triangle_count(k4):
    copies = list(enumerate_shape_copies(k4, ShapeSpec.clique(3), STRUCTURE))
    assert len(copies) == 4


def test_b4_edge_copy_count(b4):
    copies = list(enumerate_shape_copies(b4, ShapeSpec.star(1), STRUCTURE))
    assert len(copies) == 96  # = n(n-1)2^{n-1} edges at n=4
    # K_2 copies are the same edge stream, in the same order
    assert list(enumerate_shape_copies(b4, ShapeSpec.clique(2), STRUCTURE)) == copies


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
                    member = tuple(g.label_of(i) for i in ids)
                    assert is_shape(g, shape, member, mode)


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
                enumerate_shape_copies(g, shape, mode), reference_copies(g, shape, mode)
            ), (name, shape.tag, mode)


@pytest.mark.parametrize("kind", ["path", "cycle"])
def test_b5_streams_match_the_unpruned_dfs(b5, kind):
    for k in range(3, 7):
        shape = ShapeSpec(kind, k)
        for mode in MODES:
            assert _same_stream(
                enumerate_shape_copies(b5, shape, mode), reference_copies(b5, shape, mode)
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
    assert _same_stream(enumerate_shape_copies(g, shape, mode), reference_copies(g, shape, mode))


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
    assert got == list(islice(reference_cycle_ids(b5, 8), 30001))


# --- is_shape against the kind-by-mode reference ------------------------------


def _reference_is_shape(g, shape, member, mode):
    """`is_shape` spelled out per kind and mode, with its own traversal for
    substructure cliques (the implementation before the single size test)."""
    if mode not in MODES:
        raise ParameterError(f"unknown mode: {mode!r}")
    ids = [g.id_of(v) for v in member]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate vertex in member: {member}")
    if not ids:
        raise ValueError("empty member")
    k = len(ids)

    def is_path():
        return all(ids[i + 1] in neighbor_set(g, ids[i]) for i in range(k - 1))

    def is_star():
        return all(leaf in neighbor_set(g, ids[0]) for leaf in ids[1:])

    if shape.kind == "single":
        return k == 1
    if mode == STRUCTURE:
        if shape.kind == "star":
            return k == shape.size + 1 and is_star()
        if shape.kind == "path":
            return k == shape.size and is_path()
        if shape.kind == "cycle":
            return k == shape.size and is_path() and ids[0] in neighbor_set(g, ids[-1])
        return k == shape.size and all(
            b in neighbor_set(g, a) for a, b in combinations(ids, 2))
    if shape.kind == "star":
        if k == 1:
            return True
        return k <= shape.size + 1 and is_star()
    if shape.kind == "path":
        return k <= shape.size and is_path()
    if shape.kind == "cycle":
        if k == shape.size and is_path() and ids[0] in neighbor_set(g, ids[-1]):
            return True
        return k <= shape.size and is_path()
    if k > shape.size:
        return False
    id_set = set(ids)
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        x = stack.pop()
        for nb in neighbor_set(g, x):
            if nb in id_set and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == k


_MEMBER_GRAPHS = {
    "B3": lambda: build_bcdc(3),
    "D14": lambda: build_dcell(1, 4),
    "K5": lambda: _complete(5),
    "CQ3": lambda: build_crossed_cube(3),
}


def _longer_tuples(g, rng, count):
    """Tuples of 4-8 distinct ids: self-avoiding walks, the same walks
    shuffled (connected sets in any order), and arbitrary id sets."""
    n = g.vertex_count
    out = []
    for i in range(count):
        size = rng.randint(4, min(8, n))
        if i % 3 == 2:
            out.append(tuple(rng.sample(range(n), size)))
            continue
        walk = [rng.randrange(n)]
        while len(walk) < size:
            fresh = [v for v in neighbor_set(g, walk[-1]) if v not in walk]
            if not fresh:
                break
            walk.append(rng.choice(sorted(fresh)))
        if i % 3 == 1:
            rng.shuffle(walk)
        out.append(tuple(walk))
    return out


@pytest.mark.parametrize("name", sorted(_MEMBER_GRAPHS))
def test_is_shape_matches_the_reference(name):
    g = _MEMBER_GRAPHS[name]()
    rng = random.Random(name)
    tuples = [ids for k in (1, 2, 3) for ids in permutations(range(g.vertex_count), k)]
    tuples += _longer_tuples(g, rng, 600)
    accepted = 0
    for ids in tuples:
        labels = tuple(g.label_of(i) for i in ids)
        for shape in ALL_SHAPES:
            for mode in MODES:
                want = _reference_is_shape(g, shape, labels, mode)
                assert is_shape(g, shape, labels, mode) == want, (name, ids, shape.tag, mode)
                accepted += want
    assert accepted > len(tuples)  # both answers are exercised


@given(_small_graphs(), st.data(), st.sampled_from(ALL_SHAPES), st.sampled_from(MODES))
@settings(max_examples=300, deadline=None)
def test_is_shape_matches_the_reference_on_random_graphs(g, data, shape, mode):
    n = g.vertex_count
    ids = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 8), unique=True))
    member = tuple(g.label_of(i) for i in ids)
    assert is_shape(g, shape, member, mode) == _reference_is_shape(g, shape, member, mode)


# --- leaf families against the per-copy reference ----------------------------


@pytest.mark.parametrize("name", ["B3", "B4", "D05", "D14"])
@pytest.mark.parametrize("mode", MODES)
def test_leaf_families_expand_to_the_per_copy_stream(name, mode):
    g = _ORDER_GRAPHS[name]()
    for shape in ALL_SHAPES:
        check_leaf_families(g, shape, mode)
