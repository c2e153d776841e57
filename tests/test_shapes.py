import pytest

from dcnconn import CutMember, ShapeSpec, build_graph, enumerate_shape_copies, is_shape
from dcnconn.errors import ParameterError
from dcnconn.shapes import STRUCTURE, SUBSTRUCTURE


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
