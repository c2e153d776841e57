import pytest

from dcnconn import (
    ShapeSpec,
    StructureCut,
    build_bcdc,
    build_crossed_cube,
    build_dcell,
    build_graph,
    components,
    delete_vertices,
)
from dcnconn.shapes import STRUCTURE


def neighbor_labels(g, label):
    return {g.label_of(i) for i in g.neighbor_ids(g.id_of(label))}


def smallest_component(g, cut):
    """The sorted labels of the smallest component left when `cut`'s vertices
    are removed from g, the first by label among components of one size."""
    comps = components(delete_vertices(g, cut.vertex_union()))
    return min((tuple(sorted(c)) for c in comps), key=lambda c: (len(c), c), default=())


@pytest.fixture(scope="session")
def d14():
    return build_dcell(1, 4)


@pytest.fixture(scope="session")
def b3():
    return build_bcdc(3)


@pytest.fixture(scope="session")
def b4():
    return build_bcdc(4)


@pytest.fixture(scope="session")
def b5():
    return build_bcdc(5)


@pytest.fixture(scope="session")
def b5_c5_witness():
    """Four 5-cycles of B_5 whose removal isolates "00000|00001".

    No three of the 1072 C_5 copies cut B_5, so this frozen cut shows
    kappa(B_5; C_5) = 4.
    """
    return StructureCut(
        ShapeSpec.cycle(5),
        (
            ("00000|00010", "00010|00011", "00010|00110", "00010|01010", "00010|10010"),
            ("00000|00100", "00000|01000", "01000|11000", "10000|11000", "00000|10000"),
            ("00001|00011", "00010|00011", "00011|00101", "00011|01001", "00011|10001"),
            ("00001|00111", "00001|01011", "01011|11001", "10011|11001", "00001|10011"),
        ),
        STRUCTURE,
    )


@pytest.fixture(scope="session")
def cq3():
    return build_crossed_cube(3)


@pytest.fixture()
def k5():
    labels = list("abcde")
    return build_graph(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]])


@pytest.fixture()
def c6():
    labels = [str(i) for i in range(6)]
    return build_graph(labels, [(labels[i], labels[(i + 1) % 6]) for i in range(6)])
