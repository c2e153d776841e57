"""DCell and BCDC data-center topologies: generation, structure cuts, and
exhaustive connectivity certification."""

from .graph import (
    Graph,
    build_graph,
    components,
    delete_vertices,
    is_connected,
    line_graph,
    min_vertex_cut,
)
from .shapes import (
    STRUCTURE,
    SUBSTRUCTURE,
    ShapeSpec,
    StructureCut,
    enumerate_shape_copies,
    is_shape,
)
from .dcell import build_dcell, t_size
from .bcdc import build_bcdc, build_crossed_cube, dim_neighbor
from .cuts import (
    VerificationReport,
    predicted_kappa,
    structure_cut_for,
    verify_cut,
)
from .search import (
    SearchBudget,
    certify_min,
    exists_cut_of_size,
    g_extra_connectivity,
)

__all__ = [
    "Graph",
    "build_graph",
    "components",
    "delete_vertices",
    "is_connected",
    "line_graph",
    "min_vertex_cut",
    "STRUCTURE",
    "SUBSTRUCTURE",
    "ShapeSpec",
    "StructureCut",
    "enumerate_shape_copies",
    "is_shape",
    "build_dcell",
    "t_size",
    "build_bcdc",
    "build_crossed_cube",
    "dim_neighbor",
    "VerificationReport",
    "predicted_kappa",
    "structure_cut_for",
    "verify_cut",
    "SearchBudget",
    "certify_min",
    "exists_cut_of_size",
    "g_extra_connectivity",
]
