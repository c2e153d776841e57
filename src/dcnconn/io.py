"""The file formats the CLI writes: edge lists, DOT, cut files, verification
CSV rows.

Edge-list format: first line `# graph <family> <params>`, then one
`u<TAB>v` line per edge in deterministic order; degree-0 vertices (never
produced by these families) appear as `# isolated u` lines. Cut files carry
one member per line, `<shape-tag>: v1,v2,...`, the cut's one tag on every
line, star center first, path and cycle members in traversal order.
"""

from __future__ import annotations

from .cuts import VerificationReport
from .graph import Graph
from .shapes import ShapeSpec, StructureCut

CSV_HEADER = (
    "family,params,shape,mode,predicted,members,"
    "vertices_removed,components,min_component,pass"
)


def params_str(params: dict[str, int]) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def render_edgelist(g: Graph, family: str, params: dict[str, int]) -> str:
    lines = [f"# graph {family} {params_str(params)}"]
    isolated = [lab for lab in g.labels if g.degree(lab) == 0]
    lines += [f"{u}\t{v}" for u, v in g.edges()]
    lines += [f"# isolated {lab}" for lab in isolated]
    return "\n".join(lines) + "\n"


def render_dot(g: Graph, name: str) -> str:
    safe = name.replace("-", "_").replace(".", "_").replace("=", "_").replace(" ", "_")
    lines = [f"graph {safe} {{"]
    lines += [f'  "{lab}";' for lab in g.labels if g.degree(lab) == 0]
    lines += [f'  "{u}" -- "{v}";' for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_cut(cut: StructureCut, family: str, params: dict[str, int]) -> str:
    tag = cut.shape.tag
    lines = [f"# cut {family} {params_str(params)} shape={tag} mode={cut.mode}"]
    lines += [f"{tag}: " + ",".join(member) for member in cut.members]
    return "\n".join(lines) + "\n"


def report_csv_row(
    family: str,
    params: dict[str, int],
    shape: ShapeSpec,
    mode: str,
    predicted: int,
    report: VerificationReport,
) -> str:
    min_comp = report.component_sizes[0] if report.component_sizes else 0
    return ",".join(
        str(x)
        for x in (
            family,
            params_str(params),
            shape.tag,
            mode,
            predicted,
            report.member_count,
            report.removed_vertices,
            report.component_count,
            min_comp,
            "pass" if report.passed else "fail",
        )
    )
