"""File formats: edge lists, DOT, cut files, verification CSV rows.

Edge-list format: first line `# graph <family> <params>`, then one
`u<TAB>v` line per edge in deterministic order; degree-0 vertices (never
produced by these families) appear as `# isolated u` lines. Cut files carry
one member per line, `<shape-tag>: v1,v2,...`, the cut's one tag on every
line, star center first, path and cycle members in traversal order.
"""

from __future__ import annotations

from .cuts import VerificationReport
from .graph import Graph
from .shapes import MODES, STRUCTURE, ShapeSpec, StructureCut

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


def parse_edgelist(text: str) -> tuple[str, dict[str, int], list[str], list[tuple[str, str]]]:
    """Returns (family, params, labels, edges). Labels keep first-seen order.

    Rejects a data line that is not two non-empty labels joined by one tab,
    and a header parameter that is not an integer, naming its line number."""
    family = ""
    params: dict[str, int] = {}
    labels: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def note(lab: str) -> None:
        if lab not in seen:
            seen.add(lab)
            labels.append(lab)

    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# graph "):
            rest = line[len("# graph "):].split()
            family = rest[0]
            for kv in rest[1:]:
                k, _, v = kv.partition("=")
                try:
                    params[k] = int(v)
                except ValueError as exc:
                    raise ValueError(f"line {number}: {exc}") from exc
        elif line.startswith("# isolated "):
            note(line[len("# isolated "):].strip())
        elif line.startswith("#"):
            continue
        else:
            ends = line.split("\t")
            if len(ends) != 2 or not all(ends):
                raise ValueError(f"line {number}: expected 'u<TAB>v', got {line!r}")
            u, v = ends
            note(u)
            note(v)
            edges.append((u, v))
    return family, params, labels, edges


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


def parse_cut(text: str) -> StructureCut:
    """The cut a cut file holds. Its shape is the header's `shape=` tag, or
    the first member's tag when there is no header; a malformed or unknown
    tag, an unknown mode and a member line with another tag are rejected,
    naming the line number."""
    mode, tag, shape = STRUCTURE, None, None
    members: list[tuple[str, ...]] = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        try:
            if line.startswith("# cut "):
                for key, _, value in (token.partition("=") for token in line.split()):
                    if key == "mode":
                        if value not in MODES:
                            raise ValueError(f"unknown mode {value!r}")
                        mode = value
                    elif key == "shape":
                        tag, shape = value, ShapeSpec.from_tag(value)
                continue
            if not line or line.startswith("#"):
                continue
            member_tag, _, verts = (part.strip() for part in line.partition(":"))
            if tag is None:
                tag, shape = member_tag, ShapeSpec.from_tag(member_tag)
            if member_tag != tag:
                raise ValueError(f"member tag {member_tag!r} differs from shape {tag!r}")
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from exc
        members.append(tuple(verts.split(",")))
    if shape is None:
        raise ValueError("the cut file names no shape")
    return StructureCut(shape, tuple(members), mode)


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
