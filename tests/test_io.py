import pytest

from conftest import neighbor_labels
from dcnconn import ShapeSpec, StructureCut, structure_cut_for, verify_cut
from dcnconn.bcdc import build_bcdc
from dcnconn.dcell import build_dcell
from dcnconn.io import (
    CSV_HEADER,
    render_cut,
    render_dot,
    render_edgelist,
    report_csv_row,
)
from dcnconn.shapes import STRUCTURE, SUBSTRUCTURE


def _members(text, tag):
    """The members of a cut file's lines after the header, each line carrying `tag`."""
    lines = [line.partition(": ") for line in text.splitlines()[1:]]
    assert {head for head, _, _ in lines} == {tag}
    return tuple(tuple(verts.split(",")) for _, _, verts in lines)


def test_edgelist_roundtrip(d14):
    text = render_edgelist(d14, "dcell", {"m": 1, "n": 4})
    header, *lines = text.splitlines()
    assert header == "# graph dcell m=1 n=4"
    assert [tuple(line.split("\t")) for line in lines] == list(d14.edges())


def test_edgelist_tab_separated(d14):
    line = render_edgelist(d14, "dcell", {"m": 1, "n": 4}).splitlines()[1]
    assert "\t" in line


def test_isolated_vertices_listed():
    from dcnconn import build_graph

    g = build_graph(["a", "b", "c"], [("a", "b")])
    text = render_edgelist(g, "custom", {})
    assert text == "# graph custom \na\tb\n# isolated c\n"


def test_dot_output(d14):
    dot = render_dot(d14, "dcell m=1 n=4")
    assert dot.startswith("graph dcell_m_1_n_4 {")
    assert '"0.0" -- "0.1";' in dot
    assert dot.rstrip().endswith("}")


def test_cut_file_roundtrip(d14):
    cut = structure_cut_for("dcell", {"m": 1, "n": 4}, ShapeSpec.star(1), STRUCTURE)
    text = render_cut(cut, "dcell", {"m": 1, "n": 4})
    assert text.splitlines()[0] == "# cut dcell m=1 n=4 shape=K1_1 mode=structure"
    assert text.splitlines()[1].startswith("K1_1: ")
    assert _members(text, "K1_1") == cut.members


@pytest.mark.parametrize("family,params,shape", [
    ("dcell", {"m": 1, "n": 4}, ShapeSpec.clique(1)),
    ("dcell", {"m": 1, "n": 4}, ShapeSpec.star(1)),
    ("dcell", {"m": 1, "n": 5}, ShapeSpec.clique(3)),
    ("bcdc", {"n": 5}, ShapeSpec.star(2)),
    ("bcdc", {"n": 5}, ShapeSpec.path(4)),
    ("bcdc", {"n": 5}, ShapeSpec.cycle(6)),
], ids=lambda x: x.tag if isinstance(x, ShapeSpec) else None)
@pytest.mark.parametrize("mode", [STRUCTURE, SUBSTRUCTURE])
def test_every_kind_survives_a_cut_file(family, params, shape, mode):
    g = build_dcell(params["m"], params["n"]) if family == "dcell" else build_bcdc(params["n"])
    if shape == ShapeSpec.clique(1):  # no constructor: K_1 members are the neighbours of 0.0
        members = tuple((v,) for v in sorted(neighbor_labels(g, "0.0")))
    else:  # a structure cut is a substructure cut too
        members = structure_cut_for(family, params, shape, STRUCTURE).members
    cut = StructureCut(shape, members, mode)
    text = render_cut(cut, family, params)
    assert text.splitlines()[0].endswith(f"shape={shape.tag} mode={mode}")
    assert _members(text, shape.tag) == cut.members
    assert verify_cut(g, cut, shape, mode).passed


def test_csv_row(d14):
    cut = structure_cut_for("dcell", {"m": 1, "n": 4}, ShapeSpec.star(1), STRUCTURE)
    report = verify_cut(d14, cut, ShapeSpec.star(1), STRUCTURE)
    row = report_csv_row("dcell", {"m": 1, "n": 4}, ShapeSpec.star(1), STRUCTURE, 3, report)
    assert row == "dcell,m=1 n=4,K1_1,structure,3,3,5,2,1,pass"
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
