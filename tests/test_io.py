import pytest

from conftest import neighbor_labels
from dcnconn import ShapeSpec, StructureCut, structure_cut_for, verify_cut
from dcnconn.bcdc import build_bcdc
from dcnconn.dcell import build_dcell
from dcnconn.io import (
    CSV_HEADER,
    parse_cut,
    parse_edgelist,
    render_cut,
    render_dot,
    render_edgelist,
    report_csv_row,
)
from dcnconn.shapes import STRUCTURE, SUBSTRUCTURE


def test_edgelist_roundtrip(d14):
    text = render_edgelist(d14, "dcell", {"m": 1, "n": 4})
    assert text.startswith("# graph dcell m=1 n=4\n")
    family, params, labels, edges = parse_edgelist(text)
    assert family == "dcell"
    assert params == {"m": 1, "n": 4}
    assert set(labels) == set(d14.labels)
    assert {frozenset(e) for e in edges} == {frozenset(e) for e in d14.edges()}


def test_edgelist_tab_separated(d14):
    line = render_edgelist(d14, "dcell", {"m": 1, "n": 4}).splitlines()[1]
    assert "\t" in line


def test_isolated_vertices_listed():
    from dcnconn import build_graph

    g = build_graph(["a", "b", "c"], [("a", "b")])
    text = render_edgelist(g, "custom", {})
    assert "# isolated c" in text
    _, _, labels, edges = parse_edgelist(text)
    assert set(labels) == {"a", "b", "c"} and len(edges) == 1


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
    back = parse_cut(text)
    assert back.mode == "structure"
    assert back.shape == ShapeSpec.star(1)
    assert back.members == cut.members


def test_cut_file_without_a_header_takes_the_first_member_tag():
    back = parse_cut("C4: a,b,c,d\nC4: e,f,g,h\n")
    assert (back.shape, back.mode) == (ShapeSpec.cycle(4), STRUCTURE)
    assert back.members == (("a", "b", "c", "d"), ("e", "f", "g", "h"))


@pytest.mark.parametrize("text,line", [
    ("# cut dcell m=1 n=4 shape=K1_1 mode=structure\nK1_1: a,b\nK1: c\n", 3),
    ("# cut dcell m=1 n=4 shape=K1 mode=structure\nK1_1: a,b\n", 2),
    ("\nP3: a,b,c\nP4: d,e,f,g\n", 3),
])
def test_cut_file_rejects_a_member_tag_other_than_the_shape(text, line):
    with pytest.raises(ValueError, match=f"line {line}: member tag"):
        parse_cut(text)


def test_cut_file_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="line 2: unknown mode 'bogus'"):
        parse_cut("\n# cut dcell m=1 n=4 shape=K1_1 mode=bogus\nK1_1: a,b\n")


def test_cut_file_without_a_shape_is_rejected():
    with pytest.raises(ValueError, match="names no shape"):
        parse_cut("# a comment\n")


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
    back = parse_cut(render_cut(cut, family, params))
    assert back == cut
    assert verify_cut(g, back, shape, mode).passed


@pytest.mark.parametrize("text,line,what", [
    ("# cut dcell m=1 n=4 shape=P mode=structure\nP3: a,b,c\n", 1, "unknown shape tag: 'P'"),
    ("\nK1_x: a,b\n", 2, "unknown shape tag: 'K1_x'"),
    ("# cut bcdc n=5 shape=Q7 mode=structure\n", 1, "unknown shape tag: 'Q7'"),
    ("# header\nC2: a,b\n", 2, "cycle parameter must be >= 3"),
    ("# cut bcdc n=5 shape=C06 mode=structure\n", 1, "unknown shape tag: 'C06'"),
    ("K01: a\n", 1, "unknown shape tag: 'K01'"),
    ("P\u0664: a,b,c,d\n", 1, "unknown shape tag: 'P\u0664'"),
])
def test_cut_file_tag_errors_name_the_line(text, line, what):
    with pytest.raises(ValueError, match=f"^line {line}: {what}"):
        parse_cut(text)


def test_csv_row(d14):
    cut = structure_cut_for("dcell", {"m": 1, "n": 4}, ShapeSpec.star(1), STRUCTURE)
    report = verify_cut(d14, cut, ShapeSpec.star(1), STRUCTURE)
    row = report_csv_row("dcell", {"m": 1, "n": 4}, ShapeSpec.star(1), STRUCTURE, 3, report)
    assert row == "dcell,m=1 n=4,K1_1,structure,3,3,5,2,1,pass"
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


def test_edgelist_rejects_a_header_parameter_that_is_not_an_integer():
    with pytest.raises(ValueError, match="^line 1: invalid literal for int.*'x'"):
        parse_edgelist("# graph bcdc n=x\na\tb\n")
    with pytest.raises(ValueError, match="^line 2: invalid literal for int.*''"):
        parse_edgelist("\n# graph dcell m=1 n\n")


@pytest.mark.parametrize("text,line", [
    ("a b\nb c", 1),
    ("# graph custom\na\tb\nb\tc\td\n", 3),
    ("a\tb\n\nc\t\td\n", 3),
    ("a\tb\nb\t\n", 2),
])
def test_edgelist_rejects_a_line_that_is_not_two_tab_separated_labels(text, line):
    with pytest.raises(ValueError, match=f"line {line}: expected 'u<TAB>v'"):
        parse_edgelist(text)
