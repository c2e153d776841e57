"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavy exhaustive rows use both cores, each under the explicit
`SearchBudget` it builds.
"""

import os
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from dcnconn import (
    SearchBudget,
    ShapeSpec,
    build_bcdc,
    build_crossed_cube,
    build_dcell,
    build_graph,
    certify_min,
    exists_cut_of_size,
    g_extra_connectivity,
    line_graph,
    min_vertex_cut,
    predicted_kappa,
    structure_cut_for,
    t_size,
    verify_cut,
)
from conftest import neighbor_labels, smallest_component
from dcnconn.bcdc import bn_vertex_neighbors, parse_bn_label
from dcnconn.errors import ParameterError
from dcnconn.io import render_edgelist
from dcnconn.search import CERTIFIED, NO
from dcnconn.shapes import MODES, STRUCTURE, SUBSTRUCTURE

FIXTURES = Path(__file__).parent / "fixtures"
JOBS = min(2, os.cpu_count() or 1)


def _report(num, ok: bool, text: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} — {text} [{time.time() - t0:.1f}s]")
    assert ok, f"acceptance criterion {num} failed: {text}"


def _graph_matches_fixture(g, name, family, params) -> bool:
    return render_edgelist(g, family, params) == (FIXTURES / name).read_text()


def test_acceptance_01_topology_fidelity(d14, b3, cq3):
    t0 = time.time()
    ok = d14.vertex_count == 20 and d14.edge_count == 40
    ok = ok and all(d14.degree(v) == 4 for v in d14.labels)
    ok = ok and _graph_matches_fixture(d14, "dcell_m1_n4.edgelist", "dcell", {"m": 1, "n": 4})
    ok = ok and _graph_matches_fixture(b3, "bcdc_n3.edgelist", "bcdc", {"n": 3})
    ok = ok and _graph_matches_fixture(cq3, "cq_n3.edgelist", "cq", {"n": 3})
    _report(1, ok, "topology fidelity: D(1,4), B_3, CQ_3 match committed fixtures", t0)


def test_acceptance_02_line_graph_equivalence():
    t0 = time.time()
    ok = True
    for n in range(2, 8):
        a = build_bcdc(n)
        b = line_graph(build_crossed_cube(n))
        ok = ok and a.labels == b.labels and list(a.edge_ids()) == list(b.edge_ids())
    _report(2, ok, "B_n identical to line graph of CQ_n for n=2..7, labels and edges exact", t0)


def test_acceptance_03_regularity_order_size():
    t0 = time.time()
    ok = True
    for m in range(0, 3):
        for n in range(2, 7):
            if t_size(m, n) > 10_000:
                continue
            g = build_dcell(m, n)
            ok = ok and g.vertex_count == t_size(m, n)
            ok = ok and all(g.degree(v) == m + n - 1 for v in g.labels)
            ok = ok and 2 * g.edge_count == g.vertex_count * (m + n - 1)
    for n in range(2, 8):
        g = build_bcdc(n)
        ok = ok and g.vertex_count == n * 2 ** (n - 1)
        ok = ok and g.edge_count == n * (n - 1) * 2 ** (n - 1)
        ok = ok and all(g.degree(v) == 2 * n - 2 for v in g.labels)
    _report(3, ok, "regularity/order/size across the DCell grid and B_2..B_7", t0)


def test_acceptance_04_classical_connectivity():
    t0 = time.time()
    ok = all(min_vertex_cut(build_dcell(1, n)) == n for n in (2, 3, 4))
    ok = ok and all(min_vertex_cut(build_bcdc(n)) == 2 * n - 2 for n in (3, 4, 5))
    _report(4, ok, "min_vertex_cut: D(1,n)=n for n=2..4; B_n=2n-2 for n=3..5", t0)


def test_acceptance_05_neighborhood_structure():
    t0 = time.time()
    ok = True
    for n in (3, 4, 5):
        g = build_bcdc(n)
        for u in g.labels:
            # the two cliques from the definition: the edges at each endpoint of u
            v, w = parse_bn_label(u)
            a = [x for x in bn_vertex_neighbors(u) if v in parse_bn_label(x)]
            b = [x for x in bn_vertex_neighbors(u) if w in parse_bn_label(x)]
            ok = ok and len(a) == len(b) == n - 1
            ok = ok and not set(a) & set(b)
            ok = ok and set(a) | set(b) == neighbor_labels(g, u)
            ok = ok and all(set(a) - {x} <= neighbor_labels(g, x) for x in a)
            ok = ok and all(set(b) - {x} <= neighbor_labels(g, x) for x in b)
            ok = ok and not any(neighbor_labels(g, x) & set(b) for x in a)
            if not ok:
                break
    _report(5, ok, "every B_3..B_5 neighborhood splits into two disjoint cliques", t0)


def test_acceptance_06_g_extra_connectivity(b3, b4):
    t0 = time.time()
    budget = SearchBudget(max_candidates=10**6, max_checks=200_000_000)
    r1 = g_extra_connectivity(b3, 0, budget, jobs=JOBS)
    r2 = g_extra_connectivity(b4, 0, budget, jobs=JOBS)
    r3 = g_extra_connectivity(b4, 1, budget, jobs=JOBS)
    ok = (r1.status, r1.value) == ("certified", 4)
    ok = ok and (r2.status, r2.value) == ("certified", 6)
    ok = ok and (r3.status, r3.value) == ("certified", 8)
    _report(6, ok, "exhaustive g-extra: k0(B_3)=4, k0(B_4)=6, k1(B_4)=8", t0)


def _dcell_three_way(m, n, shape, mode, budget) -> bool:
    g = build_dcell(m, n)
    predicted = predicted_kappa("dcell", {"m": m, "n": n}, shape, mode)
    cut = structure_cut_for("dcell", {"m": m, "n": n}, shape, mode)
    report = verify_cut(g, cut, shape, mode)
    if not (report.passed and len(cut.members) == predicted):
        return False
    res = exists_cut_of_size(g, shape, mode, 6, budget)
    return res.status == CERTIFIED and res.value == predicted


def test_acceptance_07_dcell_star_values():
    t0 = time.time()
    budget = SearchBudget(max_candidates=10**6, max_checks=50_000_000)
    ok = True
    for m, n, t in [(0, 4, 1), (0, 5, 1), (0, 5, 2), (1, 4, 1), (1, 4, 2)]:
        for mode in MODES:
            ok = ok and _dcell_three_way(m, n, ShapeSpec.star(t), mode, budget)
    _report(7, ok, "DCell star values: formula = construction = oracle minimum, both modes", t0)


def test_acceptance_08_dcell_clique_values():
    t0 = time.time()
    budget = SearchBudget(max_candidates=10**6, max_checks=50_000_000)
    ok = True
    for m, n, s in [(0, 5, 3), (1, 4, 3), (1, 5, 3), (1, 5, 4)]:
        ok = ok and _dcell_three_way(m, n, ShapeSpec.clique(s), STRUCTURE, budget)
    _report(8, ok, "DCell clique values: formula = construction = oracle minimum", t0)


def test_acceptance_09_bcdc_star_values(b4, b5):
    t0 = time.time()
    ok = True
    for n in (4, 5, 6):
        g = build_bcdc(n)
        for t in range(1, 2 * n - 2):
            for mode in MODES:
                predicted = predicted_kappa("bcdc", {"n": n}, ShapeSpec.star(t), mode)
                cut = structure_cut_for("bcdc", {"n": n}, ShapeSpec.star(t), mode)
                report = verify_cut(g, cut, ShapeSpec.star(t), mode)
                ok = ok and report.passed and len(cut.members) == predicted
    budget = SearchBudget(max_candidates=10**6, max_checks=200_000_000)
    res = exists_cut_of_size(b4, ShapeSpec.star(1), STRUCTURE, 5, budget, jobs=JOBS)
    ok = ok and res.status == CERTIFIED and res.value == 4
    for t, want in ((1, 4), (2, 3)):
        witness = structure_cut_for("bcdc", {"n": 5}, ShapeSpec.star(t), STRUCTURE)
        res = certify_min(b5, ShapeSpec.star(t), STRUCTURE, want, witness, budget, jobs=JOBS)
        ok = ok and res.status == "certified"
    _report(9, ok, "BCDC star values: constructions verified (n=4..6, all t); "
                   "oracle certifies n=4 t=1 -> 4, n=5 t=1 -> 4, n=5 t=2 -> 3", t0)


def test_acceptance_10_bcdc_path_values(b5):
    t0 = time.time()
    ok = True
    for n in (5, 6):
        g = build_bcdc(n)
        for k in range(4, 2 * n):
            for mode in MODES:
                predicted = predicted_kappa("bcdc", {"n": n}, ShapeSpec.path(k), mode)
                cut = structure_cut_for("bcdc", {"n": n}, ShapeSpec.path(k), mode)
                report = verify_cut(g, cut, ShapeSpec.path(k), mode)
                ok = ok and report.passed and len(cut.members) == predicted
    budget = SearchBudget(max_candidates=10**6, max_checks=100_000_000)
    for k, want in ((4, 2), (9, 1)):
        witness = structure_cut_for("bcdc", {"n": 5}, ShapeSpec.path(k), STRUCTURE)
        res = certify_min(b5, ShapeSpec.path(k), STRUCTURE, want, witness, budget, jobs=JOBS)
        ok = ok and res.status == "certified"
    _report(10, ok, "BCDC path values: constructions verified (n=5,6, k=4..2n-1); "
                    "oracle certifies n=5 k=4 -> 2 and k=9 -> 1", t0)


def test_acceptance_11_bcdc_cycle_values(b5):
    t0 = time.time()
    ok = True
    for n in (5, 6):
        g = build_bcdc(n)
        for k in range(6, 2 * n + 1):
            predicted = predicted_kappa("bcdc", {"n": n}, ShapeSpec.cycle(k), STRUCTURE)
            cut = structure_cut_for("bcdc", {"n": n}, ShapeSpec.cycle(k), STRUCTURE)
            report = verify_cut(g, cut, ShapeSpec.cycle(k), STRUCTURE)
            ok = ok and report.passed and len(cut.members) == predicted
        for k in range(4, 2 * n):
            predicted = predicted_kappa("bcdc", {"n": n}, ShapeSpec.cycle(k), SUBSTRUCTURE)
            cut = structure_cut_for("bcdc", {"n": n}, ShapeSpec.cycle(k), SUBSTRUCTURE)
            report = verify_cut(g, cut, ShapeSpec.cycle(k), SUBSTRUCTURE)
            ok = ok and report.passed and len(cut.members) == predicted
    spots = {
        (5, 6): 2,
        (5, 10): 1,
    }
    for (n, k), want in spots.items():
        ok = ok and predicted_kappa("bcdc", {"n": n}, ShapeSpec.cycle(k), STRUCTURE) == want
    # k=2n lower bound is vacuous (no size-0 cut); the one-member witness must verify
    res = exists_cut_of_size(b5, ShapeSpec.cycle(10), STRUCTURE, 0)
    ok = ok and res.status == NO
    one = structure_cut_for("bcdc", {"n": 5}, ShapeSpec.cycle(10), STRUCTURE)
    ok = ok and verify_cut(b5, one, ShapeSpec.cycle(10), STRUCTURE).passed
    _report(11, ok, "BCDC cycle values: structure k=6..2n and substructure k=4..2n-1 verified; "
                    "spots (5,6)->2, (5,10)->1; k=2n certified via vacuous bound + witness", t0)


def test_acceptance_11b_cycle_equal_n_spot(b5, b5_c5_witness):
    """Criterion 11 spot value (n=5, k=n=5): the certified value is 4, not 3.

    The cycle formula is established for 6 <= k <= 2n only; carrying its k=n
    branch down to k=5 would give 3, which is false. The value 4 is checked
    three ways: the library rejects k=5 with messages naming 4, the frozen
    4-member witness verifies, and an exhaustive scan finds no cut of at most
    two of B_5's 1072 C_5 copies (C(1072,1) + C(1072,2) = 575,128 checks).
    Ruling out three members takes 205,321,768 checks, 74 s on 2 cores
    under Python 3.11, too slow for this suite. Reproduce it with
    `dcnconn oracle bcdc --n 5 --shape C5 --bound 3 --jobs 2
    --max-checks 300000000`, which answers status=no.
    """
    t0 = time.time()
    c5 = ShapeSpec.cycle(5)
    with pytest.raises(ParameterError, match="value is 4"):
        predicted_kappa("bcdc", {"n": 5}, c5, STRUCTURE)
    with pytest.raises(ParameterError, match="minimum is 4"):
        structure_cut_for("bcdc", {"n": 5}, c5, STRUCTURE)
    report = verify_cut(b5, b5_c5_witness, c5, STRUCTURE)
    ok = (report.passed and len(b5_c5_witness.members) == 4
          and smallest_component(b5, b5_c5_witness) == ("00000|00001",))
    res = exists_cut_of_size(b5, c5, STRUCTURE, 2, jobs=JOBS)
    ok = (ok and res.status == NO and res.copies == 1072
          and res.checks == comb(1072, 1) + comb(1072, 2))
    _report("11b", ok, "spot value n=5, k=n=5 -> 4: rejections name 4, 4-member witness "
                       "verified, no cut of <= 2 of the 1072 copies (exhaustive)", t0)


def test_acceptance_12_growth_bound():
    t0 = time.time()
    ok = True
    for m in range(0, 4):
        for n in range(2, 7):
            bound = Fraction(2 * n + 1, 2) ** (2**m) - Fraction(1, 2)
            ok = ok and Fraction(t_size(m, n)) >= bound
    _report(12, ok, "t_{m,n} >= (n+1/2)^(2^m) - 1/2 in exact rationals, m<=3, n<=6", t0)


def test_acceptance_13_cross_validation():
    t0 = time.time()
    instances = []
    for n in range(2, 7):
        instances.append(build_dcell(0, n))
    for n in (2, 3, 4):
        instances.append(build_dcell(1, n))
    instances.append(build_dcell(2, 2))
    for n in (2, 3, 4, 5):
        instances.append(build_crossed_cube(n))
    instances.append(build_bcdc(3))
    instances.append(build_bcdc(4))
    labels = [str(i) for i in range(6)]
    instances.append(build_graph(labels, [(labels[i], labels[(i + 1) % 6]) for i in range(6)]))
    labels = list("abcde")
    instances.append(
        build_graph(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]])
    )
    budget = SearchBudget(max_candidates=10**6, max_checks=100_000_000)
    ok = True
    for g in instances:
        assert g.vertex_count <= 100
        res = exists_cut_of_size(g, ShapeSpec.single(), STRUCTURE, 10, budget, jobs=JOBS)
        ok = ok and res.status == CERTIFIED and res.value == min_vertex_cut(g)
    _report(13, ok, "exists_cut_of_size(Single) = max-flow min_vertex_cut on all "
                    f"{len(instances)} generated instances (<= 100 vertices)", t0)
