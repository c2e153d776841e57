import logging
import random
import re
from dataclasses import replace
from itertools import accumulate
from math import comb
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALL_SHAPES, brute_force_first_cut, neighbor_labels, neighbor_set,
                      reference_answer)
from dcnconn import (
    SearchBudget,
    ShapeSpec,
    StructureCut,
    build_graph,
    certify_min,
    components,
    delete_vertices,
    enumerate_shape_copies,
    exists_cut_of_size,
    g_extra_connectivity,
    min_vertex_cut,
    structure_cut_for,
    verify_cut,
)
from dcnconn import search
from dcnconn.bcdc import build_bcdc
from dcnconn.dcell import build_dcell
from dcnconn.graph import ids
from dcnconn.search import BUDGET, CERTIFIED, NO
from dcnconn.shapes import MODES, STRUCTURE, SUBSTRUCTURE


class TestExists:
    def test_k5_single_edge_bound1(self, k5):
        res = exists_cut_of_size(k5, ShapeSpec.star(1), STRUCTURE, 1)
        assert res.status == NO
        assert res.copies == 10

    def test_d14_star_bound2_no(self, d14):
        res = exists_cut_of_size(d14, ShapeSpec.star(1), STRUCTURE, 2)
        assert res.status == NO
        assert res.checks == 40 + 780

    def test_d14_star_bound3_yes(self, d14):
        res = exists_cut_of_size(d14, ShapeSpec.star(1), STRUCTURE, 3)
        assert res.status == CERTIFIED
        assert len(res.witness.members) == 3
        assert verify_cut(d14, res.witness, ShapeSpec.star(1), STRUCTURE).passed

    def test_yes_witness_must_pass_verification(self, d14, monkeypatch):
        # a scan hit that verify_cut rejects is a fault in the oracle, not an answer
        from types import SimpleNamespace

        monkeypatch.setattr(search, "verify_cut", lambda *args: SimpleNamespace(passed=False))
        assert exists_cut_of_size(d14, ShapeSpec.star(1), STRUCTURE, 2).status == NO
        with pytest.raises(AssertionError, match="failed independent verification"):
            exists_cut_of_size(d14, ShapeSpec.star(1), STRUCTURE, 3)

    def test_witness_is_the_first_cut_among_the_copies(self, d14):
        # the oracle keeps only masks and rebuilds the witness from its indices
        from itertools import combinations

        from dcnconn.graph import delete_vertices, is_connected
        from dcnconn.shapes import enumerate_shape_copies

        copies = enumerate_shape_copies(d14, ShapeSpec.star(1), STRUCTURE)
        first = next(c for c in combinations(list(copies), 3) if not is_connected(
            delete_vertices(d14, {d14.label_of(i) for ids in c for i in ids})))
        res = exists_cut_of_size(d14, ShapeSpec.star(1), STRUCTURE, 3)
        assert res.witness.shape == ShapeSpec.star(1)
        assert res.witness.members == tuple(
            tuple(d14.label_of(i) for i in ids) for ids in first)

    def test_bound_zero_vacuous(self, b3):
        res = exists_cut_of_size(b3, ShapeSpec.cycle(4), STRUCTURE, 0)
        assert res.status == NO and res.checks == 0

    def test_rejects_disconnected(self):
        from dcnconn import build_graph

        g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        with pytest.raises(ValueError, match="connected"):
            exists_cut_of_size(g, ShapeSpec.star(1), STRUCTURE, 1)

    def test_budget_trip_reports_partial(self, b4):
        tiny = SearchBudget(max_candidates=10_000, max_checks=50)
        res = exists_cut_of_size(b4, ShapeSpec.star(1), STRUCTURE, 4, tiny)
        assert res.status == BUDGET
        assert "cap" in res.note

    def test_candidate_cap_trips(self, b4):
        tiny = SearchBudget(max_candidates=10, max_checks=10**6)
        res = exists_cut_of_size(b4, ShapeSpec.star(1), STRUCTURE, 2, tiny)
        assert res.status == BUDGET

    def test_candidate_cap_boundary(self, d14):
        # D_{1,4} has exactly 40 K_{1,1} copies: a cap of 40 admits them all
        at = exists_cut_of_size(d14, ShapeSpec.star(1), STRUCTURE, 1,
                                SearchBudget(max_candidates=40))
        assert (at.status, at.copies, at.checks) == (NO, 40, 40)
        below = exists_cut_of_size(d14, ShapeSpec.star(1), STRUCTURE, 1,
                                   SearchBudget(max_candidates=39))
        assert (below.status, below.checks, below.note) == (BUDGET, 0, "candidate cap reached")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exists_scan_logs_each_size(self, d14, caplog, monkeypatch, jobs):
        # 40 edges: sizes 1 and 2 are scanned in full, size 3 holds the witness;
        # size 1 is one range, and each later size's results are logged one
        # leading index at a time, counting from 0 again at each size, by the
        # caller alone; each size ends with the subsets flooded and those
        # answered from the memo: at size 3 two unions repeat. The records are
        # the same for every job count
        monkeypatch.setattr(search, "_LOG_EVERY", 1)
        monkeypatch.setattr(search, "_POOL_MIN", 0)
        with caplog.at_level(logging.INFO, logger="dcnconn.search"):
            res = exists_cut_of_size(d14, ShapeSpec.star(1), STRUCTURE, 3, jobs=jobs)
        assert (res.status, res.value, res.checks) == (CERTIFIED, 3, 40 + 780 + 33)
        messages = [r.getMessage() for r in caplog.records]
        assert [m for m in messages if "flooded" in m] == [
            "size=1 subsets flooded=0 of 40 examined, 0 repeated unions not flooded",
            "size=2 subsets flooded=15 of 780 examined, 0 repeated unions not flooded",
            "size=3 subsets flooded=3 of 33 examined, 2 repeated unions not flooded"]
        assert [_progress_record(m) for m in messages if "flooded" not in m] == [
            (1, 40, 40), *((2, examined, 780) for examined in accumulate(range(39, 0, -1)))]


class TestMinCut:
    """Sizes are scanned from 1 up, so a cut `exists_cut_of_size` finds is the least."""

    def test_k5_star1(self, k5):
        res = exists_cut_of_size(k5, ShapeSpec.star(1), STRUCTURE, 8)
        assert res.value == 2

    def test_b3_star1(self, b3):
        # two clique edges cover N(u); kappa(B_3)=4 rules out a single edge
        res = exists_cut_of_size(b3, ShapeSpec.star(1), STRUCTURE, 8)
        assert res.value == 2
        assert verify_cut(b3, res.witness, ShapeSpec.star(1), STRUCTURE).passed

    def test_c6_single(self, c6):
        res = exists_cut_of_size(c6, ShapeSpec.single(), STRUCTURE, 8)
        assert res.value == 2 == min_vertex_cut(c6)

    def test_no_cut_exists(self, c6):
        # C6 has no triangles, so no clique-3 cut at all
        res = exists_cut_of_size(c6, ShapeSpec.clique(3), STRUCTURE, 8)
        assert res.status == NO and res.lower_bound_proven == res.copies

    def test_substructure_le_structure(self, d14):
        sub = exists_cut_of_size(d14, ShapeSpec.star(1), SUBSTRUCTURE, 8).value
        st = exists_cut_of_size(d14, ShapeSpec.star(1), STRUCTURE, 8).value
        assert sub <= st
        assert sub == st == 3

    @pytest.mark.usefixtures("pool_every_size")
    def test_jobs_do_not_change_witness(self, b3):
        one = exists_cut_of_size(b3, ShapeSpec.star(1), STRUCTURE, 8, jobs=1)
        two = exists_cut_of_size(b3, ShapeSpec.star(1), STRUCTURE, 8, jobs=2)
        assert one.value == two.value
        assert one.witness.members == two.witness.members


class TestFormulaAgreement:
    def test_level0_grid_matches_formula(self):
        # every in-range shape on the complete-graph level
        from dcnconn import predicted_kappa
        from dcnconn.dcell import build_dcell

        for n in (4, 5, 6):
            g = build_dcell(0, n)
            for t in range(1, n - 1):
                for mode in (STRUCTURE, SUBSTRUCTURE):
                    want = predicted_kappa("dcell", {"m": 0, "n": n}, ShapeSpec.star(t), mode)
                    res = exists_cut_of_size(g, ShapeSpec.star(t), mode, 8)
                    assert (res.status, res.value) == (CERTIFIED, want), (n, t, mode)
            for s in range(3, n):
                want = predicted_kappa("dcell", {"m": 0, "n": n}, ShapeSpec.clique(s), STRUCTURE)
                res = exists_cut_of_size(g, ShapeSpec.clique(s), STRUCTURE, 8)
                assert (res.status, res.value) == (CERTIFIED, want), (n, s)


class TestCertify:
    def test_certify_d14_star(self, d14):
        cut = structure_cut_for("dcell", {"m": 1, "n": 4}, ShapeSpec.star(1), STRUCTURE)
        res = certify_min(d14, ShapeSpec.star(1), STRUCTURE, 3, witness=cut)
        assert res.status == "certified"
        assert res.lower_bound_proven == 2

    def test_certify_refutes_too_big_value(self, k5):
        res = certify_min(k5, ShapeSpec.star(1), STRUCTURE, 3, _K5_THREE_EDGES)
        assert (res.status, res.value, res.lower_bound_proven) == ("refuted", 2, 1)
        assert (res.checks, res.note) == (17, "found a cut of 2 members")

    def test_certify_wrong_witness_size(self, d14):
        cut = _d14_cut(3)
        res = certify_min(d14, K11, STRUCTURE, 4, witness=cut)
        assert res.status == "refuted"


def _progress_record(message: str) -> tuple[int, int, int]:
    """(size, subsets examined, subsets of that size) from a progress record."""
    size, examined, total = re.fullmatch(
        r"size=(\d+) subsets examined=([\d,]+) / ([\d,]+)", message).groups()
    return int(size), int(examined.replace(",", "")), int(total.replace(",", ""))


class TestGExtra:
    def test_c6(self, c6):
        res = g_extra_connectivity(c6, 0)
        assert res.value == 2

    def test_b3(self, b3):
        res = g_extra_connectivity(b3, 0)
        assert res.value == 4

    def test_c6_h1(self, c6):
        # both components must have >= 2 vertices: still 2 for a 6-cycle
        res = g_extra_connectivity(c6, 1)
        assert res.value == 2

    def test_budget_trip(self, b4):
        tiny = SearchBudget(max_candidates=10**6, max_checks=100)
        res = g_extra_connectivity(b4, 1, tiny)
        assert res.status == BUDGET
        assert res.value is None


@pytest.fixture
def pool_every_size(monkeypatch):
    """Send every size of 2 or more to the pool when jobs > 1: the test
    inputs are far below the subset count at which a scan starts one."""
    monkeypatch.setattr(search, "_POOL_MIN", 0)


def _pool_sizes(monkeypatch) -> list[int]:
    """The worker count of each pool started from now on, as it starts."""
    import multiprocessing
    from types import SimpleNamespace

    real, workers = multiprocessing.get_context, []

    def context(*args):
        ctx = real(*args)

        def pool(processes, **kwargs):
            workers.append(processes)
            return ctx.Pool(processes, **kwargs)
        return SimpleNamespace(Pool=pool)

    monkeypatch.setattr(multiprocessing, "get_context", context)
    return workers


@pytest.mark.usefixtures("pool_every_size")
class TestJobsParity:
    """Capped scans settle the same at every job count: same status, witness,
    note and checks, and never more checks than the cap."""

    @pytest.mark.parametrize("cap", [1, 7, 40, 300, 820, 821, 5000])
    @pytest.mark.parametrize("graph", ["b3", "b4", "d14"])
    def test_capped_oracles_match_serial(self, request, graph, cap):
        g = request.getfixturevalue(graph)
        budget = SearchBudget(max_checks=cap)
        calls = [
            lambda jobs: exists_cut_of_size(g, ShapeSpec.star(1), STRUCTURE, 3, budget, jobs),
            lambda jobs: exists_cut_of_size(g, ShapeSpec.path(4), STRUCTURE, 3, budget, jobs),
            lambda jobs: exists_cut_of_size(g, ShapeSpec.star(1), STRUCTURE, 4, budget, jobs),
            lambda jobs: g_extra_connectivity(g, 0, budget, jobs),
        ]
        for call in calls:
            one, two = call(1), call(2)
            assert one == two
            assert one.checks <= cap

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scan_ending_at_the_cap_is_exhaustive(self, d14, jobs):
        # C(40,1) + C(40,2) = 820 subsets: a cap of exactly 820 leaves none unchecked
        res = exists_cut_of_size(d14, ShapeSpec.star(1), STRUCTURE, 2,
                                 SearchBudget(max_checks=820), jobs)
        assert (res.status, res.checks, res.note) == (NO, 820, "")

    @pytest.mark.parametrize("units, want", [(8192, (None, 8192, "", 8192, 0)),
                                             (8193, (None, 8192, "stopped", 8192, 0))])
    def test_kernel_tests_the_stop_flag_only_with_subsets_left(self, k5, units, want,
                                                                monkeypatch):
        # empty unit masks never cut K_5; the caller's flag is up before the scan
        from types import SimpleNamespace

        monkeypatch.setattr(search, "_worker_stop", SimpleNamespace(value=1))
        ctx = (k5.neighbor_tables, (1 << k5.vertex_count) - 1, [0] * units, 0, [0] * units, 0,
               [0] * units, 0, [], True)
        assert search._scan_range(ctx, 1, 0, units, 10**6) == want

    @pytest.mark.parametrize("lo, hi, cap, want", [
        (0, 10, 1, (None, 1, "check cap reached", 0, 0)),
        (0, 10, 44, (None, 44, "check cap reached", 0, 0)),
        (0, 10, 45, (None, 45, "", 0, 0)),
        (3, 4, 5, (None, 5, "check cap reached", 0, 0)),
        (3, 4, 6, (None, 6, "", 0, 0))])
    def test_a_cap_inside_a_skipped_block_trips_at_the_cap(self, k5, lo, hi, cap, want):
        # no copy meets the one family set, so the pairs of 10 copies with a
        # leading index in [lo, hi) are one skipped block: 45, or 6 from index 3
        ctx = (k5.neighbor_tables, (1 << k5.vertex_count) - 1, [0] * 10, 0, [0] * 10, 1,
               [0] * 10, 0, [0], True)
        assert search._scan_range(ctx, 2, lo, hi, cap) == want

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        # K_4 has 6 K_{1,1} copies: size 1 is scanned serially, and size 2, the
        # first to take the pool, has 5 leading-index tasks, so 8 jobs start 5
        workers = _pool_sizes(monkeypatch)
        k4 = build_dcell(0, 4)
        one = exists_cut_of_size(k4, K11, STRUCTURE, 3, jobs=1)
        assert exists_cut_of_size(k4, K11, STRUCTURE, 3, jobs=8) == one
        assert workers == [5]

    def test_pool_stops_its_workers_without_killing_them(self, d14, monkeypatch):
        # a worker killed while it holds the result queue's lock hangs the
        # pool's shutdown, so a scan that stops early drains the pool instead
        import multiprocessing.pool

        def refuse(pool):
            raise AssertionError("pool terminated")

        monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", refuse)
        for cap in (1, 40, 300):
            res = exists_cut_of_size(d14, K11, STRUCTURE, 3, SearchBudget(max_checks=cap), 2)
            assert (res.status, res.checks) == (BUDGET, cap)

    def test_certify_requires_a_witness(self, d14):
        # searching for a cut is exists_cut_of_size's job; certify_min checks one
        with pytest.raises(TypeError, match="witness"):
            certify_min(d14, ShapeSpec.star(1), STRUCTURE, 3)


K11 = ShapeSpec.star(1)


def _d14_cut(members: int) -> StructureCut:
    """The first `members` members of the constructed 3-member K_{1,1} cut of D_{1,4}."""
    cut = structure_cut_for("dcell", {"m": 1, "n": 4}, K11, STRUCTURE)
    return StructureCut(K11, cut.members[:members], STRUCTURE)


# three edges of K_5: the first two already leave one vertex, so K_5 has a 2-member cut
_K5_THREE_EDGES = StructureCut(K11, (("a", "b"), ("c", "d"), ("a", "e")), STRUCTURE)

# three edges at one vertex of D_{1,4}: valid members whose removal leaves it connected
_NOT_A_CUT = StructureCut(
    K11, tuple(("0.0", leaf) for leaf in ("0.1", "0.2", "0.3")), STRUCTURE
)

BOUND_CASES = [
    # (id, graph fixture, oracle call, status, value, lower_bound_proven)
    ("exists-yes", "d14", lambda g: exists_cut_of_size(g, K11, STRUCTURE, 3), CERTIFIED, 3, 2),
    ("exists-no", "d14", lambda g: exists_cut_of_size(g, K11, STRUCTURE, 2), NO, None, 2),
    ("exists-bound-0", "b3",
     lambda g: exists_cut_of_size(g, ShapeSpec.cycle(4), STRUCTURE, 0), NO, None, 0),
    ("exists-check-cap", "d14", lambda g: exists_cut_of_size(
        g, K11, STRUCTURE, 3, SearchBudget(max_checks=100)), BUDGET, None, 1),
    ("exists-candidate-cap", "d14", lambda g: exists_cut_of_size(
        g, K11, STRUCTURE, 3, SearchBudget(max_candidates=10)), BUDGET, None, 0),
    ("exists-bound-8-certified", "d14", lambda g: exists_cut_of_size(g, K11, STRUCTURE, 8),
     CERTIFIED, 3, 2),
    ("exists-bound-8-no-cut", "c6",
     lambda g: exists_cut_of_size(g, ShapeSpec.clique(3), STRUCTURE, 8), NO, None, 0),
    ("exists-bound-8-check-cap", "d14", lambda g: exists_cut_of_size(
        g, K11, STRUCTURE, 8, SearchBudget(max_checks=100)), BUDGET, None, 1),
    ("exists-bound-8-candidate-cap", "d14", lambda g: exists_cut_of_size(
        g, K11, STRUCTURE, 8, SearchBudget(max_candidates=10)), BUDGET, None, 0),
    ("extra-certified", "c6", lambda g: g_extra_connectivity(g, 0), "certified", 2, 1),
    ("extra-certified-b3", "b3", lambda g: g_extra_connectivity(g, 0), "certified", 4, 3),
    ("extra-no-cut", "k5", lambda g: g_extra_connectivity(g, 0), NO, None, 3),
    ("extra-check-cap", "b3", lambda g: g_extra_connectivity(
        g, 0, SearchBudget(max_checks=20)), BUDGET, None, 1),
    ("certify-with-witness", "d14", lambda g: certify_min(
        g, K11, STRUCTURE, 3, witness=_d14_cut(3)), "certified", 3, 2),
    ("certify-smaller-cut", "k5", lambda g: certify_min(
        g, K11, STRUCTURE, 3, _K5_THREE_EDGES), "refuted", 2, 1),
    ("certify-witness-size", "d14", lambda g: certify_min(
        g, K11, STRUCTURE, 3, witness=_d14_cut(2)), "refuted", 3, 2),
    ("certify-witness-not-a-cut", "d14", lambda g: certify_min(
        g, K11, STRUCTURE, 3, witness=_NOT_A_CUT), "refuted", 3, 2),
    ("certify-value-1-witness", "d14", lambda g: certify_min(
        g, K11, STRUCTURE, 1, witness=_d14_cut(3)), "refuted", 1, 0),
    ("certify-check-cap", "d14", lambda g: certify_min(
        g, K11, STRUCTURE, 3, _d14_cut(3), SearchBudget(max_checks=100)), BUDGET, 3, 1),
    ("certify-candidate-cap", "d14", lambda g: certify_min(
        g, K11, STRUCTURE, 3, _d14_cut(3), SearchBudget(max_candidates=10)), BUDGET, 3, 0),
]


@pytest.mark.parametrize("graph, call, status, value, bound",
                         [pytest.param(*case[1:], id=case[0]) for case in BOUND_CASES])
def test_value_and_lower_bound_proven(request, graph, call, status, value, bound):
    """`value` is the size of the reported cut (for certify_min the value asked
    about, unless a smaller cut refutes it); `lower_bound_proven` is the last
    size scanned in full: one below the size where the scan stopped, or the
    last size after a complete scan."""
    res = call(request.getfixturevalue(graph))
    assert (res.status, res.value, res.lower_bound_proven) == (status, value, bound)


def test_a_refuting_cut_must_pass_verification(k5, monkeypatch):
    # the least K_{1,1} cut of K_5 has 2 members, found by the scan of sizes 1..2;
    # it refutes the value 3 only once verify_cut passes it, like any found cut
    from types import SimpleNamespace

    monkeypatch.setattr(search, "verify_cut", lambda *args: SimpleNamespace(passed=False))
    with pytest.raises(AssertionError, match="oracle witness failed independent verification"):
        certify_min(k5, K11, STRUCTURE, 3, _K5_THREE_EDGES)


def _isolating_witness(g, shape, mode, size):
    """A cut of `size` copies that isolates a vertex x: copies avoiding x that
    cover its neighbours, padded with further copies avoiding x. None when no
    vertex has such a cover."""
    copies = list(enumerate_shape_copies(g, shape, mode))
    for x in range(g.vertex_count):
        usable = [c for c in copies if x not in c]
        near = neighbor_set(g, x)

        def extend(chosen, covered):
            left = near - covered
            if not left:
                return chosen
            if len(chosen) == size:
                return None
            first = min(left)
            for c in usable:
                if first in c and (found := extend(chosen + [c], covered | set(c))):
                    return found
            return None

        chosen = extend([], set())
        if chosen is not None:
            chosen += [c for c in usable if c not in chosen][:size - len(chosen)]
            if len(chosen) == size:
                return StructureCut(shape, tuple(tuple(g.label_of(v) for v in c)
                                                 for c in chosen), mode)
    return None


def _bound_note(g, shape, mode, value) -> str:
    """The size-bound note certify_min settles `value` with, or "" where the
    bound does not settle it: with a candidate cap of 0, no other route
    answers without a copy."""
    note = certify_min(g, shape, mode, value, StructureCut(shape, (), mode),
                       SearchBudget(max_candidates=0)).note
    return note.partition("; ")[0] if note.startswith("size bound") else ""


def _check_size_bound_at_its_limit(g, shape, mode, kappa) -> bool:
    """At the largest value the size bound settles, the unpruned scan of the
    sizes below it finds no cut, and certify_min, given a cut of that value,
    certifies it from the bound with the same lower bound. False when the
    value has no isolating cut to certify with."""
    value = (kappa - 1) // shape.vertex_count + 1
    note = f"size bound: {value - 1} x {shape.vertex_count} vertices < kappa {kappa}"
    assert _bound_note(g, shape, mode, value) == note
    assert not _bound_note(g, shape, mode, value + 1)
    case = (shape.tag, mode, value)
    assert exists_cut_of_size(g, shape, mode, value - 1).status == NO, case
    witness = _isolating_witness(g, shape, mode, value)
    if witness is None:
        return False
    res = certify_min(g, shape, mode, value, witness=witness)
    assert (res.status, res.lower_bound_proven, res.checks, res.copies, res.note) == (
        "certified", value - 1, 0, 0, note), case
    return True


def _two_k5(*bridges):
    """K_5 on vertices 0..4 and K_5 on 5..9, joined by the given edges."""
    labels = [str(v) for v in range(10)]
    edges = [(labels[u], labels[v]) for block in (range(5), range(5, 10))
             for u in block for v in block if u < v]
    return build_graph(labels, edges + list(bridges))


GRID_SHAPES = ([ShapeSpec.star(t) for t in range(1, 5)]
               + [ShapeSpec.clique(s) for s in range(3, 5)]
               + [ShapeSpec.path(k) for k in range(3, 6)]
               + [ShapeSpec.cycle(k) for k in range(3, 6)])


class TestSizeBound:
    @pytest.mark.parametrize("family, params, want", [
        ("bcdc", {"n": 3}, (10, 8)), ("bcdc", {"n": 4}, (24, 20)),
        ("dcell", {"m": 0, "n": 5}, (10, 10)), ("dcell", {"m": 1, "n": 4}, (10, 8)),
    ])
    def test_bound_agrees_with_the_unpruned_scan(self, family, params, want):
        nx = pytest.importorskip("networkx")
        g = build_bcdc(params["n"]) if family == "bcdc" else build_dcell(params["m"], params["n"])
        kappa = nx.node_connectivity(nx.Graph(list(g.edges())))
        cases = [(shape, mode) for shape in GRID_SHAPES for mode in MODES
                 if shape.vertex_count < kappa
                 and next(enumerate_shape_copies(g, shape, mode), None) is not None]
        certified = sum(_check_size_bound_at_its_limit(g, shape, mode, kappa)
                        for shape, mode in cases)
        assert (len(cases), certified) == want

    def test_bound_settles_a_certification_without_a_scan(self, b5):
        res = certify_min(b5, ShapeSpec.star(2), STRUCTURE, 3, witness=structure_cut_for(
            "bcdc", {"n": 5}, ShapeSpec.star(2), STRUCTURE))
        assert (res.status, res.value, res.lower_bound_proven, res.checks, res.copies) == (
            "certified", 3, 2, 0, 0)
        assert res.note == "size bound: 2 x 3 vertices < kappa 8"

    def test_bound_does_not_apply_past_kappa(self, d14):
        # 2 x 2 vertices is not below kappa(D_{1,4}) = 4: sizes 1..2 are scanned
        res = certify_min(d14, K11, STRUCTURE, 3, witness=_d14_cut(3))
        assert (res.status, res.lower_bound_proven, res.checks, res.note) == (
            "certified", 2, 40 + 780, "")

    def test_bound_never_bypasses_verification(self, b4):
        # 2 x 2 < kappa(B_4) = 6 settles sizes 1..2 of K_{1,1}, yet the least
        # K_{1,1} cut of B_4 has 4 members, so no witness of 3 passes
        rule = "size bound: 2 x 2 vertices < kappa 6"
        four = _isolating_witness(b4, K11, STRUCTURE, 4)
        res = certify_min(b4, K11, STRUCTURE, 3, witness=four)
        assert (res.status, res.value, res.lower_bound_proven, res.checks) == ("refuted", 3, 2, 0)
        assert res.note == f"{rule}; witness has 4 members, expected 3"
        three = StructureCut(K11, four.members[:3], STRUCTURE)
        res = certify_min(b4, K11, STRUCTURE, 3, witness=three)
        assert (res.status, res.lower_bound_proven) == ("refuted", 2)
        assert res.note == f"{rule}; witness failed verification"

    def test_bound_never_certifies_a_witness_of_another_shape(self):
        # 2 x 1 < kappa(D_{1,5}) = 5 settles sizes 1..2 of K_1, but the witness
        # is three K_{1,1} stars: its members are not single vertices
        d15 = build_dcell(1, 5)
        stars = structure_cut_for("dcell", {"m": 1, "n": 5}, K11, STRUCTURE)
        res = certify_min(d15, ShapeSpec.single(), STRUCTURE, 3, witness=stars)
        assert (res.status, res.value, res.lower_bound_proven, res.checks) == ("refuted", 3, 2, 0)
        assert res.note == "size bound: 2 x 1 vertices < kappa 5; witness failed verification"

    def test_bound_stops_at_kappa_below_the_min_degree(self):
        # min degree 4 but kappa 2, and the edge 0-1 alone is a cut, so
        # 1 x 2 vertices settles nothing
        g = _two_k5(("0", "5"), ("1", "6"))
        assert _bound_note(g, K11, STRUCTURE, 1) == "size bound: 0 x 2 vertices < kappa 2"
        assert not _bound_note(g, K11, STRUCTURE, 2)
        two = StructureCut(K11, (("0", "1"), ("2", "3")), STRUCTURE)
        res = certify_min(g, K11, STRUCTURE, 2, witness=two)
        assert (res.status, res.value, res.note) == ("refuted", 1, "found a cut of 1 members")

    def test_bound_keeps_the_disconnected_graph_error(self):
        g = _two_k5()  # min degree 4 > 1 x 2, so only connectivity stops the bound
        witness = StructureCut(K11, (("0", "1"),), STRUCTURE)
        with pytest.raises(ValueError, match="the structure-cut oracles require a connected graph"):
            certify_min(g, K11, STRUCTURE, 2, witness=witness)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bound_agrees_with_the_unpruned_scan_on_random_graphs(self, data):
        nx = pytest.importorskip("networkx")
        n = data.draw(st.integers(3, 8))
        edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if data.draw(st.booleans())}
        g = build_graph([str(v) for v in range(n)], [(str(u), str(v)) for u, v in edges])
        shape = data.draw(st.sampled_from([ShapeSpec.star(1), ShapeSpec.star(2),
                                           ShapeSpec.clique(3), ShapeSpec.path(3),
                                           ShapeSpec.cycle(3)]))
        mode = data.draw(st.sampled_from(MODES))
        _check_size_bound_at_its_limit(g, shape, mode, nx.node_connectivity(nx.Graph(list(edges))))


def test_a_zero_candidate_cap_enumerates_no_copy(d14):
    # the size bound (3 x 1 vertices < kappa 4) needs no copy; a scan needs one
    single = ShapeSpec.single()
    isolate = StructureCut(single, tuple((v,) for v in sorted(neighbor_labels(d14, "0.0"))),
                           STRUCTURE)
    bound = certify_min(d14, single, STRUCTURE, 4, isolate, SearchBudget(max_candidates=0))
    assert (bound.status, bound.copies, bound.checks) == ("certified", 0, 0)
    scan = exists_cut_of_size(d14, K11, STRUCTURE, 2, SearchBudget(max_candidates=0))
    assert (scan.status, scan.note, scan.checks) == (BUDGET, "candidate cap reached", 0)


def _family_caps():
    """Candidate caps around the leaf families of D_{1,4} K_{1,2}: 0, one
    inside the first family (of 3 leaves), one at the edge after the second
    family, and the copy count less one and itself."""
    from itertools import accumulate

    from dcnconn.shapes import _leaf_families

    sizes = [leaves.bit_count() for _, _, leaves in
             _leaf_families(build_dcell(1, 4), ShapeSpec.star(2), STRUCTURE)]
    ends = list(accumulate(sizes))
    assert sizes[0] == 3 and ends[-1] == 120
    caps = {"zero": 0, "inside": 1, "edge": ends[1], "one-short": ends[-1] - 1, "all": ends[-1]}
    return [pytest.param(cap, id=name) for name, cap in caps.items()]


@pytest.mark.parametrize("cap", _family_caps())
def test_the_candidate_cap_trips_as_the_copy_at_a_time_rule(d14, cap):
    # the oracle counts copies a leaf family at a time; the rule it keeps
    # reads one copy past the cap, and trips when that copy exists
    from itertools import islice

    shape = ShapeSpec.star(2)
    res = exists_cut_of_size(d14, shape, STRUCTURE, 2, SearchBudget(max_candidates=cap))
    if sum(1 for _ in islice(enumerate_shape_copies(d14, shape, STRUCTURE), cap + 1)) > cap:
        want = (BUDGET, cap, 0, "candidate cap reached")
    else:
        plain = exists_cut_of_size(d14, shape, STRUCTURE, 2)
        want = (plain.status, plain.copies, plain.checks, plain.note)
    assert (res.status, res.copies, res.checks, res.note) == want


def test_budget_rejects_a_negative_candidate_cap():
    with pytest.raises(ValueError, match="the candidate cap may be 0"):
        SearchBudget(max_candidates=-1)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_separates_agrees_with_components(data):
    # reference: delete the vertices, then count and size the components
    n = data.draw(st.integers(2, 9))
    edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if data.draw(st.booleans())}
    g = build_graph([str(v) for v in range(n)], [(str(u), str(v)) for u, v in edges])
    left = data.draw(st.sampled_from([0, 1, *range(2, n + 1)]))
    kept = data.draw(st.permutations(range(n)))[:left]
    removed = [v for v in range(n) if v not in kept]
    h = data.draw(st.sampled_from([0, 1, 2]))
    comps = components(delete_vertices(g, [g.label_of(v) for v in removed]))
    want = left <= 1 or (len(comps) >= 2 and all(len(c) > h for c in comps))
    mask = sum(1 << v for v in removed)
    assert search._separates(g.neighbor_tables, (1 << n) - 1, mask, h) == want


def test_budget_has_no_time_cap():
    # both caps count, so an answer cannot depend on how fast the scan runs
    with pytest.raises(TypeError, match="time_cap_secs"):
        SearchBudget(time_cap_secs=1)


# --- the connected-dominating-set filter --------------------------------------


@st.composite
def _connected_graphs(draw, low=2, high=8):
    """A random tree on low..high vertices plus random extra edges."""
    n = draw(st.integers(low, high))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())}
    return build_graph([str(v) for v in range(n)], [(str(u), str(v)) for u, v in edges])


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _check_family(g) -> list[int]:
    """Each set of the family is connected, dominating and of at least 2
    vertices, checked by deleting the vertices outside it."""
    family = search._dominating_family(g)
    assert len(family) == len(set(family))
    for d in family:
        inside = _members(d)
        assert len(inside) >= 2
        assert all(v in inside or neighbor_set(g, v) & set(inside) for v in range(g.vertex_count))
        assert len(components(delete_vertices(
            g, [g.label_of(v) for v in range(g.vertex_count) if v not in inside]))) == 1
    return family


def _closed(g) -> list[int]:
    """Each vertex's closed neighbourhood, as a mask."""
    return [sum(1 << u for u in neighbor_set(g, v)) | 1 << v for v in range(g.vertex_count)]


def _unfiltered(call):
    """`call()` with an empty family, which skips nothing."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_dominating_family", lambda g, h=0: [])
        return call()


def _without_memo(call):
    """`call()` with the scan kernel's memo of unions off, so every union
    that passes the rules is flooded, repeated or not."""
    real = search._scan_sizes

    def plain(ctx, *args):
        return real((*ctx[:-1], False), *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_scan_sizes", plain)
        return call()


class TestDominatingFamily:
    @pytest.mark.parametrize("graph, sets", [("b3", 15), ("b4", 35), ("b5", 100), ("d14", 14)])
    def test_every_set_is_a_connected_dominating_set(self, request, graph, sets):
        # `sets` counts the sets of the runs with ties to the lowest and to the
        # highest id, the whole family before the shuffled tie orders came in
        g = request.getfixturevalue(graph)
        family = _check_family(g)
        assert len(family) == {"b3": 59, "b4": 318, "b5": 883, "d14": 77}[graph]
        closed = _closed(g)
        by_id = {sum(1 << v for v in search._greedy_cds(closed, start, order, rank))
                 for order, rank in search._tie_orders(g.vertex_count)[:2]
                 for start in range(g.vertex_count)}
        assert len(by_id) == sets and by_id <= set(family)

    @given(g=_connected_graphs())
    @settings(max_examples=100, deadline=None)
    def test_family_on_random_graphs(self, g):
        # a greedy run from a vertex that misses a neighbour ends with 2 or more
        # vertices, so the family is empty only when every vertex dominates alone
        n = g.vertex_count
        complete = all(len(neighbor_set(g, v)) == n - 1 for v in range(n))
        assert (not _check_family(g)) == complete

    @given(g=_connected_graphs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_each_lazy_greedy_step_takes_a_best_candidate(self, g, data):
        # every step takes, of the dominated vertices outside the set, one that
        # dominates the most new vertices, and of those the first in the order
        n = g.vertex_count
        closed = _closed(g)
        order, rank = data.draw(st.sampled_from(search._tie_orders(n)))
        assert sorted(order) == list(range(n)) and all(order[rank[v]] == v for v in range(n))
        start = data.draw(st.integers(0, n - 1))
        taken = search._greedy_cds(closed, start, order, rank)
        assert taken[0] == start
        chosen, dominated = 1 << start, closed[start]
        for v in taken[1:]:
            candidates = [u for u in order if dominated >> u & 1 and not chosen >> u & 1]
            gain = {u: (closed[u] & ~dominated).bit_count() for u in candidates}
            assert v == max(candidates, key=gain.__getitem__)  # max keeps the first
            chosen |= 1 << v
            dominated |= closed[v]
        assert dominated == (1 << n) - 1

    @given(g=_connected_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_removal_that_misses_a_set_never_separates(self, g, data):
        family = search._dominating_family(g)
        if not family:
            return
        d = data.draw(st.sampled_from(family))
        outside = [v for v in range(g.vertex_count) if not d >> v & 1]
        picked = data.draw(st.lists(st.sampled_from(outside), unique=True)) if outside else []
        removed = sum(1 << v for v in picked)
        full = (1 << g.vertex_count) - 1
        assert not any(search._separates(g.neighbor_tables, full, removed, h) for h in range(3))

    def test_filter_skips_floods(self, b4, monkeypatch):
        # B_4's 96 edges, sizes 1 and 2: no cut, and every subset misses one of
        # the 318 sets, whose checks take one flood each; the family's own
        # connectivity checks go through `graph`, not this counter
        floods = []
        flood = search.flood_mask

        def counted(*args):
            floods[-1] += 1
            return flood(*args)

        monkeypatch.setattr(search, "flood_mask", counted)

        def run():
            floods.append(0)
            return exists_cut_of_size(b4, K11, STRUCTURE, 2)

        plain = _without_memo(lambda: _unfiltered(run))
        assert _without_memo(run) == plain and plain.checks == 4656
        assert floods == [4656, 0]

    def test_filter_skips_floods_with_the_memo(self, b4):
        # as above with the memo on. Two pairs with one leading edge share a
        # union only as ab, ac and ab, bc of a triangle abc, once per triangle:
        # B_4, the line graph of the 4-regular CQ_4, has four triangles in
        # each of its 16 K_4s, so 64 of the 4,560 pairs are not flooded
        def run():
            return exists_cut_of_size(b4, K11, STRUCTURE, 2)

        plain, plain_floods = _with_floods(lambda: _unfiltered(run))
        assert _with_floods(run) == (plain, 0)
        assert plain_floods == 4656 - 64 and plain == _without_memo(lambda: _unfiltered(run))

    @pytest.mark.usefixtures("pool_every_size")
    def test_a_cap_at_a_skipped_block_edge_answers_as_the_plain_scan(self, b4, monkeypatch):
        # B_4 K_{1,1} at bound 2, 4,656 subsets. A block is the run of subsets
        # of one size and prefix whose next member comes at or after the
        # first index where the prefix's family bits, ORed with those of
        # every later copy, miss a set; it runs to the end of its leading
        # index's subsets, where a pool task ends.
        from functools import reduce
        from itertools import combinations
        from operator import or_

        family = search._dominating_family(b4)
        units = [sum(1 << v for v in ids) for ids in enumerate_shape_copies(b4, K11, STRUCTURE)]
        fam = search._incidence(family, units, b4.vertex_count)
        every, n = (1 << len(family)) - 1, len(units)
        later = [reduce(or_, fam[i:], 0) for i in range(n)]
        keys = []  # each subset's block and leading index, None outside a block
        for size in (1, 2):
            for combo in combinations(range(n), size):
                meets = 0
                keys.append(None)
                for d, i in enumerate(combo):
                    if meets | later[i] != every:
                        keys[-1] = (size, combo[:d], combo[0])
                        break
                    meets |= fam[i]
        keys.append(None)  # past the last subset, and before the first
        starts = {p for p, key in enumerate(keys) if key and key != keys[p - 1]}
        ends = {p for p, key in enumerate(keys) if keys[p - 1] and key != keys[p - 1]}
        assert len(keys) == 4657 and len(starts) == len(ends) > 80
        # a cap at an edge and one subset past it: at a block's start the cap
        # trips before the block, one past it inside; at its end the block
        # fits exactly, one past it the next subset fits. A pool settles its
        # tasks by their counts, so it is run at the ends, where tasks end.
        caps = {c: c - 1 in ends or c in ends for e in starts | ends for c in (e, e + 1)}
        # no subset hits, as the uncapped plain scan shows, so the capped plain
        # scans answer False to every subset without a flood
        assert _unfiltered(lambda: exists_cut_of_size(b4, K11, STRUCTURE, 2)).status == NO
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search, "_separates", lambda *args: False)
            plains = {cap: _unfiltered(lambda: exists_cut_of_size(
                b4, K11, STRUCTURE, 2, SearchBudget(max_checks=cap))) for cap in caps}
        monkeypatch.setattr(search, "_dominating_family", lambda g, h=0: family)  # built once
        for cap, pooled in caps.items():
            budget = SearchBudget(max_checks=cap)
            for jobs in (1, 2) if pooled else (1,):
                assert exists_cut_of_size(b4, K11, STRUCTURE, 2, budget, jobs) == plains[cap], (
                    cap, jobs)

    @pytest.mark.usefixtures("pool_every_size")
    @pytest.mark.parametrize("graph", ["b3", "b4", "d14"])
    def test_filtered_scan_matches_the_plain_scan(self, request, graph):
        # every shape and mode at bound 2; a graph with no copy answers alike
        g = request.getfixturevalue(graph)
        for shape in [ShapeSpec.single(), *GRID_SHAPES]:
            for mode in MODES:
                plain = _unfiltered(lambda: exists_cut_of_size(g, shape, mode, 2))
                for jobs in (1, 2):
                    assert exists_cut_of_size(g, shape, mode, 2, jobs=jobs) == plain, (
                        shape.tag, mode, jobs)

    @pytest.mark.usefixtures("pool_every_size")
    @pytest.mark.parametrize("graph", ["b3", "d14", "d15"])
    @pytest.mark.parametrize("h", [0, 1, 2])
    def test_filtered_g_extra_matches_the_plain_scan(self, request, graph, h):
        g = request.getfixturevalue(graph)
        plain = _unfiltered(lambda: g_extra_connectivity(g, h))
        assert plain.status == "certified"
        for jobs in (1, 2):
            assert g_extra_connectivity(g, h, jobs=jobs) == plain, jobs

    @given(g=_connected_graphs(3), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_filtered_oracles_match_on_random_graphs(self, g, data):
        shape = data.draw(st.sampled_from([ShapeSpec.single(), K11, ShapeSpec.star(2),
                                           ShapeSpec.path(3), ShapeSpec.cycle(3)]))
        mode = data.draw(st.sampled_from(MODES))
        h = data.draw(st.integers(0, 2))
        jobs = data.draw(st.sampled_from([1, 2]))
        calls = [lambda j: exists_cut_of_size(g, shape, mode, 3, jobs=j),
                 lambda j: g_extra_connectivity(g, h, jobs=j)]
        for call in calls:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(search, "_POOL_MIN", 0)
                pooled = call(jobs)
            assert pooled == _unfiltered(lambda: call(1))

    def test_a_size_1_scan_builds_no_family(self, d14, monkeypatch):
        # K_{1,3} on D_{1,4}: 1 x 4 vertices is not below kappa 4, so size 1
        # is scanned, and a size-1 scan checks each copy once without the family
        def refuse(g, h=0):
            raise AssertionError("family built for a size-1 scan")

        monkeypatch.setattr(search, "_dominating_family", refuse)
        star = ShapeSpec.star(3)
        cut = structure_cut_for("dcell", {"m": 1, "n": 4}, star, STRUCTURE)
        res = certify_min(d14, star, STRUCTURE, 2, cut)
        assert (res.status, res.lower_bound_proven, res.checks) == ("certified", 1, 80)


def _extra_floods(caplog, g, h, jobs, family=None) -> tuple:
    """`g_extra_connectivity(g, h)`'s answer and the subsets it flooded at
    each size, skipping by `family` in place of the family for h if given."""
    with pytest.MonkeyPatch.context() as m:
        if family is not None:
            m.setattr(search, "_dominating_family", lambda g, h=0: family)
        res, lines = _flooded_lines(caplog, lambda: g_extra_connectivity(g, h, jobs=jobs))
    return res, [int(re.search(r"flooded=([\d,]+)", line)[1].replace(",", "")) for line in lines]


class TestExtraFamily:
    """The family of a g-extra scan with h >= 1: connected sets of at least 2
    vertices that leave no component of more than h vertices once their
    closed neighbourhood is deleted."""

    @pytest.mark.parametrize("graph", ["b3", "b4", "d14", "d15"])
    @pytest.mark.parametrize("h", [1, 2])
    def test_every_set_leaves_components_of_at_most_h_vertices(self, request, graph, h):
        g = request.getfixturevalue(graph)
        family = search._dominating_family(g, h)
        assert len(family) == len(set(family))
        assert len(family) == {"b3": (43, 47), "b4": (307, 314), "d14": (77, 77),
                               "d15": (178, 178)}[graph][h - 1]
        for d in family:
            inside = {g.label_of(v) for v in _members(d)}
            assert len(inside) >= 2
            assert len(components(delete_vertices(g, set(g.labels) - inside))) == 1
            near = inside.union(*(neighbor_labels(g, label) for label in inside))
            assert all(len(part) <= h for part in components(delete_vertices(g, near)))

    @pytest.mark.parametrize("graph", ["b3", "b4", "d14", "d15"])
    @pytest.mark.parametrize("h", [1, 2])
    def test_each_run_for_h_is_a_prefix_of_the_run_for_0(self, request, graph, h):
        # so every set of the family for 0 holds one for h, and a union that
        # misses the one misses the other
        g = request.getfixturevalue(graph)
        closed = _closed(g)
        for order, rank in search._tie_orders(g.vertex_count):
            for start in range(g.vertex_count):
                taken = search._greedy_cds(closed, start, order, rank, h)
                assert taken == search._greedy_cds(closed, start, order, rank)[:len(taken)]
        family = search._dominating_family(g, h)
        assert all(any(d & wide == d for d in family) for wide in search._dominating_family(g))

    @given(g=_connected_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_removal_that_misses_a_set_for_h_never_separates_with_h(self, g, data):
        h = data.draw(st.integers(1, 3))
        family = search._dominating_family(g, h)
        if not family:
            return
        d = data.draw(st.sampled_from(family))
        outside = [v for v in range(g.vertex_count) if not d >> v & 1]
        picked = data.draw(st.lists(st.sampled_from(outside), unique=True)) if outside else []
        full = (1 << g.vertex_count) - 1
        assert not search._separates(g.neighbor_tables, full, sum(1 << v for v in picked), h)

    @pytest.mark.usefixtures("pool_every_size")
    @pytest.mark.parametrize("graph", ["b3", "d14", "d15"])
    @pytest.mark.parametrize("h", [1, 2])
    def test_the_family_for_h_floods_no_more_than_the_family_for_0(self, request, caplog,
                                                                  graph, h):
        g = request.getfixturevalue(graph)
        for jobs in (1, 2):
            res, floods = _extra_floods(caplog, g, h, jobs)
            wide, wide_floods = _extra_floods(caplog, g, h, jobs, search._dominating_family(g))
            assert res == wide and res.status == CERTIFIED, jobs
            assert len(floods) == len(wide_floods) and all(map(int.__le__, floods, wide_floods))

    def test_b4_with_h_1_floods_fewer_subsets(self, b4, caplog):
        # the benchmark's g-extra scan: the answer is that of the family for
        # 0, at a twelfth of its floods
        for jobs in (1, 2):
            res, floods = _extra_floods(caplog, b4, 1, jobs)
            wide, wide_floods = _extra_floods(caplog, b4, 1, jobs, search._dominating_family(b4))
            assert res == wide, jobs
            assert (res.status, res.value, res.lower_bound_proven, res.checks) == (
                CERTIFIED, 8, 7, 4364035)
            assert res.witness == ("0000|0001", "0000|0010", "0000|0100", "0010|1010",
                                   "1000|1001", "1000|1100", "1010|1011", "1010|1110")
            assert (floods, wide_floods) == ([13, 1583, 128], [256, 19388, 1158]), jobs

    def test_only_a_g_extra_scan_asks_for_its_h(self, d14, monkeypatch):
        # a g-extra scan skips by the family for its own h, and a cut-mode
        # scan, which separates with h = 0, by the family for 0
        asked = []
        real = search._dominating_family

        def spy(g, h=0):
            asked.append(h)
            return real(g, h)

        monkeypatch.setattr(search, "_dominating_family", spy)
        for h in (0, 1, 2):
            asked.clear()
            assert g_extra_connectivity(d14, h).status == CERTIFIED
            assert asked == [h]
        asked.clear()
        assert exists_cut_of_size(d14, K11, STRUCTURE, 2).status == NO
        assert certify_min(d14, K11, STRUCTURE, 3, _d14_cut(3)).status == CERTIFIED
        assert asked == [0, 0]


def test_a_size_at_or_under_the_pool_threshold_is_scanned_serially(d14, monkeypatch):
    # D_{1,4} K_{1,1} at bound 2: 40 edges, then 780 pairs. Size 2 takes the
    # pool only when it has more than _POOL_MIN subsets to check, the fewer of
    # its 780 and the checks the budget has left after size 1
    workers = _pool_sizes(monkeypatch)
    for threshold, max_checks, pooled in [(search._POOL_MIN, 10**8, False),
                                          (780, 10**8, False), (779, 10**8, True),
                                          (779, 40 + 779, False), (778, 40 + 779, True)]:
        monkeypatch.setattr(search, "_POOL_MIN", threshold)
        budget = SearchBudget(max_checks=max_checks)
        workers.clear()
        two = exists_cut_of_size(d14, K11, STRUCTURE, 2, budget, jobs=2)
        assert workers == ([2] if pooled else []), (threshold, max_checks)
        assert two == exists_cut_of_size(d14, K11, STRUCTURE, 2, budget, jobs=1)


# --- the kappa rule of certify_min's scan -------------------------------------


def _without_kappa_rule(call):
    """`call()` with certify_min's scan run without the kappa rule, at either
    of its levels: the plain scan of every size below the value."""
    real = search._shape_oracle

    def plain(*args, **kwargs):
        return real(*args, **{**kwargs, "kappa_rule": False})

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_shape_oracle", plain)
        return call()


def _with_floods(call):
    """`call()`'s answer and the floods it made."""
    floods = 0
    real = search.flood_mask

    def counted(*args):
        nonlocal floods
        floods += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "flood_mask", counted)
        res = call()
    return res, floods


class TestKappaRule:
    @pytest.mark.parametrize("graph", ["b3", "b4", "d14"])
    def test_pruned_certification_matches_the_plain_one(self, request, graph):
        # the table's shapes, up to B_4's K_{1,5}: every value from 2 whose
        # scan of the sizes below fits in 30,000 subsets, as a table row at
        # that check cap is scanned, and one check cap that trips; the least
        # cut found at the largest such value is the witness for its own
        # value, an empty cut for the others
        g = request.getfixturevalue(graph)
        skipped = 0
        for shape in [ShapeSpec.single(), *GRID_SHAPES, ShapeSpec.star(5), ShapeSpec.path(6),
                      ShapeSpec.cycle(6)]:
            for mode in MODES:
                copies = sum(1 for _ in enumerate_shape_copies(g, shape, mode))
                values = [v for v in range(2, 7)
                          if sum(comb(copies, s) for s in range(1, v)) <= 30_000
                          and not _bound_note(g, shape, mode, v)]
                if not values:
                    continue
                least = exists_cut_of_size(g, shape, mode, values[-1])
                for value in values:
                    witness = (least.witness if least.value == value
                               else StructureCut(shape, (), mode))
                    for budget in (None, SearchBudget(max_checks=copies + 1)):
                        def call():
                            return certify_min(g, shape, mode, value, witness, budget)

                        plain, plain_floods = _with_floods(lambda: _without_kappa_rule(call))
                        pruned, floods = _with_floods(call)
                        case = (shape.tag, mode, value, budget)
                        assert pruned == plain, case
                        assert floods <= plain_floods, case
                        skipped += plain_floods - floods
        assert skipped > 0

    @pytest.mark.usefixtures("pool_every_size")
    @pytest.mark.parametrize("cap", [1, 40, 821, 10**8])
    def test_pruned_certification_matches_at_every_job_count(self, d14, cap):
        # K_{1,1} at value 4 on D_{1,4}: 3 x 2 vertices is not below kappa 4,
        # so sizes 1..3 are scanned, and the pairs and single edges fall below it
        plain = _without_kappa_rule(lambda: certify_min(
            d14, K11, STRUCTURE, 4, _d14_cut(3), SearchBudget(max_checks=cap)))
        for jobs in (1, 2):
            assert certify_min(d14, K11, STRUCTURE, 4, _d14_cut(3), SearchBudget(max_checks=cap),
                               jobs) == plain, jobs

    @given(g=_connected_graphs(3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pruned_certification_matches_on_random_graphs(self, g, data):
        shape = data.draw(st.sampled_from([ShapeSpec.single(), K11, ShapeSpec.star(2),
                                           ShapeSpec.path(3), ShapeSpec.cycle(3)]))
        mode = data.draw(st.sampled_from(MODES))
        value = data.draw(st.integers(1, 4))
        budget = SearchBudget(max_checks=data.draw(st.sampled_from([1, 5, 30, 10**8])))
        least = exists_cut_of_size(g, shape, mode, value)
        witness = least.witness if least.value == value else StructureCut(shape, (), mode)

        def call():
            return certify_min(g, shape, mode, value, witness, budget)

        pruned = call()
        bound = pruned.note.partition("; ")[0]
        if not bound.startswith("size bound"):
            assert pruned == _without_kappa_rule(call)
            return
        # the bound answers NO up to value-1 without a copy or a check, and
        # the plain scan, given the checks it needs, answers NO as well
        scan, hit = search._shape_oracle(g, shape, mode, range(1, value), budget, 1,
                                         kappa_rule=True)
        assert (scan, hit) == (search.OracleResult(NO, None, value - 1, None, 0, 0, bound), None)
        assert exists_cut_of_size(g, shape, mode, value - 1).status == NO
        plain = _without_kappa_rule(lambda: certify_min(g, shape, mode, value, witness))
        assert pruned == replace(plain, checks=0, copies=0,
                                 note="; ".join(filter(None, [bound, plain.note])))

    def test_a_certification_the_bound_settles_enumerates_no_copy(self, b5, monkeypatch):
        # B_5 K_{1,2} at value 3: 2 x 3 vertices < kappa 8; at value 1 there
        # is no size to refute, and the note still names the bound
        families = []
        real = search._leaf_families

        def spy(*args):
            families.append(args)
            return real(*args)

        monkeypatch.setattr(search, "_leaf_families", spy)
        k12 = ShapeSpec.star(2)
        three = structure_cut_for("bcdc", {"n": 5}, k12, STRUCTURE)
        res = certify_min(b5, k12, STRUCTURE, 3, three)
        assert (res.status, res.checks, res.copies, res.note) == (
            "certified", 0, 0, "size bound: 2 x 3 vertices < kappa 8")
        one = certify_min(b5, k12, STRUCTURE, 1, StructureCut(k12, three.members[:1], STRUCTURE))
        assert (one.status, one.lower_bound_proven, one.checks, one.copies, one.note) == (
            "refuted", 0, 0, 0,
            "size bound: 0 x 3 vertices < kappa 8; witness failed verification")
        assert families == []

    @pytest.mark.parametrize("n, flooded, copies", [(4, 192, 1920), (5, 640, 20080)])
    def test_rule_floods_only_unions_of_kappa_vertices(self, caplog, n, flooded, copies):
        # K_{1,2n-3} substructure at value 2: the copies of fewer than kappa
        # vertices are the smaller stars, and only the full stars, of
        # 2n-2 = kappa vertices, are flooded
        g = build_bcdc(n)
        shape = ShapeSpec.star(2 * n - 3)
        cut = structure_cut_for("bcdc", {"n": n}, shape, SUBSTRUCTURE)
        with caplog.at_level(logging.INFO, logger="dcnconn.search"):
            res = certify_min(g, shape, SUBSTRUCTURE, 2, cut)
        assert (res.status, res.copies, res.checks) == ("certified", copies, copies)
        assert [r.getMessage() for r in caplog.records if "flooded" in r.getMessage()] == [
            f"size=1 subsets flooded={flooded:,} of {copies:,} examined, "
            "0 repeated unions not flooded"]

    def test_rule_computes_no_flow_where_it_cannot_skip(self, monkeypatch):
        from dcnconn import graph as graph_module

        flows = []
        real = graph_module._disjoint_paths

        def counting_flow(*args):
            flows.append(args)
            return real(*args)

        monkeypatch.setattr(graph_module, "_disjoint_paths", counting_flow)
        # fresh graphs: kappa is stored on a graph once computed
        b4, b5 = build_bcdc(4), build_bcdc(5)
        # B_4 K_{1,1} at value 4: 3 x 2 vertices is not below the min degree 6,
        # so the size bound needs no flow, and the candidate cap stops the scan
        # before kappa is asked for
        nothing = StructureCut(K11, (), STRUCTURE)
        res = certify_min(b4, K11, STRUCTURE, 4, nothing, SearchBudget(max_candidates=10))
        assert (res.status, res.note, flows) == (BUDGET, "candidate cap reached", [])
        # B_5 C_8 at value 2: every copy has 8 vertices, the min degree, so no
        # union falls below kappa and the scan runs without it
        c8 = ShapeSpec.cycle(8)
        res = certify_min(b5, c8, STRUCTURE, 2, StructureCut(c8, (), STRUCTURE),
                          SearchBudget(max_checks=1000))
        assert (res.status, res.checks, flows) == (BUDGET, 1000, [])
        # a scan whose copies fall below the min degree computes kappa
        res = certify_min(b4, K11, STRUCTURE, 4, nothing, SearchBudget(max_checks=1000))
        assert res.status == BUDGET and flows

    def test_rule_stays_out_of_the_other_oracles(self, d14, monkeypatch):
        # exists_cut_of_size and g_extra_connectivity are the unpruned references
        calls = []
        real = search._shape_oracle

        def spy(*args, **kwargs):
            calls.append(kwargs.get("kappa_rule", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "_shape_oracle", spy)
        exists_cut_of_size(d14, K11, STRUCTURE, 3)
        g_extra_connectivity(d14, 0)
        certify_min(d14, K11, STRUCTURE, 3, _d14_cut(3))
        assert calls == [False, False, True]


# --- the leaf sweep ------------------------------------------------------------


def _kernel_ctx(g, units, fam, bits, kappa=0, memo=False):
    """A scan context over the unit masks `units`, unit k meeting the family
    sets of the bits of `fam[k]`, out of `bits` sets. With `memo`, the kernel
    floods a union once per leading index."""
    suffix = list(accumulate(reversed(fam), or_))[::-1]
    meeting = [sum(1 << k for k, f in enumerate(fam) if f >> j & 1) for j in range(bits)]
    return (g.neighbor_tables, (1 << g.vertex_count) - 1, units, 0, fam, (1 << bits) - 1,
            suffix, kappa, meeting, memo)


def _both_kernels(g, units, fam, bits, size, cap, kappa=0, memo=False):
    """The kernel's answers over the whole range, sweeping the runs it may
    sweep, and with a sweep threshold above every run, so that it takes each
    run one index at a time."""
    ctx = _kernel_ctx(g, units, fam, bits, kappa, memo)
    swept = search._scan_range(ctx, size, 0, len(units), cap)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_SWEEP_MIN", len(units) + 1)
        return [swept, search._scan_range(ctx, size, 0, len(units), cap)]


def _oracle_ctx(g, shape, mode):
    """The scan context `_shape_oracle` builds for a bound-3 scan of g."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_scan_sizes", lambda ctx, *args: ctx)
        return search._shape_oracle(g, shape, mode, range(1, 4), SearchBudget(), 1)


def _sweeps(monkeypatch) -> list[int]:
    """The survivor count of each sweep the kernel makes from now on: a sweep
    reads its survivors off the AND of the meeting masks with `ids`."""
    counts = []

    def spy(mask):
        counts.append(mask.bit_count())
        return ids(mask)

    monkeypatch.setattr(search, "ids", spy)
    return counts


def _check_runs(g, ctx, sizes, marks):
    """`_scan_sizes` over `ctx` against the brute-force reference, at caps one
    before, at and one past each of `marks` and of the first hit, and
    uncapped."""
    units, n = ctx[2], len(ctx[2])
    first = brute_force_first_cut(g, units, sizes)
    caps = {c for m in [*marks, first[0]] for c in (m - 1, m, m + 1) if c >= 1} | {10**8}
    for cap in sorted(caps):
        status, value, bound, hit, checks, note = reference_answer(n, sizes, first, cap)
        want = search.OracleResult(status, value, bound, None, checks, n, note)
        assert search._scan_sizes(ctx, sizes, SearchBudget(max_checks=cap), 1) == (want, hit), cap


class TestLeafSweep:
    @pytest.mark.parametrize("graph, shape", [("b4", K11), ("d14", ShapeSpec.path(4))])
    def test_family_and_meeting_masks_are_one_incidence(self, request, graph, shape):
        # the oracle builds both directions with one builder; each is checked
        # here against the copies and the family sets directly
        g = request.getfixturevalue(graph)
        ctx = _oracle_ctx(g, shape, STRUCTURE)
        units, family = ctx[2], search._dominating_family(g)
        assert family and ctx[4] == [sum(1 << j for j, d in enumerate(family) if unit & d)
                                     for unit in units]
        assert ctx[8] == [sum(1 << k for k, unit in enumerate(units) if unit & d)
                          for d in family]
        # an empty side meets nothing
        assert search._incidence((), units, g.vertex_count) == [0] * len(units)
        assert search._incidence(units, (), g.vertex_count) == []

    @pytest.mark.parametrize("graph, sweep_min", [
        ("b3", search._SWEEP_MIN), ("b3", 1), ("b4", search._SWEEP_MIN),
        ("d14", search._SWEEP_MIN), ("d14", 1)], ids=["b3", "b3-every-run", "b4", "d14",
                                                     "d14-every-run"])
    def test_swept_scan_matches_the_brute_force_reference(self, request, graph, sweep_min,
                                                         monkeypatch):
        # bound 3, at caps one before, at and one past the end of the size-1
        # run, of the first size-2 and size-3 runs, and of the first hit,
        # where the brute-force scan reaches them within `limit` subsets; and
        # uncapped, where it settles the answer within them. A sweep threshold
        # of 1 sweeps every run with a family set left to meet, also those of
        # the shapes with few copies.
        monkeypatch.setattr(search, "_SWEEP_MIN", sweep_min)
        g = request.getfixturevalue(graph)
        limit = 20_000
        swept = 0
        for shape in ALL_SHAPES:
            for mode in MODES:
                copies = list(enumerate_shape_copies(g, shape, mode))
                n = len(copies)
                sizes = range(1, min(3, n) + 1)
                first = brute_force_first_cut(
                    g, [sum(1 << v for v in ids) for ids in copies], sizes, limit=limit)
                marks = [n, 2 * n - 1, n + comb(n, 2) + n - 2]
                if first[1] is not None:
                    marks.append(first[0])
                reach = first[0] + 1 if first[1] is not None else limit
                caps = {c for m in marks for c in (m - 1, m, m + 1) if 1 <= c <= reach}
                if first[1] is not None or first[0] < limit:
                    caps.add(10**8)
                swept += n > sweep_min
                for cap in sorted(caps):
                    status, value, bound, hit, checks, note = reference_answer(
                        n, sizes, first, cap)
                    witness = hit and StructureCut(
                        shape, tuple(tuple(map(g.label_of, copies[i])) for i in hit), mode)
                    want = search.OracleResult(status, value, bound, witness, checks, n, note)
                    got = exists_cut_of_size(g, shape, mode, 3, SearchBudget(max_checks=cap))
                    assert got == want, (shape.tag, mode, cap)
        assert swept

    @pytest.mark.parametrize("seed", range(4))
    def test_swept_and_walked_survivors_stop_alike_across_the_poll(
            self, k5, seed, monkeypatch):
        # 200 empty units never cut K_5, so every pair is examined; the caller's
        # flag is up before the scan. Seed 0 gives every unit the one family
        # set, so all 19,900 pairs are flooded, and the poll at 8192 checks
        # falls inside the run of leading index 46 (8,120 to 8,272), 153
        # indices long, where the scan stops before the next flood. Other
        # seeds draw two sets per unit at random, so some runs end in skipped
        # blocks, and a block may carry the count past a poll, where the scan
        # stops at the start of the next run.
        from types import SimpleNamespace

        monkeypatch.setattr(search, "_worker_stop", SimpleNamespace(value=1))
        rng = random.Random(seed)
        bits = 1 if not seed else 2
        fam = [1 if not seed else rng.choice([1, 2, 3, 3]) for _ in range(200)]
        swept, plain = _both_kernels(k5, [0] * 200, fam, bits, 2, 10**6)
        assert swept == plain and swept[2] == "stopped"
        if not seed:
            assert swept == (None, 8192, "stopped", 8192, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_swept_run_crossing_the_poll_stops_there_with_the_memo(self, k5, seed,
                                                                    monkeypatch):
        # as above with the memo on: every union is empty, so each leading
        # index floods its first survivor and answers the rest from the memo.
        # The scan polls only at the start of a run or block and before a
        # flood, so it runs past the poll at 8192 checks, to the start of the
        # run of leading index 47 (8,272), after 47 floods; each subset that
        # survives the family test is flooded or answered from the memo
        from types import SimpleNamespace

        rng = random.Random(seed)
        bits = 1 if not seed else 2
        fam = [1 if not seed else rng.choice([1, 2, 3, 3]) for _ in range(200)]
        unmemoized = _both_kernels(k5, [0] * 200, fam, bits, 2, 8272)[0]
        monkeypatch.setattr(search, "_worker_stop", SimpleNamespace(value=1))
        swept, plain = _both_kernels(k5, [0] * 200, fam, bits, 2, 10**6, memo=True)
        assert swept == plain and swept[:3] == (None, 8272, "stopped")
        assert swept[3] + swept[4] == unmemoized[3] and swept[3] <= 47
        if not seed:
            assert swept == (None, 8272, "stopped", 47, 8225)

    def test_a_block_at_the_poll_inside_a_swept_run_stops_at_the_next_run(self, k5, monkeypatch):
        # 300 empty units, pairs; every unit meets family set 0 and only unit
        # 226 set 1, so in the run of each leading index below 226 unit 226
        # is the one survivor and the indices past it are one skipped block.
        # The run of leading index 28 starts after 7,994 pairs, so its block
        # starts at check 8192; the scan polls the flag at the start of the
        # next run, at 8,265 checks.
        from types import SimpleNamespace

        monkeypatch.setattr(search, "_worker_stop", SimpleNamespace(value=1))
        fam = [3 if k == 226 else 1 for k in range(300)]
        assert _both_kernels(k5, [0] * 300, fam, 2, 2, 10**6) == [
            (None, 8265, "stopped", 29, 0)] * 2

    @pytest.mark.parametrize("graph, shape", [
        ("b3", ShapeSpec.star(4)), ("d14", ShapeSpec.star(4)), ("d14", ShapeSpec.cycle(4))])
    def test_a_run_whose_prefix_meets_every_set_is_walked(self, request, graph, shape,
                                                          monkeypatch):
        # every copy of these shapes meets every set of the family, so from
        # size 2 on no run has a set left to AND over: each is walked, though
        # a sweep threshold of 1 would sweep any other run
        g = request.getfixturevalue(graph)
        ctx = _oracle_ctx(g, shape, STRUCTURE)
        n = len(ctx[2])
        assert ctx[5] and set(ctx[4]) == {ctx[5]}
        monkeypatch.setattr(search, "_SWEEP_MIN", 1)
        sweeps = _sweeps(monkeypatch)
        _check_runs(g, ctx, range(2, 4), [n - 1, 2 * n - 3, comb(n, 2), comb(n, 2) + n - 2])
        assert sweeps == []

    @pytest.mark.parametrize("graph, shape, swept", [
        ("b3", ShapeSpec.path(6), 512), ("d14", ShapeSpec.path(5), 120),
        ("d14", ShapeSpec.path(6), 452)])
    def test_a_size_1_scan_with_a_family_is_swept(self, request, graph, shape, swept,
                                                  monkeypatch):
        # size 1 is one run from index 0, with every family set to meet: it is
        # swept, and only the copies that meet every set are left to flood
        g = request.getfixturevalue(graph)
        ctx = _oracle_ctx(g, shape, STRUCTURE)
        n = len(ctx[2])
        sweeps = _sweeps(monkeypatch)
        _check_runs(g, ctx, range(1, 2), [n])
        assert sweeps and set(sweeps) == {swept}
        sweeps.clear()
        _check_runs(g, ctx, range(1, 3), [n, 2 * n - 1])
        assert sweeps[0] == swept

    def test_a_cap_inside_a_swept_run_trips_as_the_per_index_scan(self, c6):
        # 100 units of C_6, pairs. Every unit meets family set 0; units 10,
        # 40, 41 and 90 meet set 1 too, so in the run of each leading index
        # below 10 they are the only survivors, flooded 4 to a run. Unit 5
        # holds vertex 0 and unit 40 vertex 3: the first cut is (5, 40), the
        # 35th pair of leading index 5, whose run starts after 485 pairs;
        # survivor 10 is its 5th.
        units = [0] * 100
        units[5], units[40] = 1 << 0, 1 << 3
        fam = [3 if k in (10, 40, 41, 90) else 1 for k in range(100)]
        floods = {484: 20, 485: 20, 486: 20, 489: 20, 490: 21, 491: 21, 519: 21}
        for cap, flooded in floods.items():
            answer = (None, cap, "check cap reached", flooded, 0)
            assert _both_kernels(c6, units, fam, 2, 2, cap) == [answer, answer], cap
        for cap in (520, 521):
            assert _both_kernels(c6, units, fam, 2, 2, cap) == [((5, 40), 520, "", 22, 0)] * 2, cap
        # a κ of 2 skips, unflooded, every survivor but unit 40 with unit 5
        assert _both_kernels(c6, units, fam, 2, 2, 10**6, kappa=2) == [
            ((5, 40), 520, "", 1, 0)] * 2

    def test_a_cap_inside_a_swept_run_trips_there_with_the_memo(self, c6):
        # the units above with the memo on: under a leading index i < 10 other
        # than 5, the survivors' unions are units[i] | units[k], empty for
        # k = 10, 41 and 90 and vertex 3 for k = 40, so each run floods 2
        # unions and answers 2 from the memo; the run of index 5 floods its
        # survivor 10 (vertex 0) and then hits at 40
        units = [0] * 100
        units[5], units[40] = 1 << 0, 1 << 3
        fam = [3 if k in (10, 40, 41, 90) else 1 for k in range(100)]
        counts = {484: (10, 10), 485: (10, 10), 486: (10, 10), 489: (10, 10), 490: (11, 10),
                  491: (11, 10), 519: (11, 10)}
        for cap, (flooded, repeated) in counts.items():
            answer = (None, cap, "check cap reached", flooded, repeated)
            assert _both_kernels(c6, units, fam, 2, 2, cap, memo=True) == [answer, answer], cap
        for cap in (520, 521):
            assert _both_kernels(c6, units, fam, 2, 2, cap, memo=True) == [
                ((5, 40), 520, "", 12, 10)] * 2, cap
        assert _both_kernels(c6, units, fam, 2, 2, 10**6, kappa=2, memo=True) == [
            ((5, 40), 520, "", 1, 0)] * 2

    def test_the_family_is_built_once_per_graph(self, monkeypatch):
        runs = []
        real = search._greedy_cds

        def counted(*args):
            runs.append(args[1])
            return real(*args)

        monkeypatch.setattr(search, "_greedy_cds", counted)
        g = build_dcell(1, 4)
        one = exists_cut_of_size(g, K11, STRUCTURE, 2)
        first = len(runs)
        assert exists_cut_of_size(g, K11, STRUCTURE, 2) == one
        assert certify_min(g, K11, STRUCTURE, 3, _d14_cut(3)).status == CERTIFIED
        assert first == 20 * len(search._tie_orders(20)) and len(runs) == first


# --- the memo of unions --------------------------------------------------------


def _memo_sizes(monkeypatch) -> list[int]:
    """The size of the kernel's memo after each union it stores from now on."""
    sizes = []

    class Memo(set):
        def add(self, union):
            super().add(union)
            sizes.append(len(self))

    monkeypatch.setattr(search, "set", Memo, raising=False)
    return sizes


def _flooded_lines(caplog, call) -> tuple:
    """`call()`'s answer and the records that close its sizes."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="dcnconn.search"):
        res = call()
    return res, [r.getMessage() for r in caplog.records if "flooded" in r.getMessage()]


class TestUnionMemo:
    """The memo floods a union once per leading index: every field of the
    answer is the plain kernel's, and floods never increase."""

    @pytest.mark.parametrize("graph", ["b3", "b4", "d14"])
    def test_memo_matches_the_brute_force_reference(self, request, graph):
        # bound 3, every shape and mode, at caps one before, at and one past
        # the first hit where the brute-force scan reaches it within `limit`
        # subsets, uncapped where it settles the answer within them, and one
        # below `limit` where it does not
        g = request.getfixturevalue(graph)
        limit = 20_000
        saved = 0
        for shape in ALL_SHAPES:
            for mode in MODES:
                copies = list(enumerate_shape_copies(g, shape, mode))
                n = len(copies)
                sizes = range(1, min(3, n) + 1)
                first = brute_force_first_cut(
                    g, [sum(1 << v for v in ids) for ids in copies], sizes, limit=limit)
                if first[1] is not None:
                    caps = {c for c in (first[0] - 1, first[0], first[0] + 1, 10**8) if c >= 1}
                elif first[0] < limit:
                    caps = {10**8}
                else:
                    caps = {limit - 1}
                for cap in sorted(caps):
                    status, value, bound, hit, checks, note = reference_answer(
                        n, sizes, first, cap)
                    witness = hit and StructureCut(
                        shape, tuple(tuple(map(g.label_of, copies[i])) for i in hit), mode)
                    want = search.OracleResult(status, value, bound, witness, checks, n, note)

                    def call():
                        return exists_cut_of_size(g, shape, mode, 3, SearchBudget(max_checks=cap))

                    got, floods = _with_floods(call)
                    plain, plain_floods = _with_floods(lambda: _without_memo(call))
                    case = (shape.tag, mode, cap)
                    assert got == plain == want, case
                    assert floods <= plain_floods, case
                    saved += plain_floods - floods
        assert saved > 0

    @pytest.mark.usefixtures("pool_every_size")
    @pytest.mark.parametrize("graph", ["b3", "d14"])
    def test_pooled_memo_matches_the_serial_plain_scan(self, request, graph, caplog):
        # bound 3, every shape and mode, uncapped and capped at half the
        # subsets the uncapped answer rests on: a pool task is one leading
        # index, where the serial scan clears the memo too, so each size's
        # flooded and repeated counts are the same at both job counts (a
        # capped pool counts the floods of tasks past the cap, so only the
        # answers are compared there)
        g = request.getfixturevalue(graph)
        for shape in ALL_SHAPES:
            for mode in MODES:
                full = _without_memo(lambda: exists_cut_of_size(g, shape, mode, 3))
                lines = {}
                for jobs in (1, 2):
                    res, lines[jobs] = _flooded_lines(
                        caplog, lambda: exists_cut_of_size(g, shape, mode, 3, jobs=jobs))
                    assert res == full, (shape.tag, mode, jobs)
                assert lines[1] == lines[2], (shape.tag, mode)
                if full.checks < 2:
                    continue
                budget = SearchBudget(max_checks=full.checks // 2)
                plain = _without_memo(lambda: exists_cut_of_size(g, shape, mode, 3, budget))
                for jobs in (1, 2):
                    assert exists_cut_of_size(g, shape, mode, 3, budget, jobs) == plain, (
                        shape.tag, mode, jobs)

    @given(g=_connected_graphs(3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_memo_matches_the_plain_scan_on_random_graphs(self, g, data):
        shape = data.draw(st.sampled_from([K11, ShapeSpec.star(2), ShapeSpec.path(3),
                                           ShapeSpec.cycle(3), ShapeSpec.clique(3)]))
        mode = data.draw(st.sampled_from(MODES))
        jobs = data.draw(st.sampled_from([1, 2]))
        budget = SearchBudget(max_checks=data.draw(st.sampled_from([1, 5, 30, 10**8])))

        def call(j=1):
            return exists_cut_of_size(g, shape, mode, 3, budget, j)

        plain, plain_floods = _with_floods(lambda: _without_memo(call))
        got, floods = _with_floods(call)
        assert got == plain and floods <= plain_floods
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search, "_POOL_MIN", 0)
            assert call(jobs) == plain

    def test_memo_matches_the_plain_scan_on_b5_cycles(self, b5):
        # the paper-refutation scan of B_5's 1,072 C_5 copies at bound 3,
        # capped 1,424,872 subsets into size 3 (2,000,000 checks in all)
        def call():
            return exists_cut_of_size(b5, ShapeSpec.cycle(5), STRUCTURE, 3,
                                      SearchBudget(max_checks=2_000_000))

        plain, plain_floods = _with_floods(lambda: _without_memo(call))
        got, floods = _with_floods(call)
        assert got == plain
        assert (got.status, got.lower_bound_proven, got.checks) == (BUDGET, 2, 2_000_000)
        assert floods < plain_floods

    def test_a_g_extra_scan_stores_no_union(self, b4, caplog, monkeypatch):
        # distinct vertex subsets have distinct unions, so the memo is off for
        # single-vertex copies; an unfiltered K_{1,1} scan of the same graph,
        # which floods every pair, stores unions
        sizes = _memo_sizes(monkeypatch)
        res, lines = _flooded_lines(caplog, lambda: g_extra_connectivity(b4, 1))
        assert res.value == 8 and sizes == []
        assert all(line.endswith(", 0 repeated unions not flooded") for line in lines)
        _unfiltered(lambda: exists_cut_of_size(b4, K11, STRUCTURE, 2))
        assert sizes

    def test_a_full_memo_is_cleared(self, d14, monkeypatch):
        # with room for one union, the memo holds at most one, and the answer
        # is still the plain scan's, with floods between the full memo's and
        # the plain scan's
        sizes = _memo_sizes(monkeypatch)

        def call():
            return exists_cut_of_size(d14, ShapeSpec.path(3), STRUCTURE, 3)

        plain, plain_floods = _with_floods(lambda: _without_memo(call))
        full, full_floods = _with_floods(call)
        assert max(sizes) > 1
        monkeypatch.setattr(search, "_MEMO_MAX", 1)
        sizes.clear()
        one, one_floods = _with_floods(call)
        assert one == full == plain and max(sizes) == 1
        assert full_floods < one_floods < plain_floods
