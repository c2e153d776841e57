import pytest

from conftest import neighbor_labels, smallest_component
from dcnconn import (
    ShapeSpec,
    StructureCut,
    predicted_kappa,
    structure_cut_for,
    verify_cut,
)
from dcnconn.bcdc import build_bcdc
from dcnconn.cli import _default_grid
from dcnconn.dcell import build_dcell
from dcnconn.errors import ParameterError
from dcnconn.shapes import STRUCTURE, SUBSTRUCTURE, is_shape


def kappa(family, params, shape, mode=STRUCTURE):
    return predicted_kappa(family, params, shape, mode)


def dcell_cut(m, n, shape):
    return structure_cut_for("dcell", {"m": m, "n": n}, shape, STRUCTURE)


def bcdc_cut(n, shape, mode=STRUCTURE):
    return structure_cut_for("bcdc", {"n": n}, shape, mode)


class TestPredictedKappa:
    def test_dcell_star_examples(self):
        assert kappa("dcell", {"m": 1, "n": 4}, ShapeSpec.star(1)) == 3
        assert kappa("dcell", {"m": 0, "n": 5}, ShapeSpec.star(1)) == 2
        assert kappa("dcell", {"m": 1, "n": 4}, ShapeSpec.star(2)) == 2

    def test_dcell_star_substructure_equal(self):
        for m, n, t in [(0, 4, 1), (1, 4, 1), (1, 5, 2)]:
            assert kappa("dcell", {"m": m, "n": n}, ShapeSpec.star(t)) == kappa(
                "dcell", {"m": m, "n": n}, ShapeSpec.star(t), SUBSTRUCTURE
            )

    def test_dcell_clique_examples(self):
        assert kappa("dcell", {"m": 1, "n": 4}, ShapeSpec.clique(3)) == 2
        assert kappa("dcell", {"m": 1, "n": 5}, ShapeSpec.clique(3)) == 3
        assert kappa("dcell", {"m": 0, "n": 5}, ShapeSpec.clique(3)) == 2

    def test_dcell_clique_substructure_rejected(self):
        with pytest.raises(ParameterError, match="substructure"):
            kappa("dcell", {"m": 1, "n": 4}, ShapeSpec.clique(3), SUBSTRUCTURE)

    def test_dcell_range_rejections(self):
        with pytest.raises(ParameterError, match="m\\+n-2"):
            kappa("dcell", {"m": 0, "n": 4}, ShapeSpec.star(3))
        # t = m+n-1 gets the dedicated explanation
        with pytest.raises(ParameterError, match="m\\+n-1"):
            predicted_kappa("dcell", {"m": 1, "n": 4}, ShapeSpec.star(4), STRUCTURE)
        with pytest.raises(ParameterError, match="3 <= s"):
            kappa("dcell", {"m": 0, "n": 5}, ShapeSpec.clique(2))

    def test_bcdc_star_t1(self):
        assert kappa("bcdc", {"n": 5}, ShapeSpec.star(1)) == 4
        assert kappa("bcdc", {"n": 4}, ShapeSpec.star(1)) == 4
        assert kappa("bcdc", {"n": 6}, ShapeSpec.star(1)) == 6
        with pytest.raises(ParameterError):
            kappa("bcdc", {"n": 3}, ShapeSpec.star(1))

    def test_bcdc_star_branches(self):
        # remainder-1 branch: (2n-4)/(1+t) + 1
        assert kappa("bcdc", {"n": 5}, ShapeSpec.star(2)) == 3
        # general branch: 2*ceil((n-1)/(1+t))
        assert kappa("bcdc", {"n": 5}, ShapeSpec.star(7)) == 2
        assert kappa("bcdc", {"n": 6}, ShapeSpec.star(2)) == 4

    def test_bcdc_path_values(self):
        assert kappa("bcdc", {"n": 5}, ShapeSpec.path(4)) == 2
        assert kappa("bcdc", {"n": 5}, ShapeSpec.path(9)) == 1
        assert kappa("bcdc", {"n": 6}, ShapeSpec.path(4)) == 3

    def test_bcdc_cycle_structure_values(self):
        assert kappa("bcdc", {"n": 5}, ShapeSpec.cycle(10)) == 1
        assert kappa("bcdc", {"n": 5}, ShapeSpec.cycle(6)) == 2
        assert kappa("bcdc", {"n": 6}, ShapeSpec.cycle(6)) == 3  # k = n branch

    def test_bcdc_cycle_k5_rejected_with_certified_value(self):
        # the formula starts at k=6; for (5,5) exhaustive search certified 4
        with pytest.raises(ParameterError, match="certified"):
            kappa("bcdc", {"n": 5}, ShapeSpec.cycle(5))

    def test_bcdc_cycle_substructure_matches_path(self):
        for n in (5, 6):
            for k in range(4, 2 * n):
                assert kappa("bcdc", {"n": n}, ShapeSpec.cycle(k), SUBSTRUCTURE) == kappa(
                    "bcdc", {"n": n}, ShapeSpec.path(k), SUBSTRUCTURE
                )

    def test_bcdc_range_rejections(self):
        with pytest.raises(ParameterError, match="2n-3"):
            kappa("bcdc", {"n": 5}, ShapeSpec.star(8))
        with pytest.raises(ParameterError, match="2n-1"):
            kappa("bcdc", {"n": 5}, ShapeSpec.path(10))
        with pytest.raises(ParameterError, match="6 <= k"):
            kappa("bcdc", {"n": 5}, ShapeSpec.cycle(4))

    def test_star_monotone_in_t(self):
        for m, n in [(0, 5), (0, 6), (1, 4), (1, 5)]:
            values = [kappa("dcell", {"m": m, "n": n}, ShapeSpec.star(t)) for t in range(1, m + n - 1)]
            assert values == sorted(values, reverse=True)
        for n in (4, 5, 6, 7):
            values = [kappa("bcdc", {"n": n}, ShapeSpec.star(t)) for t in range(1, 2 * n - 2)]
            assert values == sorted(values, reverse=True)

    def test_path_monotone_in_k(self):
        for n in (4, 5, 6, 7):
            values = [kappa("bcdc", {"n": n}, ShapeSpec.path(k)) for k in range(4, 2 * n)]
            assert values == sorted(values, reverse=True)


def _accepts(fn, *args) -> bool:
    try:
        fn(*args)
    except ParameterError:
        return False
    return True


def test_formula_and_construction_accept_the_same_requests():
    """predicted_kappa rejects exactly when structure_cut_for rejects (so cmd_cut
    can read the formula for every cut it builds), on DCell m -1..2, n 1..7 and
    BCDC n 2..9 with every kind at sizes 1..16 in both modes and an unknown one.
    The one listed gap: B_9 C_6 has a value but no construction (remainder 2
    needs an 8-vertex pattern and no second bridge dimension exists)."""
    requests = [("dcell", {"m": m, "n": n}) for m in range(-1, 3) for n in range(1, 8)]
    requests += [("bcdc", {"n": n}) for n in range(2, 10)]
    shapes = [ShapeSpec.single()] + [
        ShapeSpec(kind, size)
        for kind in ("star", "clique", "path", "cycle")
        for size in range(3 if kind == "cycle" else 1, 17)
    ]
    gaps = []
    for family, params in requests:
        for shape in shapes:
            for mode in (STRUCTURE, SUBSTRUCTURE, "bogus"):
                formula = _accepts(predicted_kappa, family, params, shape, mode)
                cut = _accepts(structure_cut_for, family, params, shape, mode)
                if formula != cut:
                    gaps.append((family, params, shape.tag, mode, formula, cut))
    assert gaps == [("bcdc", {"n": 9}, "C6", STRUCTURE, True, False)]


def _construction_requests():
    """The table grid, plus the B_7, B_10 and B_11 requests the cut tests build."""
    requests = list(_default_grid())
    n = 7
    b7 = [ShapeSpec.star(t) for t in range(1, 2 * n - 2)]
    b7 += [ShapeSpec.path(k) for k in range(4, 2 * n)]
    b7 += [ShapeSpec.cycle(k) for k in range(6, 2 * n + 1)]
    requests += [("bcdc", {"n": n}, shape, STRUCTURE) for shape in b7]
    requests += [("bcdc", {"n": n}, ShapeSpec.cycle(k), STRUCTURE)
                 for n in (10, 11) for k in range(6, 2 * n + 1)]
    return requests


def test_every_constructed_cut_claims_the_requested_shape_and_mode():
    requests = _construction_requests()
    substructure_cycles = 0
    for family, params, shape, mode in requests:
        cut = structure_cut_for(family, params, shape, mode)
        assert (cut.shape, cut.mode) == (shape, mode), (family, params, shape.tag, mode)
        if shape.kind == "cycle" and mode == SUBSTRUCTURE:
            substructure_cycles += 1
            path = structure_cut_for(family, params, ShapeSpec.path(shape.size), mode)
            assert cut.members == path.members, (params, shape.tag)
    assert substructure_cycles == 14


class TestDcellCuts:
    def test_star_m0(self):
        g = build_dcell(0, 5)
        cut = dcell_cut(0, 5, ShapeSpec.star(1))
        assert len(cut.members) == 2
        assert verify_cut(g, cut, ShapeSpec.star(1), STRUCTURE).passed
        assert smallest_component(g, cut) == ("0",)

    def test_star_d14(self, d14):
        for t, want in [(1, 3), (2, 2)]:
            cut = dcell_cut(1, 4, ShapeSpec.star(t))
            assert len(cut.members) == want
            assert verify_cut(d14, cut, ShapeSpec.star(t), STRUCTURE).passed
            assert smallest_component(d14, cut) == ("0.0",)
            # the far corner stays in the big component
            assert "1.3" not in cut.vertex_union()

    def test_star_overlap_flagged_when_remainder(self):
        # n-1 = 4, 1+t = 3: the tail star reuses a covered clique vertex
        g = build_dcell(0, 5)
        cut = dcell_cut(0, 5, ShapeSpec.star(2))
        assert verify_cut(g, cut, ShapeSpec.star(2), STRUCTURE).passed
        assert len(cut.vertex_union()) < sum(map(len, cut.members))

    def test_star_rejections(self):
        with pytest.raises(ParameterError, match="m\\+n-1"):
            dcell_cut(1, 4, ShapeSpec.star(4))
        with pytest.raises(ParameterError, match="1 <= t"):
            dcell_cut(1, 4, ShapeSpec.star(5))
        with pytest.raises(ParameterError, match=">= 1, got 0"):
            ShapeSpec.star(0)

    def test_star_big_t_tail(self):
        # t > n-2 forces filler leaves on the tail star
        g = build_dcell(1, 4)
        cut = dcell_cut(1, 4, ShapeSpec.star(3))
        report = verify_cut(g, cut, ShapeSpec.star(3), STRUCTURE)
        assert report.passed and len(cut.members) == kappa("dcell", {"m": 1, "n": 4}, ShapeSpec.star(3))

    def test_clique_m0(self):
        g = build_dcell(0, 5)
        cut = dcell_cut(0, 5, ShapeSpec.clique(3))
        assert len(cut.members) == 2
        assert verify_cut(g, cut, ShapeSpec.clique(3), STRUCTURE).passed
        assert smallest_component(g, cut) == ("0",)

    def test_clique_d14(self, d14):
        cut = dcell_cut(1, 4, ShapeSpec.clique(3))
        assert len(cut.members) == 2
        assert verify_cut(d14, cut, ShapeSpec.clique(3), STRUCTURE).passed
        assert smallest_component(d14, cut) == ("0.0",)

    def test_clique_d15(self):
        g = build_dcell(1, 5)
        for s, want in [(3, 3), (4, 2)]:
            cut = dcell_cut(1, 5, ShapeSpec.clique(s))
            assert len(cut.members) == want
            assert verify_cut(g, cut, ShapeSpec.clique(s), STRUCTURE).passed

    def test_clique_rejections(self):
        with pytest.raises(ParameterError, match="3 <= s"):
            dcell_cut(1, 5, ShapeSpec.clique(2))
        with pytest.raises(ParameterError, match="3 <= s"):
            dcell_cut(0, 4, ShapeSpec.clique(4))


class TestBcdcCuts:
    def test_k11_counts_and_verify(self):
        for n, want in [(4, 4), (5, 4), (6, 6)]:
            g = build_bcdc(n)
            cut = bcdc_cut(n, ShapeSpec.star(1))
            assert len(cut.members) == want
            assert verify_cut(g, cut, ShapeSpec.star(1), STRUCTURE).passed
            base = "0" * n + "|" + "1" + "0" * (n - 1)
            assert smallest_component(g, cut) == (base,)
            for member in cut.members:
                assert member[1] in neighbor_labels(g, member[0])

    def test_k11_other_side_vertex(self, b4):
        cut = bcdc_cut(4, ShapeSpec.star(1))
        report = verify_cut(b4, cut, ShapeSpec.star(1), STRUCTURE)
        big = max(report.component_sizes)
        # [1111, 1110] survives in the big component
        assert "1110|1111" not in cut.vertex_union()
        assert big == 32 - report.removed_vertices - 1

    def test_star_counts(self):
        for n, t, want in [(5, 2, 3), (5, 7, 2), (6, 2, 4), (6, 3, 3), (4, 2, 2)]:
            g = build_bcdc(n)
            cut = bcdc_cut(n, ShapeSpec.star(t))
            assert len(cut.members) == want
            assert verify_cut(g, cut, ShapeSpec.star(t), STRUCTURE).passed

    def test_star_rejections(self):
        with pytest.raises(ParameterError, match="n >= 4"):
            bcdc_cut(3, ShapeSpec.star(2))
        with pytest.raises(ParameterError, match="2n-3"):
            bcdc_cut(5, ShapeSpec.star(8))

    def test_path_counts(self):
        for n, k, want in [(5, 4, 2), (5, 9, 1), (6, 4, 3), (4, 4, 2), (4, 7, 1)]:
            g = build_bcdc(n)
            cut = bcdc_cut(n, ShapeSpec.path(k))
            assert len(cut.members) == want
            assert verify_cut(g, cut, ShapeSpec.path(k), STRUCTURE).passed
            assert len(smallest_component(g, cut)) == 1

    def test_path_rejections(self):
        with pytest.raises(ParameterError, match="4 <= k"):
            bcdc_cut(5, ShapeSpec.path(3))
        with pytest.raises(ParameterError, match="2n-1"):
            bcdc_cut(5, ShapeSpec.path(10))

    def test_cycle_counts(self):
        for n, k, want in [(5, 10, 1), (5, 6, 2), (5, 9, 2), (6, 6, 3), (6, 12, 1)]:
            g = build_bcdc(n)
            cut = bcdc_cut(n, ShapeSpec.cycle(k))
            assert len(cut.members) == want
            report = verify_cut(g, cut, ShapeSpec.cycle(k), STRUCTURE)
            assert report.passed

    def test_cycle_rejections(self):
        with pytest.raises(ParameterError, match="no known construction"):
            bcdc_cut(5, ShapeSpec.cycle(4))
        with pytest.raises(ParameterError, match="no known construction"):
            bcdc_cut(6, ShapeSpec.cycle(5))
        with pytest.raises(ParameterError, match="minimum is 4"):
            bcdc_cut(5, ShapeSpec.cycle(5))
        with pytest.raises(ParameterError, match="n >= 5"):
            bcdc_cut(4, ShapeSpec.cycle(6))

    def test_b5_c5_four_member_witness(self, b5, b5_c5_witness):
        # No 3 of the 1072 C_5 copies cut B_5 (exhausted once, 205,321,768
        # subsets in 74 s on 2 cores; reproduce via `dcnconn oracle bcdc
        # --n 5 --shape C5 --bound 3 --jobs 2 --max-checks 300000000`).
        # This frozen 4-member witness settles the upper bound.
        assert verify_cut(b5, b5_c5_witness, ShapeSpec.cycle(5), STRUCTURE).passed
        assert smallest_component(b5, b5_c5_witness) == ("00000|00001",)

    def test_all_shapes_verify_on_b7(self):
        # exercises the dimension-block cycle branches that n=5,6 never reach
        n = 7
        g = build_bcdc(n)
        grid = [(ShapeSpec.star(t)) for t in range(1, 2 * n - 2)]
        grid += [ShapeSpec.path(k) for k in range(4, 2 * n)]
        grid += [ShapeSpec.cycle(k) for k in range(6, 2 * n + 1)]
        for shape in grid:
            pred = kappa("bcdc", {"n": n}, shape)
            cut = structure_cut_for("bcdc", {"n": n}, shape, STRUCTURE)
            assert verify_cut(g, cut, shape, STRUCTURE).passed, shape.tag
            assert len(cut.members) == pred, shape.tag
            assert len(smallest_component(g, cut)) == 1, shape.tag

    @pytest.mark.parametrize("n", [10, 11])
    def test_every_cycle_cut_verifies(self, n):
        # B_10 with k = 6 and 7 and B_11 with k = 6 reach the remainder
        # branches r >= k-2 and floor(k/2) <= r <= k-3 and the tight mixed
        # member, which n <= 7 never reaches
        g = build_bcdc(n)
        for k in range(6, 2 * n + 1):
            cut = bcdc_cut(n, ShapeSpec.cycle(k))
            report = verify_cut(g, cut, ShapeSpec.cycle(k), STRUCTURE)
            assert report.passed, k
            assert len(cut.members) == kappa("bcdc", {"n": n}, ShapeSpec.cycle(k)), k

    def test_b9_k6_display_gap_rejected(self):
        # remainder 2 with k=6 needs an 8-vertex pattern; no second bridge
        # dimension exists, so the constructor refuses instead of guessing
        with pytest.raises(ParameterError, match="no known construction"):
            bcdc_cut(9, ShapeSpec.cycle(6))

    def test_substructure_cycle_retag(self, b5):
        cut = bcdc_cut(5, ShapeSpec.cycle(4), SUBSTRUCTURE)
        assert len(cut.members) == 2
        assert cut.mode == SUBSTRUCTURE
        assert cut.shape == ShapeSpec.cycle(4)
        report = verify_cut(b5, cut, ShapeSpec.cycle(4), SUBSTRUCTURE)
        assert report.passed
        for member in cut.members:
            assert is_shape(b5, ShapeSpec.cycle(4), member, SUBSTRUCTURE)


class TestVerifyCut:
    def test_empty_cut_fails(self, b3):
        cut = StructureCut(ShapeSpec.star(1), (), STRUCTURE)
        report = verify_cut(b3, cut, ShapeSpec.star(1), STRUCTURE)
        assert not report.passed

    def test_invalid_member_reported_not_raised(self, b3):
        far = b3.labels[0], b3.labels[-1]
        cut = StructureCut(ShapeSpec.star(1), (far,), STRUCTURE)
        assert verify_cut(b3, cut, ShapeSpec.star(1), STRUCTURE).passed is False
        assert not is_shape(b3, ShapeSpec.star(1), far, STRUCTURE)

    def test_a_cut_of_another_shape_fails(self, b4):
        cut = bcdc_cut(4, ShapeSpec.star(1))
        assert verify_cut(b4, cut, ShapeSpec.star(1), STRUCTURE).passed
        for mode in (STRUCTURE, SUBSTRUCTURE):
            assert verify_cut(b4, cut, ShapeSpec.single(), mode).passed is False
            assert not any(is_shape(b4, ShapeSpec.single(), mem, mode) for mem in cut.members)

    def test_unknown_vertex_raises(self, b3):
        cut = StructureCut(ShapeSpec.star(1), (("zzz", b3.labels[0]),), STRUCTURE)
        with pytest.raises(ValueError, match="not in graph"):
            verify_cut(b3, cut, ShapeSpec.star(1), STRUCTURE)

    def test_unknown_mode_raises(self, d14):
        cut = dcell_cut(1, 4, ShapeSpec.star(1))
        with pytest.raises(ParameterError, match="unknown mode: 'bogus'"):
            verify_cut(d14, cut, ShapeSpec.star(1), "bogus")

    def test_structure_cut_for_dispatch(self, b5):
        cut = structure_cut_for("bcdc", {"n": 5}, ShapeSpec.star(1), SUBSTRUCTURE)
        assert cut.mode == SUBSTRUCTURE
        assert verify_cut(b5, cut, ShapeSpec.star(1), SUBSTRUCTURE).passed
        with pytest.raises(ParameterError):
            structure_cut_for("dcell", {"m": 1, "n": 4}, ShapeSpec.clique(3), SUBSTRUCTURE)
