import logging
import os
import re
import shlex
import signal
import subprocess
import sys
from itertools import accumulate, islice
from math import comb
from pathlib import Path

import pytest

from dcnconn import ShapeSpec, build_bcdc, build_dcell, predicted_kappa, search
from dcnconn.cli import _default_grid, main, make_parser
from dcnconn.shapes import enumerate_shape_copies

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_dcell_matches_fixture(capsys):
    code, out, _ = run(capsys, "gen", "dcell", "--m", "1", "--n", "4")
    assert code == 0
    assert out == (FIXTURES / "dcell_m1_n4.edgelist").read_text()


def test_gen_bcdc_matches_fixture(capsys):
    code, out, _ = run(capsys, "gen", "bcdc", "--n", "3")
    assert code == 0
    assert out == (FIXTURES / "bcdc_n3.edgelist").read_text()


def test_gen_cq2_edges(capsys):
    code, out, _ = run(capsys, "gen", "cq", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# graph cq n=2"
    assert set(lines[1:]) == {"00\t01", "00\t10", "01\t11", "10\t11"}


def test_gen_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "bcdc", "--n", "4")
    _, second, _ = run(capsys, "gen", "bcdc", "--n", "4")
    assert first == second


def test_gen_dot(capsys, tmp_path):
    out_file = tmp_path / "g.dot"
    code, _, _ = run(capsys, "gen", "cq", "--n", "2", "--format", "dot", "--out", str(out_file))
    assert code == 0
    assert '"00" -- "01";' in out_file.read_text()


def test_gen_budget_rejected(capsys):
    code, _, err = run(capsys, "gen", "dcell", "--m", "2", "--n", "5", "--max-vertices", "100")
    assert code == 2
    assert "requires" in err


def test_cut_dcell_star(capsys, tmp_path):
    out_file = tmp_path / "cut.txt"
    code, out, _ = run(
        capsys, "cut", "dcell", "--m", "1", "--n", "4", "--shape", "K1_1",
        "--out", str(out_file),
    )
    assert code == 0
    assert "dcell,m=1 n=4,K1_1,structure,3,3,5,2,1,pass" in out
    assert out_file.read_text().startswith("# cut dcell m=1 n=4 shape=K1_1")


def test_cut_bcdc_cycle_k5_rejected(capsys):
    # exhaustive search refuted the 3-member cut; the CLI reports the truth
    code, _, err = run(capsys, "cut", "bcdc", "--n", "5", "--shape", "C5")
    assert code == 2
    assert "minimum is 4" in err


def test_cut_bcdc_cycle_k6(capsys):
    code, out, _ = run(capsys, "cut", "bcdc", "--n", "5", "--shape", "C6")
    assert code == 0
    assert ",C6,structure,2,2," in out


def test_cut_out_of_range_exit2(capsys):
    code, _, err = run(capsys, "cut", "bcdc", "--n", "5", "--shape", "C4")
    assert code == 2
    assert "no known construction" in err


def test_cut_star_range_named(capsys):
    code, _, err = run(capsys, "cut", "bcdc", "--n", "5", "--shape", "K1_8")
    assert code == 2
    assert "2n-3" in err


def test_oracle_bound_certifies_the_least_dcell_clique_cut(capsys):
    # --bound scans sizes from 1 up, so a cut it finds is certified as the least
    code, out, _ = run(
        capsys, "oracle", "dcell", "--m", "0", "--n", "5",
        "--shape", "K3", "--bound", "8", "--jobs", "1",
    )
    assert code == 0
    assert out.splitlines()[0] == ("exists_cut_of_size(bound=8) status=certified value=2 "
                                   "lower_bound_proven=1 copies=10 checks=11")


def test_oracle_g_extra_b3(capsys):
    code, out, _ = run(capsys, "oracle", "bcdc", "--n", "3", "--g-extra", "0", "--jobs", "1")
    assert code == 0
    assert "value=4" in out


def test_oracle_bound_no(capsys):
    code, out, _ = run(
        capsys, "oracle", "dcell", "--m", "1", "--n", "4",
        "--shape", "K1_1", "--bound", "2", "--jobs", "1",
    )
    assert code == 0
    assert "status=no" in out


def test_oracle_certify_with_constructor(capsys):
    code, out, _ = run(
        capsys, "oracle", "bcdc", "--n", "4", "--shape", "P7",
        "--certify", "1", "--jobs", "1",
    )
    assert code == 0
    assert "status=certified" in out


@pytest.mark.parametrize("argv, message", [
    (("bcdc", "--n", "5", "--shape", "C5", "--certify", "4"), "so the minimum is 4\n"),
    (("cq", "--n", "3", "--shape", "K1_1", "--certify", "2"), "error: unknown family: 'cq'\n"),
], ids=["no-construction", "no-family-construction"])
def test_certify_without_a_construction_exits_2(capsys, argv, message):
    # --certify certifies the constructed cut: with none there is nothing to certify
    code, out, err = run(capsys, "oracle", *argv, "--jobs", "1")
    assert code == 2
    assert err.endswith(message)
    assert out == ""


@pytest.mark.parametrize("flags, named", [
    (["--shape", "C5"], "--shape"),
    (["--mode", "substructure"], "--mode"),
    (["--shape", "K1"], "--shape"),
    (["--shape", "K1_1", "--mode", "structure"], "--shape"),
    (["--mode", "substructure", "--shape", "C5"], "--shape, --mode"),
])
def test_g_extra_rejects_shape_and_mode_flags(capsys, flags, named):
    code, out, err = run(capsys, "oracle", "bcdc", "--n", "3", "--g-extra", "0", *flags)
    assert code == 2
    assert f"--g-extra takes no {named}\n" in err
    assert out == ""


def test_g_extra_witness_is_written_in_structure_mode(capsys):
    code, out, _ = run(capsys, "oracle", "bcdc", "--n", "3", "--g-extra", "0",
                       "--mode", "structure", "--jobs", "1")
    assert code == 0
    assert out.splitlines()[1] == "# cut bcdc n=3 shape=K1 mode=structure"


def test_oracle_budget_exit3(capsys):
    code, out, _ = run(
        capsys, "oracle", "bcdc", "--n", "4", "--shape", "K1_1",
        "--bound", "8", "--max-checks", "10", "--jobs", "1",
    )
    assert code == 3
    assert "budget" in out


def test_oracle_g_extra_without_separation_exits_0(capsys):
    # D_{0,4} is K_4: no vertex set leaves two components of 2 or more vertices,
    # a complete answer like any other "no"
    code, out, _ = run(capsys, "oracle", "dcell", "--m", "0", "--n", "4", "--g-extra", "1",
                       "--jobs", "1")
    assert code == 0
    assert out == ("g_extra_connectivity(h=1) status=no value=None lower_bound_proven=2 "
                   "copies=4 checks=0\n")


@pytest.mark.parametrize("argv, call", [
    (["--g-extra", "0"], "g_extra_connectivity(h=0)"),
    (["--shape", "K1_1", "--bound", "8"], "exists_cut_of_size(bound=8)"),
    (["--shape", "K1_1", "--certify", "3"], "certify_min(value=3)"),
    (["--shape", "K1_1", "--bound", "2"], "exists_cut_of_size(bound=2)"),
])
def test_oracle_prints_one_report_line(capsys, argv, call):
    code, out, _ = run(capsys, "oracle", "dcell", "--m", "1", "--n", "4", *argv, "--jobs", "1")
    fields = out.splitlines()[0].split()
    assert fields[0] == call
    assert [f.split("=")[0] for f in fields[1:6]] == [
        "status", "value", "lower_bound_proven", "copies", "checks"]
    assert code == (1 if fields[1] == "status=refuted" else 0)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_progress_restarts_at_each_size(capsys, caplog, monkeypatch, jobs):
    # B_3 has 12 vertices: sizes 1..3 leave it connected, size 4 cuts. Every
    # size of 2 or more takes the pool at --jobs 2; at either job count the
    # parent process alone logs, once per leading index, so the records match
    monkeypatch.setattr(search, "_LOG_EVERY", 1)
    monkeypatch.setattr(search, "_POOL_MIN", 0)
    with caplog.at_level(logging.INFO, logger="dcnconn.search"):
        code, out, _ = run(capsys, "oracle", "bcdc", "--n", "3", "--g-extra", "0", "--progress",
                           "--jobs", jobs)
    assert code == 0 and "value=4" in out
    records, flooded = [], []
    for record in caplog.records:
        if "flooded" in record.getMessage():
            flooded.append(record.getMessage())
            continue
        size, examined, total = re.fullmatch(r"size=(\d) subsets examined=([\d,]+) / ([\d,]+)",
                                             record.getMessage()).groups()
        assert total == f"{comb(12, int(size)):,}"
        records.append((int(size), int(examined.replace(",", ""))))
    # size 1 is one range; a later size's leading index l starts comb(11-l, size-1) subsets
    assert records == [(1, 12)] + [(size, examined) for size in (2, 3) for examined in accumulate(
        comb(11 - lead, size - 1) for lead in range(13 - size))]
    # the dominating-set rule leaves one subset to flood, the cut at size 4
    assert flooded == [f"size={size} subsets flooded={floods} of {examined} examined, "
                       "0 repeated unions not flooded"
                       for size, floods, examined in [(1, 0, 12), (2, 0, 66), (3, 0, 220),
                                                      (4, 1, 40)]]


def test_progress_goes_to_stderr():
    code = ("import sys; from dcnconn import search; from dcnconn.cli import main; "
            "search._LOG_EVERY = 1; search._POOL_MIN = 0; sys.exit(main(sys.argv[1:]))")
    path = [str(Path(search.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code, "oracle", "bcdc", "--n", "3",
                           "--g-extra", "0", "--progress", "--jobs", "2"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert "progress: size=2 subsets examined=66 / 66\n" in proc.stderr
    assert "progress" not in proc.stdout


def test_ctrl_c_stops_a_pooled_scan():
    # Ctrl-C signals the whole process group; a worker it killed would never
    # return its task, and the caller would wait for the pool forever
    code = "import sys; from dcnconn.cli import main; sys.exit(main(sys.argv[1:]))"
    path = [str(Path(search.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen([sys.executable, "-c", code, "oracle", "bcdc", "--n", "5",
                             "--shape", "C5", "--bound", "3", "--jobs", "2", "--progress"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        line = ""
        while "examined=" not in line:  # the pool is scanning size 2
            line = proc.stderr.readline()
            assert line, "the scan ended before its first progress line"
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130
    assert err.splitlines()[-1] == "interrupted" and "Traceback" not in err
    assert out == ""


def test_table_quick(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    manifest = tmp_path / "manifest.json"
    code, _, _ = run(
        capsys, "table", "--oracle", "off", "--out", str(out_file),
        "--manifest", str(manifest),
    )
    assert code == 0
    text = out_file.read_text()
    assert text.splitlines()[0].endswith(",oracle")
    assert "# summary pass=" in text
    assert "fail=0" in text.splitlines()[-1]
    import json

    man = json.loads(manifest.read_text())
    assert man["totals"]["fail"] == 0
    assert all(c["status"] in ("pass", "fail", "rejected", "skipped") for c in man["cases"])


def test_table_summary_counts_skipped_rows(capsys, tmp_path):
    import json

    out_file = tmp_path / "table.csv"
    manifest = tmp_path / "manifest.json"
    code, _, _ = run(
        capsys, "table", "--oracle", "off", "--out", str(out_file),
        "--manifest", str(manifest),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    skipped = sum(1 for line in lines[1:-1] if line.rsplit(",", 1)[1] == "skipped")
    assert skipped > 0
    assert f" skipped={skipped}" in lines[-1]
    assert json.loads(manifest.read_text())["totals"]["skipped"] == skipped


def test_table_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "table", "--oracle", "off", "--out", str(a))
    run(capsys, "table", "--oracle", "off", "--out", str(b))
    assert a.read_text() == b.read_text()


@pytest.fixture(scope="module")
def probed_grid():
    """Each table row's predicted value, copy count (cut at 301) and whether
    the size bound settles it, (predicted - 1) * |V(H)| < kappa with kappa
    from networkx: a reference for the skip rule that counts the copies
    before any scan."""
    nx = pytest.importorskip("networkx")
    graphs, rows = {}, []
    for family, params, shape, mode in _default_grid():
        key = (family, tuple(sorted(params.items())))
        if key not in graphs:
            g = (build_dcell(params["m"], params["n"]) if family == "dcell"
                 else build_bcdc(params["n"]))
            graphs[key] = g, nx.node_connectivity(nx.Graph(list(g.edges())))
        g, kappa = graphs[key]
        copies = enumerate_shape_copies(g, shape, mode)
        predicted = predicted_kappa(family, params, shape, mode)
        rows.append((predicted, sum(1 for _ in islice(copies, 301)),
                     (predicted - 1) * shape.vertex_count < kappa))
    return rows


def _table_rows(capsys, tmp_path, *extra, cap="300"):
    out_file = tmp_path / "table.csv"
    code, _, _ = run(capsys, "table", "--oracle-check-cap", cap, "--out", str(out_file), *extra)
    lines = out_file.read_text().splitlines()
    return code, [line.rsplit(",", 1) for line in lines[1:-1]], lines[-1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_table_oracle_matches_the_probe_rule(capsys, tmp_path, probed_grid, monkeypatch, jobs):
    monkeypatch.setattr(search, "_POOL_MIN", 0)  # with jobs=2, every size of 2 or more pools
    code, rows, summary = _table_rows(capsys, tmp_path, "--jobs", jobs)
    assert code == 0
    want = ["certified" if bound or sum(comb(copies, s) for s in range(1, predicted)) <= 300
            else "skipped" for predicted, copies, bound in probed_grid]
    assert [oracle for _, oracle in rows] == want
    assert (want.count("certified"), want.count("skipped")) == (99, 26)
    assert summary == "# summary pass=125 fail=0 rejected=0 skipped=26"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_table_size_bound_rows_certify_at_check_cap_0(capsys, tmp_path, probed_grid, jobs):
    # the size bound scans nothing, so no check cap can skip its rows
    code, rows, summary = _table_rows(capsys, tmp_path, "--jobs", jobs, cap="0")
    assert code == 0
    assert [oracle for _, oracle in rows] == [
        "certified" if bound else "skipped" for _, _, bound in probed_grid]
    assert sum(bound for _, _, bound in probed_grid) == 95
    assert summary == "# summary pass=125 fail=0 rejected=0 skipped=30"


@pytest.mark.parametrize("cap", ["-1", "nan"])
def test_table_rejects_a_negative_or_nan_check_cap(capsys, tmp_path, cap):
    out_file = tmp_path / "table.csv"
    code, _, err = run(capsys, "table", "--oracle-check-cap", cap, "--out", str(out_file))
    assert code == 2
    assert "--oracle-check-cap must be >= 0" in err
    assert not out_file.exists()


@pytest.mark.parametrize("flag, value, rule", [
    ("--bound", "-1", ">= 0, got -1"),
    ("--certify", "0", ">= 1, got 0"),
    ("--g-extra", "-1", ">= 0, got -1"),
    ("--max-checks", "0", ">= 1, got 0"),
    ("--max-candidates", "-1", ">= 0, got -1"),
])
def test_oracle_names_a_rejected_budget_flag(capsys, flag, value, rule):
    mode = () if flag in ("--bound", "--certify", "--g-extra") else ("--bound", "1")
    shape = () if flag == "--g-extra" else ("--shape", "K1_1")
    code, out, err = run(capsys, "oracle", "bcdc", "--n", "3", *shape, *mode, flag, value)
    assert code == 2
    assert err == f"error: {flag} must be {rule}\n"
    assert out == ""


@pytest.mark.parametrize("tag", ["star", "clique", "path", "cycle", "single", "C05", "P007",
                                 "K01", "K1_02", "K\u0661"])
@pytest.mark.parametrize("command", ["cut", "oracle"])
def test_shape_takes_only_its_tag(capsys, command, tag):
    # a shape kind word, a leading zero and a non-ASCII digit are not tags
    code, out, err = run(capsys, command, "dcell", "--n", "4", "--shape", tag,
                         *(("--bound", "1") if command == "oracle" else ()))
    assert code == 2
    assert f"error: unknown shape tag: {tag!r} (the tags are K1_t, Pk, Ck and Ks)" in err
    assert out == ""


def test_shape_k1_is_the_single_vertex(capsys):
    code, out, _ = run(capsys, "oracle", "dcell", "--m", "1", "--n", "4", "--shape", "K1",
                       "--bound", "8", "--jobs", "1")
    assert code == 0
    assert "value=4" in out
    assert out.splitlines()[1] == "# cut dcell m=1 n=4 shape=K1 mode=structure"


@pytest.mark.parametrize("argv", [
    ("gen", "bcdc", "--n", "2", "--seed", "1"),
    ("cut", "dcell", "--n", "4", "--shape", "K1_1", "--seed", "1"),
    ("oracle", "dcell", "--n", "4", "--shape", "K1_1", "--bound", "1", "--seed", "1"),
    ("table", "--oracle", "off", "--seed", "1"),
    ("cut", "dcell", "--n", "4", "--shape", "K1_1", "--t", "1"),
    ("oracle", "dcell", "--n", "4", "--shape", "K3", "--bound", "1", "--s", "3"),
    ("oracle", "bcdc", "--n", "5", "--shape", "C6", "--bound", "1", "--k", "6"),
    ("oracle", "bcdc", "--n", "3", "--g-extra", "0", "--t", "1"),
    ("oracle", "bcdc", "--n", "3", "--g-extra", "0", "--s", "3"),
    ("oracle", "bcdc", "--n", "3", "--g-extra", "0", "--k", "4"),
    ("oracle", "dcell", "--n", "4", "--shape", "K1_1", "--bound", "1", "--max-members", "3"),
    ("oracle", "dcell", "--n", "4", "--shape", "K1_1", "--bound", "1", "--prove-min", "3"),
    ("oracle", "dcell", "--n", "4", "--shape", "K1_1", "--certify", "3",
     "--witness-from-constructor"),
    ("oracle", "dcell", "--n", "4", "--shape", "K1_1", "--bound", "1", "--budget-secs", "5"),
    ("table", "--oracle", "off", "--max-candidates", "20"),
    ("table", "--oracle", "off", "--max-checks", "10"),
    ("table", "--oracle", "off", "--budget-secs", "5"),
], ids=["gen--seed", "cut--seed", "oracle--seed", "table--seed", "cut--t", "oracle--s",
        "oracle--k", "g-extra--t", "g-extra--s", "g-extra--k", "oracle--max-members",
        "oracle--prove-min", "oracle--witness-from-constructor", "oracle--budget-secs",
        "table--max-candidates", "table--max-checks", "table--budget-secs"])
def test_removed_flags_are_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    removed = argv[max(i for i, arg in enumerate(argv) if arg.startswith("--")):]
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(removed)}\n" in out.err
    assert out.out == ""


@pytest.mark.parametrize("argv", [("gen", "bcdc", "--n", "2", "--m", "3"),
                                  ("gen", "cq", "--n", "2", "--m", "0"),
                                  ("cut", "bcdc", "--n", "5", "--m", "1", "--shape", "C6"),
                                  ("oracle", "cq", "--n", "3", "--m", "1", "--g-extra", "0")],
                         ids=lambda argv: argv[0] + "-" + argv[1])
def test_m_outside_dcell_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert f"error: --m is the DCell level; {argv[1]} takes no --m" in err
    assert out == ""


def test_oracle_bound_no_is_exhaustive(capsys):
    # no cut of B_4 has 3 K_{1,1} members or fewer: an exhaustive "no"
    code, out, _ = run(capsys, "oracle", "bcdc", "--n", "4", "--shape", "K1_1",
                       "--bound", "3", "--jobs", "1")
    assert code == 0
    assert out == ("exists_cut_of_size(bound=3) status=no value=None lower_bound_proven=3 "
                   "copies=96 checks=147536\n")


@pytest.mark.parametrize("argv", [("cut", "dcell", "--n", "4"),
                                  ("oracle", "dcell", "--n", "4", "--bound", "1")],
                         ids=["cut", "oracle"])
def test_missing_shape_is_named(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error: --shape is required" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("--shape", "K1_1", "--bound", "1", "--g-extra", "0"),
    ("--g-extra", "1", "--certify", "2"),
    ("--shape", "K1_1", "--certify", "3", "--bound", "2"),
], ids=["bound+g-extra", "g-extra+certify", "certify+bound"])
def test_oracle_with_two_modes_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "dcell", "--m", "1", "--n", "4", *argv, "--jobs", "1"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "not allowed with argument" in out.err
    assert out.out == ""


def test_oracle_without_a_mode_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "dcell", "--m", "1", "--n", "4", "--shape", "K1_1"])
    assert exc.value.code == 2
    assert "one of the arguments --bound --certify --g-extra is required" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ("oracle", "bcdc", "--n", "3", "--shape", "K1_1", "--bound", "1"),
    ("table", "--oracle", "off"),
], ids=["oracle", "table"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_1_is_rejected(capsys, tmp_path, argv, jobs):
    out_file = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--jobs", jobs, *(
        ("--out", str(out_file)) if argv[0] == "table" else ()))
    assert code == 2
    assert f"error: --jobs must be >= 1, got {jobs}" in err
    assert out == "" and not out_file.exists()


def test_table_has_no_max_members_and_records_the_default(capsys, tmp_path):
    import json

    with pytest.raises(SystemExit) as exc:
        main(["table", "--oracle", "off", "--max-members", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-members 3" in capsys.readouterr().err
    manifest = tmp_path / "manifest.json"
    code, _, _ = run(capsys, "table", "--oracle", "off", "--out", str(tmp_path / "t.csv"),
                     "--manifest", str(manifest))
    assert code == 0
    # the one budget, written as a float whether given or defaulted
    assert '"oracle_check_cap": 300000.0,' in manifest.read_text()
    assert "budget" not in json.loads(manifest.read_text())


def test_table_timing_ignores_a_wall_clock_step_back(capsys, tmp_path, monkeypatch):
    import json
    import time

    # every read of the wall clock is one second earlier than the one before
    clock = iter(range(10**6, 0, -1))
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    manifest = tmp_path / "manifest.json"
    code, _, _ = run(capsys, "table", "--oracle", "off", "--out", str(tmp_path / "t.csv"),
                     "--manifest", str(manifest))
    assert code == 0
    assert json.loads(manifest.read_text())["timing_secs"] >= 0


@pytest.mark.parametrize("argv", [("gen", "bcdc", "--n", "3"),
                                  ("cut", "dcell", "--n", "4", "--shape", "K1_1")],
                         ids=["gen", "cut"])
def test_jobs_is_not_an_option_of_gen_or_cut(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 5" in capsys.readouterr().err


def _readme_commands() -> list[list[str]]:
    """The argv of every `dcnconn ...` line in the README's fenced blocks,
    `\\` continuations joined and `#` comments dropped."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["dcnconn"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse(capsys):
    commands = _readme_commands()
    assert len(commands) == 14
    for argv in commands:
        try:
            args = make_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"dcnconn {' '.join(argv)}: {capsys.readouterr().err}")
        if getattr(args, "shape", None) is not None:
            ShapeSpec.from_tag(args.shape)


# README oracle examples too slow for the suite: 74 s on 2 cores
SLOW_README_EXAMPLES = [["oracle", "bcdc", "--n", "5", "--shape", "C5", "--bound", "3"]]


def test_readme_oracle_examples_run(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    note = re.search(r"`(size bound: [^`]*)` for the last example above", readme).group(1)
    fast = [argv for argv in _readme_commands() if argv[0] == "oracle"
            and not any(argv[:len(slow)] == slow for slow in SLOW_README_EXAMPLES)]
    assert len(fast) == 5
    reports = []
    for argv in fast:
        code, out, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0, argv
        reports.append(out.splitlines()[0])
    assert reports[-1].endswith(f" {note}")
