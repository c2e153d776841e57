"""Command-line surface: gen, cut, table, oracle.

Exit codes: 0 success, 1 a cut that fails verification (`cut`, `table`) or a
refuted certification (the only 1 from `oracle`), 2 parameter or usage
rejection, 3 budget trip (partial result), 130 interrupted by Ctrl-C (one
`interrupted` line on stderr, no partial result). Identical invocations produce
byte-identical data files; the table manifest carries timing separately from
the CSV.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from math import comb

from . import bcdc as bc
from . import dcell as dc
from . import io as dio
from .cuts import predicted_kappa, structure_cut_for, verify_cut
from .errors import ParameterError
from .graph import DEFAULT_MAX_VERTICES, Graph
from .search import (
    BUDGET,
    SearchBudget,
    certify_min,
    exists_cut_of_size,
    g_extra_connectivity,
)
from .shapes import MODES, STRUCTURE, ShapeSpec, StructureCut

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process that SIGINT ended


def _build_family(family: str, params: dict[str, int], cap: int) -> Graph:
    if family == "dcell":
        return dc.build_dcell(params["m"], params["n"], max_vertices=cap)
    if family == "bcdc":
        return bc.build_bcdc(params["n"], max_vertices=cap)
    if family == "cq":
        return bc.build_crossed_cube(params["n"], max_vertices=cap)
    raise ParameterError(f"unknown family: {family!r}")


def _family_params(family: str, args) -> dict[str, int]:
    if family == "dcell":
        return {"m": 0 if args.m is None else args.m, "n": args.n}
    if args.m is not None:
        raise ParameterError(f"--m is the DCell level; {family} takes no --m")
    return {"n": args.n}


def _shape_from_args(args) -> ShapeSpec:
    if args.shape is None:
        raise ParameterError("--shape is required")
    return ShapeSpec.from_tag(args.shape)


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _budget_from_args(args) -> SearchBudget:
    if args.max_candidates < 0:
        raise ParameterError(f"--max-candidates must be >= 0, got {args.max_candidates}")
    if args.max_checks < 1:
        raise ParameterError(f"--max-checks must be >= 1, got {args.max_checks}")
    return SearchBudget(max_candidates=args.max_candidates, max_checks=args.max_checks)


def _jobs_from_args(args) -> int:
    if args.jobs is None:
        return os.cpu_count() or 1
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


def cmd_gen(args) -> int:
    params = _family_params(args.family, args)
    g = _build_family(args.family, params, args.max_vertices)
    if args.format == "edgelist":
        text = dio.render_edgelist(g, args.family, params)
    else:
        text = dio.render_dot(g, f"{args.family}_{dio.params_str(params).replace(' ', '_')}")
    _write_out(text, args.out)
    return EXIT_OK


def cmd_cut(args) -> int:
    shape = _shape_from_args(args)
    params = _family_params(args.family, args)
    cut = structure_cut_for(args.family, params, shape, args.mode)
    g = _build_family(args.family, params, args.max_vertices)
    report = verify_cut(g, cut, shape, args.mode)
    # structure_cut_for accepted, so the formula covers this request too
    predicted = predicted_kappa(args.family, params, shape, args.mode)
    if args.out:
        _write_out(dio.render_cut(cut, args.family, params), args.out)
    print(dio.CSV_HEADER)
    print(dio.report_csv_row(args.family, params, shape, args.mode, predicted, report))
    if not report.passed:
        return EXIT_FAIL
    if len(cut.members) != predicted:
        print(
            f"# constructed {len(cut.members)} members but formula predicts {predicted}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.g_extra is not None:
        ignored = [f"--{flag}" for flag in ("shape", "mode")
                   if getattr(args, flag) not in (None, STRUCTURE)]
        if ignored:
            raise ParameterError(f"--g-extra takes no {', '.join(ignored)}")
    else:
        shape = _shape_from_args(args)
    jobs = _jobs_from_args(args)
    params = _family_params(args.family, args)
    budget = _budget_from_args(args)
    for flag, value, least in (("--bound", args.bound, 0), ("--certify", args.certify, 1),
                               ("--g-extra", args.g_extra, 0)):
        if value is not None and value < least:
            raise ParameterError(f"{flag} must be >= {least}, got {value}")
    if args.certify is not None:
        witness = structure_cut_for(args.family, params, shape, args.mode)
    g = _build_family(args.family, params, args.max_vertices)
    if args.progress:
        logging.basicConfig(level=logging.INFO, format="progress: %(message)s")

    if args.g_extra is not None:
        call = f"g_extra_connectivity(h={args.g_extra})"
        res = g_extra_connectivity(g, args.g_extra, budget, jobs=jobs)
        if res.witness is not None:
            res = replace(res, witness=StructureCut(
                ShapeSpec.single(), tuple((lab,) for lab in res.witness), STRUCTURE))
    elif args.certify is not None:
        call = f"certify_min(value={args.certify})"
        res = certify_min(g, shape, args.mode, args.certify, witness, budget, jobs=jobs)
    else:
        call = f"exists_cut_of_size(bound={args.bound})"
        res = exists_cut_of_size(g, shape, args.mode, args.bound, budget, jobs=jobs)

    print(f"{call} status={res.status} value={res.value} "
          f"lower_bound_proven={res.lower_bound_proven} copies={res.copies} "
          f"checks={res.checks} {res.note}".rstrip())
    if res.witness is not None:
        sys.stdout.write(dio.render_cut(res.witness, args.family, params))
    if res.status == BUDGET:
        return EXIT_BUDGET
    return EXIT_FAIL if res.status == "refuted" else EXIT_OK


def _default_grid() -> list[tuple[str, dict[str, int], ShapeSpec, str]]:
    rows: list[tuple[str, dict[str, int], ShapeSpec, str]] = []
    for n in (4, 5):
        for t in range(1, n - 1):
            for mode in MODES:
                rows.append(("dcell", {"m": 0, "n": n}, ShapeSpec.star(t), mode))
    for n in (4, 5):
        for t in range(1, n):
            for mode in MODES:
                rows.append(("dcell", {"m": 1, "n": n}, ShapeSpec.star(t), mode))
    for n in (4, 5):
        for s in range(3, n):
            rows.append(("dcell", {"m": 0 if n == 5 else 1, "n": n}, ShapeSpec.clique(s), STRUCTURE))
    rows.append(("dcell", {"m": 1, "n": 5}, ShapeSpec.clique(3), STRUCTURE))
    rows.append(("dcell", {"m": 1, "n": 5}, ShapeSpec.clique(4), STRUCTURE))
    for n in (4, 5, 6):
        for t in range(1, 2 * n - 2):
            for mode in MODES:
                rows.append(("bcdc", {"n": n}, ShapeSpec.star(t), mode))
    for n in (5, 6):
        for k in range(4, 2 * n):
            for mode in MODES:
                rows.append(("bcdc", {"n": n}, ShapeSpec.path(k), mode))
        for k in range(6, 2 * n + 1):
            rows.append(("bcdc", {"n": n}, ShapeSpec.cycle(k), STRUCTURE))
        for k in range(4, 2 * n):
            rows.append(("bcdc", {"n": n}, ShapeSpec.cycle(k), "substructure"))
    return rows


def _copy_cap(predicted: int, check_cap: float) -> int:
    """The largest copy count up to the default candidate cap whose scan of
    the sizes below `predicted`, sum(comb(copies, s) for s < predicted), fits
    in `check_cap` (0 when not even one copy fits). The sum grows with the
    count, so a binary search finds it."""
    lo, hi = 0, SearchBudget().max_candidates
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sum(comb(mid, size) for size in range(1, predicted)) <= check_cap:
            lo = mid
        else:
            hi = mid - 1
    return lo


def cmd_table(args) -> int:
    if not args.oracle_check_cap >= 0:  # NaN fails this too
        raise ParameterError(f"--oracle-check-cap must be >= 0, got {args.oracle_check_cap}")
    jobs = _jobs_from_args(args)
    rows_out = [dio.CSV_HEADER + ",oracle"]
    manifest_cases = []
    counts = {"pass": 0, "fail": 0, "rejected": 0, "skipped": 0}
    graphs: dict[tuple, Graph] = {}
    t_start = time.perf_counter()

    for family, params, shape, mode in _default_grid():
        key = (family, tuple(sorted(params.items())))
        case_id = f"{family},{dio.params_str(params)},{shape.tag},{mode}"
        try:
            predicted = predicted_kappa(family, params, shape, mode)
            cut = structure_cut_for(family, params, shape, mode)
            if key not in graphs:
                graphs[key] = _build_family(family, params, DEFAULT_MAX_VERTICES)
            g = graphs[key]
            report = verify_cut(g, cut, shape, mode)
        except ParameterError as exc:
            counts["rejected"] += 1
            manifest_cases.append({"case": case_id, "status": "rejected", "reason": str(exc)})
            continue

        oracle_status = "skipped"
        if args.oracle != "off":
            # a row with more copies than the scan estimate admits reads
            # skipped, unless the size bound settles it without a copy
            copy_cap = _copy_cap(predicted, args.oracle_check_cap)
            res = certify_min(g, shape, mode, predicted, cut,
                              SearchBudget(max_candidates=copy_cap), jobs=jobs)
            oracle_status = "skipped" if res.note == "candidate cap reached" else res.status

        ok = report.passed and len(cut.members) == predicted and oracle_status in (
            "certified",
            "skipped",
        )
        counts["pass" if ok else "fail"] += 1
        if oracle_status == "skipped":
            counts["skipped"] += 1
        rows_out.append(
            dio.report_csv_row(family, params, shape, mode, predicted, report)
            + f",{oracle_status}"
        )
        manifest_cases.append(
            {
                "case": case_id,
                "status": "pass" if ok else "fail",
                "predicted": predicted,
                "constructed": len(cut.members),
                "verified": report.passed,
                "oracle": oracle_status,
            }
        )

    rows_out.append(
        f"# summary pass={counts['pass']} fail={counts['fail']} "
        f"rejected={counts['rejected']} skipped={counts['skipped']}"
    )
    text = "\n".join(rows_out) + "\n"
    _write_out(text, args.out)
    if args.manifest:
        manifest = {
            "command": "table",
            "oracle_check_cap": args.oracle_check_cap,
            "jobs": jobs,
            "output": args.out,
            "cases": manifest_cases,
            "totals": counts,
            "timing_secs": round(time.perf_counter() - t_start, 3),
        }
        with open(args.manifest, "w") as f:
            json.dump(manifest, f, indent=1)
    return EXIT_OK if counts["fail"] == 0 else EXIT_FAIL


def _add_common(p: argparse.ArgumentParser, family_choices=("dcell", "bcdc", "cq")) -> None:
    p.add_argument("family", choices=family_choices)
    p.add_argument("--m", type=int, default=None, help="DCell level (dcell only, default 0)")
    p.add_argument("--n", type=int, required=True, help="ports (dcell) or dimension (bcdc/cq)")
    p.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)


def _add_shape_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", help="shape tag: K1_t (star), Pk (path), Ck (cycle), Ks (clique)")
    p.add_argument("--mode", choices=MODES, default=STRUCTURE)


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    default = SearchBudget()
    p.add_argument("--max-candidates", type=int, default=default.max_candidates)
    p.add_argument("--max-checks", type=int, default=default.max_checks)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dcnconn",
        description="DCell/BCDC topology generation, structure cuts, and oracle certification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a topology file", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--format", choices=("edgelist", "dot"), default="edgelist")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cut", help="construct and verify a structure cut", allow_abbrev=False)
    _add_common(p, family_choices=("dcell", "bcdc"))
    _add_shape_args(p)
    p.add_argument("--out", default=None, help="write the cut file here")
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("oracle", help="exhaustive search certification", allow_abbrev=False)
    _add_common(p, family_choices=("dcell", "bcdc", "cq"))
    _add_shape_args(p)
    _add_budget_args(p)
    p.add_argument("--jobs", type=int, default=None, help="worker count (default: cpu count)")
    one_mode = p.add_mutually_exclusive_group(required=True)
    one_mode.add_argument("--bound", type=int, default=None, metavar="M",
                          help="search sizes 1..M; a cut found has the least size")
    one_mode.add_argument("--certify", type=int, default=None, metavar="V",
                          help="certify the constructed cut of V members as the least")
    one_mode.add_argument("--g-extra", type=int, default=None)
    p.add_argument("--progress", action="store_true",
                   help="log subset counters to stderr during the scan")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("table", help="reproduce the predicted-value table", allow_abbrev=False)
    p.add_argument("--jobs", type=int, default=None, help="worker count (default: cpu count)")
    p.add_argument("--oracle", choices=("auto", "off"), default="auto")
    p.add_argument("--oracle-check-cap", type=float, default=300_000.0,
                   help="skip oracle certification when the scan estimate exceeds this")
    p.add_argument("--out", default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_table)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ParameterError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
