"""Workloads of the dcnconn benchmark and the correctness gate on their outputs.

Every workload runs on fixed graphs, so its inputs and answers are the same
for every seed. A spec is plain JSON so that it can be handed to a fresh
child process on its command line.

Why these four:

- refute-c5: the paper-refutation scan (B_5, C_5 copies, bound 2) at a size
  that runs in seconds. One serial scan, about 99 % of it in the flood kernel.
  Only 2.5 % of its subsets fall below kappa = 8, so a kappa prune bypasses it.
- certify-k12: a certification in the style of acceptance 9 (B_5, K_{1,2},
  value 3, constructed witness). It drives the parallel path with one task per
  leading copy index, and a kappa prune would skip all of its subsets.
- table: the user-facing `dcnconn table --oracle auto`. Its cost is the
  copy-count probe plus many small certifications, each of which starts a
  worker pool. It is the only workload whose certified row count can move.
- extra-b4: g-extra connectivity (B_4, h = 1) scans raw vertex subsets and
  floods several components per subset, starting from the max-flow kappa.
  A scan kernel tuned for cut mode that slows extra mode shows here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

TABLE_ROWS_BAD = ("fail", "refuted", "budget_exceeded")

WORKLOADS: dict[str, dict] = {
    "refute-c5": {
        "kind": "exists", "family": "bcdc", "params": {"n": 5},
        "shape": ["cycle", 5], "mode": "structure", "bound": 2, "jobs": 1,
        "expect": {"status": "no"},
    },
    "certify-k12": {
        "kind": "certify", "family": "bcdc", "params": {"n": 5},
        "shape": ["star", 2], "mode": "structure", "value": 3, "jobs": 2,
        "expect": {"status": "certified", "lower_bound_proven": 2},
    },
    "table": {
        "kind": "table", "check_cap": 30000, "jobs": 2,
        "expect": {"csv_sha256": EXPECTED["table_csv_sha256"], "rows": EXPECTED["table_rows"],
                   "certified": EXPECTED["table_certified"]["30000"]},
    },
    "extra-b4": {
        "kind": "extra", "family": "bcdc", "params": {"n": 4}, "h": 1, "jobs": 1,
        "expect": {"status": "certified", "value": 8},
    },
}

# Smaller variants with the same code paths, for the self-test.
SMALL: dict[str, dict] = {
    "refute-c5": {**WORKLOADS["refute-c5"], "params": {"n": 4}, "bound": 1},
    "certify-k12": {
        **WORKLOADS["certify-k12"], "family": "dcell", "params": {"m": 1, "n": 4},
        "shape": ["star", 1],
    },
    "table": {
        **WORKLOADS["table"], "check_cap": 300,
        "expect": {**WORKLOADS["table"]["expect"], "certified": EXPECTED["table_certified"]["300"]},
    },
    "extra-b4": {
        **WORKLOADS["extra-b4"], "family": "dcell", "params": {"m": 1, "n": 4},
        "expect": {"status": "certified", "value": 4},
    },
}


def table_argv(spec: dict, out: str) -> list[str]:
    return ["table", "--oracle", "auto", "--oracle-check-cap", str(spec["check_cap"]),
            "--jobs", str(spec["jobs"]), "--out", out]


def split_table(csv_text: str) -> tuple[list[str], list[str]]:
    """CSV data lines without their trailing `oracle` column, and that column.

    The header is kept; `#` comment lines (the summary) are dropped.
    """
    kept, oracle = [], []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            continue
        head, _, last = line.rpartition(",")
        kept.append(head)
        oracle.append(last)
    return kept, oracle


def table_digest(csv_text: str) -> str:
    kept, _ = split_table(csv_text)
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def row_key(line: str) -> str:
    """family,params,shape,mode: the columns that name a table row."""
    return ",".join(line.split(",")[:4])


def table_counts(csv_text: str) -> dict[str, int]:
    """Row counts by the CSV's `oracle` column (not by the `# summary` line)."""
    _, oracle = split_table(csv_text)
    counts: dict[str, int] = {}
    for value in oracle[1:]:
        counts[value] = counts.get(value, 0) + 1
    return counts


def certified_keys(csv_text: str) -> list[str]:
    kept, oracle = split_table(csv_text)
    return [row_key(line) for line, o in zip(kept[1:], oracle[1:]) if o == "certified"]


def gate_table(expect: dict, csv_text: str, exit_code: int) -> list[tuple[str, bool]]:
    kept, oracle = split_table(csv_text)
    pass_col = [line.rsplit(",", 1)[-1] for line in kept[1:]]
    certified = set(certified_keys(csv_text))
    return [
        ("table exits 0", exit_code == 0),
        ("table row count", len(kept) - 1 == expect["rows"]),
        ("table columns except oracle match the seed digest",
         table_digest(csv_text) == expect["csv_sha256"]),
        ("no table row fails verification", all(p == "pass" for p in pass_col)),
        ("no oracle column reads fail, refuted or budget_exceeded",
         not any(o in TABLE_ROWS_BAD for o in oracle[1:])),
        ("every row certified at the seed stays certified",
         set(expect["certified"]) <= certified),
    ]


def shape_of(spec: dict):
    from dcnconn import ShapeSpec

    kind, size = spec["shape"]
    return ShapeSpec(kind, size)


def gate_oracle(spec: dict, res, g) -> list[tuple[str, bool]]:
    """Checks on an oracle result; `g` is the graph it ran on."""
    from dcnconn import components, delete_vertices, verify_cut

    expect = spec["expect"]
    checks = [(f"status is {expect['status']}", res.status == expect["status"])]
    if spec["kind"] == "certify":
        checks.append(("lower_bound_proven",
                       res.lower_bound_proven == expect["lower_bound_proven"]))
        ok_verify = ok_split = False
        if res.witness is not None:
            ok_verify = verify_cut(g, res.witness, shape_of(spec), spec["mode"]).passed
            rest = delete_vertices(g, res.witness.vertex_union())
            ok_split = len(components(rest)) >= 2
        checks.append(("witness passes verify_cut", ok_verify))
        checks.append(("removing the witness disconnects the graph", ok_split))
    elif spec["kind"] == "extra":
        checks.append((f"value is {expect['value']}", res.value == expect["value"]))
        ok_split = False
        if res.witness is not None:
            comps = components(delete_vertices(g, res.witness))
            ok_split = len(comps) >= 2 and all(len(c) > spec["h"] for c in comps)
        checks.append((f"witness leaves >= 2 components of > {spec['h']} vertices", ok_split))
    return checks
