"""dcnconn benchmark: one workload, measured end to end or per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout: the library is imported from the
checkout's `src/`, never from an installed copy. Workloads are in
bench/workloads.py; their inputs are fixed graphs, so the seed is only
recorded.

Each iteration runs in a fresh child process (bench/child.py). Iterations
repeat while the next one is expected to end within `--seconds`; there is
always at least one. With `--trace 0` the run also starts a few set-up-only
children, reports the medians of the end-to-end metrics and counts the
gate's checks. With `--trace 1` every iteration is a pair, one untraced child
and one traced child, which gives the per-layer metrics and the tracing
overhead.

Standard output: an `# env` line, one `<metric> <value> <unit>` line per
metric (plus error_rate and the table's skipped rows), and last one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Per-run records
and trace spans go to `.bench_out/` in the checkout. Exits 1 when a
correctness check fails, and 2 without a result when the checkout has no
library or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import reference_loop, scale
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"

SETUP_REPEATS = 5
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "certified_rows": "count"}
PER_LAYER_UNITS = {
    "search.checks": "count",
    "search.scan_s": "s",
    "search.checks_per_s": "1/s",
    "search.cpu_util": "ratio",
    "search.certify_calls": "count",
    "shapes.enumerate_s": "s",
    "shapes.copies": "count",
    "shapes.copies_per_s": "1/s",
    "graph.flood_calls": "count",
    "graph.flood_s": "s",
    "graph.min_vertex_cut_s": "s",
    "graph.min_vertex_cut_calls": "count",
    "cuts.verify_s": "s",
    "cuts.verify_calls": "count",
    "cuts.construct_s": "s",
    "bcdc.build_s": "s",
    "dcell.build_s": "s",
    "cli.table_self_s": "s",
    "trace_overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def environment(spec: dict, seed: int) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = out.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs": spec["jobs"],
        "cpu_model": cpu_model,
        "loadavg_start": list(os.getloadavg()),
        "git_commit": commit,
        "seed": seed,
    }


def run_child(spec: dict, *, trace: bool, setup_only: bool, tag: str, deadline: float) -> dict:
    """Start child.py once and return its record; raise ChildFailed on any failure."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "DCN_BUDGET_SECS")}
    pre_loop = [reference_loop() for _ in range(3)]
    req = {"spec": spec, "trace": trace, "setup_only": setup_only, "tag": tag,
           "out_dir": str(OUT), "t_spawn": time.monotonic()}
    # A session of its own, so that a timeout also kills the child's pool workers.
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(req)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{tag}: no result within the time limit") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{tag}: exit {proc.returncode}\n{stderr.strip()}")
    rec = json.loads(lines[-1])
    rec["raw_setup_s"] = rec["setup_s"]
    rec["setup_s"] = scale(rec["setup_s"], pre_loop)
    return rec


def measure(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations of one workload and reduce them to metrics and gate counts."""
    OUT.mkdir(exist_ok=True)
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    prefix = f"{name}-seed{seed}-trace{int(trace)}"

    def child(kind: str, i: int, **kw) -> dict:
        return run_child(spec, tag=f"{prefix}-{kind}{i}", deadline=deadline, **kw)

    setups = [] if trace else [child("setup", i, trace=False, setup_only=True)
                               for i in range(SETUP_REPEATS)]
    plain, traced = [], []
    t_loop = time.monotonic()
    while True:
        plain.append(child("plain", len(plain), trace=False, setup_only=False))
        if trace:
            traced.append(child("traced", len(traced), trace=True, setup_only=False))
        now = time.monotonic()
        per_iteration = (now - t_loop) / len(plain)
        if now + per_iteration > min(t_start + seconds, deadline):
            break

    checks = [ok for rec in plain + traced for _, ok in rec["checks"]]
    failed_checks = sorted({check for rec in plain + traced for check, ok in rec["checks"] if not ok})
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        metrics["search.cpu_util"] = statistics.median(
            r["cpu_s"] / (r["raw_wall_s"] * spec["jobs"]) for r in plain)
        metrics["trace_overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in setups + plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "certified_rows": statistics.median(r["certified_rows"] for r in plain),
        }
        units = END_TO_END_UNITS
    return {
        "attempted": len(checks),
        "failed": checks.count(False),
        "failed_checks": failed_checks,
        "iterations": len(plain),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "records": {"setup_only": setups, "plain": plain, "traced": traced},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dcnconn" / "__init__.py").is_file():
        print(f"error: no dcnconn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    env = environment(spec, args.seed)
    try:
        result = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "env": env, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("# env " + json.dumps(env))
    print(f"# iterations {result['iterations']}")
    for name in result["failed_checks"]:
        print(f"# FAILED check: {name}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"error_rate {result['failed'] / result['attempted']} ratio")
    plain = result["records"]["plain"]
    if "skipped_rows" in plain[0]:
        print(f"table.skipped_rows {statistics.median(r['skipped_rows'] for r in plain)} count")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
