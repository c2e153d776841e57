"""Self-test of the benchmark on small variants of every workload (seconds).

    python3 bench/selftest.py

Checks that each small variant passes its gate and emits every metric of
BENCHMARK.json with its unit, traced and untraced; that a wrong expected
verdict makes the gate count a failure; and that run.py exits non-zero
without a result in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import SMALL  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> None:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in config["end_to_end"]},
              True: {m["name"]: m["unit"] for m in config["per_layer"]}}
    expect({w["name"] for w in config["workloads"]} == set(SMALL), "workload names")

    for name, spec in SMALL.items():
        for trace in (False, True):
            out = run.measure(spec, f"small-{name}", 0, 0.0, trace)
            got = {k: m["unit"] for k, m in out["metrics"].items()}
            expect(got == wanted[trace], f"{name} trace={trace}: metrics {got}")
            expect(all(isinstance(m["value"], (int, float)) for m in out["metrics"].values()),
                   f"{name} trace={trace}: numeric values")
            expect(out["attempted"] > 0 and out["failed"] == 0,
                   f"{name} trace={trace}: gate {out['failed_checks']}")
        print(f"ok {name}")

    wrong = {**SMALL["refute-c5"], "expect": {"status": "yes"}}
    out = run.measure(wrong, "small-wrong-verdict", 0, 0.0, False)
    expect(out["failed"] >= 1, "a wrong expected verdict is counted as a failure")
    wrong = {**SMALL["table"], "expect": {**SMALL["table"]["expect"], "csv_sha256": "0" * 64}}
    out = run.measure(wrong, "small-wrong-digest", 0, 0.0, False)
    expect(out["failed"] >= 1, "a wrong table digest is counted as a failure")
    print("ok wrong expectations fail the gate")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "refute-c5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py must fail without a result when the library is missing")
    print("ok bare directory fails without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
