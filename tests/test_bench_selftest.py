"""The benchmark's self-test, run as a Tier-1 test.

`bench/tracer.py` patches library attributes (`search.enumerate_shape_copies`,
`cli.certify_min`, ...) and `bench/workloads.py` reads result fields
(`lower_bound_proven`, `witness`, `value`), so a library change that drops one
of them fails here as well as in the benchmark. The self-test runs small
variants of every workload (about 7 s on 2 cores) and writes only under the
git-ignored `.bench_out/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
