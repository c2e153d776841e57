"""One iteration of a benchmark workload, in a fresh interpreter.

run.py starts this file once per iteration, so that set-up time, peak memory
and worker-pool state belong to that iteration alone:

    python3 bench/child.py '<request JSON>'

The request holds the workload spec, the parent's CLOCK_MONOTONIC reading
just before the process was started, whether to stop after set-up, whether to
trace, and where to write files. The last line of standard output is one JSON
record: set-up and call times, CPU time, peak RSS, the gate's checks and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _rusage() -> tuple[float, float]:
    """(CPU seconds of this process and its reaped children, max RSS in MB of either)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def _setup(spec: dict):
    """Graph and witness of an oracle workload, built through the traced attributes."""
    import dcnconn.bcdc
    import dcnconn.cuts
    import dcnconn.dcell
    from workloads import shape_of

    params = spec["params"]
    if spec["family"] == "bcdc":
        g = dcnconn.bcdc.build_bcdc(params["n"])
    else:
        g = dcnconn.dcell.build_dcell(params["m"], params["n"])
    witness = None
    if spec["kind"] == "certify":
        witness = dcnconn.cuts.structure_cut_for(
            spec["family"], params, shape_of(spec), spec["mode"])
    return g, witness


def _call(spec: dict, g, witness):
    import dcnconn.search as search
    from workloads import shape_of

    jobs = spec["jobs"]
    if spec["kind"] == "exists":
        return search.exists_cut_of_size(g, shape_of(spec), spec["mode"], spec["bound"], jobs=jobs)
    if spec["kind"] == "certify":
        return search.certify_min(g, shape_of(spec), spec["mode"], spec["value"],
                                  witness=witness, jobs=jobs)
    return search.g_extra_connectivity(g, spec["h"], jobs=jobs)


def main() -> None:
    req = json.loads(sys.argv[1])
    spec = req["spec"]
    sys.path[:0] = [str(SRC), str(HERE)]
    import dcnconn

    if Path(dcnconn.__file__).resolve().parent.parent != SRC:
        sys.exit(f"dcnconn was imported from {dcnconn.__file__}, not from {SRC}")
    import workloads

    table = spec["kind"] == "table"
    if table:
        import dcnconn.cli
    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if not table:
        g, witness = _setup(spec)

    rec: dict = {"setup_s": time.monotonic() - req["t_spawn"]}
    if req["setup_only"]:
        print(json.dumps(rec))
        return

    from speed import SpeedProbe, reference_loop, scale

    probe = SpeedProbe(str(Path(req["out_dir"]) / f"{req['tag']}.speed"))
    cpu0, _ = _rusage()
    probe.start()
    t0 = time.perf_counter()
    if table:
        csv_path = str(Path(req["out_dir"]) / f"{req['tag']}.csv")
        argv = workloads.table_argv(spec, csv_path)
        if tracer is None:
            exit_code = dcnconn.cli.main(argv)
        else:
            with tracer.span("cli.table"):
                exit_code = dcnconn.cli.main(argv)
    else:
        res = _call(spec, g, witness)
    rec["raw_wall_s"] = time.perf_counter() - t0
    samples = probe.stop()
    cpu1, rec["peak_rss_mb"] = _rusage()
    if len(samples) < 5:  # a call too short to sample: time the loop now
        samples += [reference_loop() for _ in range(5)]
    rec["loop_s"] = statistics.harmonic_mean(samples)
    rec["loop_samples"] = len(samples)
    rec["wall_s"] = scale(rec["raw_wall_s"], samples)
    rec["cpu_s"] = cpu1 - cpu0

    if tracer is not None:
        tracer.uninstall()
        # Layer times in the same seconds-at-reference-speed as wall_s.
        speed = scale(1.0, samples)
        rec["layers"] = {k: v / speed if k.endswith("_per_s") else v * speed if k.endswith("_s")
                         else v for k, v in tracer.layer_metrics().items()}
        tracer.dump(str(Path(req["out_dir"]) / f"{req['tag']}.trace.json"))

    if table:
        csv_text = Path(csv_path).read_text()
        counts = workloads.table_counts(csv_text)
        rec["certified_rows"] = counts.get("certified", 0)
        rec["skipped_rows"] = counts.get("skipped", 0)
        rec["checks"] = workloads.gate_table(spec["expect"], csv_text, exit_code)
    else:
        rec["certified_rows"] = int(res.status in ("no", "certified"))
        rec["status"] = res.status
        rec["checks"] = workloads.gate_oracle(spec, res, g)
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
