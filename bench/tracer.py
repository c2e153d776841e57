"""Spans around dcnconn's layers, recorded from outside the library.

The tracer replaces public functions at the module attributes the program
calls through (for example `dcnconn.search.flood_mask`) with wrappers, and
restores them on `uninstall`. Three kinds of record are kept in memory:

- spans (id, name, start, end, parent id) for calls that happen at most a
  few thousand times per run;
- leaf aggregates (call count, seconds) for the hot kernels: the flood step,
  called millions of times, and each `next()` of the shape-copy generator.
  Every span stores the leaf totals it covers, so self time stays exact
  without a span per call;
- the `.checks` of each search result.

A span's layer is the part of its name before the first dot. Self time is a
span's duration minus what its child spans and the leaf calls inside it cover.

Pool workers fork from the traced process. The fork hook below puts the
original functions back in each worker, so workers run at untraced speed and
their counters are lost: on `jobs=2` workloads the scan layer is covered by
the parent-side spans plus RUSAGE_CHILDREN.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter as clock

LEAVES = ("graph.flood", "shapes.enumerate")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.leaf: dict[str, list] = {name: [0, 0.0] for name in LEAVES}
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _leaf_totals(self) -> dict[str, tuple[int, float]]:
        return {name: (acc[0], acc[1]) for name, acc in self.leaf.items()}

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1]["id"] if self.stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent}
        self.spans.append(rec)
        self.stack.append(rec)
        leaf0 = self._leaf_totals()
        rec["start"] = clock()
        try:
            yield rec
        finally:
            rec["end"] = clock()
            leaf1 = self._leaf_totals()
            rec["leaf"] = {k: [leaf1[k][0] - leaf0[k][0], leaf1[k][1] - leaf0[k][1]]
                           for k in LEAVES}
            self.stack.pop()

    def wrap_call(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                checks = getattr(out, "checks", None)
                if checks is not None:
                    rec["checks"] = checks
                return out

        return traced

    def wrap_leaf(self, fn, name: str):
        acc = self.leaf[name]

        def traced(*args):
            t = clock()
            out = fn(*args)
            acc[1] += clock() - t
            acc[0] += 1
            return out

        return traced

    def wrap_generator(self, fn, name: str):
        """Time spent inside the generator's `next()`; the count is items yielded."""
        acc = self.leaf[name]

        def traced(*args, **kwargs):
            t = clock()
            it = fn(*args, **kwargs)
            acc[1] += clock() - t
            try:
                while True:
                    t = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        acc[1] += clock() - t
                        return
                    acc[1] += clock() - t
                    acc[0] += 1
                    yield item
            finally:
                it.close()

        return traced

    # --- installation ------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries of every dcnconn module imported so far."""
        import dcnconn.bcdc
        import dcnconn.cuts
        import dcnconn.dcell
        import dcnconn.search
        import dcnconn.shapes

        search, shapes, cuts = dcnconn.search, dcnconn.shapes, dcnconn.cuts
        enumerate_copies = self.wrap_generator(shapes.enumerate_shape_copies, "shapes.enumerate")
        verify = self.wrap_call(cuts.verify_cut, "cuts.verify")
        construct = self.wrap_call(cuts.structure_cut_for, "cuts.construct")
        certify = self.wrap_call(search.certify_min, "search.certify_min")
        exists = self.wrap_call(search.exists_cut_of_size, "search.exists_cut_of_size")
        extra = self.wrap_call(search.g_extra_connectivity, "search.g_extra_connectivity")

        self._patch(dcnconn.bcdc, "build_bcdc",
                    self.wrap_call(dcnconn.bcdc.build_bcdc, "bcdc.build"))
        self._patch(dcnconn.dcell, "build_dcell",
                    self.wrap_call(dcnconn.dcell.build_dcell, "dcell.build"))
        self._patch(shapes, "enumerate_shape_copies", enumerate_copies)
        self._patch(cuts, "structure_cut_for", construct)
        self._patch(search, "enumerate_shape_copies", enumerate_copies)
        self._patch(search, "flood_mask", self.wrap_leaf(search.flood_mask, "graph.flood"))
        self._patch(search, "min_vertex_cut",
                    self.wrap_call(search.min_vertex_cut, "graph.min_vertex_cut"))
        self._patch(search, "verify_cut", verify)
        self._patch(search, "certify_min", certify)
        self._patch(search, "exists_cut_of_size", exists)
        self._patch(search, "g_extra_connectivity", extra)
        cli = sys.modules.get("dcnconn.cli")
        if cli is not None:
            self._patch(cli, "certify_min", certify)
            self._patch(cli, "verify_cut", verify)
            self._patch(cli, "structure_cut_for", construct)
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- results -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus child spans and the leaf calls it alone covers."""
        child_dur: dict[int, float] = {}
        child_leaf: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                p = s["parent"]
                child_dur[p] = child_dur.get(p, 0.0) + s["end"] - s["start"]
                child_leaf[p] = child_leaf.get(p, 0.0) + sum(v[1] for v in s["leaf"].values())
        out = {}
        for s in self.spans:
            own_leaf = sum(v[1] for v in s["leaf"].values()) - child_leaf.get(s["id"], 0.0)
            out[s["id"]] = s["end"] - s["start"] - child_dur.get(s["id"], 0.0) - own_leaf
        return out

    def layer_metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        by_id = {s["id"]: s for s in self.spans}

        def layer(s: dict) -> str:
            return s["name"].split(".", 1)[0]

        def total(prefix: str) -> float:
            return sum(selfs[s["id"]] for s in self.spans if s["name"].startswith(prefix))

        def count(name: str) -> int:
            return sum(1 for s in self.spans if s["name"] == name)

        flood_calls, flood_s = self.leaf["graph.flood"]
        copies, enumerate_s = self.leaf["shapes.enumerate"]
        # Only the search layer calls search.flood_mask, so the scan is the
        # search layer's self time plus the flood kernel it runs.
        scan_s = total("search.") + flood_s
        checks = sum(
            s.get("checks", 0) for s in self.spans
            if layer(s) == "search" and (s["parent"] is None or layer(by_id[s["parent"]]) != "search")
        )
        return {
            "search.checks": checks,
            "search.scan_s": scan_s,
            "search.checks_per_s": checks / scan_s if scan_s > 0 else 0.0,
            "search.certify_calls": count("search.certify_min"),
            "shapes.enumerate_s": enumerate_s,
            "shapes.copies": copies,
            "shapes.copies_per_s": copies / enumerate_s if enumerate_s > 0 else 0.0,
            "graph.flood_calls": flood_calls,
            "graph.flood_s": flood_s,
            "graph.min_vertex_cut_s": total("graph.min_vertex_cut"),
            "graph.min_vertex_cut_calls": count("graph.min_vertex_cut"),
            "cuts.verify_s": total("cuts.verify"),
            "cuts.verify_calls": count("cuts.verify"),
            "cuts.construct_s": total("cuts.construct"),
            "bcdc.build_s": total("bcdc.build"),
            "dcell.build_s": total("dcell.build"),
            "cli.table_self_s": total("cli."),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans,
                       "leaf": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.leaf.items()}},
                      f)
