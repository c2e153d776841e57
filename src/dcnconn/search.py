"""Exhaustive brute-force oracles for structure cuts and g-extra connectivity.

The oracles never answer "no" heuristically: a "no" means every candidate
subset was enumerated. Tripping any budget cap converts the answer into a
partial result carrying the bound proven so far. Every oracle answers with
one `OracleResult`, and all three share one path from the copies through the
scan to the witness, `_shape_oracle`, with one hit rule, `_separates`:
g-extra connectivity scans the single-vertex copies. Subsets are scanned in
canonical lexicographic order over copy indices by one kernel, `_scan_range`,
which covers the subsets whose leading index lies in a range: the serial scan
is one range, a pool of workers takes one task per leading index. One size
loop, `_scan_sizes`, reads the kernel results in leading-index order and
settles them as the serial scan would, so the witness is the
lexicographically first one and `checks` (the length of the lexicographic
prefix the answer rests on) is the same for every worker count. Progress
goes to the `dcnconn.search` logger at INFO, from the parent process only.

`certify_min` checks a claim "the least cut has `value` members, and here is
one": it refutes sizes 1..value-1, then verifies the cut it is given. It first
tries the size bound, which settles the refutation without enumerating a copy
when (value-1)·|V(H)| < κ(G). Proof: a member is a copy of H (structure mode)
or a connected subgraph of H (substructure mode), so s members cover at most
s·|V(H)| vertices. Removing fewer than κ vertices leaves G connected, and
since κ <= n-1 it leaves at least 2 vertices, so no union of value-1 or fewer
members is a cut. κ comes from the max-flow `min_vertex_cut`, never from a
formula. The other oracles, and `certify_min` where the bound does not reach
every size below the value, scan as before, so `exists_cut_of_size` stays the
unpruned reference for the bound. Searching for the least cut is
`exists_cut_of_size`'s job alone.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, replace
from itertools import combinations, islice
from math import comb

from .cuts import verify_cut
from .graph import Graph, flood_mask, is_connected, min_vertex_cut
from .shapes import STRUCTURE, ShapeSpec, StructureCut, enumerate_shape_copies

YES = "yes"
NO = "no"
BUDGET = "budget_exceeded"

log = logging.getLogger(__name__)
_LOG_EVERY = 1 << 17  # checks between progress records; a multiple of 8192


@dataclass(frozen=True)
class SearchBudget:
    max_candidates: int = 2_000_000
    max_checks: int = 100_000_000
    time_cap_secs: float = 600.0

    def __post_init__(self) -> None:
        if self.max_checks <= 0 or self.max_candidates < 0:
            raise ValueError("budget caps must be positive (the candidate cap may be 0)")
        if not self.time_cap_secs > 0:  # NaN fails this too
            raise ValueError("time cap must be positive")


@dataclass
class OracleResult:
    """What an oracle call found.

    `status` is `yes` (`certified` for `g_extra_connectivity`), `no` or
    `budget_exceeded`; `certify_min` answers `certified`, `refuted` or
    `budget_exceeded`.
    `value` is the size of the reported cut: after `yes`, the least cut size,
    as sizes are scanned from 1 up; for `certify_min`, the value asked about,
    unless a smaller cut found on the way refutes it; `lower_bound_proven` is
    the largest size up to which every size was scanned in full or refuted by
    the size bound, so no cut has that many members or fewer;
    `witness` is a `StructureCut` (for `certify_min`, the cut it was given or
    the smaller cut that refutes it), or a tuple of vertex labels for
    `g_extra_connectivity`; `checks` counts the subsets examined and `copies`
    the candidates they were drawn from; `note` says why a scan stopped early
    or why a value was refuted.
    """

    status: str
    value: int | None
    lower_bound_proven: int
    witness: StructureCut | tuple[str, ...] | None
    checks: int
    copies: int
    note: str = ""


# --- the scan ---------------------------------------------------------------


def _separates(tables, full: int, removed: int, h: int) -> bool:
    """Does removing `removed` from the vertices `full` leave at most one
    vertex, or at least two components, every one of more than `h` vertices?

    Structure cuts ask it with h = 0. A g-extra scan removes at most n-2 of
    the n vertices, because its sizes run to n-2, so at least two vertices
    are left and the first clause never fires for it. A rest that stays
    connected costs one bit count, one flood and one compare. `flood_mask` is
    looked up in this module, where a tracer may wrap it.
    """
    alive = full & ~removed
    if alive.bit_count() <= 1:
        return True
    comp = flood_mask(tables, alive, alive & -alive)
    if comp == alive:
        return False
    rest = alive ^ comp
    while comp.bit_count() > h:
        if not rest:
            return True
        comp = flood_mask(tables, alive, rest & -rest)
        rest ^= comp
    return False


def _log_progress(size: int, checks: int, n: int) -> None:
    log.info("size=%d subsets examined=%s / %s", size, f"{checks:,}", f"{comb(n, size):,}")


def _scan_range(ctx, size: int, lo: int, hi: int, cap: int, t_end: float):
    """Scan, lexicographically, the `size`-subsets whose leading index is in [lo, hi).

    `ctx` is (neighbour tables, full mask, unit masks, h): a subset hits when
    removing the union of its unit masks `_separates` the graph.
    Returns (first hitting subset or None, checks made, note); the note names
    the cap that stopped the scan with subsets left to check: time past
    `t_end` (tested every 8192 checks), or `cap` checks made. Both caps are
    tested before a subset, so a range that ends as a cap trips is complete
    and carries no note. Progress is logged every `_LOG_EVERY` checks.
    """
    tables, full, unit_masks, h = ctx
    n = len(unit_masks)
    count = comb(n - lo, size) - comb(n - hi, size)
    checks = 0
    for combo in islice(combinations(range(lo, n), size), count):
        if checks % 8192 == 0 and checks:
            if time.monotonic() > t_end:
                return None, checks, "time cap reached"
            if checks % _LOG_EVERY == 0:
                _log_progress(size, checks, n)
        if checks >= cap:
            return None, checks, "check cap reached"
        removed = 0
        for i in combo:
            removed |= unit_masks[i]
        checks += 1
        if _separates(tables, full, removed, h):
            return combo, checks, ""
    return None, checks, ""


_worker_ctx: tuple = ()  # a pool worker's scan context, set once by _pool_init


def _pool_init(ctx) -> None:
    global _worker_ctx
    _worker_ctx = ctx
    logging.disable(logging.INFO)  # a task counts from its own leading index


def _pool_task(task):
    size, lead, cap, t_end = task
    return _scan_range(_worker_ctx, size, lead, lead + 1, cap, t_end)


def _scan_sizes(ctx, sizes, budget: SearchBudget, jobs: int) -> OracleResult:
    """Scan each size in turn until a subset hits or a cap trips.

    Returns the result with the hitting subset's indices as the witness:
    YES with `value` the size that hit, BUDGET, or NO after every size. The
    bound proven is the size before the one where the scan stopped, or the
    last size after NO. With `jobs > 1`, sizes of at least 2
    and below the copy count are split into one pool task per leading index
    (the pool starts at the first such size, with no more workers than that
    size has tasks, and serves the rest of the call),
    and the results are read in leading-index order and settled as the serial
    scan would settle them: the witness is the lexicographically first,
    `checks` is the length of the lexicographic prefix the answer rests on
    (never above `budget.max_checks`, the same for every job count while no
    time cap trips), and any note from a task stops the scan. Work that
    workers do past that point is not counted. The time cap is tested between
    results, only while subsets are left to check. Results are logged at least
    `_LOG_EVERY` checks apart, counting from 0 at each size.
    """
    n = len(ctx[2])  # the number of unit masks
    t_end = time.monotonic() + budget.time_cap_secs
    whole = sum(comb(n, size) for size in sizes)
    total = 0
    pool = None
    try:
        for size in sizes:
            start = logged = total
            cap = budget.max_checks - start
            if jobs > 1 and size >= 2 and n > size:
                tasks = [(size, lead, cap, t_end) for lead in range(n - size + 1)]
                if pool is None:  # sized to this size's tasks: no later size has more
                    import multiprocessing as mp

                    mpc = mp.get_context("fork") if hasattr(os, "fork") else mp.get_context()
                    pool = mpc.Pool(min(jobs, len(tasks)), initializer=_pool_init,
                                    initargs=(ctx,))
                results = pool.imap(_pool_task, tasks, chunksize=1)
            else:
                results = [_scan_range(ctx, size, 0, n, cap, t_end)]
            for witness, checks, note in results:
                left = budget.max_checks - total
                if witness is not None and checks <= left:
                    return OracleResult(YES, size, size - 1, witness, total + checks, n)
                if checks > left:
                    total, note = budget.max_checks, "check cap reached"
                else:
                    total += checks
                if note:
                    return OracleResult(BUDGET, None, size - 1, None, total, n, note)
                if total - logged >= _LOG_EVERY:
                    logged = total
                    _log_progress(size, total - start, n)
                if total < whole and time.monotonic() > t_end:
                    return OracleResult(BUDGET, None, size - 1, None, total, n, "time cap reached")
    finally:
        if pool is not None:
            pool.terminate()
    return OracleResult(NO, None, sizes.stop - 1, None, total, n)


# --- public oracles ---------------------------------------------------------


def _cut_of(g: Graph, shape: ShapeSpec, mode: str, found) -> StructureCut:
    """The cut made of the copies at the ascending indices `found`; the
    enumeration order is deterministic, so it stops at the last of them."""
    copies = islice(enumerate_shape_copies(g, shape, mode), found[-1] + 1)
    return StructureCut(shape, tuple(tuple(g.label_of(v) for v in ids)
                                     for i, ids in enumerate(copies) if i in found), mode)


def _shape_oracle(g: Graph, shape: ShapeSpec, mode: str, sizes: range, budget: SearchBudget,
                  jobs: int, h: int = 0) -> OracleResult:
    """Scan the unions of `sizes` copies of `shape`, never more than there are
    copies, for one that `_separates` g with `h`: YES with the first as the
    witness, NO, or BUDGET. With no size of 1 or more nothing is enumerated:
    the empty set never cuts a connected graph."""
    if not is_connected(g):
        raise ValueError("the structure-cut oracles require a connected graph")
    if sizes.stop <= 1:
        return OracleResult(NO, None, 0, None, 0, 0)
    # only the masks are kept: `_cut_of` rebuilds the few copies a witness needs
    bits = [1 << i for i in range(g.vertex_count)]
    copies = islice(enumerate_shape_copies(g, shape, mode), budget.max_candidates + 1)
    unit_masks = [sum(map(bits.__getitem__, ids)) for ids in copies]
    if len(unit_masks) > budget.max_candidates:
        return OracleResult(BUDGET, None, 0, None, 0, budget.max_candidates,
                            "candidate cap reached")
    ctx = g.neighbor_tables, (1 << g.vertex_count) - 1, unit_masks, h
    res = _scan_sizes(ctx, range(sizes.start, min(sizes.stop, len(unit_masks) + 1)), budget, jobs)
    if res.witness is not None:
        res.witness = _cut_of(g, shape, mode, res.witness)
    return res


def exists_cut_of_size(
    g: Graph,
    shape: ShapeSpec,
    mode: str,
    bound: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> OracleResult:
    """Is there a cut of at most `bound` members? Exhaustive when "no". Sizes
    are scanned from 1 up, so a "yes" reports the least cut size as `value`,
    with a witness that `verify_cut` checks again."""
    if bound < 0:
        raise ValueError("size bound must be >= 0")
    res = _shape_oracle(g, shape, mode, range(1, bound + 1), budget or SearchBudget(), jobs)
    if res.status == YES and not verify_cut(g, res.witness, shape, mode).passed:
        raise AssertionError("oracle witness failed independent verification")
    return res


def size_bound(g: Graph, shape: ShapeSpec, value: int) -> str:
    """The size-bound note when (value-1)·|V(shape)| < κ(g), which settles
    sizes 1..value-1 (see the module docstring), else "". Min degree δ >= κ
    is tested first, so a value the bound cannot reach costs no flow; so is
    connectivity, which κ needs."""
    covered = (value - 1) * shape.vertex_count
    degree = min((len(g.neighbor_ids(v)) for v in range(g.vertex_count)), default=0)
    if covered >= degree or not is_connected(g):
        return ""
    kappa = min_vertex_cut(g)
    if covered >= kappa:
        return ""
    return f"size bound: {value - 1} x {shape.vertex_count} vertices < kappa {kappa}"


def certify_min(
    g: Graph,
    shape: ShapeSpec,
    mode: str,
    value: int,
    witness: StructureCut,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> OracleResult:
    """Certify a claimed minimum: refute sizes 1..value-1, then verify
    `witness`, a cut of `value` members (e.g. a constructed one). The size
    bound refutes the smaller sizes with no copy enumerated (`checks` and
    `copies` 0, the rule in `note`) where it reaches them; otherwise they are
    scanned exhaustively, and a smaller cut found on the way refutes the value
    and becomes the reported one."""
    if value < 1:
        raise ValueError("certified value must be >= 1")
    bound = size_bound(g, shape, value)
    if bound:
        res = OracleResult(NO, None, value - 1, None, 0, 0, bound)
    else:
        res = _shape_oracle(g, shape, mode, range(1, value), budget or SearchBudget(), jobs)
    if res.status == BUDGET:
        return replace(res, value=value)
    if res.status == YES:
        return replace(res, status="refuted", note=f"found a cut of {res.value} members")
    res = replace(res, value=value, witness=witness)

    def refuted(reason: str) -> OracleResult:
        return replace(res, status="refuted", note=f"{bound}; {reason}" if bound else reason)

    if len(witness.members) != value:
        return refuted(f"witness has {len(witness.members)} members, expected {value}")
    if not verify_cut(g, witness, shape, mode).passed:
        return refuted("witness failed verification")
    return replace(res, status="certified")


def g_extra_connectivity(
    g: Graph,
    h: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> OracleResult:
    """Minimum |S| with g-S disconnected and every component > h vertices.

    Exhaustive over the single-vertex copies, so `copies` is the vertex
    count; for h >= 1 sizes start at the classical connectivity (any such cut
    is in particular a vertex cut). The witness is the tuple of the cut's labels.
    """
    if not is_connected(g):
        raise ValueError("g_extra_connectivity requires a connected graph")
    if h < 0:
        raise ValueError("h must be >= 0")
    start = 1 if h == 0 else min_vertex_cut(g)
    res = _shape_oracle(g, ShapeSpec.single(), STRUCTURE, range(start, g.vertex_count - 1),
                        budget or SearchBudget(), jobs, h)
    if res.status == YES:
        return replace(res, status="certified",
                       witness=tuple(label for (label,) in res.witness.members))
    return res
