"""Exhaustive brute-force oracles for structure cuts and g-extra connectivity.

The oracles never answer "no" heuristically: a "no" means every candidate
subset was enumerated. Tripping a budget cap converts the answer into a
partial result carrying the bound proven so far. Both caps count, copies
and subset checks, so an answer depends only on the inputs, whatever the
worker count and whether or not a cap trips. Every oracle answers with
one `OracleResult`, and all three share one path from the copies through the
scan to the witness, `_shape_oracle`, with one hit rule, `_separates`:
`certify_min` runs it with the κ gate on, and g-extra connectivity scans the
single-vertex copies. Subsets are scanned in
canonical lexicographic order over copy indices by one kernel, `_scan_range`,
which covers the subsets whose leading index lies in a range. A size of 2 or
more is scanned as a stream of tasks, one per leading index, run in the
caller or taken by a pool of workers; a size-1 scan is one range, each of its
subsets its own leading index. One size loop, `_scan_sizes`, reads the task
results in leading-index order and settles them, so the witness is the
lexicographically first one and `checks` (the length of the lexicographic
prefix the answer rests on) is the same for every worker count. Progress
goes to the `dcnconn.search` logger at INFO, from that loop alone, so its
records too are the same for every worker count.

The κ lemma: removing a set of fewer than κ(G) vertices never `_separates`
G. Proof: what is left is connected, by the definition of κ, and since
κ <= n-1 it holds at least 2 vertices, so `_separates` is False for every h.
κ comes from the max-flow `min_vertex_cut`, never from a formula.
`certify_min` checks a claim "the least cut has `value` members, and here is
one": it refutes sizes 1..value-1 by a scan with the κ gate, `kappa_rule`,
then verifies the cut it is given. The gate uses the lemma at two levels.
First, before a copy is enumerated: a member is a copy of H (structure mode)
or a connected subgraph of H (substructure mode), so s members cover at most
s·|V(H)| vertices, and when (value-1)·|V(H)| < κ no union of the sizes asked
about is a cut. The answer is then NO, proven up to value-1, with no copy,
no check and the size bound in the note. Second, for each union: the kernel
counts and skips, without a flood, a union of fewer than κ vertices. The
test comes after the dominating-set test (below), just before the flood, so
it costs one bit count per subset that would be flooded; it never skips a
hit, and a skipped subset is still counted, so every field of the answer is
that of the unpruned scan for every worker count. Since κ <= δ, each level
pays for the flow only past a test against δ: the first when
(value-1)·|V(H)| < δ, the second once the copies have passed the candidate
cap and some copy has fewer than δ vertices, as a union is at least as large
as each of its members. `exists_cut_of_size` (behind `--bound`) and
`g_extra_connectivity` scan without the gate, so `exists_cut_of_size(value-1)`
is the unpruned reference for both levels, and the max-flow cross-check
compares κ with a scan that does not rest on κ. Searching for the least cut
is `exists_cut_of_size`'s job alone.

The kernel skips, without a flood, every subset whose union misses a set of
a family of connected dominating sets, built from the graph alone by
`_dominating_family`. Lemma: let D be a connected dominating set of G with at
least 2 vertices, and U a removed union with U ∩ D = ∅. Proof that U does
not separate: D lies in G − U and induces a connected subgraph there; every
vertex of G − U outside D has a neighbour in D, which is alive, so it joins
D's component. Hence G − U is connected, and it holds D, so it has at least
2 vertices: `_separates` is False for every h. The rule never skips a hit,
so status, value, bound, witness and `checks` (a skipped subset is still
counted) are those of the unfiltered scan for every worker count; an empty
family skips nothing.

A g-extra scan with h >= 1 skips by a family of smaller sets, built by
`_dominating_family(g, h)`. Lemma: let D be a connected set of at least 2
vertices such that every component of G − N[D] has at most h vertices, and
U a removed union with U ∩ D = ∅. Then `_separates` with h is False. Proof:
D is alive and connected, so G − U has at least 2 vertices and D lies in one
component K. Any other component C has no vertex adjacent to D, or it would
join K, so C lies inside G − N[D] and, being connected, in one component
there: |C| <= h. Hence G − U is connected or has a component of at most h
vertices. For h = 0 this is the lemma above. The greedy stops each run once
its set meets the lemma's terms, so each set of the family for h is a
prefix of the h = 0 run's set from the same start and tie order, and a
union that misses an h = 0 set misses a set for h: the family skips every
subset the h = 0 family skips. What the kernel builds on the lemma below
holds for either family.

The same lemma skips whole branches. The kernel walks the subsets of a size
s depth first, in lexicographic order. Take depth d after the members
c_0 < ... < c_{d-1}, and index i. The subsets that take i or a later index
at depth d are the ones with that prefix and every other member at index i
or later: they follow one another in lexicographic order, and each meets
only sets that the prefix or some copy at index i or later meets. Let
`suffix[i]` be the OR of the family masks of copies i and later. If the OR
of the prefix's family masks and `suffix[i]` misses a bit j, every one of
these subsets misses D_j, so none separates, and all of them, comb(n-i, s-d)
among n copies (less the comb(n-hi, s) past a range's end at depth 0), are
counted and skipped at once. `checks` then still counts the lexicographic
prefix the answer rests on, and a cap that falls inside the block is one the
unfiltered scan reaches too, with no hit before it. `suffix[i]` only loses
bits as i grows, so a failed test fails again at every later index, and the
block runs to the end of depth d. If no copy meets some set of the family,
every union misses it, and the test fails at the range's first index.

The kernel settles the last member's run at one step. After the members
before the last, the last member's run is the indices [i, e) after them, to
the depth's end e. Let `need` be the family bits that the prefix's family
masks miss; the subset that ends at k survives the rule when k's family
mask gives every bit of `need`. When the per-index walk would take at least
`_SWEEP_MIN` steps in the run and `need` is not empty, the survivors are
the AND, over j in `need`, of `meeting[j]` (the mask of the copy indices
that meet D_j) with the window; otherwise the run is walked index by index
to the first index whose `suffix` misses a bit of `need`, past which no
survivor lies. A prefix that meets every family set is walked: with nothing
to AND, a sweep reads every index of the run off one int, in time quadratic
in the run's length. The survivors pass in ascending order through one
loop, which alone tests κ, the memo and `_separates`. Let `checks` count the
subsets before the run. A scan that counts and tests one subset at a time
reaches index k only if k-i < cap-checks, and the loop takes survivor k only
then: a hit at k returns checks+k-i+1, and with no hit before that the cap
trips exactly when the run's e-i checks exceed cap-checks, and otherwise the
run adds them. So status, value, bound, witness, `checks` and the note are
those of the scan one subset at a time. The stop flag is polled at the start
of a run or skipped block and just before a flood, so where a pool worker
stops moves with the floods, and no answer field reads it.

The kernel floods each distinct union at most once per leading index. In one
scan the tables, the vertex mask and h are fixed, so whether removing a
union `_separates` the graph depends on the union alone. The kernel keeps
the set of the unions it has flooded that did not separate, and a subset
whose union is in the set is counted and answered "no" without a flood; a
hit ends the scan, so none is ever stored. Every subset thus gets the
verdict it gets without the set, in the same order, so status, value,
bound, witness, `checks` and the note are those of the kernel without it,
for every worker count. The set is emptied each time the kernel takes the
next leading index, and once it holds `_MEMO_MAX` unions, which bounds its
memory. A size of 2 or more is scanned one task per leading index, so the
set starts empty at each task, wherever the task runs, and a size floods the
same subsets for every worker count. The set is not kept for single-vertex
copies, whose distinct subsets have distinct unions, nor at size 1, where
each subset has a leading index of its own.
"""

from __future__ import annotations

import logging
import os
import random
from dataclasses import dataclass, replace
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, islice
from math import comb
from operator import or_
from types import SimpleNamespace

from .cuts import verify_cut
from .graph import Graph, component_masks, flood_mask, ids, is_connected, min_vertex_cut
from .shapes import STRUCTURE, ShapeSpec, StructureCut, _leaf_families, enumerate_shape_copies

CERTIFIED = "certified"
NO = "no"
BUDGET = "budget_exceeded"

log = logging.getLogger(__name__)
_LOG_EVERY = 1 << 17  # checks between progress records
_POOL_MIN = 1 << 14  # a size with no more subsets to check than this is scanned serially
_RANDOM_TIES = 14  # shuffled tie orders per start vertex, beside ascending and descending id
# a last-member run is swept when the per-index walk would take at least this
# many unit steps in it (set from the measurement in `BENCH_leaf_sweep.json`)
_SWEEP_MIN = 16
# the scan kernel's memo of unions is emptied when it holds this many (set
# from the measurement in `BENCH_union_memo.json`)
_MEMO_MAX = 1 << 12


@dataclass(frozen=True)
class SearchBudget:
    max_candidates: int = 2_000_000
    max_checks: int = 100_000_000

    def __post_init__(self) -> None:
        if self.max_checks <= 0 or self.max_candidates < 0:
            raise ValueError("budget caps must be positive (the candidate cap may be 0)")


@dataclass
class OracleResult:
    """What an oracle call found.

    `status` is one of four words: `certified` (a verified cut of `value`
    members, and every smaller size refuted), `refuted` (only from
    `certify_min`: a smaller cut, or a witness that is no cut of `value`
    members), `no` (every size asked about scanned, no cut) or
    `budget_exceeded`.
    `value` is the size of the reported cut: after `certified`, the least cut
    size, as sizes are scanned from 1 up; for `certify_min`, the value asked
    about, unless a smaller cut found on the way refutes it;
    `lower_bound_proven` is the largest size up to which every size was
    scanned in full or refuted by the size bound, so no cut has that many
    members or fewer;
    `witness` is a `StructureCut` (for `certify_min`, the cut it was given or
    the smaller cut that refutes it), or a tuple of vertex labels for
    `g_extra_connectivity`; `checks` counts the subsets examined and `copies`
    the candidates they were drawn from; `note` says why a scan stopped early
    ("check cap reached" or "candidate cap reached") or why a value was
    refuted. Every field depends only on the inputs, not on the worker count
    or on timing.
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


def _tie_orders(n: int) -> list[tuple[list[int], list[int]]]:
    """The tie orders of the greedy over n vertices, each with its ranks (each
    vertex's place in it): ascending id, descending id, then `_RANDOM_TIES`
    shuffles of fixed seeds."""
    orders = [list(range(n)), list(range(n - 1, -1, -1))]
    for seed in range(_RANDOM_TIES):
        orders.append(list(range(n)))
        random.Random(seed).shuffle(orders[-1])
    out = []
    for order in orders:
        rank = [0] * n
        for r, v in enumerate(order):
            rank[v] = r
        out.append((order, rank))
    return out


def _parts_within(closed: list[int], rest: int, h: int) -> bool:
    """Has every component of the subgraph that the vertex mask `rest`
    induces at most h vertices? Each component is grown, one layer of
    closed neighbourhoods at a time, only until it passes h vertices."""
    while rest:
        part = frontier = rest & -rest
        while frontier:
            if part.bit_count() > h:
                return False
            frontier = reduce(or_, (closed[v] for v in ids(frontier))) & rest & ~part
            part |= frontier
        rest ^= part
    return True


def _greedy_cds(closed: list[int], start: int, order: list[int], rank: list[int],
                h: int = 0) -> list[int]:
    """The vertices one greedy run takes, in the order taken, over a connected
    graph whose closed neighbourhoods are the masks `closed`.

    The run grows a set from `start`, each time adding the dominated vertex
    outside it that dominates the most new vertices, ties to the first in
    `order`. The added vertex is dominated, so it has a neighbour in the set,
    and while some vertex is undominated in a connected graph some candidate
    gains one, so the run ends with a connected dominating set (Guha and
    Khuller). With h >= 1 the run stops at the first take (so with at least
    2 vertices in the set) after which every component of the undominated
    vertices has at most h vertices. Its choices are those of the run with
    h = 0, so its set is a prefix of that run's. The greedy is lazy (Minoux):
    candidates wait in a heap keyed by their gain when last scored, most
    first, then by rank. A gain only falls as the set grows, so a stored key
    never comes after the fresh one; the popped candidate is scored again and
    taken when its fresh key still comes before the heap's top, which makes
    it the candidate of most gain first in `order`, the vertex a scan of
    every candidate would take.
    """
    n = len(closed)
    taken = [start]
    rest = ((1 << n) - 1) ^ closed[start]  # the vertices not yet dominated
    # a key (n - gain)·n + rank orders by most gain, then by rank
    heap = [(n - (closed[v] & rest).bit_count()) * n + rank[v]
            for v in ids(closed[start] ^ 1 << start)]
    heapify(heap)
    while rest:
        v = order[heappop(heap) % n]
        key = (n - (closed[v] & rest).bit_count()) * n + rank[v]
        if heap and key > heap[0]:
            heappush(heap, key)
            continue
        taken.append(v)
        new = closed[v] & rest
        rest ^= new
        if h and _parts_within(closed, rest, h):
            break
        while new:  # the newly dominated vertices become candidates
            low = new & -new
            new ^= low
            u = low.bit_length() - 1
            heappush(heap, (n - (closed[u] & rest).bit_count()) * n + rank[u])
    return taken


def _dominating_family(g: Graph, h: int = 0) -> tuple[int, ...]:
    """The skip family of a scan with `h`, as vertex masks in the order first
    found: one `_greedy_cds` run with `h` per start vertex and tie order, so
    with h = 0 greedy connected dominating sets, and with h >= 1 each run's
    prefix that leaves no undominated component of more than h vertices.
    Each set is checked anyway before it is kept: connected, of at least 2
    vertices, and every component of g minus the set's closed neighbourhood
    of at most h vertices (for h = 0, dominating); duplicates are dropped.
    The first call for an h stores its family on the graph; later calls
    return it without a run."""
    family = g._families.get(h)
    if family is not None:
        return family
    n = g.vertex_count
    closed = [m | 1 << v for v, m in enumerate(g.neighbor_masks)]
    orders = _tie_orders(n)
    found: dict[int, None] = {}
    for start in range(n):
        for order, rank in orders:
            found[sum(1 << v for v in _greedy_cds(closed, start, order, rank, h))] = None
    full = (1 << n) - 1
    family = tuple(d for d in found if d.bit_count() >= 2 and component_masks(g, d) == [d]
                   and all(c.bit_count() <= h for c in component_masks(
                       g, full & ~reduce(or_, (closed[v] for v in ids(d))))))
    g._families[h] = family
    return family


def _incidence(sets, masks, n: int) -> list[int]:
    """For each of the vertex masks `masks` over n vertices, the mask of the
    indices of `sets` it meets: bit j is set when it shares a vertex with
    `sets[j]`. The copies and the skip family are the two sides of one
    incidence, taken either way. Built from each vertex's mask of the sets
    that hold it, one bit set per set vertex; all zeros when either side is
    empty (a size-1 scan has no family, and can have many copies)."""
    if not sets or not masks:
        return [0] * len(masks)
    rows = [bytearray((len(sets) + 7) // 8) for _ in range(n)]
    for j, d in enumerate(sets):
        byte, bit = j >> 3, 1 << (j & 7)
        for v in ids(d):
            rows[v][byte] |= bit
    holding = [int.from_bytes(row, "little") for row in rows]
    return [reduce(or_, (holding[v] for v in ids(m)), 0) for m in masks]


def _log_progress(size: int, checks: int, n: int) -> None:
    log.info("size=%d subsets examined=%s / %s", size, f"{checks:,}", f"{comb(n, size):,}")


def _poll(checks: int) -> int:
    """At a poll, once `checks` has reached the poll mark: 0 if the caller
    has its answer, else the next mark, the next multiple of 8192."""
    return 0 if _worker_stop.value else (checks // 8192 + 1) * 8192


def _scan_range(ctx, size: int, lo: int, hi: int, cap: int):
    """Scan, lexicographically, the `size`-subsets whose leading index is in [lo, hi).

    `ctx` is (neighbour tables, full mask, unit masks, h, family masks, all
    family bits, suffix masks, κ, meeting masks, memo): a subset hits when
    removing the union of its unit masks `_separates` the graph. A union of
    fewer than κ vertices is counted and skipped without a flood (κ is 0
    when the rule is off). `suffix[i]` is the OR of the family masks of
    copies i and later. The walk is depth first; a member at depth d is
    taken from index i only while the family masks of the members before it,
    ORed with `suffix[i]`, give every family bit. Otherwise every
    subset that takes index i or a later one at depth d misses a set of the
    family, and the whole block is counted and skipped without a
    flood (see the module docstring); a full subset whose own family masks
    miss a bit is counted and skipped alike. `meeting[j]` is the mask of
    the copy indices that meet family set j. The last member's run is
    settled at one step: its survivors come from one sweep of the meeting
    masks when the per-index walk would take at least `_SWEEP_MIN` unit
    steps in it and the members before it miss a family set, and from the
    walk otherwise (see the module docstring). With `memo` true and a size
    of 2 or more, a union already flooded under the same leading index is
    counted and answered from the memo without a flood (see the module
    docstring). Returns (first hitting subset or None, checks made, note,
    subsets flooded, subsets answered from the memo); the note is "check
    cap reached" when `cap` checks were made with subsets left to check. The
    cap is tested before a subset or block, so a range that ends as the cap
    trips is complete and carries no note, and a cap inside a skipped block
    returns `cap` checks. In a pool worker the scan also ends, with the note
    "stopped", once the caller has its answer; the stop flag is polled at the
    start of a run or skipped block and just before a flood, once `checks`
    has passed another multiple of 8192, only while subsets are left.
    """
    tables, full, unit_masks, h, family_masks, every_set, suffix, kappa, meeting, memo = ctx
    n = len(unit_masks)
    last = size - 1
    memo = memo and last  # a size-1 subset is its own leading index
    seen = set()  # the unions flooded under this leading index that did not separate
    chosen = [0] * size  # the index taken at each depth
    meets = [0] * size  # the family bits of the members before each depth
    removed = [0] * size  # the union of the members before each depth
    checks = flooded = repeated = 0
    poll = 8192
    d, i, end = 0, lo, min(hi, n - last)
    while True:
        if i >= end:  # depth d is done: take the next index one depth up
            if not d:
                return None, checks, "", flooded, repeated
            d -= 1
            i = chosen[d] + 1
            if d:
                end = n - last + d
            else:  # the next leading index: the memo holds only this one's unions
                end = min(hi, n - last)
                seen.clear()
            continue
        if checks >= poll:
            poll = _poll(checks)
            if not poll:
                return None, checks, "stopped", flooded, repeated
        left = last - d  # members still to take after this one
        if meets[d] | suffix[i] != every_set:  # skip the block that starts at index i
            block = comb(n - i, left + 1) - comb(n - end, left + 1)
            if checks + block > cap:
                return None, cap, "check cap reached", flooded, repeated
            checks += block
            i = end
            continue
        if left:
            chosen[d] = i
            meets[d + 1] = meets[d] | family_masks[i]
            removed[d + 1] = removed[d] | unit_masks[i]
            d += 1
            i += 1
            end = n - left + 1
            continue
        # settle the last member's run [i, end) (see the module docstring)
        need = every_set ^ meets[d]
        if need and end - i >= _SWEEP_MIN and meets[d] | suffix[i + _SWEEP_MIN - 1] == every_set:
            hits = (1 << end) - (1 << i)
            while need and hits:
                low = need & -need
                need ^= low
                hits &= meeting[low.bit_length() - 1]
            survivors = ids(hits)
        else:
            survivors = range(i, end)
        reach = i + cap - checks  # the walk takes index k only below this
        for k in survivors:
            if k >= reach or meets[d] | suffix[k] != every_set:
                break
            if meets[d] | family_masks[k] != every_set:
                continue
            union = removed[d] | unit_masks[k]
            if union.bit_count() < kappa:
                continue
            if memo and union in seen:
                repeated += 1
                continue
            at = checks + k - i  # the checks before the subset that ends at k
            if at >= poll:
                poll = _poll(at)
                if not poll:
                    return None, at, "stopped", flooded, repeated
            flooded += 1
            if _separates(tables, full, union, h):
                chosen[d] = k
                return tuple(chosen), at + 1, "", flooded, repeated
            if memo:
                if len(seen) >= _MEMO_MAX:
                    seen.clear()
                seen.add(union)
        if checks + end - i > cap:  # no hit before the cap
            return None, cap, "check cap reached", flooded, repeated
        checks += end - i
        i = end


_worker_ctx: tuple = ()  # a pool worker's scan context, set once by _pool_init
# a pool worker's view of its caller's stop flag; the caller's own never rises
_worker_stop = SimpleNamespace(value=0)


def _pool_init(ctx, stop) -> None:
    import signal  # imported here: the serial path never loads it

    global _worker_ctx, _worker_stop
    _worker_ctx, _worker_stop = ctx, stop
    # Ctrl-C signals the whole process group; a worker killed by it would
    # never return its task, and the caller would wait in join() forever
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _pool_task(task):
    if _worker_stop.value:
        return None, 0, "stopped", 0, 0
    size, lead, cap = task
    return _scan_range(_worker_ctx, size, lead, lead + 1, cap)


def _scan_sizes(ctx, sizes, budget: SearchBudget,
                jobs: int) -> tuple[OracleResult, tuple[int, ...] | None]:
    """Scan each size in turn until a subset hits or a cap trips.

    Returns the result, with no witness, and the hitting subset's indices or
    None: CERTIFIED with `value` the size that hit, BUDGET, or NO after
    every size.
    The bound proven is the size before the one where the scan stopped, or the
    last size after NO. A size of at least 2 is scanned as one task per
    leading index. With `jobs > 1` and more than `_POOL_MIN` subsets to check
    (the fewer of the size's subset count and the checks left in the budget)
    a pool takes the tasks (it starts at the first such size, with no more
    workers than that size has tasks, and serves the rest of the call);
    otherwise the caller runs them one at a time, each capped at the checks
    left in the budget. The threshold is measured with two workers on 2 cores
    (`BENCH_kappa_rule.json` `pool_threshold`, re-timed in
    `BENCH_leaf_sweep.json` `pool_threshold_recheck`). A size-1 scan is one
    range, each of its subsets its own leading index. The results are read
    in leading-index order and settled alike wherever they ran: the hit is
    the lexicographically first, `checks` is the length of the lexicographic
    prefix the answer rests on (never above `budget.max_checks`, the same for
    every job count), and any note from a task stops the scan. Work that
    workers do past that point is not counted: the caller raises a shared
    flag, on which queued tasks return at once and running ones at their
    next poll, then closes the pool and waits for it. Killing the workers
    instead could kill one that holds the result queue's lock, and the
    pool's shutdown would then wait for that lock forever. Workers ignore
    SIGINT, so an interrupt reaches only the caller, whose shutdown then
    runs as after an answer. All progress is logged here, from the results
    read: at least `_LOG_EVERY` checks apart, counting from 0 at each size,
    so the records are the same for every job count; and each size ends with
    a record of the subsets flooded among those it examined and of those
    answered from the memo, which a rule skip is not (so a pool task cut by
    the check cap counts its floods past the cap too).
    """
    n = len(ctx[2])  # the number of unit masks
    total = 0
    pool = None
    try:
        for size in sizes:
            start = logged = total
            flooded = repeated = 0
            res = hit = None
            cap = budget.max_checks - start
            if jobs > 1 and size >= 2 and min(comb(n, size), cap) > _POOL_MIN:
                tasks = [(size, lead, cap) for lead in range(n - size + 1)]
                if pool is None:  # sized to this size's tasks: no later size has more
                    import multiprocessing as mp
                    from multiprocessing.sharedctypes import RawValue

                    mpc = mp.get_context("fork") if hasattr(os, "fork") else mp.get_context()
                    stop = RawValue("b", 0)
                    pool = mpc.Pool(min(jobs, len(tasks)), initializer=_pool_init,
                                    initargs=(ctx, stop))
                results = pool.imap(_pool_task, tasks, chunksize=1)
            elif size == 1:
                results = [_scan_range(ctx, 1, 0, n, cap)]
            else:  # the pool's task stream, run here, each task capped at the checks left
                results = (_scan_range(ctx, size, lead, lead + 1, budget.max_checks - total)
                           for lead in range(n - size + 1))
            for found, checks, note, floods, repeats in results:
                flooded += floods
                repeated += repeats
                left = budget.max_checks - total
                if found is not None and checks <= left:
                    res = OracleResult(CERTIFIED, size, size - 1, None, total + checks, n)
                    hit = found
                    break
                if checks > left:
                    total, note = budget.max_checks, "check cap reached"
                else:
                    total += checks
                if note:
                    res = OracleResult(BUDGET, None, size - 1, None, total, n, note)
                    break
                if total - logged >= _LOG_EVERY:
                    logged = total
                    _log_progress(size, total - start, n)
            log.info("size=%d subsets flooded=%s of %s examined, %s repeated unions not flooded",
                     size, f"{flooded:,}", f"{(res.checks if res else total) - start:,}",
                     f"{repeated:,}")
            if res:
                return res, hit
    finally:
        if pool is not None:
            stop.value = 1
            pool.close()
            pool.join()
    return OracleResult(NO, None, sizes.stop - 1, None, total, n), None


# --- public oracles ---------------------------------------------------------


def _cut_of(g: Graph, shape: ShapeSpec, mode: str, found) -> StructureCut:
    """The cut made of the copies at the ascending indices `found`, checked
    again by `verify_cut`; the enumeration order is deterministic, so it
    stops at the last of them."""
    copies = islice(enumerate_shape_copies(g, shape, mode), found[-1] + 1)
    cut = StructureCut(shape, tuple(tuple(g.label_of(v) for v in copy)
                                    for i, copy in enumerate(copies) if i in found), mode)
    if not verify_cut(g, cut, shape, mode).passed:
        raise AssertionError("oracle witness failed independent verification")
    return cut


def _min_degree(g: Graph) -> int:
    """δ(g), the least vertex degree (0 for a graph with no vertex)."""
    return min((m.bit_count() for m in g.neighbor_masks), default=0)


def _shape_oracle(g: Graph, shape: ShapeSpec, mode: str, sizes: range, budget: SearchBudget,
                  jobs: int, h: int = 0,
                  kappa_rule: bool = False) -> tuple[OracleResult, tuple[int, ...] | None]:
    """Scan the unions of `sizes` copies of `shape`, never more than there are
    copies, for one that `_separates` g with `h`: CERTIFIED, NO, or BUDGET,
    with no witness, beside the first hit's ascending copy indices or None
    (see `_scan_sizes`). A union that misses a set of `_dominating_family(g,
    h)` is skipped without a flood. With no size of 1 or more nothing is
    enumerated: the empty set never cuts a connected graph. `kappa_rule`
    applies the κ lemma at two levels (see the module docstring): it answers
    NO before any copy is enumerated when the largest size's members cover
    fewer than κ vertices, and otherwise skips the unions of fewer than κ
    vertices without a flood."""
    if not is_connected(g):
        raise ValueError("the structure-cut oracles require a connected graph")
    # κ <= δ, so each level tests δ before it pays for κ; a δ of 0 tests nothing
    degree = _min_degree(g) if kappa_rule else 0
    covered = (sizes.stop - 1) * shape.vertex_count  # by the members of the largest size
    if covered < degree and covered < (kappa := min_vertex_cut(g)):
        note = f"size bound: {sizes.stop - 1} x {shape.vertex_count} vertices < kappa {kappa}"
        return OracleResult(NO, None, sizes.stop - 1, None, 0, 0, note), None
    if sizes.stop <= 1:
        return OracleResult(NO, None, 0, None, 0, 0), None
    # count the copies a family at a time, by popcount, before keeping any: a
    # shape past the candidate cap builds no mask and holds no family, and one
    # within it is enumerated again for its masks
    copies = 0
    for _, _, leaves in _leaf_families(g, shape, mode):
        copies += leaves.bit_count()
        if copies > budget.max_candidates:
            return OracleResult(BUDGET, None, 0, None, 0, budget.max_candidates,
                                "candidate cap reached"), None
    # only the masks are kept: the caller rebuilds the few copies a witness needs
    unit_masks = []
    for _, prefix_mask, leaves in _leaf_families(g, shape, mode):
        while leaves:
            low = leaves & -leaves
            leaves ^= low
            unit_masks.append(prefix_mask | low)
    sizes = range(sizes.start, min(sizes.stop, len(unit_masks) + 1))
    # a size-1 scan floods each copy once, which costs less than the family
    family = _dominating_family(g, h) if sizes and sizes[-1] >= 2 else ()
    family_masks = _incidence(family, unit_masks, g.vertex_count)
    # equal suffix masks share one int: most hold every bit, which offsets
    # the memory of the meeting masks
    shared: dict[int, int] = {}
    suffix = [shared.setdefault(m, m) for m in accumulate(reversed(family_masks), or_)][::-1]
    # a union is at least as large as each of its members
    kappa = min_vertex_cut(g) if degree and any(
        unit.bit_count() < degree for unit in unit_masks) else 0
    meeting = _incidence(unit_masks, family, g.vertex_count)
    # distinct single-vertex copies have distinct unions, so the memo would never hit
    ctx = (g.neighbor_tables, (1 << g.vertex_count) - 1, unit_masks, h, family_masks,
           (1 << len(family)) - 1, suffix, kappa, meeting, shape.vertex_count > 1)
    return _scan_sizes(ctx, sizes, budget, jobs)


def exists_cut_of_size(
    g: Graph,
    shape: ShapeSpec,
    mode: str,
    bound: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> OracleResult:
    """Is there a cut of at most `bound` members? Exhaustive when "no". Sizes
    are scanned from 1 up, so `certified` reports the least cut size as
    `value`, with a witness that `verify_cut` checks again."""
    if bound < 0:
        raise ValueError("size bound must be >= 0")
    res, hit = _shape_oracle(g, shape, mode, range(1, bound + 1), budget or SearchBudget(), jobs)
    return res if hit is None else replace(res, witness=_cut_of(g, shape, mode, hit))


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
    `witness`, a cut of `value` members (e.g. a constructed one).

    The refutation is the scan of `exists_cut_of_size(value - 1)` with the κ
    gate on (see the module docstring). Where (value-1)·|V(shape)| < κ it
    settles every size with no copy enumerated (`checks` and `copies` 0, the
    size bound in `note`); otherwise a union of fewer than κ vertices is
    counted and skipped without a flood, and the answer is the plain scan's,
    field for field. The least cut the scan finds refutes the value and
    becomes the reported one."""
    if value < 1:
        raise ValueError("certified value must be >= 1")
    res, hit = _shape_oracle(g, shape, mode, range(1, value), budget or SearchBudget(), jobs,
                             kappa_rule=True)
    if hit is not None:
        res = replace(res, witness=_cut_of(g, shape, mode, hit))
    if res.status == BUDGET:
        return replace(res, value=value)
    if res.status == CERTIFIED:
        return replace(res, status="refuted", note=f"found a cut of {res.value} members")
    res = replace(res, value=value, witness=witness)

    def refuted(reason: str) -> OracleResult:
        return replace(res, status="refuted", note=f"{res.note}; {reason}" if res.note else reason)

    if len(witness.members) != value:
        return refuted(f"witness has {len(witness.members)} members, expected {value}")
    if not verify_cut(g, witness, shape, mode).passed:
        return refuted("witness failed verification")
    return replace(res, status=CERTIFIED)


def g_extra_connectivity(
    g: Graph,
    h: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> OracleResult:
    """Minimum |S| with g-S disconnected and every component > h vertices.

    Exhaustive over the single-vertex copies, so `copies` is the vertex
    count; for h >= 1 sizes start at the classical connectivity (any such cut
    is in particular a vertex cut). The witness is the tuple of the cut's
    labels: a single-vertex copy's index is its vertex id.
    """
    if not is_connected(g):
        raise ValueError("g_extra_connectivity requires a connected graph")
    if h < 0:
        raise ValueError("h must be >= 0")
    start = 1 if h == 0 else min_vertex_cut(g)
    res, hit = _shape_oracle(g, ShapeSpec.single(), STRUCTURE, range(start, g.vertex_count - 1),
                             budget or SearchBudget(), jobs, h)
    if hit is None:
        return res
    return replace(res, witness=tuple(map(g.label_of, hit)))
