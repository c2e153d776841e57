"""Undirected simple graphs with string labels and dense integer ids.

Graphs are immutable after construction and safe to share across workers.
A graph holds its adjacency in one form, a neighbour mask per vertex
(`Graph.neighbor_masks`: bit v of mask u is set when u and v are adjacent),
and `ids` lists the vertex ids of a mask. Only this module knows how the
neighbour tables below lay the masks out.
Connectivity runs on byte-sliced neighbour tables over vertex bitmasks: one
table per group of 8 vertex ids maps each byte of a vertex set to the union
of those vertices' neighbourhoods, so a breadth-first step reads one table
entry per 8 vertices (the Four-Russians table trick). Table entries are
filled on first use; a fill stores the value every caller would compute, so
sharing stays safe. The minimum vertex cut counts vertex-disjoint paths on
the same tables, independent of the brute-force search in `dcnconn.search`
that cross-validates it, and is computed once per graph and kept on it.

The paths are counted as the maximum flow of the vertex-split network, which
is, by Menger's theorem, the least number of vertices separating two
non-adjacent vertices s and t. Vertex v becomes v_in and v_out, joined by a
unit arc of capacity 1; each edge uw becomes the arcs u_out -> w_in and
w_out -> u_in of capacity n = |V|; the flow runs from s_out to t_in. An
integral flow puts at most one unit on an edge arc u_out -> w_in: what it
carries passes u's unit arc unless u = s, and w's unless w = t, and s, t are
not adjacent. The augmenting paths below start at s_out, reached first, and
stop at t_in, so no flow enters s or leaves t. The flow is thus a set of
directed edges (u, w) of one unit each, and every other vertex has one flow
edge in and one out, or none; call it busy when it has them, and pred(w)
the tail of the edge into w. The residual network of such a flow has
exactly these arcs, the only rules the kernel follows:
- u_out -> w_in for every edge uw, since at most 1 of its n units is used;
- w_in -> w_out when w is free (its unit arc is empty);
- w_out -> w_in when w is busy (the reverse of its full unit arc);
- w_in -> pred(w)_out when w is busy (the reverse of the edge arc that
  carries its unit).
An augmenting path on these arcs changes the flow arc by arc: a step
u_out -> w_in adds (u, w), a step w_in -> pred(w)_out removes (pred(w), w),
and the unit arcs follow. If (u, w) and (w, u) would both carry a unit, they
close a cycle through the unit arcs of u and w; cancelling the pair leaves a
flow of the same value, and the set stays as above. Each round thus raises
the flow by one, as an augmenting path of the split network would. The
search follows every arc out of every node it reaches, so it fails to reach
t_in exactly when no augmenting path is left, that is when the flow is
maximum (Ford and Fulkerson). The count therefore equals the split network's
maximum flow, capped at the limit the caller asks about.

The flows run over the Esfahanian-Hakimi (1984) candidate pairs, with v0 a
vertex of minimum degree δ: v0 and each vertex not adjacent to it, and each
non-adjacent pair of neighbours of v0. Lemma (the pairs are complete): each
pair is non-adjacent, so its flow, the least number of vertices separating
the pair, is at least κ. Let S be a minimum vertex cut. If v0 is not in S, a
vertex t in another component of G - S is a non-neighbour of v0 that S
separates from v0, so the flow v0 -> t is at most |S| = κ. If v0 is in S, v0
has a neighbour in every component of G - S: a vertex of S without one could
leave S, and S would not be minimum. Neighbours x and y of v0 in two
different components are non-adjacent and S separates them, so the flow
x -> y is at most κ. Either way some candidate flow equals κ. Dropping the
neighbour pairs is wrong whenever v0 lies in every minimum cut.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations
from typing import Iterator

# the vertex budget of every topology builder
DEFAULT_MAX_VERTICES = 100_000


class Graph:
    """Immutable undirected simple graph."""

    __slots__ = ("_labels", "_index", "_masks", "_tables", "_kappa", "_families")

    def __init__(self, labels: Sequence[str], id_edges: Iterable[tuple[int, int]]):
        self._labels: tuple[str, ...] = tuple(labels)
        self._index: dict[str, int] = {}
        for i, lab in enumerate(self._labels):
            if lab in self._index:
                raise ValueError(f"duplicate label: {lab!r}")
            self._index[lab] = i
        n = len(self._labels)
        masks = [0] * n
        for u, v in id_edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint id out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at {self._labels[u]!r}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks: tuple[int, ...] = tuple(masks)
        self._tables = _neighbor_tables(self._masks)
        self._kappa: int | None = None  # filled by the first min_vertex_cut call
        # the dominating-set families of `search`, one per h, each filled by its first build
        self._families: dict[int, tuple[int, ...]] = {}

    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._masks) // 2

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """The adjacency: bit v of entry u is set when u and v are adjacent."""
        return self._masks

    @property
    def neighbor_tables(self) -> tuple[list[int], ...]:
        """Table j maps a byte b to the union of the `neighbor_masks` of the
        vertices 8j + i for the bits i set in b, and holds those masks
        themselves, the same ints, at entries 256.. (see `_neighbor_tables`)."""
        return self._tables

    def id_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown vertex: {label!r}") from None

    def label_of(self, vid: int) -> str:
        return self._labels[vid]

    def has_vertex(self, label: str) -> bool:
        return label in self._index

    def degree(self, label: str) -> int:
        return self._masks[self.id_of(label)].bit_count()

    def edge_ids(self) -> Iterator[tuple[int, int]]:
        """Edges as id pairs (u, v) with u < v, ordered by (u, v)."""
        for u, m in enumerate(self._masks):
            for v in ids(m & -(2 << u)):
                yield (u, v)

    def edges(self) -> Iterator[tuple[str, str]]:
        """Edges as label pairs, in `edge_ids` order."""
        for u, v in self.edge_ids():
            yield (self._labels[u], self._labels[v])

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(|V|={self.vertex_count}, |E|={self.edge_count})"


def build_graph(labels: Sequence[str], edges: Iterable[tuple[str, str]]) -> Graph:
    """Build a graph from labels and label-pair edges, deduplicating edges.

    Rejects unknown endpoints here, and duplicate labels and self-loops in
    `Graph`, naming the offending item.
    """
    g_labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(g_labels)}
    id_edges = []
    for u, v in edges:
        if u not in index:
            raise ValueError(f"unknown endpoint: {u!r}")
        if v not in index:
            raise ValueError(f"unknown endpoint: {v!r}")
        id_edges.append((index[u], index[v]))
    return Graph(g_labels, id_edges)


def _neighbor_tables(masks: Sequence[int]) -> tuple[list[int], ...]:
    """One table per group of 8 vertex ids, 8j..8j+7: entry b < 256 of table j
    is the OR of the neighbour masks of the vertices 8j + i for the bits i set
    in b, and entries 256.. hold those masks. Entries start as 0 and are filled
    on first use by `_fill_entry`, so a graph that floods little holds few of
    them; building all 256 up front would cost 32 big integers per vertex."""
    return tuple([0] * 256 + list(masks[base:base + 8]) for base in range(0, len(masks), 8))


def _fill_entry(table: list[int], b: int) -> int:
    entry = 0
    for i in range(8):
        if b >> i & 1:
            entry |= table[256 + i]
    table[b] = entry
    return entry


def ids(mask: int) -> list[int]:
    """The vertex ids in `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def flood_mask(tables: Sequence[list[int]], alive: int, seed: int) -> int:
    """Bitmask BFS: the component of `seed` (single-bit mask) within `alive`.

    `tables` are a graph's `neighbor_tables`; each step ORs the neighbourhoods
    of the frontier one byte (8 vertices) per table lookup. An entry that
    reads 0 is filled (or, for isolated vertices, recomputed as 0).
    """
    width = len(tables)
    comp = seed
    frontier = seed
    while frontier:
        nxt = 0
        for table, b in zip(tables, frontier.to_bytes(width, "little")):
            if b:
                nxt |= table[b] or _fill_entry(table, b)
        frontier = nxt & alive & ~comp
        comp |= frontier
    return comp


def component_masks(g: Graph, alive: int) -> list[int]:
    """The components of the subgraph of g induced by the vertex bitmask
    `alive`, as bitmasks ordered by smallest member id."""
    tables = g.neighbor_tables
    out = []
    while alive:
        comp = flood_mask(tables, alive, alive & -alive)
        out.append(comp)
        alive &= ~comp
    return out


def components(g: Graph) -> list[set[str]]:
    """Connected components as label sets, ordered by smallest member id."""
    return [{g.label_of(v) for v in ids(comp)}
            for comp in component_masks(g, (1 << g.vertex_count) - 1)]


def is_connected(g: Graph) -> bool:
    """True when g has at most one component (empty graph counts as connected)."""
    return len(component_masks(g, (1 << g.vertex_count) - 1)) <= 1


def delete_vertices(g: Graph, labels: Iterable[str]) -> Graph:
    """The graph induced on V(g) minus the given vertices."""
    drop = {g.id_of(lab) for lab in labels}
    keep = [i for i in range(g.vertex_count) if i not in drop]
    remap = {old: new for new, old in enumerate(keep)}
    new_labels = [g.label_of(i) for i in keep]
    id_edges = [(remap[u], remap[v]) for u, v in g.edge_ids() if u in remap and v in remap]
    return Graph(new_labels, id_edges)


def line_graph(g: Graph) -> Graph:
    """Line graph of g.

    One vertex per edge, labeled "a|b" with the lexicographically smaller
    endpoint label first; vertices adjacent iff the underlying edges share
    an endpoint.
    """
    edge_ids = list(g.edge_ids())
    labels = []
    for u, v in edge_ids:
        lu, lv = g.label_of(u), g.label_of(v)
        if lv < lu:
            lu, lv = lv, lu
        labels.append(f"{lu}|{lv}")
    pos = {e: i for i, e in enumerate(edge_ids)}
    incident: dict[int, list[int]] = {v: [] for v in range(g.vertex_count)}
    for e, i in pos.items():
        incident[e[0]].append(i)
        incident[e[1]].append(i)
    lg_edges = set()
    for ids in incident.values():
        ids.sort()
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                lg_edges.add((ids[a], ids[b]))
    return Graph(labels, sorted(lg_edges))


def min_vertex_cut(g: Graph) -> int:
    """κ(g): minimum vertices whose removal disconnects g or leaves one vertex.

    Complete graphs return n-1 by convention. Otherwise κ is the least
    number of vertex-disjoint paths over the Esfahanian-Hakimi candidate
    pairs (see the module docstring for why they suffice). A graph that is
    not complete has δ < n-1, so v0 has a non-neighbour and removing its δ
    neighbours isolates it: the search starts from δ and asks each flow only
    whether it falls below the best so far. The first call stores κ on the
    graph; later calls return it without a flow.
    """
    if g._kappa is not None:
        return g._kappa
    n = g.vertex_count
    if n < 2:
        raise ValueError("min_vertex_cut requires at least two vertices")
    if not is_connected(g):
        raise ValueError("min_vertex_cut requires a connected graph")
    adj = g.neighbor_masks
    v0 = min(range(n), key=lambda v: adj[v].bit_count())
    near = adj[v0]
    best = near.bit_count()
    if best < n - 1:
        pairs = [(v0, t) for t in ids(((1 << n) - 1) ^ near ^ (1 << v0))]
        pairs += [(x, y) for x, y in combinations(ids(near), 2) if not adj[x] >> y & 1]
        for s, t in pairs:
            best = _disjoint_paths(g.neighbor_tables, s, t, best)
    g._kappa = best
    return best


def _disjoint_paths(tables: Sequence[list[int]], s: int, t: int, limit: int) -> int:
    """The number of internally vertex-disjoint paths between the non-adjacent
    vertices s and t, or `limit` once it reaches that: the s-t maximum flow of
    the vertex-split network, by augmenting paths that follow its residual
    rules (see the module docstring). `tables` are the graph's
    `neighbor_tables`.

    The flow is held as `pred[w] = u` for each busy vertex w, the head of a
    flow edge (u, w) other than t, and `succ[u] = w` for each busy u, the
    tail of one other than s. Each round is a breadth-first search by
    layers. Layer 0 is s_out. Layer k holds the in-nodes first reached from
    the out-nodes of layer k-1 (their neighbours, one byte per table lookup
    as in `flood_mask`, and the busy ones' own in-nodes), then `outs[k]`, the
    out-nodes first reached from those in-nodes (a free vertex's own, a busy
    vertex's pred's, taken bit by bit). Once t_in is reached, the path is
    walked back from it. An in-node's parent is the out-node of lowest id
    among those of the layer before with an arc into it. An out-node u's
    parent is, in its own layer, succ(u)_in if u is busy, else u_in.
    """
    width = len(tables)
    tbit = 1 << t
    pred: dict[int, int] = {}
    succ: dict[int, int] = {}
    busy = 0  # the vertices in pred
    flow = 0
    while flow < limit:
        reached_in, reached_out = 0, 1 << s
        front = 1 << s
        outs = [front]
        while True:
            ins = front & busy
            for table, b in zip(tables, front.to_bytes(width, "little")):
                if b:
                    ins |= table[b] or _fill_entry(table, b)
            ins &= ~reached_in
            if ins & tbit:
                break
            reached_in |= ins
            front = ins & ~busy
            rest = ins & busy
            while rest:
                low = rest & -rest
                front |= 1 << pred[low.bit_length() - 1]
                rest ^= low
            front &= ~reached_out
            if not front:  # t_in is out of reach: the flow is maximum
                return flow
            reached_out |= front
            outs.append(front)
        # walk back from t_in: a step u_out -> w_in (u != w) adds the flow edge
        # (u, w), a step succ(u)_in -> u_out drops (u, succ(u))
        add, drop = [], []
        w = t
        for front in reversed(outs):
            into = front & (tables[w >> 3][256 + (w & 7)] | busy & 1 << w)
            u = (into & -into).bit_length() - 1
            if u != w:
                add.append((u, w))
            if busy >> u & 1:
                w = succ[u]
                drop.append((u, w))
            else:
                w = u
        # drops first: a vertex the path enters loses its old edge before it
        # gains the new one, and a cancelling add sees what the path leaves
        for u, w in drop:
            del succ[u], pred[w]
            busy ^= 1 << w
        for u, w in add:
            if pred.get(u) == w:  # (w, u) carries a unit too: cancel the pair
                del pred[u], succ[w]
                busy ^= 1 << u
            else:
                if w != t:
                    pred[w] = u
                    busy |= 1 << w
                if u != s:
                    succ[u] = w
        flow += 1
    return flow
