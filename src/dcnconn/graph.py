"""Undirected simple graphs with string labels and dense integer ids.

Graphs are immutable after construction and safe to share across workers.
Connectivity runs on byte-sliced neighbour tables over vertex bitmasks: one
table per group of 8 vertex ids maps each byte of a vertex set to the union
of those vertices' neighbourhoods, so a breadth-first step reads one table
entry per 8 vertices (the Four-Russians table trick). Table entries are
filled on first use; a fill stores the value every caller would compute, so
sharing stays safe. The minimum vertex cut uses vertex-split maximum flow,
independent of the brute-force search in `dcnconn.search` that
cross-validates it, and is likewise computed once per graph and kept on it.

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

    __slots__ = ("_labels", "_index", "_adj", "_tables", "_kappa")

    def __init__(self, labels: Sequence[str], id_edges: Iterable[tuple[int, int]]):
        self._labels: tuple[str, ...] = tuple(labels)
        self._index: dict[str, int] = {}
        for i, lab in enumerate(self._labels):
            if lab in self._index:
                raise ValueError(f"duplicate label: {lab!r}")
            self._index[lab] = i
        n = len(self._labels)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in id_edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint id out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at {self._labels[u]!r}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        masks = []
        for s in self._adj:
            m = 0
            for v in s:
                m |= 1 << v
            masks.append(m)
        self._tables = _neighbor_tables(masks)
        self._kappa: int | None = None  # filled by the first min_vertex_cut call

    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def neighbor_tables(self) -> tuple[list[int], ...]:
        """Table j maps a byte b to the union of the neighbour masks of the
        vertices 8j + i for the bits i set in b (see `_neighbor_tables`)."""
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

    def neighbor_ids(self, vid: int) -> frozenset[int]:
        return self._adj[vid]

    def degree(self, label: str) -> int:
        return len(self._adj[self.id_of(label)])

    def edge_ids(self) -> Iterator[tuple[int, int]]:
        """Edges as id pairs (u, v) with u < v, ordered by (u, v)."""
        for u in range(len(self._labels)):
            for v in sorted(self._adj[u]):
                if v > u:
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
    out = []
    for comp in component_masks(g, (1 << g.vertex_count) - 1):
        labs = set()
        m = comp
        while m:
            b = m & -m
            labs.add(g.label_of(b.bit_length() - 1))
            m ^= b
        out.append(labs)
    return out


def is_connected(g: Graph) -> bool:
    """True when g has at most one component (empty graph counts as connected)."""
    return len(component_masks(g, (1 << g.vertex_count) - 1)) <= 1


def delete_vertices(g: Graph, labels: Iterable[str]) -> Graph:
    """The graph induced on V(g) minus the given vertices."""
    drop = {g.id_of(lab) for lab in labels}
    keep = [i for i in range(g.vertex_count) if i not in drop]
    remap = {old: new for new, old in enumerate(keep)}
    new_labels = [g.label_of(i) for i in keep]
    id_edges = []
    for old in keep:
        for nb in g.neighbor_ids(old):
            if nb > old and nb in remap:
                id_edges.append((remap[old], remap[nb]))
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
    vertex-split maximum flow over the Esfahanian-Hakimi candidate pairs (see
    the module docstring for why they suffice). A graph that is not complete
    has δ < n-1, so v0 has a non-neighbour and removing its δ neighbours
    isolates it: the search starts from δ and asks each flow only whether it
    falls below the best so far. The first call stores κ on the graph; later
    calls return it without a flow.
    """
    if g._kappa is not None:
        return g._kappa
    n = g.vertex_count
    if n < 2:
        raise ValueError("min_vertex_cut requires at least two vertices")
    if not is_connected(g):
        raise ValueError("min_vertex_cut requires a connected graph")
    v0 = min(range(n), key=lambda v: len(g.neighbor_ids(v)))
    near = g.neighbor_ids(v0)
    best = len(near)
    if best < n - 1:
        net = _split_network(g)
        pairs = [(v0, t) for t in range(n) if t != v0 and t not in near]
        pairs += [(x, y) for x, y in combinations(sorted(near), 2)
                  if y not in g.neighbor_ids(x)]
        for s, t in pairs:
            best = _max_flow(net, 2 * s + 1, 2 * t, best)
    g._kappa = best
    return best


def _split_network(g: Graph) -> tuple[list[int], list[int], list[list[tuple[int, int]]]]:
    """The vertex-split flow network of g as (arc heads, arc capacities, the
    (arc, head) pairs out of each node). Vertex v becomes v_in = 2v and v_out = 2v+1 joined by
    a unit arc; each edge becomes arcs of capacity n both ways. Arc a ^ 1 is
    the reverse of arc a."""
    n = g.vertex_count
    arc_to: list[int] = []
    arc_cap: list[int] = []
    arc_adj: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]

    def add_arc(u: int, w: int, c: int) -> None:
        arc_adj[u].append((len(arc_to), w))
        arc_to.append(w)
        arc_cap.append(c)
        arc_adj[w].append((len(arc_to), u))
        arc_to.append(u)
        arc_cap.append(0)

    for v in range(n):
        add_arc(2 * v, 2 * v + 1, 1)
    for u, v in g.edge_ids():
        add_arc(2 * u + 1, 2 * v, n)
        add_arc(2 * v + 1, 2 * u, n)
    return arc_to, arc_cap, arc_adj


def _max_flow(net, s: int, t: int, limit: int) -> int:
    """The s-t maximum flow of `net` (see `_split_network`), or `limit` once
    the flow reaches it: augmenting paths by breadth-first search."""
    arc_to, arc_cap, arc_adj = net
    cap = arc_cap.copy()
    flow = 0
    while flow < limit:
        parent = [-1] * len(arc_adj)
        parent[s] = -2
        queue = [s]
        for x in queue:
            for a, y in arc_adj[x]:
                if cap[a] and parent[y] == -1:
                    parent[y] = a
                    queue.append(y)
            if parent[t] != -1:
                break
        else:  # the queue ran dry: no augmenting path is left
            break
        x = t
        while x != s:
            a = parent[x]
            cap[a] -= 1
            cap[a ^ 1] += 1
            x = arc_to[a ^ 1]
        flow += 1
    return flow
