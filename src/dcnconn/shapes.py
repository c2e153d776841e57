"""Fault shapes (stars, paths, cycles, cliques, K_1 among them) over a host graph.

A cut is one shape, one mode and its members, ordered vertex label tuples:
stars list the center first, paths and cycles traversal order, cliques any
order. `is_shape` validates a member against a shape in structure mode (the
list realizes exactly the shape) or substructure mode (a connected subgraph).
`enumerate_shape_copies` streams the vertex-id tuple of every accepted
member once, in a canonical deterministic order, which the exhaustive
oracle relies on. It expands `_leaf_families`, which streams the copies in
groups: a leaf family `(prefix, mask, leaves)` holds a tuple of vertex ids,
the mask of those ids, and a mask `leaves` disjoint from `mask`, and stands
for the copies `(*prefix, v)` for every bit v of `leaves`, in ascending
order. The oracle counts the copies of a family by one popcount and builds
each copy's vertex mask as `mask | 1 << v`. Every generator reads the
graph's adjacency as its `neighbor_masks`, one mask per vertex.

Paths and cycles are grown depth-first from each start in id order, over
neighbours in id order. A path is kept when its first id is below its last,
so the last vertex is drawn only from the neighbours above the first. A
cycle is kept in its canonical rotation: it starts at its minimum id and runs
toward the smaller of the start's two cycle neighbours. Cycles are pruned by
the distance `dist` to the start inside the subgraph induced by the start and
the ids above it. Lemma (the prune drops no cycle): let `path` be the prefix
of a canonical k-cycle before `nb`. The vertices after `nb`, then the closing
edge, form a walk of `k - len(path)` edges from `nb` back to the start, and
every vertex on it other than the start is greater than the start. So
`dist[nb] <= k - len(path)`, and a neighbour farther away begins no cycle.
At the last vertex the bound reads `dist[nb] == 1`: `nb` closes the cycle.
That last vertex is also above `path[1]`, so the vertex before it, once
`path[1]` is chosen, is drawn only from the neighbours of the start's
neighbours above `path[1]`. These prunes only skip branches that yield
nothing, so the order of the copies is the order of the unpruned search.

Every shape's families come from a depth-first walk whose last step is one
mask: for a path, the neighbours of the prefix's last vertex above the
start, minus the prefix; for a cycle, the neighbours of the prefix's last
vertex at distance 1 from the start and above `path[1]`, minus the prefix;
for a star, the center's neighbours above the last leaf (above the center
for K_{1,1}); for a clique, the common neighbours of the members above the
last one. The single-vertex copies are
one family, the empty prefix with every vertex; substructure cliques, grown
as connected sets, are one-bit families. Lemma (the families keep the order
of the per-copy walk over neighbours in id order): that walk yields, after
a given prefix, the ids that pass the last step's tests, in ascending id
order and with no other copy between them, and visits the prefixes in the
same depth-first order as the families. The leaf mask holds exactly those
ids, and its bits are taken in ascending order, so the families, expanded
in the order found, repeat that walk's stream copy for copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import ParameterError
from .graph import Graph, component_masks, ids

STRUCTURE = "structure"
SUBSTRUCTURE = "substructure"
MODES = (STRUCTURE, SUBSTRUCTURE)

# a leaf family: prefix ids, the mask of those ids, and the mask of the last ids
_Family = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True)
class ShapeSpec:
    """One of Star(t), Path(k), Cycle(k), Clique(s); a single vertex is Clique(1)."""

    kind: str
    size: int

    def __post_init__(self) -> None:
        bounds = {"star": 1, "path": 1, "cycle": 3, "clique": 1}
        if self.kind not in bounds:
            raise ParameterError(f"unknown shape kind: {self.kind!r}")
        if self.size < bounds[self.kind]:
            raise ParameterError(
                f"{self.kind} parameter must be >= {bounds[self.kind]}, got {self.size}"
            )

    @staticmethod
    def star(t: int) -> "ShapeSpec":
        return ShapeSpec("star", t)

    @staticmethod
    def path(k: int) -> "ShapeSpec":
        return ShapeSpec("path", k)

    @staticmethod
    def cycle(k: int) -> "ShapeSpec":
        return ShapeSpec("cycle", k)

    @staticmethod
    def clique(s: int) -> "ShapeSpec":
        return ShapeSpec("clique", s)

    @staticmethod
    def single() -> "ShapeSpec":
        return ShapeSpec.clique(1)

    @staticmethod
    def from_tag(tag: str) -> "ShapeSpec":
        """The shape whose `tag` is `tag`; any other spelling of it (`C05`,
        non-ASCII digits) is rejected."""
        for prefix, kind in (("K1_", "star"), ("P", "path"), ("C", "cycle"), ("K", "clique")):
            size = tag[len(prefix):]
            if tag.startswith(prefix) and size.isdecimal():
                shape = ShapeSpec(kind, int(size))
                if shape.tag == tag:
                    return shape
        raise ParameterError(f"unknown shape tag: {tag!r} (the tags are K1_t, Pk, Ck and Ks)")

    @property
    def tag(self) -> str:
        if self.kind == "star":
            return f"K1_{self.size}"
        if self.kind == "path":
            return f"P{self.size}"
        if self.kind == "cycle":
            return f"C{self.size}"
        return f"K{self.size}"

    @property
    def vertex_count(self) -> int:
        """Vertices of the full shape (star K_{1,t} has t+1)."""
        return self.size + 1 if self.kind == "star" else self.size


@dataclass(frozen=True)
class StructureCut:
    """Members that each claim `shape` in `mode`, as vertex label tuples."""

    shape: ShapeSpec
    members: tuple[tuple[str, ...], ...]
    mode: str

    def vertex_union(self) -> set[str]:
        out: set[str] = set()
        for m in self.members:
            out.update(m)
        return out


def _member_ids(g: Graph, member: tuple[str, ...]) -> list[int]:
    ids = [g.id_of(v) for v in member]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate vertex in member: {member}")
    if not ids:
        raise ValueError("empty member")
    return ids


def is_shape(g: Graph, shape: ShapeSpec, member: tuple[str, ...], mode: str) -> bool:
    """Whether the member's vertex list realizes `shape` in g.

    A structure member lists exactly the shape's vertices; a substructure
    member lists at most that many and realizes a connected subgraph of the
    shape. Every connected subgraph of a star is a star with the same
    center, of a path or cycle a path (or the cycle itself), and of K_s any
    connected graph on at most s vertices.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode: {mode!r}")
    ids = _member_ids(g, member)
    k = len(ids)
    if k > shape.vertex_count or (mode == STRUCTURE and k < shape.vertex_count):
        return False
    adj = g.neighbor_masks
    if shape.kind == "star":
        return all(adj[ids[0]] >> leaf & 1 for leaf in ids[1:])
    if shape.kind == "clique":
        if mode == STRUCTURE:
            return all(adj[a] >> b & 1 for a, b in combinations(ids, 2))
        alive = 0
        for v in ids:
            alive |= 1 << v
        return len(component_masks(g, alive)) == 1
    # path and cycle: consecutive ids adjacent, a structure cycle closed
    if shape.kind == "cycle" and mode == STRUCTURE and not adj[ids[-1]] >> ids[0] & 1:
        return False
    return all(adj[ids[i]] >> ids[i + 1] & 1 for i in range(k - 1))


def _clique_families(adj: tuple[int, ...], s: int) -> Iterator[_Family]:
    # K_1 is one family: every vertex after the empty prefix
    if s == 1:
        yield (), 0, (1 << len(adj)) - 1
        return

    def extend(base: tuple[int, ...], mask: int, common: int) -> Iterator[_Family]:
        if len(base) == s - 1:
            if common:
                yield base, mask, common
            return
        while common:
            low = common & -common
            common ^= low
            w = low.bit_length() - 1
            yield from extend(base + (w,), mask | low, common & adj[w] & -(2 << w))

    for v in range(len(adj)):
        yield from extend((v,), 1 << v, adj[v] & -(2 << v))


def _star_families(adj: tuple[int, ...], t: int) -> Iterator[_Family]:
    # K_{1,1} is symmetric: canonical center = smaller endpoint (one copy per
    # edge); for t >= 2 the center is structurally distinguished. Either way
    # the last leaf lies above the one before it (above the center for t = 1).
    for c in range(len(adj)):
        for leaves in combinations(ids(adj[c]), t - 1):
            last = adj[c] & -(2 << (leaves[-1] if leaves else c))
            if last:
                yield (c, *leaves), sum(1 << v for v in leaves) | 1 << c, last


def _walks(adj: tuple[int, ...], path: list[int], used: int, k: int,
           reach: list[int]) -> Iterator[_Family]:
    """The leaf families of the simple walks of k vertices that extend `path`
    (of at most k - 2 vertices, whose mask is `used`), depth first over
    neighbours in id order: after a walk of L vertices the next vertex is a
    neighbour of its last, outside it, in `reach[k - L]`."""
    todo = [adj[path[-1]] & reach[k - len(path)] & ~used]  # the next vertices left, per depth
    while todo:
        nxt = todo[-1]
        if not nxt:  # every walk through the path's last vertex is done
            todo.pop()
            used ^= 1 << path.pop()
            continue
        low = nxt & -nxt
        todo[-1] = nxt ^ low
        v = low.bit_length() - 1
        path.append(v)
        if len(path) < k - 1:
            used |= low
            todo.append(adj[v] & reach[k - len(path)] & ~used)
            continue
        last = adj[v] & reach[1] & ~used
        if last:
            yield tuple(path), used | low, last
        path.pop()


def _path_families(adj: tuple[int, ...], k: int) -> Iterator[_Family]:
    # a path of at most 2 vertices is a clique; otherwise the last vertex is
    # the larger endpoint
    if k <= 2:
        yield from _clique_families(adj, k)
        return
    for start in range(len(adj)):
        yield from _walks(adj, [start], 1 << start, k, [-1, -(2 << start)] + [-1] * (k - 2))


def _neighborhood(adj: tuple[int, ...], mask: int) -> int:
    """The union of the neighbour masks of the vertices in `mask`."""
    out = 0
    for v in ids(mask):
        out |= adj[v]
    return out


def _distances_above(adj: tuple[int, ...], start: int, depth: int) -> list[int]:
    """Breadth-first balls around `start` inside the subgraph induced by
    `start` and the ids above it: entry d is the mask of the vertices at
    distance at most d from `start` there, for d = 0..depth."""
    above = -(1 << start)
    ball = frontier = 1 << start
    balls = [ball]
    for _ in range(depth):
        frontier = _neighborhood(adj, frontier) & above & ~ball
        ball |= frontier
        balls.append(ball)
    return balls


def _cycle_families(adj: tuple[int, ...], k: int) -> Iterator[_Family]:
    # Canonical form: rotation starts at the minimum id, direction toward the
    # smaller second id; every vertex after the start exceeds the start, which
    # the distance balls enforce (they hold no id below the start). The
    # distance prune is the module docstring's lemma: the vertex after a walk
    # of L vertices lies within k - L edges of the start. The last vertex is
    # one of `ends`, the start's neighbours above the second, and the one
    # before it a neighbour of one of them.
    for start in range(len(adj)):
        reach = _distances_above(adj, start, k - 1)
        for second in ids(reach[1] ^ 1 << start):
            used = 1 << start | 1 << second
            ends = reach[1] & -(2 << second)
            if k == 3:  # a triangle: the second vertex is the next-to-last
                last = adj[second] & ends
                if last:
                    yield (start, second), used, last
                continue
            yield from _walks(adj, [start, second], used, k,
                              [reach[0], ends, reach[2] & _neighborhood(adj, ends), *reach[3:]])


def _connected_set_families(adj: tuple[int, ...], smax: int) -> Iterator[_Family]:
    """Connected vertex sets of size 1..smax, each exactly once, as one-bit
    families of their sorted ids.

    A set `sub` (a mask) whose least id is the root grows by the candidates
    `ext` in order, each taken once: after taking w the later candidates
    stay, and w's neighbours above the root outside the closed neighbourhood
    `closed` of `sub` join them in id order. Every candidate is a neighbour
    of `sub`, so the closed neighbourhood keeps out both `sub` and `ext`."""

    def extend(sub: int, closed: int, ext: list[int], above: int) -> Iterator[_Family]:
        top = sub.bit_length() - 1
        base = sub ^ 1 << top
        yield tuple(ids(base)), base, 1 << top
        if sub.bit_count() == smax:
            return
        for i, w in enumerate(ext):
            fresh = adj[w] & above & ~closed
            yield from extend(sub | 1 << w, closed | adj[w], ext[i + 1:] + ids(fresh), above)

    for v in range(len(adj)):
        above = -(2 << v)
        yield from extend(1 << v, adj[v] | 1 << v, ids(adj[v] & above), above)


def _leaf_families(g: Graph, shape: ShapeSpec, mode: str) -> Iterator[_Family]:
    """The copies of `enumerate_shape_copies`, in its order, as leaf families
    (see the module docstring)."""
    if mode not in MODES:
        raise ParameterError(f"unknown mode: {mode!r}")
    adj = g.neighbor_masks

    if mode == STRUCTURE:
        if shape.kind == "star":
            yield from _star_families(adj, shape.size)
        elif shape.kind == "path":
            yield from _path_families(adj, shape.size)
        elif shape.kind == "cycle":
            yield from _cycle_families(adj, shape.size)
        else:
            yield from _clique_families(adj, shape.size)
        return

    # substructure mode
    if shape.kind == "star":
        yield from _clique_families(adj, 1)
        for tp in range(1, shape.size + 1):
            yield from _star_families(adj, tp)
    elif shape.kind in ("path", "cycle"):
        # every connected subgraph of C_k is a path P_j (j <= k) or C_k itself,
        # and each canonical C_k tuple already appears among the P_k tuples
        for j in range(1, shape.size + 1):
            yield from _path_families(adj, j)
    else:
        yield from _connected_set_families(adj, shape.size)


def enumerate_shape_copies(g: Graph, shape: ShapeSpec, mode: str) -> Iterator[tuple[int, ...]]:
    """Stream the vertex ids of every member accepted by `is_shape`,
    canonicalized, no duplicates.

    Canonical forms: star = center then sorted leaf ids (K_{1,1}: smaller
    endpoint is the center); path = smaller endpoint first; cycle = rotation
    from the minimum id toward the smaller second id; clique = sorted ids.
    Order is deterministic and stable across runs. A copy `ids` is the member
    `tuple(g.label_of(i) for i in ids)`.
    """
    for prefix, _, leaves in _leaf_families(g, shape, mode):
        for v in ids(leaves):
            yield (*prefix, v)
