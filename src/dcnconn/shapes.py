"""Fault shapes (stars, paths, cycles, cliques, K_1 among them) over a host graph.

A cut is one shape, one mode and its members, ordered vertex label tuples:
stars list the center first, paths and cycles traversal order, cliques any
order. `is_shape` validates a member against a shape in structure mode (the
list realizes exactly the shape) or substructure mode (a connected subgraph).
`enumerate_shape_copies` streams the vertex-id tuple of every accepted
member once, in a canonical deterministic order, which the exhaustive
oracle relies on.

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
Both prunes only skip branches that yield nothing, so the order of the
copies is the order of the unpruned search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import ParameterError
from .graph import Graph, component_masks

STRUCTURE = "structure"
SUBSTRUCTURE = "substructure"
MODES = (STRUCTURE, SUBSTRUCTURE)


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


def _ids(g: Graph, member: tuple[str, ...]) -> list[int]:
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
    ids = _ids(g, member)
    k = len(ids)
    if k > shape.vertex_count or (mode == STRUCTURE and k < shape.vertex_count):
        return False
    adj = g.neighbor_ids
    if shape.kind == "star":
        return all(leaf in adj(ids[0]) for leaf in ids[1:])
    if shape.kind == "clique":
        if mode == STRUCTURE:
            return all(b in adj(a) for a, b in combinations(ids, 2))
        alive = 0
        for v in ids:
            alive |= 1 << v
        return len(component_masks(g, alive)) == 1
    # path and cycle: consecutive ids adjacent, a structure cycle closed
    if shape.kind == "cycle" and mode == STRUCTURE and ids[0] not in adj(ids[-1]):
        return False
    return all(ids[i + 1] in adj(ids[i]) for i in range(k - 1))


def _single_ids(g: Graph) -> Iterator[tuple[int, ...]]:
    for v in range(g.vertex_count):
        yield (v,)


def _star_ids(g: Graph, t: int) -> Iterator[tuple[int, ...]]:
    # K_{1,1} is symmetric: canonical center = smaller endpoint (one copy per
    # edge); for t >= 2 the center is structurally distinguished.
    if t == 1:
        yield from g.edge_ids()
        return
    for c in range(g.vertex_count):
        nbrs = sorted(g.neighbor_ids(c))
        if len(nbrs) >= t:
            for leaves in combinations(nbrs, t):
                yield (c, *leaves)


def _clique_ids(g: Graph, s: int) -> Iterator[tuple[int, ...]]:
    if s == 1:
        yield from _single_ids(g)
        return

    def extend(base: tuple[int, ...], common: frozenset[int]) -> Iterator[tuple[int, ...]]:
        for w in sorted(common):
            nxt = base + (w,)
            if len(nxt) == s:
                yield nxt
            else:
                yield from extend(nxt, frozenset(x for x in common & g.neighbor_ids(w) if x > w))

    for v in range(g.vertex_count):
        yield from extend((v,), frozenset(x for x in g.neighbor_ids(v) if x > v))


def _sorted_neighbors(g: Graph) -> list[list[int]]:
    return [sorted(g.neighbor_ids(v)) for v in range(g.vertex_count)]


def _path_ids(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield from _single_ids(g)
        return
    nbrs = _sorted_neighbors(g)

    def extend(path: list[int], used: set[int]) -> Iterator[tuple[int, ...]]:
        if len(path) == k - 1:  # the last vertex: the larger endpoint
            first = path[0]
            for nb in nbrs[path[-1]]:
                if nb > first and nb not in used:
                    yield (*path, nb)
            return
        for nb in nbrs[path[-1]]:
            if nb not in used:
                path.append(nb)
                used.add(nb)
                yield from extend(path, used)
                used.discard(nb)
                path.pop()

    for start in range(g.vertex_count):
        yield from extend([start], {start})


def _distances_above(nbrs: list[list[int]], start: int, depth: int) -> list[int]:
    """Breadth-first distance to `start` inside the subgraph induced by
    `start` and the ids above it; depth + 1 for the vertices farther than
    `depth` or outside the subgraph."""
    far = depth + 1
    dist = [far] * len(nbrs)
    dist[start] = 0
    frontier = [start]
    for d in range(1, far):
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if v > start and dist[v] == far:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def _cycle_ids(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    # Canonical form: rotation starts at the minimum id, direction toward the
    # smaller second id; every vertex after the start exceeds the start, which
    # the distance test enforces too (ids below the start read as far). The
    # distance prune is the module docstring's lemma.
    nbrs = _sorted_neighbors(g)

    def extend(path: list[int], used: set[int], dist: list[int]) -> Iterator[tuple[int, ...]]:
        left = k - len(path)  # edges from the next vertex back to the start
        if left == 1:
            second = path[1]
            for nb in nbrs[path[-1]]:
                if dist[nb] == 1 and nb > second and nb not in used:
                    yield (*path, nb)
            return
        for nb in nbrs[path[-1]]:
            if dist[nb] <= left and nb not in used:
                path.append(nb)
                used.add(nb)
                yield from extend(path, used, dist)
                used.discard(nb)
                path.pop()

    for start in range(g.vertex_count):
        yield from extend([start], {start}, _distances_above(nbrs, start, k - 1))


def _connected_set_ids(g: Graph, smax: int) -> Iterator[tuple[int, ...]]:
    """Connected vertex sets of size 1..smax, each exactly once, sorted ids."""

    def extend(sub: tuple[int, ...], ext: list[int], root: int) -> Iterator[tuple[int, ...]]:
        yield tuple(sorted(sub))
        if len(sub) == smax:
            return
        ext = list(ext)
        while ext:
            w = ext.pop(0)
            fresh = [
                x
                for x in sorted(g.neighbor_ids(w))
                if x > root and x not in sub and x not in ext and not any(
                    x in g.neighbor_ids(y) for y in sub
                )
            ]
            yield from extend(sub + (w,), ext + fresh, root)

    for v in range(g.vertex_count):
        yield from extend((v,), [x for x in sorted(g.neighbor_ids(v)) if x > v], v)


def enumerate_shape_copies(g: Graph, shape: ShapeSpec, mode: str) -> Iterator[tuple[int, ...]]:
    """Stream the vertex ids of every member accepted by `is_shape`,
    canonicalized, no duplicates.

    Canonical forms: star = center then sorted leaf ids (K_{1,1}: smaller
    endpoint is the center); path = smaller endpoint first; cycle = rotation
    from the minimum id toward the smaller second id; clique = sorted ids.
    Order is deterministic and stable across runs. A copy `ids` is the member
    `tuple(g.label_of(i) for i in ids)`.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode: {mode!r}")

    if mode == STRUCTURE:
        if shape.kind == "star":
            yield from _star_ids(g, shape.size)
        elif shape.kind == "path":
            yield from _path_ids(g, shape.size)
        elif shape.kind == "cycle":
            yield from _cycle_ids(g, shape.size)
        else:
            yield from _clique_ids(g, shape.size)
        return

    # substructure mode
    if shape.kind == "star":
        yield from _single_ids(g)
        for tp in range(1, shape.size + 1):
            yield from _star_ids(g, tp)
    elif shape.kind in ("path", "cycle"):
        # every connected subgraph of C_k is a path P_j (j <= k) or C_k itself,
        # and each canonical C_k tuple already appears among the P_k tuples
        for j in range(1, shape.size + 1):
            yield from _path_ids(g, j)
    else:
        yield from _connected_set_ids(g, shape.size)
