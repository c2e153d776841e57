from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from math import comb
from operator import or_

import pytest

from dcnconn import (
    ShapeSpec,
    StructureCut,
    build_bcdc,
    build_crossed_cube,
    build_dcell,
    build_graph,
    components,
    delete_vertices,
    enumerate_shape_copies,
)
from dcnconn.shapes import STRUCTURE, _leaf_families


@lru_cache(maxsize=64)
def _neighbor_sets(g):
    return tuple(frozenset(u for u in range(g.vertex_count) if mask >> u & 1)
                 for mask in g.neighbor_masks)


def neighbor_set(g, v):
    """The neighbour ids of vertex id v, as a set read off its neighbour mask
    (once per graph), for the set-based reference enumerators."""
    return _neighbor_sets(g)[v]


def neighbor_labels(g, label):
    return {g.label_of(i) for i in neighbor_set(g, g.id_of(label))}


def smallest_component(g, cut):
    """The sorted labels of the smallest component left when `cut`'s vertices
    are removed from g, the first by label among components of one size."""
    comps = components(delete_vertices(g, cut.vertex_union()))
    return min((tuple(sorted(c)) for c in comps), key=lambda c: (len(c), c), default=())


# --- the per-copy enumeration: the reference for the leaf families ----------


def reference_path_ids(g, k):
    """Every simple path of k vertices grown from each start in id order, kept
    when its first id is below its last (the enumeration before the prunes)."""
    if k == 1:
        yield from ((v,) for v in range(g.vertex_count))
        return

    def extend(path, used):
        if len(path) == k:
            if path[0] < path[-1]:
                yield tuple(path)
            return
        for nb in sorted(neighbor_set(g, path[-1])):
            if nb not in used:
                path.append(nb)
                used.add(nb)
                yield from extend(path, used)
                used.discard(nb)
                path.pop()

    for start in range(g.vertex_count):
        yield from extend([start], {start})


def reference_cycle_ids(g, k):
    """Every path of k vertices above its start, kept when it closes into a
    cycle toward the smaller second id (the enumeration before the prunes)."""

    def extend(path, used):
        if len(path) == k:
            if path[0] in neighbor_set(g, path[-1]) and path[1] < path[-1]:
                yield tuple(path)
            return
        for nb in sorted(neighbor_set(g, path[-1])):
            if nb > path[0] and nb not in used:
                path.append(nb)
                used.add(nb)
                yield from extend(path, used)
                used.discard(nb)
                path.pop()

    for start in range(g.vertex_count):
        yield from extend([start], {start})


def reference_star_ids(g, t):
    """Each center in id order with every t-set of its sorted neighbours; a
    K_{1,1} is each edge once, its smaller end first."""
    if t == 1:
        yield from g.edge_ids()
        return
    for c in range(g.vertex_count):
        yield from ((c, *leaves) for leaves in combinations(sorted(neighbor_set(g, c)), t))


def reference_clique_ids(g, s):
    """Every s-clique as sorted ids, grown member by member over common
    neighbours above the last member, in id order."""
    if s == 1:
        yield from ((v,) for v in range(g.vertex_count))
        return

    def extend(base, common):
        for w in sorted(common):
            if len(base) + 1 == s:
                yield (*base, w)
            else:
                yield from extend((*base, w), {x for x in common & neighbor_set(g, w) if x > w})

    for v in range(g.vertex_count):
        yield from extend((v,), {x for x in neighbor_set(g, v) if x > v})


def reference_connected_sets(g, smax):
    """Connected vertex sets of 1..smax vertices, each once as sorted ids:
    from each root, every set whose least id is the root, grown by the
    neighbours above the root that no member had offered before."""

    def extend(sub, ext, root):
        yield tuple(sorted(sub))
        if len(sub) == smax:
            return
        ext = list(ext)
        while ext:
            w = ext.pop(0)
            fresh = [x for x in sorted(neighbor_set(g, w)) if x > root and x not in sub
                     and x not in ext and not any(x in neighbor_set(g, y) for y in sub)]
            yield from extend(sub + (w,), ext + fresh, root)

    for v in range(g.vertex_count):
        yield from extend((v,), [x for x in sorted(neighbor_set(g, v)) if x > v], v)


def reference_copies(g, shape, mode):
    """The copies `enumerate_shape_copies` streams, one at a time, in its order."""
    if mode == STRUCTURE:
        return {"star": reference_star_ids, "path": reference_path_ids,
                "cycle": reference_cycle_ids, "clique": reference_clique_ids}[shape.kind](
                    g, shape.size)
    if shape.kind == "star":
        return (ids for t in range(shape.size + 1)
                for ids in (reference_clique_ids(g, 1) if t == 0 else reference_star_ids(g, t)))
    if shape.kind == "clique":
        return reference_connected_sets(g, shape.size)
    return (ids for j in range(1, shape.size + 1) for ids in reference_path_ids(g, j))


def check_leaf_families(g, shape, mode):
    """The leaf families of `shape` expand, bit by ascending bit, to the
    per-copy reference stream and to `enumerate_shape_copies`; each prefix
    mask is the OR of its prefix ids, each leaf mask is disjoint from it, and
    the leaf popcounts add up to the copy count."""
    families = list(_leaf_families(g, shape, mode))
    expanded = []
    for prefix, mask, leaves in families:
        assert mask == reduce(or_, (1 << v for v in prefix), 0), (shape.tag, mode, prefix)
        assert leaves & mask == 0, (shape.tag, mode, prefix)
        expanded += [(*prefix, v) for v in range(g.vertex_count) if leaves >> v & 1]
    assert expanded == list(reference_copies(g, shape, mode)), (shape.tag, mode)
    assert list(enumerate_shape_copies(g, shape, mode)) == expanded, (shape.tag, mode)
    assert sum(leaves.bit_count() for _, _, leaves in families) == len(expanded)


# every shape kind at the sizes the member tests reach
ALL_SHAPES = (
    [ShapeSpec.single()]
    + [ShapeSpec.star(t) for t in range(1, 5)]
    + [ShapeSpec.path(k) for k in range(1, 7)]
    + [ShapeSpec.cycle(k) for k in range(3, 7)]
    + [ShapeSpec.clique(s) for s in range(1, 6)]
)


def brute_force_first_cut(g, units, sizes, h=0, limit=None):
    """The reference scan: the subsets of `sizes` unit masks in lexicographic
    order of their indices (`itertools.combinations`), each tested by
    `search._separates` with `h`, no subset skipped by any rule. Returns
    (position, indices) of the first subset that separates, counting
    positions from 1, or (subsets examined, None) once every subset, or
    `limit` of them, separated nothing."""
    from dcnconn import search

    full = (1 << g.vertex_count) - 1
    position = 0
    for size in sizes:
        for combo in combinations(range(len(units)), size):
            if position == limit:
                return position, None
            position += 1
            if search._separates(g.neighbor_tables, full, reduce(or_, (units[i] for i in combo)),
                                 h):
                return position, combo
    return position, None


def reference_answer(n, sizes, first, cap):
    """A scan's answer at check cap `cap` over n units, read off the
    brute-force scan's `first` (see `brute_force_first_cut`): (status, value,
    lower bound proven, hit indices, checks, note). The hit if it lies
    within the cap; else the cap's trip in the size that holds subset cap + 1;
    else "no" after every subset. `first` must reach past the cap."""
    position, hit = first
    if hit is not None and position <= cap:
        return "certified", len(hit), len(hit) - 1, hit, position, ""
    ends = list(accumulate(comb(n, s) for s in sizes))
    if not ends or cap >= ends[-1]:
        return "no", None, sizes.stop - 1, None, ends[-1] if ends else 0, ""
    assert cap < position, "the brute-force scan stopped before the cap"
    size = sizes[bisect_right(ends, cap)]
    return "budget_exceeded", None, size - 1, None, cap, "check cap reached"


@pytest.fixture(scope="session")
def d14():
    return build_dcell(1, 4)


@pytest.fixture(scope="session")
def d15():
    return build_dcell(1, 5)


@pytest.fixture(scope="session")
def b3():
    return build_bcdc(3)


@pytest.fixture(scope="session")
def b4():
    return build_bcdc(4)


@pytest.fixture(scope="session")
def b5():
    return build_bcdc(5)


@pytest.fixture(scope="session")
def b5_c5_witness():
    """Four 5-cycles of B_5 whose removal isolates "00000|00001".

    No three of the 1072 C_5 copies cut B_5, so this frozen cut shows
    kappa(B_5; C_5) = 4.
    """
    return StructureCut(
        ShapeSpec.cycle(5),
        (
            ("00000|00010", "00010|00011", "00010|00110", "00010|01010", "00010|10010"),
            ("00000|00100", "00000|01000", "01000|11000", "10000|11000", "00000|10000"),
            ("00001|00011", "00010|00011", "00011|00101", "00011|01001", "00011|10001"),
            ("00001|00111", "00001|01011", "01011|11001", "10011|11001", "00001|10011"),
        ),
        STRUCTURE,
    )


@pytest.fixture(scope="session")
def cq3():
    return build_crossed_cube(3)


@pytest.fixture()
def k5():
    labels = list("abcde")
    return build_graph(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]])


@pytest.fixture()
def c6():
    labels = [str(i) for i in range(6)]
    return build_graph(labels, [(labels[i], labels[(i + 1) % 6]) for i in range(6)])
