import random
from itertools import combinations, permutations, product

import pytest

from conftest import neighbor_labels, neighbor_set
from dcnconn import (
    build_graph,
    components,
    delete_vertices,
    is_connected,
    line_graph,
    min_vertex_cut,
)
from dcnconn.bcdc import build_bcdc, build_crossed_cube
from dcnconn.dcell import build_dcell
from dcnconn import graph as graph_module
from dcnconn.graph import Graph, flood_mask


def test_build_graph_k2():
    g = build_graph(["a", "b"], [("a", "b")])
    assert g.vertex_count == 2 and g.edge_count == 1


def test_build_graph_single_vertex_connected():
    g = build_graph(["a"], [])
    assert is_connected(g)
    assert components(g) == [{"a"}]


def test_build_graph_c4_regular():
    g = build_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert all(g.degree(v) == 2 for v in g.labels)


def test_build_graph_dedupes_parallel_edges():
    g = build_graph(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])
    assert g.edge_count == 1


@pytest.mark.parametrize(
    "labels,edges,msg",
    [
        (["a", "a"], [], "duplicate label"),
        (["a"], [("a", "b")], "unknown endpoint"),
        (["a", "b"], [("a", "a")], "self-loop"),
    ],
)
def test_build_graph_rejections(labels, edges, msg):
    with pytest.raises(ValueError, match=msg):
        build_graph(labels, edges)


@pytest.mark.parametrize("labels,id_edges", [(["a"], [(1, 1)]), (["a", "b"], [(-1, -1)])])
def test_graph_checks_the_id_range_before_self_loops(labels, id_edges):
    # an out-of-range self-loop is reported as out of range, not looked up
    with pytest.raises(ValueError, match="out of range"):
        Graph(labels, id_edges)


def test_connectivity_k5(k5):
    assert is_connected(k5)
    assert len(components(k5)) == 1


def test_two_disjoint_edges():
    g = build_graph(list("abcd"), [("a", "b"), ("c", "d")])
    comps = components(g)
    assert len(comps) == 2 and sorted(len(c) for c in comps) == [2, 2]
    assert not is_connected(g)


def test_empty_graph_connected():
    assert is_connected(build_graph([], []))


def test_b3_minus_closed_neighborhood(b3):
    # deleting N[u] leaves 12 - 5 vertices spread over >= 1 component
    u = b3.labels[0]
    rest = delete_vertices(b3, neighbor_labels(b3, u) | {u})
    comps = components(rest)
    assert len(comps) >= 1
    assert sum(len(c) for c in comps) == 12 - 5


def test_delete_empty_is_identity(d14):
    g = delete_vertices(d14, [])
    assert g.labels == d14.labels
    assert list(g.edges()) == list(d14.edges())


def test_delete_all_vertices(k5):
    g = delete_vertices(k5, k5.labels)
    assert g.vertex_count == 0 and is_connected(g)


def test_delete_one_from_k4():
    labels = list("abcd")
    g = build_graph(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]])
    h = delete_vertices(g, ["d"])
    assert h.vertex_count == 3 and h.edge_count == 3


def test_delete_unknown_vertex_rejected(k5):
    with pytest.raises(ValueError, match="unknown vertex"):
        delete_vertices(k5, ["zz"])


def test_min_cut_complete(k5):
    assert min_vertex_cut(k5) == 4


def test_min_cut_cycle(c6):
    assert min_vertex_cut(c6) == 2


def test_min_cut_complete_convention():
    for n in range(2, 9):
        labels = [str(i) for i in range(n)]
        g = build_graph(labels, [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]])
        assert min_vertex_cut(g) == n - 1


def test_min_cut_dcell_14(d14):
    assert min_vertex_cut(d14) == 4


def test_min_cut_b4(b4):
    assert min_vertex_cut(b4) == 6


def test_min_cut_rejects_disconnected():
    g = build_graph(list("abcd"), [("a", "b"), ("c", "d")])
    with pytest.raises(ValueError, match="connected"):
        min_vertex_cut(g)


def test_min_cut_matches_networkx():
    nx = pytest.importorskip("networkx")
    for build, arg in ((build_crossed_cube, 4), (build_bcdc, 3), (build_bcdc, 6)):
        g = build(arg)
        h = nx.Graph(list(g.edges()))
        assert min_vertex_cut(g) == nx.node_connectivity(h)


def _brute_kappa(n, edges):
    """Least k such that removing some k vertices disconnects the graph or
    leaves at most one vertex, by trying every vertex subset."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for k in range(n):
        for removed in map(set, combinations(range(n), k)):
            rest = [v for v in range(n) if v not in removed]
            if len(rest) <= 1:
                return k
            seen, stack = {rest[0]}, [rest[0]]
            while stack:
                for w in adj[stack.pop()] - removed - seen:
                    seen.add(w)
                    stack.append(w)
            if len(seen) < len(rest):
                return k
    raise AssertionError("unreachable: removing n-1 vertices leaves one")


def _id_graph(n, edges):
    labels = [str(v) for v in range(n)]
    return build_graph(labels, [(labels[u], labels[v]) for u, v in edges])


def test_min_cut_matches_brute_force_on_every_graph_up_to_5_vertices():
    checked = 0
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for keep in product((False, True), repeat=len(pairs)):
            edges = [p for p, k in zip(pairs, keep) if k]
            g = _id_graph(n, edges)
            if is_connected(g):
                assert min_vertex_cut(g) == _brute_kappa(n, edges), (n, edges)
                checked += 1
    assert checked == 1 + 4 + 38 + 728  # connected labelled graphs on 2..5 vertices


def test_min_cut_matches_brute_force_on_random_graphs():
    rng = random.Random(1984)
    for _ in range(2000):
        n = rng.randint(6, 10)
        density = rng.random()
        edges = {(rng.randrange(v), v) for v in range(1, n)}  # a spanning tree
        edges |= {p for p in combinations(range(n), 2) if rng.random() < density}
        assert min_vertex_cut(_id_graph(n, sorted(edges))) == _brute_kappa(n, edges), edges


def test_min_cut_needs_the_neighbour_pairs():
    """Vertex 0 has the minimum degree 4 and is the only cut vertex: it joins
    two K_5s through two neighbours in each. A flow from vertex 0 to a
    non-neighbour needs two vertices to block it, so only the flow between
    two of its neighbours, one in each K_5, finds kappa = 1."""
    edges = [(0, 1), (0, 2), (0, 6), (0, 7)]
    edges += list(combinations(range(1, 6), 2)) + list(combinations(range(6, 11), 2))
    g = _id_graph(11, edges)
    assert min(range(11), key=lambda v: len(neighbor_set(g, v))) == 0
    assert _brute_kappa(11, edges) == 1
    assert [v for v in range(1, 11)
            if not is_connected(delete_vertices(g, [str(v)]))] == []
    assert min_vertex_cut(g) == 1


def _least_separator(adj, s, t):
    """The fewest vertices other than s and t whose removal leaves no s-t
    path, by trying every vertex subset in order of size."""
    others = [v for v in range(len(adj)) if v not in (s, t)]
    for k in range(len(others) + 1):
        for removed in map(set, combinations(others, k)):
            seen, stack = {s}, [s]
            while stack:
                for w in adj[stack.pop()] - removed - seen:
                    seen.add(w)
                    stack.append(w)
            if t not in seen:
                return k
    raise AssertionError("unreachable: s and t are not adjacent")


def test_disjoint_paths_match_brute_force_separators_at_every_limit():
    """Menger: the path count of each ordered non-adjacent pair is the least
    s-t separator, and a limit caps it."""
    rng = random.Random(1736)
    pairs = 0
    for _ in range(150):
        n = rng.randint(6, 10)
        density = rng.random()
        edges = {(rng.randrange(v), v) for v in range(1, n)}  # a spanning tree
        edges |= {p for p in combinations(range(n), 2) if rng.random() < density}
        g = _id_graph(n, sorted(edges))
        adj = [neighbor_set(g, v) for v in range(n)]
        for s, t in permutations(range(n), 2):
            if t in adj[s]:
                continue
            want = _least_separator(adj, s, t)
            for limit in range(1, n + 1):
                got = graph_module._disjoint_paths(g.neighbor_tables, s, t, limit)
                assert got == min(want, limit), (n, sorted(edges), s, t, limit)
            pairs += 1
    assert pairs > 1000


def test_disjoint_paths_walk_back_over_a_path():
    """The first path found, 2-0-1-3-7, meets both paths of the only pair,
    2-0-4-6-7 and 2-8-5-3-7. The second round must enter 3 from 5 and walk
    back over 3 and 1 to 0 before it leaves by 4: it takes the reverse unit
    arc 1_out -> 1_in, and the walk back from 7 finds 1_out as 1_in's only
    parent."""
    edges = [(0, 1), (0, 2), (0, 4), (1, 3), (2, 8), (3, 5), (3, 7), (4, 6), (5, 8), (6, 7)]
    g = _id_graph(9, edges)
    assert graph_module._disjoint_paths(g.neighbor_tables, 2, 7, 1) == 1
    assert graph_module._disjoint_paths(g.neighbor_tables, 2, 7, 9) == 2
    assert _least_separator([neighbor_set(g, v) for v in range(9)], 2, 7) == 2


def test_disjoint_paths_match_networkx_local_connectivity():
    nx = pytest.importorskip("networkx")
    rng = random.Random(84)
    for g in (build_bcdc(4), build_dcell(1, 4), build_dcell(2, 3)):
        h = nx.Graph(list(g.edges()))
        n = g.vertex_count
        pairs = [(s, t) for s, t in permutations(range(n), 2) if t not in neighbor_set(g, s)]
        for s, t in rng.sample(pairs, 30):
            want = nx.node_connectivity(h, g.label_of(s), g.label_of(t))
            assert graph_module._disjoint_paths(g.neighbor_tables, s, t, n) == want, (s, t)


def test_min_cut_is_computed_once_per_graph(monkeypatch):
    flows = []

    def counting_flow(*args):
        flows.append(args)
        return real_flow(*args)

    real_flow = graph_module._disjoint_paths
    monkeypatch.setattr(graph_module, "_disjoint_paths", counting_flow)
    g = build_bcdc(4)
    assert min_vertex_cut(g) == 6
    assert flows
    flows.clear()
    assert min_vertex_cut(g) == 6
    assert flows == []


def test_line_graph_p3():
    g = build_graph(list("abc"), [("a", "b"), ("b", "c")])
    lg = line_graph(g)
    assert lg.vertex_count == 2 and lg.edge_count == 1
    assert set(lg.labels) == {"a|b", "b|c"}


def test_line_graph_k3():
    g = build_graph(list("abc"), [("a", "b"), ("b", "c"), ("a", "c")])
    lg = line_graph(g)
    assert lg.vertex_count == 3 and lg.edge_count == 3


def test_line_graph_cq3_is_b3(cq3, b3):
    lg = line_graph(cq3)
    assert lg.labels == b3.labels
    assert list(lg.edge_ids()) == list(b3.edge_ids())


def test_line_graph_counts(d14):
    lg = line_graph(d14)
    assert lg.vertex_count == d14.edge_count
    expected_edges = sum(
        d14.degree(v) * (d14.degree(v) - 1) // 2 for v in d14.labels
    )
    assert lg.edge_count == expected_edges


def _per_bit_flood(g, alive, seed):
    """Reference BFS: expands the frontier one vertex bit at a time."""
    comp = frontier = seed
    while frontier:
        nxt = 0
        for v in range(g.vertex_count):
            if frontier >> v & 1:
                for w in neighbor_set(g, v):
                    nxt |= 1 << w
        frontier = nxt & alive & ~comp
        comp |= frontier
    return comp


@pytest.mark.parametrize("n", [8, 9, 16, 17, 80])
def test_flood_mask_matches_per_bit_bfs(n, b5):
    rng = random.Random(n)
    if n == 80:
        g = b5
    else:
        labels = [f"v{i}" for i in range(n)]
        g = build_graph(labels, [(labels[i], labels[j]) for i in range(n)
                                 for j in range(i + 1, n) if rng.random() < 3 / n])
    assert g.vertex_count == n
    tables = g.neighbor_tables
    assert len(tables) == (n + 7) // 8
    for _ in range(400):
        keep = rng.choice((0.3, 0.6, 0.9))
        alive = sum(1 << v for v in range(n) if rng.random() < keep)
        if not alive:
            continue
        seed = 1 << rng.choice([v for v in range(n) if alive >> v & 1])
        assert flood_mask(tables, alive, seed) == _per_bit_flood(g, alive, seed)
