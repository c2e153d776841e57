"""Crossed cubes CQ_n and the BCDC graph B_n (line graph of CQ_n).

CQ_n vertices are n-bit strings b_{n-1}...b_0 (most significant first).
B_n vertices are adjacent CQ_n pairs, stored smaller-endpoint-first and
rendered "a|b". B_n is built by the recursive definition (two prefixed
copies of B_{n-1} plus the independent set of cross edges), and equals the
line graph of CQ_n label for label.
"""

from __future__ import annotations

from .errors import ParameterError
from .graph import DEFAULT_MAX_VERTICES, Graph

# The pair relation x ~ y on 2-bit blocks, {(00,00),(10,10),(01,11),(11,01)};
# it is a bijection, so the image is a map.
_PAIR_MAP = {"00": "00", "10": "10", "01": "11", "11": "01"}


def _check_bits(u: str, n: int | None = None) -> int:
    if not u or any(c not in "01" for c in u):
        raise ParameterError(f"not a bit string: {u!r}")
    if n is not None and len(u) != n:
        raise ParameterError(f"bit string {u!r} must have length {n}")
    return len(u)


def dim_neighbor(u: str, d: int) -> str:
    """The d-dimensional neighbor u^d: equal above d, bit d flipped, bit d-1
    kept when d is odd, pair-related 2-bit blocks below."""
    n = _check_bits(u)
    if not 0 <= d <= n - 1:
        raise ParameterError(f"dimension {d} outside [0, {n - 1}]")
    bits = list(u)
    pos = n - 1 - d
    bits[pos] = "0" if bits[pos] == "1" else "1"
    for i in range(d // 2):
        hi = n - 1 - (2 * i + 1)
        block = u[hi] + u[hi + 1]
        mapped = _PAIR_MAP[block]
        bits[hi] = mapped[0]
        bits[hi + 1] = mapped[1]
    return "".join(bits)


def _cross_partner(u: str, k: int) -> str:
    """For u in CQ^0_{k-1}: the unique v with 0u ~ 1v in CQ_k."""
    bits = list(u)  # length k-1
    for i in range((k - 1) // 2):
        hi = (k - 1) - 1 - (2 * i + 1)
        block = u[hi] + u[hi + 1]
        mapped = _PAIR_MAP[block]
        bits[hi] = mapped[0]
        bits[hi + 1] = mapped[1]
    # k even: bit k-2 is outside every block and stays equal
    return "".join(bits)


def _cross_edges(k: int) -> list[tuple[str, str]]:
    """CQ_k's cross edges (0u, 1v), one for each u of CQ_{k-1} in order."""
    return [("0" + u, "1" + _cross_partner(u, k)) for u in _all_bits(k - 1)]


def build_crossed_cube(n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """CQ_n by the recursion: CQ_1 = K_2, then two prefixed halves joined by
    the pair-related cross edges."""
    if n < 1:
        raise ParameterError(f"crossed cube needs n >= 1, got {n}")
    if 2**n > max_vertices:
        raise ParameterError(
            f"CQ_{n} requires {2**n} vertices, budget is {max_vertices}"
        )
    edges = [("0", "1")]
    for k in range(2, n + 1):
        edges = [(p + a, p + b) for p in "01" for a, b in edges] + _cross_edges(k)
    verts = _all_bits(n)
    index = {v: i for i, v in enumerate(verts)}
    return Graph(verts, [(index[a], index[b]) for a, b in edges])


def bn_label(a: str, b: str) -> str:
    """BCDC vertex label for the CQ edge {a, b}, smaller endpoint first."""
    return f"{a}|{b}" if a < b else f"{b}|{a}"


def parse_bn_label(label: str) -> tuple[str, str]:
    a, _, b = label.partition("|")
    if not b:
        raise ParameterError(f"not a BCDC vertex label: {label!r}")
    _check_bits(a)
    _check_bits(b, len(a))
    return a, b


def build_bcdc(n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """B_n per the recursive definition.

    B_1 is the single vertex [0,1], the one edge of CQ_1. B_n consists of
    the 0- and 1-prefixed copies of B_{n-1} plus the independent set S_n of
    CQ_n cross edges, a cross vertex [c,d] joining every copy vertex that
    contains c (0 side) or d (1 side); so B_2 is the 4-cycle on
    [00,01],[00,10],[01,11],[10,11].
    """
    if n < 2:
        raise ParameterError(f"BCDC needs n >= 2, got {n}")
    if n * 2 ** (n - 1) > max_vertices:
        raise ParameterError(
            f"B_{n} requires {n * 2 ** (n - 1)} vertices, budget is {max_vertices}"
        )
    verts: list[tuple[str, str]] = [("0", "1")]
    edges: list[tuple[tuple[str, str], tuple[str, str]]] = []
    for k in range(2, n + 1):
        halves = [(x + a, x + b) for x in "01" for a, b in verts]
        cross = _cross_edges(k)
        new_edges = [((x + a, x + b), (x + c, x + d)) for x in "01" for (a, b), (c, d) in edges]
        incident: dict[str, list[tuple[str, str]]] = {}  # CQ vertex -> copy vertices at it
        for p in halves:
            for end in p:
                incident.setdefault(end, []).append(p)
        for c, d in cross:
            new_edges += [((c, d), p) for p in incident[c] + incident[d]]
        verts = halves + cross
        edges = new_edges

    labels = sorted(bn_label(a, b) for a, b in verts)
    index = {lab: i for i, lab in enumerate(labels)}
    id_edges = [
        (index[bn_label(*p)], index[bn_label(*q)]) for p, q in edges
    ]
    return Graph(labels, id_edges)


def _all_bits(k: int) -> list[str]:
    return [format(i, f"0{k}b") for i in range(2**k)]


def cq_neighbors(u: str) -> list[str]:
    """N(u) in CQ_n via the dimension rule, ascending dimension order."""
    n = _check_bits(u)
    return [dim_neighbor(u, d) for d in range(n)]


def bn_vertex_neighbors(u: str) -> list[str]:
    """N_{B_n}([a,b]) from the definition alone: edges at a plus edges at b."""
    a, b = parse_bn_label(u)
    out = [bn_label(a, x) for x in cq_neighbors(a) if x != b]
    out += [bn_label(b, y) for y in cq_neighbors(b) if y != a]
    return sorted(out)
