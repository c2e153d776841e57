"""DCell topology D(m,n): mixed-radix labels, recursion sizes, generation.

A server label is the digit string x_m...x_1x_0 rendered "x_m.…​.x_0" with
decimal digits joined by dots (digits exceed 9 from level 1 up). The copy
index of a vertex is its leading digit; generation iterates label tuples
directly instead of copying subgraphs, so labels are globally canonical and
vertex order is the lexicographic digit-tuple order.
"""

from __future__ import annotations

from itertools import product

from .errors import ParameterError
from .graph import DEFAULT_MAX_VERTICES, Graph

# t_{m,n} doubles its digit count per level; reject beyond this rather than
# grinding on astronomically large integers.
_MAX_T_BITS = 1_000_000


def _check_params(m: int, n: int) -> None:
    if m < 0:
        raise ParameterError(f"level m must be >= 0, got {m}")
    if n < 2:
        raise ParameterError(f"port count n must be >= 2, got {n}")


def t_size(m: int, n: int) -> int:
    """Number of servers t_{m,n}: t_0 = n, t_i = t_{i-1} * (t_{i-1} + 1)."""
    return t_table(m, n)[-1]


def t_table(m: int, n: int) -> list[int]:
    """[t_0, ..., t_m]."""
    _check_params(m, n)
    out = [n]
    for level in range(1, m + 1):
        out.append(out[-1] * (out[-1] + 1))
        if out[-1].bit_length() > _MAX_T_BITS:
            raise ParameterError(
                f"t_size overflow at level {level}: value exceeds {_MAX_T_BITS} bits"
            )
    return out


def label_str(digits: tuple[int, ...]) -> str:
    return ".".join(str(d) for d in digits)


def _rank(sub: tuple[int, ...], tt: list[int]) -> int:
    """Rank of the sub-label (x_{l-1}..x_0) inside its D(l-1,n) copy."""
    r = sub[-1]
    level = len(sub) - 1
    for d in sub[:-1]:
        r += d * tt[level - 1]
        level -= 1
    return r


def _unrank(r: int, length: int, tt: list[int]) -> tuple[int, ...]:
    digits = []
    for level in range(length - 1, 0, -1):
        digits.append(r // tt[level - 1])
        r %= tt[level - 1]
    digits.append(r)
    return tuple(digits)


def build_dcell(m: int, n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """D(m,n) per the recursive definition: level 0 is K_n; level l joins
    t_{l-1}+1 copies with exactly one edge per copy pair."""
    tt = t_table(m, n)
    if tt[m] > max_vertices:
        raise ParameterError(
            f"D({m},{n}) requires {tt[m]} vertices, budget is {max_vertices}"
        )
    ranges = [range(tt[level - 1] + 1) if level > 0 else range(n) for level in range(m, -1, -1)]
    verts = list(product(*ranges))
    index = {v: i for i, v in enumerate(verts)}
    id_edges: list[tuple[int, int]] = []

    # level-0 cliques: same digits above x_0
    prefix_ranges = ranges[:-1]
    for prefix in product(*prefix_ranges):
        for a in range(n):
            ia = index[prefix + (a,)]
            for b in range(a + 1, n):
                id_edges.append((ia, index[prefix + (b,)]))

    # level l >= 1: one edge between copies a < b inside each D(l,n)
    for level in range(1, m + 1):
        above = ranges[: m - level]
        copy_count = tt[level - 1] + 1
        for prefix in product(*above):
            for b in range(1, copy_count):
                u_sub = _unrank(b - 1, level, tt)
                for a in range(b):
                    v_sub = _unrank(a, level, tt)
                    u = prefix + (a,) + u_sub
                    v = prefix + (b,) + v_sub
                    id_edges.append((index[u], index[v]))

    return Graph([label_str(v) for v in verts], id_edges)


def _partner(digits: tuple[int, ...], level: int, tt: list[int]) -> tuple[int, ...]:
    """The level-`level` neighbour of the vertex whose label inside its
    D(level,n) is `digits` = (a, x_{level-1}, ..., x_0): copies a and b of a
    D(level,n) are joined by one edge, between sub-labels of ranks b-1 in copy
    a and a in copy b (a < b)."""
    a = digits[0]
    r = _rank(digits[1:], tt)
    if r >= a:
        return (r + 1,) + _unrank(a, level, tt)
    return (r,) + _unrank(a - 1, level, tt)


def dcell_neighbors(digits: tuple[int, ...], m: int, n: int) -> list[tuple[int, ...]]:
    """All m+n-1 neighbors of a vertex, computed from the definition alone."""
    tt = t_table(m, n)
    out: list[tuple[int, ...]] = []
    prefix, x0 = digits[:-1], digits[-1]
    for c in range(n):
        if c != x0:
            out.append(prefix + (c,))
    for level in range(1, m + 1):
        out.append(digits[: m - level] + _partner(digits[m - level :], level, tt))
    return sorted(out)
