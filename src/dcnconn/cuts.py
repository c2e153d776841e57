"""Explicit structure cuts, closed-form predicted values, cut verification.

Each theorem's hypotheses are checked by one domain helper. `_branch`, the one
family x kind x mode dispatch, runs it for both `predicted_kappa` and
`structure_cut_for`, the one public constructor. Values and members are still
computed apart.

The private builders return the members of a cut around the fixed base vertex
the underlying argument uses: the all-zeros label for DCell, [0...0, 10...0]
for B_n. They run after `_branch`, so they check no domain, and only
`structure_cut_for` names the cut's shape and mode.
Free leaf/filler choices are resolved deterministically by `_first_free`: the
first candidates, in order, that the same member has not used and that are
not the base vertex. The B_n builders sort candidates by label, the DCell
ones take them in `dcell_neighbors`' digit-tuple order. Members may share
vertices; `verify_cut` removes their union.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bcdc as bc
from . import dcell as dc
from .errors import ParameterError
from .graph import Graph, component_masks
from .shapes import (
    MODES,
    STRUCTURE,
    SUBSTRUCTURE,
    ShapeSpec,
    StructureCut,
    is_shape,
)


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def predicted_kappa(family: str, params: dict[str, int], shape: ShapeSpec, mode: str) -> int:
    """Predicted structure/substructure connectivity for a family instance."""
    branch = _branch(family, params, shape, mode)
    n, size = params["n"], shape.size
    if branch == "dcell-star":
        return _ceil(n - 1, 1 + size) + params["m"]
    if branch == "dcell-clique":
        return _ceil(n - 1, size) + params["m"]
    if branch == "bcdc-star":
        if size == 1:
            return n - 1 if n % 2 == 1 else n
        if size <= n - 3 and (n - 1) % (1 + size) == 1:
            return (2 * n - 4) // (1 + size) + 1
        return 2 * _ceil(n - 1, 1 + size)
    if branch == "bcdc-path":  # paths and substructure cycles
        if size <= n - 1 and (n - 1) % size == 0:
            return (2 * n - 2) // size
        return _ceil(2 * n - 1, size)
    r = (n - 1) % size
    if size == 2 * n or (6 <= size <= n - 1 and 1 <= r <= size // 2 - 1):
        return 2 * _ceil(n - 1, size) - 1
    if size == n:
        return 3
    return 2 * _ceil(n - 1, size)


# ---------------------------------------------------------------------------
# Domains: the parameters each theorem covers, and the one dispatch


def _dcell_star_domain(m: int, n: int, t: int) -> None:
    dc._check_params(m, n)
    if t == m + n - 1:
        raise ParameterError(
            f"t={t} equals m+n-1: the lower bound covers it but neither the formula "
            f"nor a matching construction is established; use t <= m+n-2"
        )
    if not 1 <= t <= m + n - 2:
        raise ParameterError(f"star leaf count must satisfy 1 <= t <= m+n-2={m + n - 2}")


def _dcell_clique_domain(m: int, n: int, s: int) -> None:
    dc._check_params(m, n)
    if not 3 <= s <= n - 1:
        raise ParameterError(f"clique size must satisfy 3 <= s <= n-1={n - 1}")


def _bcdc_star_domain(n: int, t: int) -> None:
    """Stars K_{1,t} in B_n, the single edge t = 1 included."""
    if n < 4:
        raise ParameterError(f"star cuts need n >= 4, got n={n}")
    if not 1 <= t <= 2 * n - 3:
        raise ParameterError(f"star leaf count must satisfy 1 <= t <= 2n-3={2 * n - 3}")


def _bcdc_path_domain(n: int, k: int) -> None:
    """Paths P_k in B_n, and substructure cycles C_k, whose cut is the path cut."""
    if n < 4:
        raise ParameterError(f"path-family cuts need n >= 4, got n={n}")
    if not 4 <= k <= 2 * n - 1:
        raise ParameterError(f"length must satisfy 4 <= k <= 2n-1={2 * n - 1}")


def _bcdc_cycle_domain(n: int, k: int) -> None:
    """Structure cycles C_k in B_n."""
    if n < 5:
        raise ParameterError(f"cycle cuts need n >= 5, got n={n}")
    if not 6 <= k <= 2 * n:
        msg = f"cycle length must satisfy 6 <= k <= 2n={2 * n}"
        if 3 <= k <= 5:
            msg += f"; no known construction for cycle length k={k}"
        if (n, k) == (5, 5):
            # The k=n branch does not extend below k=6 (it would give 3).
            msg += ("; for n=5 the value is 4, certified by exhaustive search: no "
                    "three 5-cycles cut B_5 (all 205,321,768 subsets of its 1072 copies "
                    "checked) and a 4-member cut exists, so the minimum is 4")
        raise ParameterError(msg)


def _branch(family: str, params: dict[str, int], shape: ShapeSpec, mode: str) -> str:
    """The branch of the theorem covering a request, after its domain check;
    ParameterError for a request no theorem covers. Substructure cycles take
    the path branch: their value and cut are the path's."""
    if mode not in MODES:
        raise ParameterError(f"unknown mode: {mode!r}")
    kind, size = shape.kind, shape.size
    if family == "dcell":
        m, n = params["m"], params["n"]
        if kind == "star":
            _dcell_star_domain(m, n, size)
            return "dcell-star"
        if kind == "clique":
            if mode != STRUCTURE:
                raise ParameterError("no substructure formula or construction for DCell cliques")
            _dcell_clique_domain(m, n, size)
            return "dcell-clique"
        raise ParameterError(f"no DCell formula or construction for shape {shape.tag}")
    if family == "bcdc":
        n = params["n"]
        if kind == "star":
            _bcdc_star_domain(n, size)
            return "bcdc-star"
        if kind == "path" or (kind == "cycle" and mode == SUBSTRUCTURE):
            _bcdc_path_domain(n, size)
            return "bcdc-path"
        if kind == "cycle":
            _bcdc_cycle_domain(n, size)
            return "bcdc-cycle"
        raise ParameterError(f"no BCDC formula or construction for shape {shape.tag}")
    raise ParameterError(f"unknown family: {family!r}")


def _first_free(candidates: list[str], count: int, taken: set[str]) -> list[str]:
    """The first `count` candidates not in `taken`, in candidate order."""
    free = [lab for lab in candidates if lab not in taken][:count]
    if len(free) < count:
        raise ParameterError(f"only {len(free)} of {count} free vertices available")
    return free


# ---------------------------------------------------------------------------
# DCell cuts


def _dc_value_label(m: int, value: int) -> str:
    """Label 0...0<value>: all digits zero except x_0."""
    return dc.label_str((0,) * m + (value,))


def _dc_neighbor_labels(digits: tuple[int, ...], m: int, n: int) -> list[str]:
    return [dc.label_str(cand) for cand in dc.dcell_neighbors(digits, m, n)]


def _star_cut_dcell(m: int, n: int, t: int) -> tuple[tuple[str, ...], ...]:
    """Star cut of D(m,n) isolating the all-zeros vertex.

    ceil((n-1)/(1+t)) stars cover the level-0 clique neighbors, one star per
    weight-one neighbor covers the m outside links.
    """
    u_digits = (0,) * (m + 1)
    u_label = dc.label_str(u_digits)
    members: list[tuple[str, ...]] = []

    q, r = divmod(n - 1, t + 1)
    for i in range(1, q + 1):
        c = (i - 1) * (t + 1) + 1
        vertices = [_dc_value_label(m, c)] + [_dc_value_label(m, c + k) for k in range(1, t + 1)]
        members.append(tuple(vertices))
    if r:
        center_digits = (0,) * m + (n - 1,)
        center = dc.label_str(center_digits)
        leaves = [_dc_value_label(m, k) for k in range(max(1, n - t - 1), n - 1)]
        # for t > n-2, top up with the center's first non-clique neighbors
        taken = set(leaves) | {u_label, center}
        leaves += _first_free(_dc_neighbor_labels(center_digits, m, n), t - len(leaves), taken)
        members.append((center, *leaves))

    for j in range(1, m + 1):
        center_digits = tuple(1 if pos == m - j else 0 for pos in range(m + 1))
        leaves = _first_free(_dc_neighbor_labels(center_digits, m, n), t, {u_label})
        members.append((dc.label_str(center_digits), *leaves))
    return tuple(members)


def _clique_cut_dcell(m: int, n: int, s: int) -> tuple[tuple[str, ...], ...]:
    """Clique cut of D(m,n) isolating the all-zeros vertex."""
    members: list[tuple[str, ...]] = []
    q, r = divmod(n - 1, s)
    for i in range(1, q + 1):
        members.append(tuple(_dc_value_label(m, (i - 1) * s + 1 + k) for k in range(s)))
    if r:
        members.append(tuple(_dc_value_label(m, k) for k in range(n - s, n)))
    for j in range(1, m + 1):
        vertices = []
        for k in range(s):
            digits = [0] * (m + 1)
            digits[m - j] = 1
            digits[m] = k
            vertices.append(dc.label_str(tuple(digits)))
        members.append(tuple(vertices))
    return tuple(members)


# ---------------------------------------------------------------------------
# BCDC cuts


def _base_vw(n: int) -> tuple[str, str]:
    return "0" * n, "1" + "0" * (n - 1)


class _BnCutHelper:
    """Label arithmetic around the base vertex u = [0...0, 10...0]."""

    def __init__(self, n: int):
        self.n = n
        self.v, self.w = _base_vw(n)
        self.u = bc.bn_label(self.v, self.w)

    def vv(self, i: int) -> str:
        return bc.bn_label(self.v, bc.dim_neighbor(self.v, i))

    def ww(self, i: int) -> str:
        return bc.bn_label(self.w, bc.dim_neighbor(self.w, i))

    def bridge(self, i: int) -> str:
        """[v^i, w^i]; a B_n vertex for odd i and for i = n-2 when n is even."""
        return bc.bn_label(bc.dim_neighbor(self.v, i), bc.dim_neighbor(self.w, i))

    def second(self, x: str, i: int, j: int) -> str:
        """[x^i, x^{i,j}]."""
        xi = bc.dim_neighbor(x, i)
        return bc.bn_label(xi, bc.dim_neighbor(xi, j))

    def fillers(self, pool: list[str], count: int, used: set[str]) -> list[str]:
        """The first free pool vertices by label."""
        return _first_free(sorted(pool), count, used | {self.u})


def _k11_cut_bcdc(n: int) -> tuple[tuple[str, ...], ...]:
    """Single-edge cut of B_n isolating the base vertex (n-1 or n members)."""
    h = _BnCutHelper(n)
    v_members: list[tuple[str, ...]] = []
    w_members: list[tuple[str, ...]] = []
    full = (n - 2) // 2
    for j in range(full):
        v_members.append((h.vv(2 * j), h.vv(2 * j + 1)))
        w_members.append((h.ww(2 * j), h.ww(2 * j + 1)))
    if n % 2 == 1:
        v_members.append((h.vv(n - 3), h.vv(n - 2)))
        w_members.append((h.ww(n - 3), h.ww(n - 2)))
    else:
        v_members.append((h.vv(n - 2), h.second(h.v, n - 2, n - 1)))
        w_members.append((h.ww(n - 2), h.second(h.w, n - 2, n - 1)))
    return tuple(v_members + w_members)


def _star_cut_bcdc(n: int, t: int) -> tuple[tuple[str, ...], ...]:
    """Star cut of B_n isolating the base vertex, for 2 <= t <= 2n-3."""
    h = _BnCutHelper(n)
    members: list[tuple[str, ...]] = []

    if t >= n - 2:
        # two big stars centered on [v,v^0] and [w,w^0]
        for center, own in ((h.vv(0), h.vv), (h.ww(0), h.ww)):
            leaves = [own(i) for i in range(1, n - 1)]
            used = set(leaves) | {center}
            leaves += h.fillers(
                bc.bn_vertex_neighbors(center), t - (n - 2), used
            )
            members.append((center, *leaves))
        return tuple(members)

    q, r = divmod(n - 1, t + 1)
    for own in (h.vv, h.ww):
        for i in range(1, q + 1):
            base = (i - 1) * (t + 1)
            members.append(tuple(own(base + k) for k in range(t + 1)))
    if r == 1:
        center = h.bridge(n - 2)
        leaves = [h.vv(n - 2), h.ww(n - 2)]
        used = set(leaves) | {center}
        leaves += h.fillers(bc.bn_vertex_neighbors(center), t - 2, used)
        members.append((center, *leaves))
    elif r >= 2:
        for own in (h.vv, h.ww):
            center = own(n - 2)
            leaves = [own(i) for i in range(n - r - 1, n - 2)]
            used = set(leaves) | {center} | {own(i) for i in range(n - 2)}
            leaves += h.fillers(
                bc.bn_vertex_neighbors(center), t - r + 1, used
            )
            members.append((center, *leaves))
    return tuple(members)


def _path_cut_bcdc(n: int, k: int) -> tuple[tuple[str, ...], ...]:
    """Path cut of B_n isolating the base vertex, for 4 <= k <= 2n-1."""
    h = _BnCutHelper(n)
    pv = [h.vv(i) for i in range(n - 1)]
    pw = [h.ww(i) for i in range(n - 1)]

    if k == 2 * n - 1:
        return (tuple(pv + [h.bridge(n - 2)] + list(reversed(pw))),)

    if k >= n:
        members = []
        for base, own_list in ((h.v, pv), (h.w, pw)):
            x = bc.dim_neighbor(base, n - 2)
            tail = [bc.bn_label(x, bc.dim_neighbor(x, i)) for i in range(n - 2)]
            tail.append(bc.bn_label(x, bc.dim_neighbor(x, n - 1)))
            ext = own_list + tail
            members.append(tuple(ext[:k]))
        return tuple(members)

    if (n - 1) % k == 0:
        members = []
        for own_list in (pv, pw):
            for j in range((n - 1) // k):
                members.append(tuple(own_list[j * k : (j + 1) * k]))
        return tuple(members)

    # k does not divide n-1: blocks along the length-(3n-2) path
    y = bc.dim_neighbor(h.w, 0)
    tail = [bc.bn_label(y, bc.dim_neighbor(y, n - 1))]
    tail += [bc.bn_label(y, bc.dim_neighbor(y, i)) for i in range(1, n - 1)]
    p3 = pv + [h.bridge(n - 2)] + list(reversed(pw)) + tail
    return tuple(tuple(p3[j * k : (j + 1) * k]) for j in range(_ceil(2 * n - 1, k)))


def _cycle_cut_bcdc(n: int, k: int) -> tuple[tuple[str, ...], ...]:
    """Cycle cut of B_n isolating the base vertex, for 6 <= k <= 2n."""
    h = _BnCutHelper(n)
    cpv = [h.vv(1), h.vv(0)] + [h.vv(i) for i in range(2, n - 1)]
    cpw = [h.ww(1), h.ww(0)] + [h.ww(i) for i in range(2, n - 1)]

    if k == 2 * n:
        return (tuple([h.bridge(1)] + cpv + [h.bridge(n - 2)] + list(reversed(cpw))),)

    if n + 1 <= k <= 2 * n - 1:
        members = []
        for base, own_list in ((h.v, cpv), (h.w, cpw)):
            x1 = bc.dim_neighbor(base, 1)
            detour = bc.dim_neighbor(bc.dim_neighbor(base, n - 2), 1)
            cyc = own_list + [h.second(base, n - 2, 1), bc.bn_label(detour, x1)]
            pool = [
                bc.bn_label(x1, bc.dim_neighbor(x1, i))
                for i in [0, n - 1] + list(range(2, n - 2))
            ]
            cyc += h.fillers(pool, k - n - 1, set(cyc))
            members.append(tuple(cyc))
        return tuple(members)

    if k == n:
        members = []
        for base, own_list in ((h.v, cpv), (h.w, cpw)):
            x1 = bc.dim_neighbor(base, 1)
            x3 = bc.dim_neighbor(base, n - 3)
            cyc = own_list[:-1] + [
                bc.bn_label(x3, bc.dim_neighbor(x3, 1)),
                bc.bn_label(bc.dim_neighbor(x3, 1), x1),
            ]
            members.append(tuple(cyc))
        c3 = [h.vv(n - 2), h.bridge(n - 2), h.ww(n - 2), h.ww(1), h.bridge(1), h.vv(1)]
        pool = [h.vv(i) for i in range(2, n - 1)]
        c3 += h.fillers(pool, k - 6, set(c3))
        members.append(tuple(c3))
        return tuple(members)

    # 6 <= k <= n-1 (so n >= 7): dimension blocks plus remainder members
    q, r = divmod(n - 1, k)
    members = []
    for own in (h.vv, h.ww):
        for i in range(1, q + 1):
            members.append(tuple(own((i - 1) * k + j) for j in range(k)))
    if r == 0:
        return tuple(members)

    run = list(range(n - r - 1, n - 1))  # uncovered dimensions, both sides
    if 1 <= r <= k // 2 - 1:
        members.append(_mixed_cycle_member(h, k, r, run))
        return tuple(members)

    if r >= k - 2:
        # clique cycles: uncovered run plus k-r low-dimension overlap vertices
        pads = [d for d in range(n - 1) if d not in run][: k - r]
        for own in (h.vv, h.ww):
            members.append(tuple(own(d) for d in pads + run))
        return tuple(members)

    # floor(k/2) <= r <= k-3: per-side cycles through [x^{n-2}, x^{n-2,1}]
    pools = {h.v: list(range(0, n - 2)), h.w: list(range(1, n - 2))}
    for base, own in ((h.v, h.vv), (h.w, h.ww)):
        x = bc.dim_neighbor(base, n - 2)
        cyc = [own(1)] + [own(d) for d in run]
        pool = [bc.bn_label(x, bc.dim_neighbor(x, i)) for i in pools[base]]
        bridge_pair = [
            h.second(base, n - 2, 1),
            bc.bn_label(bc.dim_neighbor(x, 1), bc.dim_neighbor(base, 1)),
        ]
        cyc += h.fillers(pool, k - r - 3, set(cyc) | set(bridge_pair))
        cyc += bridge_pair
        members.append(tuple(cyc))
    return tuple(members)


def _mixed_cycle_member(h: _BnCutHelper, k: int, r: int, run: list[int]) -> tuple[str, ...]:
    """One cycle covering the uncovered dimension run on both sides."""
    n = h.n
    if k - 2 * r - 4 >= 0:
        cyc = [h.ww(1), h.bridge(1), h.vv(1)]
        pool = [h.vv(i) for i in range(2, n - r - 1)]
        cyc += h.fillers(pool, k - 2 * r - 4, set(cyc))
        cyc += [h.vv(d) for d in run]
        cyc += [h.bridge(n - 2)]
        cyc += [h.ww(d) for d in reversed(run)]
        return tuple(cyc)
    # tight variant: two bridges flanking the runs; needs a second bridge
    # dimension inside the run
    cands = [d for d in run[:-1] if d % 2 == 1]
    if not cands:
        raise ParameterError(
            f"no known construction for k={k} with remainder r={r}: the standard "
            f"pattern needs {2 * r + 4} vertices and no second bridge dimension exists"
        )
    i_star = cands[0]
    others_v = [d for d in run if d != i_star and d != n - 2]
    slack = k - (2 * r + 2)
    pads = [d for d in range(n - 1) if d not in run][:slack]
    cyc = [h.vv(i_star)] + [h.vv(d) for d in others_v] + [h.vv(n - 2), h.bridge(n - 2)]
    cyc += [h.ww(n - 2)] + [h.ww(d) for d in reversed(others_v)]
    cyc += [h.ww(d) for d in pads]
    cyc += [h.ww(i_star), h.bridge(i_star)]
    return tuple(cyc)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerificationReport:
    member_count: int
    removed_vertices: int
    component_count: int
    component_sizes: tuple[int, ...]
    passed: bool


def verify_cut(g: Graph, cut: StructureCut, shape: ShapeSpec, mode: str) -> VerificationReport:
    """Check member shapes, remove the union, and report the split.

    A member is valid when the cut's shape is `shape` and the member is that
    shape in `mode`. Pass requires every member valid and the remainder
    disconnected or at most a single vertex. Shape failures fail the report,
    they raise nothing; unknown vertices and an unknown mode are a
    precondition violation and raise.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode: {mode!r}")
    for mem in cut.members:
        for lab in mem:
            if not g.has_vertex(lab):
                raise ValueError(f"member vertex {lab!r} not in graph")
    valid = []
    for mem in cut.members:
        try:
            valid.append(cut.shape == shape and is_shape(g, shape, mem, mode))
        except ValueError:
            valid.append(False)
    union = cut.vertex_union()
    alive = (1 << g.vertex_count) - 1
    for lab in union:
        alive &= ~(1 << g.id_of(lab))
    comps = component_masks(g, alive)
    passed = all(valid) and bool(valid) and (len(comps) >= 2 or alive.bit_count() <= 1)
    return VerificationReport(
        member_count=len(cut.members),
        removed_vertices=len(union),
        component_count=len(comps),
        component_sizes=tuple(sorted(c.bit_count() for c in comps)),
        passed=passed,
    )


def structure_cut_for(
    family: str, params: dict[str, int], shape: ShapeSpec, mode: str
) -> StructureCut:
    """The explicit cut for a request, of the requested shape and mode;
    ParameterError for a request no construction covers.

    A structure cut is also a substructure cut, so substructure requests
    reuse the structure construction, except for BCDC cycles, whose
    substructure cut is the path cut (paths are connected subgraphs of cycles).
    """
    branch = _branch(family, params, shape, mode)
    n, size = params["n"], shape.size
    if branch == "dcell-star":
        members = _star_cut_dcell(params["m"], n, size)
    elif branch == "dcell-clique":
        members = _clique_cut_dcell(params["m"], n, size)
    elif branch == "bcdc-star":
        members = _k11_cut_bcdc(n) if size == 1 else _star_cut_bcdc(n, size)
    elif branch == "bcdc-path":
        members = _path_cut_bcdc(n, size)
    else:
        members = _cycle_cut_bcdc(n, size)
    return StructureCut(shape, members, mode)
