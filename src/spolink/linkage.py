"""Block-generating moves on integral weights and the graphs they span.

Three move families, all anchored at the standard flag: subtracting an odd
isotropic positive root whose shifted pairing is divisible by p, walking down
an odd non-isotropic root by the gap between a thickened head weight and one
of its other constituents, and affine reflections across even positive roots
in p^r-scaled walls.  Components of the resulting graph are block candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from math import gcd, inf, prod
from operator import itemgetter, mul
from typing import NamedTuple

from .frobenius import comp_factors_r
from .rootdata import GroupShape, phi_plus, rho_parts, standard_flag

ISO_ODD = "iso_odd"
NONISO_ODD = "noniso_odd"
EVEN_MOVE = "even"

Weight = tuple[int, ...]
Box = list[tuple[int, int]]  # inclusive (lo, hi) per coordinate

MAX_EDGES = 1_000_000  # edges grow quadratically in the box width


class TooManyEdges(ValueError):
    """A box whose graph would pass MAX_EDGES edges."""


class LinkageMove(NamedTuple):
    """One move.  Being a tuple, a move equals the plain tuple of its fields."""

    kind: str
    alpha: Weight
    source: Weight
    target: Weight
    r: int


class RootTable(NamedTuple):
    """The standard flag's positive roots, each family sorted, as immutable
    records of the constants build_graph's moves read; lam.folded is the
    pairing (lam, alpha)."""

    iso: tuple[tuple[Weight, Weight, int], ...]  # odd isotropic: (alpha, folded, 2 rho.folded)
    noniso: tuple[tuple[Weight, Weight, int], ...]  # the same, odd non-isotropic (odd type only)
    even: tuple[tuple[Weight, int, int], ...]  # (alpha, alpha.alpha, 2 rho.alpha)


def root_table(shape: GroupShape) -> RootTable:
    """The root records against the standard flag's 2 rho; build_graph makes one per graph."""
    flag = standard_flag(shape)
    rho2 = rho_parts(flag, shape)[2]
    families = {("odd", True): [], ("odd", False): [], ("even", None): []}
    for root in sorted(phi_plus(flag, shape), key=lambda root: root.vec):
        alpha = root.vec
        if root.parity == "odd":
            folded = tuple(a if t < shape.n else -a for t, a in enumerate(alpha))
            record = alpha, folded, sum(map(mul, rho2, folded))
        else:
            record = alpha, sum(a * a for a in alpha), sum(map(mul, rho2, alpha))
        families[root.parity, root.isotropic].append(record)
    return RootTable(*map(tuple, families.values()))


_move = partial(tuple.__new__, LinkageMove)  # LinkageMove._make without its length check


def _odd_plan(records: tuple, box: Box, strides: list[int]) -> tuple:
    """Each odd root's record, its id offset off and its nonzero coordinates (i, alpha_i, lo, hi):
    lam - k alpha has id i0 - k off and is in the box iff lo <= lam_i - k alpha_i <= hi at each."""
    return tuple((alpha, folded, c, sum(map(mul, alpha, strides)),
                  tuple((i, a, lo, hi) for i, (a, (lo, hi)) in enumerate(zip(alpha, box)) if a))
                 for alpha, folded, c in records)


def _iso_odd(lam: Weight, i0: int, plan: tuple, r: int, p: int, nodes: tuple, out: list) -> None:
    for alpha, folded, c, off, moving in plan:
        val = 2 * sum(map(mul, lam, folded)) + c  # 2 (lam + rho, alpha)
        assert val % 2 == 0, (lam, alpha)
        if val // 2 % p == 0:
            for i, a, lo, hi in moving:
                if not lo <= lam[i] - a <= hi:
                    break
            else:
                out.append(_move((ISO_ODD, alpha, lam, nodes[i0 - off], r)))


def _noniso_odd(lam: Weight, i0: int, plan: tuple, r: int, p: int, nodes, steps, out) -> None:
    for alpha, folded, c, off, moving in plan:
        val = 2 * sum(map(mul, lam, folded)) + c - 1
        assert val % 2 == 0, (lam, alpha)
        l = val // 2 % p**r
        ks = steps.get((l, r))
        if ks is None:
            ks = steps[l, r] = [l - lp for lp in sorted(comp_factors_r(l, r, p)) if lp != l]
        for k in ks:
            for i, a, lo, hi in moving:
                if not lo <= lam[i] - k * a <= hi:
                    break
            else:
                out.append(_move((NONISO_ODD, alpha, lam, nodes[i0 - k * off], r)))


def _even_plan(table: RootTable, q: int, box: Box, strides: list[int]) -> list[tuple]:
    """Each even root's wall constants at q = p^r: alpha, c = 2 rho.alpha, d = alpha.alpha,
    g = gcd(alpha), q d, q g, the id offsets of alpha / g and of q alpha, the nonzero
    coordinates (i, alpha_i / g, q alpha_i, near edge, far edge; edges ordered by sign).
    A zero coordinate needs no test: nodes are in the box, and the move keeps it."""
    plan = []
    for alpha, d, c in table.even:
        g = gcd(*alpha)
        off = sum(map(mul, alpha, strides))
        moving = [(i, a // g, q * a) + ((lo, hi) if a > 0 else (hi, lo))
                  for i, (a, (lo, hi)) in enumerate(zip(alpha, box)) if a]
        plan.append((alpha, c, d, g, q * d, q * g, off // g, q * off, moving))
    return plan


def _even(lam: Weight, i0: int, plan: list[tuple], r: int, nodes: tuple, out: list) -> None:
    for alpha, c, d, g, qd, qg, off_g, qoff, moving in plan:
        v = 2 * sum(map(mul, lam, alpha)) + c
        # integral at every wall or none; 2 rho's parities are equal within a
        # block.  d divides v alpha_i for every i iff it divides v gcd(alpha).
        assert v * g % d == 0, (lam, alpha)
        s = v * g // d  # v alpha_i / d = s alpha_i / g
        w_lo, w_hi = -inf, (v - 1) // qd
        for i, a, qa, near, far in moving:
            b = lam[i] - s * a
            first, last = -((b - near) // qa), (far - b) // qa
            w_lo, w_hi = first if first > w_lo else w_lo, last if last < w_hi else w_hi
        if w_lo <= w_hi:  # wall w_lo's target is lam + (w_lo q g - s) alpha / g
            t0 = i0 + (w_lo * qg - s) * off_g
            for t in range(t0, t0 + (w_hi - w_lo + 1) * qoff, qoff):
                out.append(_move((EVEN_MOVE, alpha, lam, nodes[t], r)))


@dataclass(frozen=True, slots=True)
class LinkageGraph:
    nodes: tuple[Weight, ...]
    edges: tuple[LinkageMove, ...]


def build_graph(box: Box, shape: GroupShape, r_set: set[int], p: int) -> LinkageGraph:
    """Every move from each integral weight lam in the box whose target also
    lies in the box; the one producer of LinkageMoves.  Per r in r_set, q = p^r:

    - iso_odd: lam -> lam - alpha for each odd isotropic alpha with p | (lam + rho, alpha).
    - noniso_odd (odd type): with l = (lam + rho, alpha) - 1/2 mod q, step down by
      l - l' for each thickened constituent l' != l of the head-l module, in order
      of l'; the steps are memoised per (l, r) for this graph.
    - even: lam -> lam - ((lam + rho, alpha^vee) - w q) alpha at every wall w with a
      positive step, alpha^vee normalised by the positive-definite form, rho the supersymmetric
      one (which keeps rank-one components inside the block classes).  The box
      edges bound w, so the kept walls are one range, planned per root once per r.

    Enumerating from every node also covers the reversed residue convention of
    the noniso moves.  A node's id, its position in nodes, is mixed radix with coordinate
    0 the most significant; a move by k alpha adds k off(alpha) = k sum alpha_i stride_i,
    so every edge reads its target from nodes.  Raises TooManyEdges past MAX_EDGES."""
    if len(box) != shape.rank:
        raise ValueError(f"box rank {len(box)} != shape rank {shape.rank}")
    nodes = tuple(product(*[range(lo, hi + 1) for lo, hi in box]))
    strides = [prod(hi - lo + 1 for lo, hi in box[i + 1:]) for i in range(len(box))]
    table = root_table(shape)
    iso, noniso = _odd_plan(table.iso, box, strides), _odd_plan(table.noniso, box, strides)
    plans = [(r, _even_plan(table, p**r, box, strides)) for r in sorted(r_set)]
    edges, steps = [], {}
    for i0, lam in enumerate(nodes):
        for r, plan in plans:
            _iso_odd(lam, i0, iso, r, p, nodes, edges)
            _noniso_odd(lam, i0, noniso, r, p, nodes, steps, edges)
            _even(lam, i0, plan, r, nodes, edges)
        if len(edges) > MAX_EDGES:
            raise TooManyEdges(f"more than MAX_EDGES = {MAX_EDGES:,} linkage edges")
    return LinkageGraph(nodes, tuple(edges))


def connected_components(nodes, pairs) -> list[list]:
    """Connected components of the undirected graph on nodes whose edges are
    the given (a, b) pairs, each component sorted, listed by smallest member.
    Union-find on the nodes' positions, with path halving."""
    index = {x: i for i, x in enumerate(nodes)}
    parent = list(range(len(index)))
    for a, b in pairs:
        a, b = index[a], index[b]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    groups: dict = {}
    for x, i in index.items():
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        groups.setdefault(i, []).append(x)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def components(graph: LinkageGraph) -> list[list[Weight]]:
    """Connected components under the symmetrised move relation, each sorted,
    listed by smallest member."""
    return connected_components(graph.nodes, map(itemgetter(2, 3), graph.edges))
