"""Block-generating moves on integral weights and the graphs they span.

Three move families, all anchored at the standard flag: subtracting an odd
isotropic positive root whose shifted pairing is divisible by p, walking down
an odd non-isotropic root by the gap between a thickened head weight and one
of its other constituents, and affine reflections across even positive roots
in p^r-scaled walls.  Components of the resulting graph are block candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import inf
from operator import add, mul
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
    detail: tuple | None = None  # (l, l') for noniso_odd, wall index for even


class RootTable(NamedTuple):
    """The standard flag's positive roots, each family sorted, as records of
    the constants the moves read; lam.folded is the pairing (lam, alpha)."""

    iso: tuple[tuple[Weight, Weight, int], ...]  # odd isotropic: (alpha, folded, 2 rho.folded)
    noniso: tuple[tuple[Weight, Weight, int], ...]  # the same, odd non-isotropic (odd type only)
    even: tuple[tuple[Weight, int, int], ...]  # (alpha, alpha.alpha, 2 rho.alpha)
    steps: dict[tuple[int, int, int], list[int]]  # (l, r, p) -> l' != l; filled by moves


def root_table(shape: GroupShape) -> RootTable:
    """The root records against the standard flag's 2 rho; built once per graph."""
    flag = standard_flag(shape)
    rho2 = tuple(int(2 * c) for c in rho_parts(flag, shape)[2])
    families = {("odd", True): [], ("odd", False): [], ("even", None): []}
    for root in sorted(phi_plus(flag, shape), key=lambda root: root.vec):
        alpha = root.vec
        if root.parity == "odd":
            folded = tuple(a if t < shape.n else -a for t, a in enumerate(alpha))
            record = alpha, folded, sum(map(mul, rho2, folded))
        else:
            record = alpha, sum(a * a for a in alpha), sum(map(mul, rho2, alpha))
        families[root.parity, root.isotropic].append(record)
    return RootTable(*map(tuple, families.values()), {})


def moves_iso_odd(lam: Weight, table: RootTable, r: int, p: int) -> list[LinkageMove]:
    """lam -> lam - alpha for each positive odd isotropic root alpha with
    p dividing (lam + rho, alpha); the pairing is always an integer there."""
    out = []
    for alpha, folded, c in table.iso:
        val = 2 * sum(map(mul, lam, folded)) + c  # 2 (lam + rho, alpha)
        assert val % 2 == 0, (lam, alpha)
        if val // 2 % p == 0:
            target = tuple(a - b for a, b in zip(lam, alpha))
            out.append(LinkageMove(ISO_ODD, alpha, lam, target, r))
    return out


def moves_noniso_odd(lam: Weight, table: RootTable, r: int, p: int) -> list[LinkageMove]:
    """Moves along the odd non-isotropic roots (odd parity type only).

    For alpha the i-th such root, take l = (lam + rho, alpha) - 1/2 reduced
    mod p^r, list the thickened constituents of the head-l module, and step
    down by l - l' for every constituent weight l' other than l.  The sorted
    l' of each (l, r, p) are kept in table.steps.
    """
    out = []
    for alpha, folded, c in table.noniso:
        val = 2 * sum(map(mul, lam, folded)) + c - 1
        assert val % 2 == 0, (lam, alpha)
        l = val // 2 % p**r
        steps = table.steps.get((l, r, p))
        if steps is None:
            steps = table.steps[l, r, p] = [lp for lp in sorted(comp_factors_r(l, r, p)) if lp != l]
        for lp in steps:
            target = tuple(a - (l - lp) * b for a, b in zip(lam, alpha))
            out.append(LinkageMove(NONISO_ODD, alpha, lam, target, r, (l, lp)))
    return out


def _in_box(w: Weight, box: Box) -> bool:
    return all(lo <= c <= hi for c, (lo, hi) in zip(w, box))


def moves_even(lam: Weight, table: RootTable, r: int, p: int, box: Box) -> list[LinkageMove]:
    """Downward affine reflections lam -> lam - ((lam + rho, alpha^vee) - w p^r) alpha
    across every even positive root alpha, for every wall index w keeping the
    target inside the box.  The coroot is normalised with the positive-definite
    form; the rho shift is the supersymmetric one, which is what keeps rank-one
    components inside the block congruence classes.

    In integers: with v = 2 (lam + rho).alpha and d = alpha.alpha, the pairing
    is v / d and the target at wall w is base + w p^r alpha.  Each coordinate's
    box edges bound w linearly, so the kept walls form one range, ascending up
    to the last with a positive step."""
    q = p**r
    out = []
    for alpha, d, c in table.even:
        v = 2 * sum(map(mul, lam, alpha)) + c
        # integral at every wall or none; 2 rho's parities are equal within a block
        assert not any(v * a % d for a in alpha), (lam, alpha)
        base = tuple(x - v * a // d for x, a in zip(lam, alpha))
        w_lo, w_hi = -inf, (v - 1) // (q * d)
        for b, a, (lo, hi) in zip(base, alpha, box):
            if a:
                near, far = (lo, hi) if a > 0 else (hi, lo)
                w_lo, w_hi = max(w_lo, -((b - near) // (q * a))), min(w_hi, (far - b) // (q * a))
            elif not lo <= b <= hi:
                break  # a coordinate no wall moves lies outside the box
        else:  # alpha has a nonzero coordinate, so w_lo is an integer here
            step = tuple(q * a for a in alpha)
            target = tuple(b + w_lo * s for b, s in zip(base, step))
            for w in range(w_lo, w_hi + 1):
                out.append(LinkageMove(EVEN_MOVE, alpha, lam, target, r, (w,)))
                target = tuple(map(add, target, step))
    return out


@dataclass(frozen=True, slots=True)
class LinkageGraph:
    nodes: tuple[Weight, ...]
    edges: tuple[LinkageMove, ...]


def build_graph(box: Box, shape: GroupShape, r_set: set[int], p: int) -> LinkageGraph:
    """All moves from every integral weight in the box, kept when the target
    also lies in the box.  The relation is used symmetrically: enumerating
    from every node covers the reversed residue convention for the odd
    non-isotropic moves as well.  Raises TooManyEdges past MAX_EDGES."""
    if len(box) != shape.rank:
        raise ValueError(f"box rank {len(box)} != shape rank {shape.rank}")
    nodes = tuple(product(*[range(lo, hi + 1) for lo, hi in box]))
    table = root_table(shape)
    edges, rs = [], sorted(r_set)
    for lam in nodes:
        for r in rs:
            for mv in moves_iso_odd(lam, table, r, p) + moves_noniso_odd(lam, table, r, p):
                if _in_box(mv.target, box):
                    edges.append(mv)
            edges.extend(moves_even(lam, table, r, p, box))
        if len(edges) > MAX_EDGES:
            raise TooManyEdges(f"more than MAX_EDGES = {MAX_EDGES:,} linkage edges")
    return LinkageGraph(nodes, tuple(edges))


def connected_components(nodes, pairs) -> list[list]:
    """Connected components of the undirected graph on nodes whose edges are
    the given (a, b) pairs, by union-find; each component sorted, listed by
    smallest member."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for x in nodes:
        groups.setdefault(find(x), []).append(x)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def components(graph: LinkageGraph) -> list[list[Weight]]:
    """Connected components under the symmetrised move relation, each sorted,
    listed by smallest member."""
    return connected_components(graph.nodes, ((mv.source, mv.target) for mv in graph.edges))
