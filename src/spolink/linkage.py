"""Block-generating moves on integral weights and the graphs they span.

Three move families, all anchored at the standard flag: subtracting an odd
isotropic positive root whose shifted pairing is divisible by p, walking down
an odd non-isotropic root by the gap between a thickened head weight and one
of its other constituents, and affine reflections across even positive roots
in p^r-scaled walls.  Components of the resulting graph are block candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .frobenius import comp_factors_r
from .rootdata import (
    GroupShape,
    ODD,
    Root,
    coroot_pairing,
    doubled,
    pairing,
    phi_plus,
    rho_parts,
    standard_flag,
)

ISO_ODD = "iso_odd"
NONISO_ODD = "noniso_odd"
EVEN_MOVE = "even"

Weight = tuple[int, ...]
Box = list[tuple[int, int]]  # inclusive (lo, hi) per natural coordinate


@dataclass(frozen=True, slots=True)
class LinkageMove:
    kind: str
    alpha: Weight  # natural coordinates
    source: Weight
    target: Weight
    r: int
    detail: tuple | None = None  # (l, l') for noniso_odd, wall index for even


def _shifted(lam: Weight, shape: GroupShape):
    """lam + rho in doubled coordinates, rho of the standard flag."""
    rho = rho_parts(standard_flag(shape), shape)[2]
    return tuple(a + b for a, b in zip(doubled(lam), rho))


def _positive_roots(shape: GroupShape) -> list[Root]:
    return sorted(phi_plus(standard_flag(shape), shape), key=lambda r: r.vec)


def moves_iso_odd(lam: Weight, shape: GroupShape, r: int, p: int) -> list[LinkageMove]:
    """lam -> lam - alpha for each positive odd isotropic root alpha with
    p dividing (lam + rho, alpha); the pairing is always an integer there."""
    shifted = _shifted(lam, shape)
    out = []
    for root in _positive_roots(shape):
        if root.parity != "odd" or not root.isotropic:
            continue
        val = pairing(shifted, root.vec, shape)
        assert val.denominator == 1, (lam, root)
        if int(val) % p == 0:
            alpha = root.natural()
            target = tuple(a - b for a, b in zip(lam, alpha))
            out.append(LinkageMove(ISO_ODD, alpha, lam, target, r))
    return out


def moves_noniso_odd(lam: Weight, shape: GroupShape, r: int, p: int) -> list[LinkageMove]:
    """Moves along the odd non-isotropic roots (odd parity type only).

    For alpha the i-th such root, take l = (lam + rho, alpha) - 1/2 reduced
    mod p^r, list the thickened constituents of the head-l module, and step
    down by l - l' for every constituent weight l' other than l.
    """
    if shape.parity_type != ODD:
        return []
    shifted = _shifted(lam, shape)
    out = []
    for root in _positive_roots(shape):
        if root.parity != "odd" or root.isotropic:
            continue
        val = pairing(shifted, root.vec, shape) - Fraction(1, 2)
        assert val.denominator == 1, (lam, root)
        l = int(val) % p**r
        alpha = root.natural()
        for lp in sorted(comp_factors_r(l, r, p)):
            if lp == l:
                continue
            target = tuple(a - (l - lp) * b for a, b in zip(lam, alpha))
            out.append(LinkageMove(NONISO_ODD, alpha, lam, target, r, (l, lp)))
    return out


def _in_box(w: Weight, box: Box) -> bool:
    return all(lo <= c <= hi for c, (lo, hi) in zip(w, box))


def moves_even(lam: Weight, shape: GroupShape, r: int, p: int, box: Box) -> list[LinkageMove]:
    """Downward affine reflections lam -> lam - ((lam + rho, alpha^vee) - w p^r) alpha
    across every even positive root alpha, for every wall index w keeping the
    target inside the box.  The coroot is normalised with the positive-definite
    form; the rho shift is the supersymmetric one, which is what keeps rank-one
    components inside the block congruence classes."""
    shifted = _shifted(lam, shape)
    q = p**r
    out = []
    for root in _positive_roots(shape):
        if root.parity != "even":
            continue
        v = coroot_pairing(shifted, root.vec)
        alpha = root.natural()
        bounds = [
            Fraction(c - (box[t][0] if a > 0 else box[t][1]), a)
            for t, (c, a) in enumerate(zip(lam, alpha))
            if a != 0
        ]
        cmax = min(bounds)
        if cmax <= 0:
            continue
        w_lo = math.ceil((v - cmax) / q)
        w_hi = math.ceil(v / q) - 1  # largest w with v - w q > 0
        for w in range(w_lo, w_hi + 1):
            c = v - w * q
            target_f = [Fraction(x) - c * a for x, a in zip(lam, alpha)]
            if any(tf.denominator != 1 for tf in target_f):
                continue
            target = tuple(int(tf) for tf in target_f)
            if _in_box(target, box):
                out.append(LinkageMove(EVEN_MOVE, alpha, lam, target, r, (w,)))
    return out


@dataclass(frozen=True, slots=True)
class LinkageGraph:
    nodes: tuple[Weight, ...]
    edges: tuple[LinkageMove, ...]


def build_graph(box: Box, shape: GroupShape, r_set: set[int], p: int) -> LinkageGraph:
    """All moves from every integral weight in the box, kept when the target
    also lies in the box.  The relation is used symmetrically: enumerating
    from every node covers the reversed residue convention for the odd
    non-isotropic moves as well."""
    if len(box) != shape.rank:
        raise ValueError(f"box rank {len(box)} != shape rank {shape.rank}")
    nodes = tuple(product(*[range(lo, hi + 1) for lo, hi in box]))
    edges = []
    for lam in nodes:
        for r in sorted(r_set):
            for mv in moves_iso_odd(lam, shape, r, p) + moves_noniso_odd(lam, shape, r, p):
                if _in_box(mv.target, box):
                    edges.append(mv)
            edges.extend(moves_even(lam, shape, r, p, box))
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
