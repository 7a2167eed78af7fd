"""Reference linkage moves: the per-node builder spolink.linkage replaced.

Its table holds only the symplectic rank, 2 rho and the bare positive roots
of the standard flag.  Every pairing is recomputed from 2 rho at every node
and root, every residue step by a fresh comp_factors_r call, and every
candidate even wall is kept only after a box test on its target.  The tests
replay the library's move lists and edge tuples against these, in order.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from spolink.frobenius import comp_factors_r
from spolink.linkage import (
    EVEN_MOVE,
    ISO_ODD,
    MAX_EDGES,
    NONISO_ODD,
    Box,
    LinkageMove,
    TooManyEdges,
    Weight,
)
from spolink.rootdata import GroupShape, Vec, phi_plus, rho_parts, standard_flag


class RootTable(NamedTuple):
    n: int  # symplectic rank: the supersymmetric form is + on coordinates < n
    rho2: Vec  # 2 rho, an integer vector
    iso: tuple[Weight, ...]  # odd isotropic positive roots
    noniso: tuple[Weight, ...]  # odd non-isotropic ones (none in the even type)
    even: tuple[Weight, ...]


def root_table(shape: GroupShape) -> RootTable:
    """The standard flag's 2 rho and positive roots, each family sorted."""
    flag = standard_flag(shape)
    families = {("odd", True): [], ("odd", False): [], ("even", None): []}
    for root in sorted(phi_plus(flag, shape), key=lambda root: root.vec):
        families[root.parity, root.isotropic].append(root.vec)
    rho2 = rho_parts(flag, shape)[2]
    return RootTable(shape.n, rho2, *map(tuple, families.values()))


def _form2(lam: Weight, table: RootTable, alpha: Weight) -> int:
    """2 (lam + rho, alpha) in the supersymmetric form, an integer."""
    return sum((2 * x + y) * (a if t < table.n else -a)
               for t, (x, y, a) in enumerate(zip(lam, table.rho2, alpha)))


def moves_iso_odd(lam: Weight, table: RootTable, r: int, p: int) -> list[LinkageMove]:
    """lam -> lam - alpha for each positive odd isotropic root alpha with
    p dividing (lam + rho, alpha); the pairing is always an integer there."""
    out = []
    for alpha in table.iso:
        val = _form2(lam, table, alpha)
        assert val % 2 == 0, (lam, alpha)
        if val // 2 % p == 0:
            target = tuple(a - b for a, b in zip(lam, alpha))
            out.append(LinkageMove(ISO_ODD, alpha, lam, target, r))
    return out


def moves_noniso_odd(lam: Weight, table: RootTable, r: int, p: int) -> list[LinkageMove]:
    """Moves along the odd non-isotropic roots (odd parity type only).

    For alpha the i-th such root, take l = (lam + rho, alpha) - 1/2 reduced
    mod p^r, list the thickened constituents of the head-l module, and step
    down by l - l' for every constituent weight l' other than l.
    """
    out = []
    for alpha in table.noniso:
        val = _form2(lam, table, alpha) - 1
        assert val % 2 == 0, (lam, alpha)
        l = val // 2 % p**r
        for lp in sorted(comp_factors_r(l, r, p)):
            if lp == l:
                continue
            target = tuple(a - (l - lp) * b for a, b in zip(lam, alpha))
            out.append(LinkageMove(NONISO_ODD, alpha, lam, target, r))
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
    is v / d; w ascends from the first wall whose target clears the box's near
    edges to the last with a positive step."""
    q = p**r
    out = []
    for alpha in table.even:
        v = sum((2 * x + y) * a for x, y, a in zip(lam, table.rho2, alpha))
        d = sum(a * a for a in alpha)
        # integral at every wall or none; 2 rho's parities are equal within a block
        assert not any(v * a % d for a in alpha), (lam, alpha)
        w_lo = max(
            -((d * (c - (lo if a > 0 else hi)) - v * a) // (q * d * a))
            for c, a, (lo, hi) in zip(lam, alpha, box)
            if a != 0
        )
        w_hi = (v - 1) // (q * d)
        base = tuple(c - v * a // d for c, a in zip(lam, alpha))
        for w in range(w_lo, w_hi + 1):
            target = tuple(b + w * q * a for b, a in zip(base, alpha))
            if _in_box(target, box):
                out.append(LinkageMove(EVEN_MOVE, alpha, lam, target, r))
    return out


def build_graph(box: Box, shape: GroupShape, r_set: set[int], p: int) -> tuple[tuple, tuple]:
    """The box's nodes and all moves from each of them, kept when the target
    also lies in the box.  The relation is used symmetrically: enumerating
    from every node covers the reversed residue convention for the odd
    non-isotropic moves as well.  Raises TooManyEdges past MAX_EDGES."""
    if len(box) != shape.rank:
        raise ValueError(f"box rank {len(box)} != shape rank {shape.rank}")
    nodes = tuple(product(*[range(lo, hi + 1) for lo, hi in box]))
    table = root_table(shape)
    edges = []
    for lam in nodes:
        for r in sorted(r_set):
            for mv in moves_iso_odd(lam, table, r, p) + moves_noniso_odd(lam, table, r, p):
                if _in_box(mv.target, box):
                    edges.append(mv)
            edges.extend(moves_even(lam, table, r, p, box))
        if len(edges) > MAX_EDGES:
            raise TooManyEdges(f"more than MAX_EDGES = {MAX_EDGES:,} linkage edges")
    return nodes, tuple(edges)
