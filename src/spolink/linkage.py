"""Block-generating moves on integral weights and the graphs they span.

Three move families, all anchored at the standard flag: subtracting an odd
isotropic positive root whose shifted pairing is divisible by p, walking down
an odd non-isotropic root by the gap between a thickened head weight and one
of its other constituents, and affine reflections across even positive roots
in p^r-scaled walls.  Components of the resulting graph are block candidates.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial
from itertools import count, product
from math import gcd, prod
from operator import itemgetter, mul
from typing import NamedTuple

from .frobenius import comp_factors_r
from .padic import check_terms
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


_move = partial(tuple.__new__, LinkageMove)  # LinkageMove._make without its length check


def _column(v: Weight, box: Box, start: int) -> list[int]:
    """col[id] = start + lam.v at each node lam of the box, built in mixed radix."""
    col = [start]
    for a, (lo, hi) in zip(v, box):
        col = [c + a * x for c in col for x in range(lo, hi + 1)]
    return col


def _plans(box: Box, nodes: tuple, shape: GroupShape, r_set: set[int], p: int) -> tuple[tuple, list]:
    """The moves tuple of (kind, alpha, r) and one record per positive root of the standard
    flag, sorted by family and vector, the order of the move codes within each r: the k-th
    root has code k + j len(roots) at the j-th r of r_set ascending.  A record is (family:
    0 iso, 1 noniso, 2 even; alpha; the column of (lam + rho, alpha), less 1/2 if noniso,
    or of 2 (lam + rho).alpha if even; alpha's id offset off; its nonzero coordinates (the
    column lam_i read off the nodes, alpha_i, lo, hi); its codes).  A zero coordinate
    needs no test: nodes are in the box, and the move keeps it."""
    flag = standard_flag(shape)
    rho2 = rho_parts(flag, shape)[2]
    strides = [prod(hi - lo + 1 for lo, hi in box[i + 1:]) for i in range(len(box))]
    roots = sorted((2 if root.parity == "even" else 0 if root.isotropic else 1, root.vec)
                   for root in phi_plus(flag, shape))  # families 0 iso, 1 noniso, 2 even
    axes = [list(map(itemgetter(i), nodes)) for i in range(len(box))]
    plans = []
    for k, (family, alpha) in enumerate(roots if r_set else ()):
        if family < 2:  # 2 (lam + rho) folded = 2 col + c is even at every lam iff c is
            folded = tuple(a if t < shape.n else -a for t, a in enumerate(alpha))
            c = sum(map(mul, rho2, folded))
            assert c % 2 == family, alpha
            col = _column(folded, box, c // 2)
        else:
            col = _column(tuple(2 * a for a in alpha), box, sum(map(mul, rho2, alpha)))
        moving = [(axes[i], a, lo, hi) for i, (a, (lo, hi)) in enumerate(zip(alpha, box)) if a]
        plans.append((family, alpha, col, sum(map(mul, alpha, strides)), moving,
                      range(k, len(roots) * len(r_set), len(roots))))
    kinds = ISO_ODD, NONISO_ODD, EVEN_MOVE
    return tuple((kinds[family], alpha, r) for r in sorted(r_set) for family, alpha in roots), plans


class LinkageGraph(NamedTuple):
    """A box's nodes and its edges as id columns: source, target, and a code into moves,
    a tuple of (kind, alpha, r).  Iterating edges builds each LinkageMove from the nodes
    as it is read, anew on every pass."""

    nodes: tuple[Weight, ...]
    src: array
    dst: array
    code: array
    moves: tuple[tuple[str, Weight, int], ...]

    @property
    def edges(self):
        nodes, moves = self.nodes, self.moves
        for s, t, c in zip(self.src, self.dst, self.code):
            kind, alpha, r = moves[c]
            yield _move((kind, alpha, nodes[s], nodes[t], r))


def build_graph(box: Box, shape: GroupShape, r_set: set[int], p: int) -> LinkageGraph:
    """Every move from each integral weight lam in the box whose target also
    lies in the box; the one producer of LinkageMoves.  Per r in r_set, q = p^r:

    - iso_odd: lam -> lam - alpha for each odd isotropic alpha with p | (lam + rho, alpha).
    - noniso_odd (odd type): with l = (lam + rho, alpha) - 1/2 mod q, step down by
      l - l' for each thickened constituent l' != l of the head-l module, in order
      of l'; the steps are memoised per (l, r) for this graph, and every node's
      tests of them against the box count towards MAX_TERMS.
    - even: lam -> lam - ((lam + rho, alpha^vee) - w q) alpha at every wall w with a
      positive step, alpha^vee normalised by the positive-definite form, rho the supersymmetric
      one (which keeps rank-one components inside the block classes).  The box edges bound
      w, so the kept walls are one range [w_lo, w_hi], found per node at the least r, r0: at
      p^r they are the multiples of m = p^(r - r0) in it, [ceil(w_lo / m), floor(w_hi / m)].

    Enumerating from every node also covers the reversed residue convention of
    the noniso moves.  A node's id, its position in nodes, is mixed radix with coordinate
    0 the most significant; a move by k alpha adds k off(alpha) = k sum alpha_i stride_i.
    Each root takes one pass over the id columns of its pairings and of the coordinates
    it moves (see _plans), so the edges come out root by root, each as one 64-bit key,
    packed in an array, with the fields (source id, move code, target id) from the top bit
    down.  One sort puts them in node order, by code within a node and by target within a
    code: a standard positive root leads with a positive coordinate no smaller than the
    others, so off > 0 unless alpha moves a coordinate of width 1, which no move in the box
    does, and the targets lam - s alpha of one code ascend as s descends over the walls or
    noniso steps.  The keys are then cut into id columns (see LinkageGraph).  Raises
    TooManyTerms past MAX_TERMS nodes, before any is built, or past MAX_TERMS noniso step
    tests, before the tests that pass it; and TooManyEdges past MAX_EDGES edges, counted
    after each r of an iso pass and each node of the others."""
    if len(box) != shape.rank:
        raise ValueError(f"box rank {len(box)} != shape rank {shape.rank}")
    check_terms(prod(hi - lo + 1 for lo, hi in box))
    nodes = tuple(product(*[range(lo, hi + 1) for lo, hi in box]))
    moves, plans = _plans(box, nodes, shape, r_set, p)
    rs, nb, cb = sorted(r_set), len(nodes).bit_length(), len(moves).bit_length()
    row = (1 << nb + cb) + 1  # from node i's key (i, k, i) to node i + 1's
    assert 2 * nb + cb <= 64, (len(nodes), len(moves))  # nodes <= MAX_TERMS < 2^20
    keys, steps, tested, cap = array("Q"), {r: {} for r in r_set}, 0, MAX_EDGES
    for family, alpha, col, off, moving, codes in plans:
        bases = [k << nb for k in codes]  # the key (0, k, 0) at each r
        if family == 0:
            (xs, xlo, xhi), (ys, ylo, yhi) = [(col_i, lo + a, hi + a) for col_i, a, lo, hi in moving]
            hits = [t for t, v, x, y in zip(count(bases[0] - off, row), col, xs, ys)
                    if v % p == 0 and xlo <= x <= xhi and ylo <= y <= yhi]  # lam - alpha in the box
            for base in bases:  # the same hits at every r
                keys.extend(map((base - bases[0]).__add__, hits))
                if len(keys) > cap:
                    break
        elif family == 1:
            ((xs, a, lo, hi),) = moving
            per_r = [(r, p**r, steps[r], base) for r, base in zip(rs, bases)]
            for b, v, x in zip(count(0, row), col, xs):
                for r, q, memo, base in per_r:
                    l = v % q
                    ks = memo.get(l)
                    if ks is None:
                        ks = memo[l] = [l - lp for lp in sorted(comp_factors_r(l, r, p)) if lp != l]
                    tested += len(ks)
                    check_terms(tested, "tests at least {:,} non-isotropic steps against the box")
                    for s in ks:
                        if lo <= x - s * a <= hi:
                            keys.append(b + base - s * off)
                if len(keys) > cap:
                    break
        else:
            # v = 2 (lam + rho).alpha; d | v alpha_i at each i iff d | v gcd(alpha); wall w's target
            # is lam + (w q g - s) alpha / g with s = v g / d, coordinate i at y_i + w q alpha_i.
            # A root with one nonzero coordinate repeats it as the second, which two skips
            d, g, q0 = sum(a * a for a in alpha), gcd(*alpha), p ** rs[0]
            walls = [(p ** (r - rs[0]), p**r * g, p**r * off, base) for r, base in zip(rs, bases)]
            (xs, a1, qa1, near1, far1), (ys, a2, qa2, near2, far2) = [
                (col_i, a // g, q0 * a) + ((lo, hi) if a > 0 else (hi, lo))
                for col_i, a, lo, hi in (moving * 2)[:2]]
            two, qd, off_g = len(moving) == 2, q0 * d, off // g
            for b, v, x, y in zip(count(0, row), col, xs, ys):
                assert v * g % d == 0, (nodes[b // row], alpha)
                s = v * g // d
                y1 = x - s * a1
                w_lo, w_hi, top = -((y1 - near1) // qa1), (far1 - y1) // qa1, (v - 1) // qd
                if two:
                    y2 = y - s * a2
                    first, last = -((y2 - near2) // qa2), (far2 - y2) // qa2
                    w_lo, w_hi = first if first > w_lo else w_lo, last if last < w_hi else w_hi
                w_hi = top if top < w_hi else w_hi
                if w_lo <= w_hi:  # the walls at r0
                    for m, qg, step, base in walls:
                        lo, hi = -(-w_lo // m), w_hi // m
                        if lo <= hi:  # wall lo's key; the run ascends by q off per wall
                            t = b + base + (lo * qg - s) * off_g
                            keys.extend(range(t, t + (hi - lo + 1) * step, step))
                    if len(keys) > cap:
                        break
        if len(keys) > cap:
            raise TooManyEdges(f"more than MAX_EDGES = {cap:,} linkage edges")
    # the sorted keys end to end as the 64-bit words of one int: one shift and one mask
    # of it cut a field out of every key at once
    order, n = sys.byteorder, len(keys)
    words = int.from_bytes(array("Q", sorted(keys)), order)
    del keys

    def field(shift: int, bits: int) -> array:
        mask = int.from_bytes(((1 << bits) - 1).to_bytes(8, order) * n, order)
        return array("q", (words >> shift & mask).to_bytes(8 * n, order))

    return LinkageGraph(nodes, field(nb + cb, nb), field(0, nb), field(nb, cb), moves)


def connected_components(nodes, pairs) -> list[list]:
    """Connected components of the undirected graph on nodes, which must be in
    ascending order, whose edges are the given (a, b) pairs of positions into
    nodes; each component sorted, listed by smallest member.  Union-find on the
    positions with path halving; positions ascend, so no sort is needed."""
    parent = list(range(len(nodes)))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    groups: dict = {}
    for i, x in enumerate(nodes):
        j = i
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        groups.setdefault(j, []).append(x)
    return list(groups.values())


def components(graph: LinkageGraph) -> list[list[Weight]]:
    """Connected components under the symmetrised move relation, each sorted,
    listed by smallest member; node ids ascend with the nodes."""
    return connected_components(graph.nodes, zip(graph.src, graph.dst))
