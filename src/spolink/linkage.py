"""Block-generating moves on integral weights and the graphs they span.

Three move families, all anchored at the standard flag: subtracting an odd
isotropic positive root whose shifted pairing is divisible by p, walking down
an odd non-isotropic root by the gap between a thickened head weight and one
of its other constituents, and affine reflections across even positive roots
in p^r-scaled walls.  Components of the resulting graph are block candidates.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import count, product, repeat
from math import gcd, inf, prod
from operator import mul
from typing import NamedTuple

from .characters import check_terms
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


_move = partial(tuple.__new__, LinkageMove)  # LinkageMove._make without its length check


def _column(v: Weight, box: Box) -> list[int]:
    """col[id] = lam.v at every node lam of the box, built in mixed radix coordinate by coordinate."""
    col = [0]
    for a, (lo, hi) in zip(v, box):
        col = [c + a * x for c in col for x in range(lo, hi + 1)]
    return col


def _plans(box: Box, shape: GroupShape, r_set: set[int], p: int) -> tuple[tuple, list[tuple]]:
    """The moves tuple of (kind, alpha, r) and, per r in r_set ascending, the plan
    (r, iso, noniso, even) of records the per-node routines unpack, each ending with its
    move code k, an index into moves; one pass over the standard flag's positive roots,
    sorted by family and vector, the order of the codes within each r.  An odd record is
    (alpha, c = 2 rho.folded, the column lam.folded = (lam, alpha), alpha's id offset off,
    its nonzero coordinates (i, alpha_i, lo, hi), k): lam - s alpha has id i0 - s off and
    is in the box iff lo <= lam_i - s alpha_i <= hi at each.  An even record holds the wall
    constants at q = p^r: alpha, c = 2 rho.alpha, d = alpha.alpha, g = gcd(alpha), q d, q g,
    the id offsets of alpha / g and of q alpha, the nonzero coordinates (i, alpha_i / g,
    q alpha_i, near edge, far edge; ordered by sign), the column lam.alpha and k.  A zero
    coordinate needs no test: nodes are in the box, and the move keeps it."""
    flag = standard_flag(shape)
    rho2 = rho_parts(flag, shape)[2]
    strides = [prod(hi - lo + 1 for lo, hi in box[i + 1:]) for i in range(len(box))]
    roots = sorted((2 if root.parity == "even" else 0 if root.isotropic else 1, root.vec)
                   for root in phi_plus(flag, shape))  # families 0 iso, 1 noniso, 2 even
    plans = [(r, [], [], []) for r in sorted(r_set)]
    for k, (family, alpha) in enumerate(roots):
        off, codes = sum(map(mul, alpha, strides)), count(k, len(roots))  # its code at each r
        if family < 2:
            folded = tuple(a if t < shape.n else -a for t, a in enumerate(alpha))
            c, col = sum(map(mul, rho2, folded)), _column(folded, box)
            moving = tuple((i, a, lo, hi) for i, (a, (lo, hi)) in enumerate(zip(alpha, box)) if a)
            for plan, code in zip(plans, codes):
                plan[1 + family].append((alpha, c, col, off, moving, code))
            continue
        c, d, g = sum(map(mul, rho2, alpha)), sum(a * a for a in alpha), gcd(*alpha)
        col = _column(alpha, box)
        for (r, _, _, even), code in zip(plans, codes):
            q = p**r
            moving = [(i, a // g, q * a) + ((lo, hi) if a > 0 else (hi, lo))
                      for i, (a, (lo, hi)) in enumerate(zip(alpha, box)) if a]
            even.append((alpha, c, d, g, q * d, q * g, off // g, q * off, moving, col, code))
    kinds = ISO_ODD, NONISO_ODD, EVEN_MOVE
    return tuple((kinds[family], alpha, r) for r, *_ in plans for family, alpha in roots), plans


def _iso_odd(lam: Weight, i0: int, plan: tuple, p: int, dst, code) -> None:
    for alpha, c, col, off, moving, k in plan:
        val = 2 * col[i0] + c  # 2 (lam + rho, alpha)
        assert val % 2 == 0, (lam, alpha)
        if val // 2 % p == 0:
            for i, a, lo, hi in moving:
                if not lo <= lam[i] - a <= hi:
                    break
            else:
                dst.append(i0 - off), code.append(k)


def _noniso_odd(lam: Weight, i0: int, plan: tuple, r: int, p: int, steps, dst, code,
                tested: int) -> int:
    # tested: the steps tested against the box so far; returned with lam's added
    for alpha, c, col, off, moving, k in plan:
        val = 2 * col[i0] + c - 1
        assert val % 2 == 0, (lam, alpha)
        l = val // 2 % p**r
        ks = steps.get((l, r))
        if ks is None:
            ks = steps[l, r] = [l - lp for lp in sorted(comp_factors_r(l, r, p)) if lp != l]
        tested += len(ks)
        check_terms(tested, "tests at least {:,} non-isotropic steps against the box")
        for s in ks:
            for i, a, lo, hi in moving:
                if not lo <= lam[i] - s * a <= hi:
                    break
            else:
                dst.append(i0 - s * off), code.append(k)
    return tested


def _even(lam: Weight, i0: int, plan: tuple, dst, code) -> None:
    for alpha, c, d, g, qd, qg, off_g, qoff, moving, col, k in plan:
        v = 2 * col[i0] + c
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
            n = w_hi - w_lo + 1
            t0 = i0 + (w_lo * qg - s) * off_g
            dst.extend(range(t0, t0 + n * qoff, qoff))
            code.extend(repeat(k, n))


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
      one (which keeps rank-one components inside the block classes).  The box
      edges bound w, so the kept walls are one range, planned per root once per r.

    Enumerating from every node also covers the reversed residue convention of
    the noniso moves.  A node's id, its position in nodes, is mixed radix with coordinate
    0 the most significant; a move by k alpha adds k off(alpha) = k sum alpha_i stride_i.
    Each root's pairing lam.v is read from one column per graph, and the edges are
    stored as id columns (see LinkageGraph).  Raises TooManyTerms past MAX_TERMS nodes,
    before any is built, or past MAX_TERMS noniso step tests, before the tests that
    pass it; and TooManyEdges past MAX_EDGES."""
    if len(box) != shape.rank:
        raise ValueError(f"box rank {len(box)} != shape rank {shape.rank}")
    check_terms(prod(hi - lo + 1 for lo, hi in box))
    nodes = tuple(product(*[range(lo, hi + 1) for lo, hi in box]))
    moves, plans = _plans(box, shape, r_set, p)
    src, dst, code, steps, tested = array("q"), array("q"), array("q"), {}, 0
    for i0, lam in enumerate(nodes):
        for r, iso_r, noniso_r, even_r in plans:
            _iso_odd(lam, i0, iso_r, p, dst, code)
            tested = _noniso_odd(lam, i0, noniso_r, r, p, steps, dst, code, tested)
            _even(lam, i0, even_r, dst, code)
        src.extend(repeat(i0, len(dst) - len(src)))
        if len(src) > MAX_EDGES:
            raise TooManyEdges(f"more than MAX_EDGES = {MAX_EDGES:,} linkage edges")
    return LinkageGraph(nodes, src, dst, code, moves)


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
