"""Root systems and isotropic flags for the two families of orthosymplectic
shapes, positive systems attached to flags, elementary Borel moves and the
full chain from the standard flag to its negative, rho vectors, the bilinear
form, flag-normalised weights, and product characters.

Roots and weights are integer tuples in the basis (delta_1..delta_n,
eps_1..eps_m).  Only the rho vectors can be half-integral, so rho_parts
returns them doubled: 2 rho is an integer tuple like every other vector.

This module is on the closed-form side, product characters included: it
never imports the oracle module, characters.  verify checks its root data and
chain (criterion 9) and its flag-normalised product characters (criterion 10).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import combinations, product
from math import prod
from typing import NamedTuple

from . import padic
from .padic import check_terms

ODD = "odd"
EVEN = "even"

SP = "s"  # symplectic label kind (delta block)
OR = "o"  # orthogonal label kind (epsilon block)

Label = tuple[str, int]
Vec = tuple[int, ...]
PolyN = dict[tuple[int, ...], int]


class GroupShape(namedtuple("GroupShape", "n m parity_type")):
    """Symplectic rank n, orthogonal rank m, and the orthogonal dimension's
    parity_type: odd 2m + 1 or even 2m."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, parity_type: str) -> GroupShape:
        if n < 0 or m < 0 or n + m == 0:
            raise ValueError("need n, m >= 0 with n + m >= 1")
        if parity_type not in (ODD, EVEN):
            raise ValueError(f"parity_type must be {ODD!r} or {EVEN!r}")
        return tuple.__new__(cls, (n, m, parity_type))

    @property
    def rank(self) -> int:
        return self.n + self.m


class Root(NamedTuple):
    vec: Vec
    parity: str  # "even" / "odd"
    isotropic: bool | None  # set for odd roots only


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def delta(i: int, shape: GroupShape) -> Vec:
    """The unit vector delta_i, 1-based."""
    return tuple(1 if t == i - 1 else 0 for t in range(shape.rank))


def eps(j: int, shape: GroupShape) -> Vec:
    """The unit vector eps_j, 1-based."""
    return tuple(1 if t == shape.n + j - 1 else 0 for t in range(shape.rank))


def label_vec(label: Label, shape: GroupShape) -> Vec:
    kd, idx = label
    base = delta(abs(idx), shape) if kd == SP else eps(abs(idx), shape)
    return base if idx > 0 else vneg(base)


def label_str(label: Label) -> str:
    kd, idx = label
    return str(idx) if kd == SP else f"{idx}bar"


def parse_label(s: str) -> Label:
    if s.endswith("bar"):
        return (OR, int(s[:-3]))
    return (SP, int(s))


def standard_flag(shape: GroupShape) -> tuple[Label, ...]:
    return tuple([(SP, i) for i in range(1, shape.n + 1)] + [(OR, j) for j in range(1, shape.m + 1)])


def negate_flag(flag: tuple[Label, ...]) -> tuple[Label, ...]:
    return tuple((kd, -idx) for kd, idx in flag)


def check_flag(flag: tuple[Label, ...], shape: GroupShape) -> None:
    sp = sorted(abs(i) for kd, i in flag if kd == SP)
    orth = sorted(abs(i) for kd, i in flag if kd == OR)
    if sp != list(range(1, shape.n + 1)) or orth != list(range(1, shape.m + 1)):
        raise ValueError(f"flag {flag} does not match shape {shape}")


def _signed(vecs, parity: str, isotropic: bool | None) -> list[Root]:
    """Each vector, then its negative."""
    return [Root(s, parity, isotropic) for v in vecs for s in (v, vneg(v))]


def _signed_sums(pairs, parity: str, isotropic: bool | None) -> list[Root]:
    """For each pair (a, b): a + b, a - b, -a + b, -a - b."""
    return [
        Root(vadd(sa, sb), parity, isotropic)
        for a, b in pairs
        for sa in (a, vneg(a))
        for sb in (b, vneg(b))
    ]


def _check_size(shape: GroupShape) -> None:
    """Refuse a shape whose roots, rank integers each, pass MAX_TERMS integers
    in all.  There are 2 rank^2 + 2n roots in the odd type and 2 rank^2 - 2m in
    the even type, so every shape of rank <= 79 passes and none of rank >= 80.
    The error is a plain ValueError: only n and m size it, while the CLI reads
    a TooManyTerms as the fault of --r or of a listing's own option."""
    n, m, rk = shape.n, shape.m, shape.rank
    count = 2 * rk * rk + (2 * n if shape.parity_type == ODD else -2 * m)
    if count * rk > padic.MAX_TERMS:
        raise ValueError(f"the {shape.parity_type}-type shape n = {n}, m = {m} has {count:,} "
                         f"roots of {rk} coordinates, {count * rk:,} integers in all, "
                         f"more than MAX_TERMS = {padic.MAX_TERMS:,}; lower n + m")


@cache
def roots(shape: GroupShape) -> tuple[Root, ...]:
    """The full root list: even part, then odd part; built once per shape,
    after _check_size."""
    _check_size(shape)
    ds = [delta(i, shape) for i in range(1, shape.n + 1)]
    es = [eps(j, shape) for j in range(1, shape.m + 1)]
    out = _signed_sums(combinations(ds, 2), "even", None)
    out += _signed([vadd(d, d) for d in ds], "even", None)
    out += _signed_sums(combinations(es, 2), "even", None)
    if shape.parity_type == ODD:
        out += _signed(es, "even", None)
    out += _signed_sums(product(ds, es), "odd", True)
    if shape.parity_type == ODD:
        out += _signed(ds, "odd", False)
    return tuple(out)


@cache
def _root_terms(shape: GroupShape) -> tuple[tuple[int, int, int, int], ...]:
    """Per root of roots(shape), in order, its at most two nonzero coordinates
    as (i, a, j, b): a at index i and b at index j, with b = 0 for one."""
    nonzero = ([(i, c) for i, c in enumerate(r.vec) if c] + [(0, 0)] for r in roots(shape))
    return tuple((*nz[0], *nz[1]) for nz in nonzero)


def phi_plus(flag: tuple[Label, ...], shape: GroupShape) -> set[Root]:
    """Positive system of the Borel attached to a maximal isotropic flag: the
    roots of positive height, where the label l at 0-based position t of an
    N-entry flag puts +-(N - t), the sign of l, at l's coordinate of the
    height vector.  Every root is +-l, +-2l or +-l_s +- l_t for labels l, so
    none has height 0, and l_s - l_t is positive exactly when l_s comes first.
    """
    check_flag(flag, shape)
    height, size = [0] * shape.rank, len(flag)
    for t, (kd, idx) in enumerate(flag):
        height[abs(idx) - 1 + (shape.n if kd == OR else 0)] = size - t if idx > 0 else t - size
    return {root for root, (i, a, j, b) in zip(roots(shape), _root_terms(shape))
            if height[i] * a + height[j] * b > 0}


def phi_plus_vecs(flag: tuple[Label, ...], shape: GroupShape) -> set[Vec]:
    return {r.vec for r in phi_plus(flag, shape)}


class Move(NamedTuple):
    kind: str  # transpose / flip_symplectic / flip_orthogonal / relabel_orthogonal
    pos: int | None = None  # left position of a transposition


class ChainStep(NamedTuple):
    """One elementary flag move with the positive roots it removes; it adds
    their negatives."""

    flag_from: tuple[Label, ...]
    move: Move
    flag_to: tuple[Label, ...]
    alpha: Vec | None
    levi: str | None
    removed: frozenset[Vec]


def apply_move(flag: tuple[Label, ...], move: Move, shape: GroupShape) -> ChainStep:
    """One elementary flag move with its exact positive-system delta.

    Transpositions swap adjacent entries and exchange one difference root;
    a symplectic sign flip on the last entry swaps its single and doubled
    weights in the odd type (only the doubled one in the even type); an
    orthogonal sign flip on the last entry exists only in the odd type --
    in the even type it fixes the Borel and is exposed separately as a
    zero-delta relabel.
    """
    check_flag(flag, shape)
    last = flag[-1]
    flipped = flag[:-1] + ((last[0], -last[1]),)
    if move.kind == "transpose":
        s = move.pos
        if s is None or not 0 <= s < len(flag) - 1:
            raise ValueError(f"bad transposition position {s}")
        a, b = flag[s], flag[s + 1]
        new = flag[:s] + (b, a) + flag[s + 2:]
        alpha = vsub(label_vec(a, shape), label_vec(b, shape))
        levi, removed = "GL2" if a[0] == b[0] else "GL11", (alpha,)
    elif move.kind == "flip_symplectic":
        if last[0] != SP:
            raise ValueError("flip_symplectic needs a symplectic last entry")
        v = label_vec(last, shape)
        v2 = tuple(2 * c for c in v)
        new = flipped
        if shape.parity_type == ODD:
            alpha, levi, removed = v, "SPO21", (v, v2)
        else:
            alpha, levi, removed = v2, "SL2", (v2,)
    elif move.kind == "flip_orthogonal":
        if last[0] != OR:
            raise ValueError("flip_orthogonal needs an orthogonal last entry")
        if shape.parity_type != ODD:
            raise ValueError("flip_orthogonal does not move the Borel in the even type")
        new, alpha = flipped, label_vec(last, shape)
        levi, removed = "SO3", (alpha,)
    elif move.kind == "relabel_orthogonal":
        if last[0] != OR or shape.parity_type != EVEN:
            raise ValueError("relabel_orthogonal needs an even-type orthogonal last entry")
        new, alpha, levi, removed = flipped, None, None, ()
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")
    return ChainStep(flag, move, new, alpha, levi, frozenset(removed))


def chain_of_borels(shape: GroupShape) -> list[ChainStep]:
    """The explicit walk from the standard flag to its negative.

    Orthogonal labels first migrate to the front (mn transpositions), then
    each symplectic label is sign-flipped at the end and carried to the front
    (n flips, n(m+n-1) transpositions), then each orthogonal label is
    sign-flipped at the end and carried just right of the symplectic block
    (m flips -- zero-delta relabels in the even type -- and m(m-1)
    transpositions).
    """
    _check_size(shape)
    flag = standard_flag(shape)
    steps: list[ChainStep] = []

    def do(move: Move) -> None:
        nonlocal flag
        steps.append(apply_move(flag, move, shape))
        flag = steps[-1].flag_to

    n, m = shape.n, shape.m
    for j in range(1, m + 1):
        for s in range(n + j - 2, j - 2, -1):
            do(Move("transpose", s))
    for _ in range(n):
        assert flag[-1][0] == SP and flag[-1][1] > 0
        do(Move("flip_symplectic"))
        for s in range(n + m - 2, -1, -1):
            do(Move("transpose", s))
    for _ in range(m):
        assert flag[-1][0] == OR and flag[-1][1] > 0
        if shape.parity_type == ODD:
            do(Move("flip_orthogonal"))
        else:
            do(Move("relabel_orthogonal"))
        for s in range(n + m - 2, n - 1, -1):
            do(Move("transpose", s))
    assert flag == negate_flag(standard_flag(shape)), flag
    return steps


def rho_parts(flag: tuple[Label, ...], shape: GroupShape) -> tuple[Vec, Vec, Vec]:
    """(2 rho0, 2 rho1, 2 rho): the sums of the even and of the odd positive
    roots, and their difference, all integer tuples."""
    rk = shape.rank
    s0 = [0] * rk
    s1 = [0] * rk
    for root in phi_plus(flag, shape):
        tgt = s0 if root.parity == "even" else s1
        for t, c in enumerate(root.vec):
            tgt[t] += c
    return tuple(s0), tuple(s1), vsub(s0, s1)


def pairing(x: Vec, y: Vec, shape: GroupShape) -> int:
    """The supersymmetric form: +1 on the delta block, -1 on the epsilon block."""
    n = shape.n
    tot = 0
    for t, (a, b) in enumerate(zip(x, y)):
        tot += a * b if t < n else -a * b
    return tot


def lambda_bracket(lam: Vec, flag: tuple[Label, ...], shape: GroupShape, r: int, p: int) -> Vec:
    """Flag-normalised weight lam + (p^r - 1)(rho0(F) - rho0) + (rho1(F) - rho1),
    built from the doubled shift; every doubled entry is even (asserted), so the
    result is integral."""
    rho0f, rho1f, _ = rho_parts(flag, shape)
    rho0s, rho1s, _ = rho_parts(standard_flag(shape), shape)
    q = p**r
    shift = [(q - 1) * (a - b) + (c - d) for a, b, c, d in zip(rho0f, rho0s, rho1f, rho1s)]
    assert all(c % 2 == 0 for c in shift), f"non-integral bracket shift {shift}/2"
    return tuple(x + c // 2 for x, c in zip(lam, shift))


def ch_z_flag(lam: Vec, flag: tuple[Label, ...], shape: GroupShape, r: int, p: int) -> PolyN:
    """Product character of the thickened induced module at the given flag:
    e^lam times the truncated geometric factor per even positive root and
    (1 + e^-alpha) per odd positive root."""
    ev, od = [], []
    for root in phi_plus(flag, shape):
        (ev if root.parity == "even" else od).append(root.vec)
    return ch_product_Zr(lam, sorted(ev), sorted(od), r, p)


def ch_product_Zr(
    lam: tuple[int, ...],
    even_pos: list[tuple[int, ...]],
    odd_pos: list[tuple[int, ...]],
    r: int,
    p: int,
) -> PolyN:
    """Product character e^lam * prod_even (1 + e^-a + ... + e^-(p^r-1)a)
    * prod_odd (1 + e^-a), all in integer coordinate tuples, expanded factor
    by factor.  A partial product has at most the previous one's bound times
    the factor's length terms, and at most 1 + sum of max(t) |a_i| values in
    coordinate i; the cap counts the updates those bounds allow, which is at
    least the term count.

    Coordinate i of every term lies within span_i - 1 of lam_i, so a term is
    keyed by one int whose mixed-radix digits, radix 2 span_i - 1, are those
    offsets shifted by span_i - 1, coordinate 0 most significant; multiplying
    by e^-ta subtracts t times a's key.  Keys are decoded once at the end, in
    insertion order."""
    steps = [(alpha, range(p**r)) for alpha in even_pos] + [(alpha, (0, 1)) for alpha in odd_pos]
    span, size, work = [1] * len(lam), 1, 0
    for alpha, ts in steps:
        work += size * len(ts)
        span = [s + ts[-1] * abs(a) for s, a in zip(span, alpha)]
        size = min(size * len(ts), prod(span))
    check_terms(work, "expands its product in up to {:,} term updates")
    radix = [2 * s - 1 for s in span]
    place = [prod(radix[i + 1:]) for i in range(len(radix))]
    acc = {sum((s - 1) * pl for s, pl in zip(span, place)): 1}
    for alpha, ts in steps:
        a = sum(x * pl for x, pl in zip(alpha, place))
        offsets = [t * a for t in ts]
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, c in acc.items():
            for off in offsets:
                k = key - off
                nxt[k] = get(k, 0) + c
        acc = nxt
    cols = [[x - s + 1 + key // pl % rd for key in acc]
            for x, s, pl, rd in zip(lam, span, place, radix)]
    return dict(zip(zip(*cols) if cols else [()], acc.values()))  # rank 0: one key, ()
