"""Rank-one supergroup combinatorics: monomial bases of induced modules and
their socles, distribution-operator actions, Hom dimensions, the weight-lowering
morphisms with kernel/image/cokernel data, composition factors, and blocks.

Monomials are indexed side-uniformly by (head, i, eps):

    minus side   x(1,1)^(head-i-eps)   x(1,-1)^i  x(1,0')^eps
    plus side    x(-1,-1)^i  x(-1,1)^(head-i-eps) x(-1,0')^eps

where 0' marks the odd generator.  The basis of one head and side is the
pairs (i, eps) with 0 <= i <= head - eps.  Both sides give (i, eps) the torus
weight head - 2i - eps, and every weight space of a module here is
one-dimensional, so an operator or a morphism sends a basis pair to a multiple
of at most one pair.  Operators return that image as ((i, eps), coefficient
mod p), or None when the coefficient vanishes.  Socles, radicals and morphisms
are handed out only as these integers (a morphism as one integer row per
source); the table above is how spolink.cli spells a pair.
"""

from __future__ import annotations

from .characters import check_terms
from .padic import all_divisible, binom_mod, digits, lucas_count, lucas_support
from .words import FIRST, SECOND, build_words

MINUS = "minus"
PLUS = "plus"


def socle_basis(l: int, p: int) -> list[tuple[int, int]]:
    """(i, eps) of the simple socle of head l >= 0, in basis order: the even
    i with C(l, i) nonzero mod p, then (only when p does not divide l) the
    odd i with C(l-1, i) nonzero, both listed by their base-p digits.  Their
    count is checked against MAX_TERMS before any is listed."""
    if l < 0:
        raise ValueError("socle_basis() needs l >= 0")
    check_terms(lucas_count(l, p) + (lucas_count(l - 1, p) if l % p else 0))
    out = [(i, 0) for i in lucas_support(l, p)]
    if l % p != 0:
        out += [(i, 1) for i in lucas_support(l - 1, p)]
    return out


def act(op: str, head: int, i: int, eps: int, p: int,
        t: int = 1) -> tuple[tuple[int, int], int] | None:
    """Apply a distribution operator to the basis pair (i, eps) of a module of
    the given head, coefficient mod p.

    f(t): (i, eps) -> C(head-i-eps, t) (i+t, eps)
    e(t): (i, eps) -> C(i, t) (i-t, eps)
    y:    (i, 0) -> (head-i) (i, 1);   (i, 1) -> (i+1, 0)
    x:    (i, 0) -> -i (i-1, 1);       (i, 1) -> (i, 0)

    The same index formulas hold on both sides.  The image ((i, eps), c) is
    returned only for a coefficient c nonzero mod p, and then is asserted to
    be a basis pair; else None.
    """
    if op == "f":
        c, i = binom_mod(head - i - eps, t, p), i + t
    elif op == "e":
        c, i = binom_mod(i, t, p), i - t
    elif op == "y":
        c, i, eps = ((head - i) % p, i, 1) if eps == 0 else (1, i + 1, 0)
    elif op == "x":
        c, i, eps = (-i % p, i - 1, 1) if eps == 0 else (1, i, 0)
    else:
        raise ValueError(f"unknown operator {op!r}")
    if not c:
        return None
    assert 0 <= i <= head - eps, (op, head, i, eps)
    return (i, eps), c


def rad_basis(k: int, p: int) -> list[tuple[int, int]]:
    """(i, eps) of the plus monomials spanning the radical of the plus-side
    induced module of head k under the lower-triangular Borel.

    Every weight space is one-dimensional, so the radical is spanned by the
    plus monomials it contains: all even ones with i >= 1; the odd one with
    i = 0 when p does not divide k; and the odd ones with 1 <= i <= k-1 whose
    binomial run is not all divisible by p.
    """
    if k < 0:
        raise ValueError("rad_basis() needs k >= 0")
    if k == 0:
        return []
    out = [(i, 0) for i in range(1, k + 1)]
    if k % p != 0:
        out.append((0, 1))
    out += [(j, 1) for j in range(1, k) if not all_divisible(k, j, p)]
    return out


def hom_dim(k: int, l: int, p: int) -> tuple[int, str | None]:
    """Dimension (0 or 1) of the morphism space from the plus module of head k
    to the minus module of head l, with its parity ("even"/"odd", None if 0).

    Nonzero exactly for l = k (even), or l = k - 1 - 2j (odd) with j = 0
    allowed only when p | k and j >= 1 requiring the all-divisible criterion.
    """
    if k < 0 or l < 0:
        raise ValueError("hom_dim() needs k, l >= 0")
    if l == k:
        return 1, "even"
    if k == 0:
        return 0, None
    d = k - 1 - l
    if d < 0 or d % 2:
        return 0, None
    j = d // 2
    if j == 0:
        ok = k % p == 0
    else:
        ok = all_divisible(k, j, p)
    return (1, "odd") if ok else (0, None)


def is_admissible_psi(k: int, j: int, p: int) -> bool:
    """Whether the weight-lowering morphism at (k, j) exists: head k - 1 - 2j
    stays nonnegative and hom_dim is one."""
    if k < 1 or j < 0:
        return False
    l = k - 1 - 2 * j
    if l < 0:
        return False
    return hom_dim(k, l, p)[0] == 1


def admissible_js(k: int, p: int) -> list[int]:
    return [j for j in range((k + 1) // 2) if is_admissible_psi(k, j, p)]


def _need_admissible(k: int, j: int, p: int) -> None:
    if not is_admissible_psi(k, j, p):
        raise ValueError(f"(k={k}, j={j}) is not admissible at p={p}")


def psi_rows(k: int, j: int, p: int) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """The morphism from the plus module of head k to the minus module of head
    l = k - 1 - 2j, in integers: l, and one row (i, eps, ti, teps, c) per
    plus source (i, eps) in basis order (even i = 0..k, then odd i = 0..k-1):

        even (i, 0) -> i * C(i-1, j) * minus(i-1-j, 1)
        odd  (i, 1) -> C(i, j)       * minus(i-j, 0)

    normalised so the odd source with i = j maps to the target highest even
    monomial with coefficient 1.  c lives mod p; c = 0 marks a kernel source,
    whose (ti, teps) need not name a monomial.  Every image is asserted to be
    a target basis index of its source's weight; MAX_TERMS caps the 2k + 1 rows.
    """
    _need_admissible(k, j, p)
    check_terms(2 * k + 1)
    l = k - 1 - 2 * j
    rows = []
    for eps in (0, 1):
        for i in range(k + 1 - eps):
            c = binom_mod(i, j, p) if eps else i * binom_mod(i - 1, j, p) % p
            ti, teps = i - j - 1 + eps, 1 - eps
            assert not c or 0 <= ti <= l - teps and l - 2 * ti - teps == k - 2 * i - eps, (
                k, j, i, eps)
            rows.append((i, eps, ti, teps, c))
    return l, rows


def _branch(m: int, p: int, lead: int, t: int = 1) -> list[int]:
    """Weights of the non-head live words of weight m that open with t copies
    of the symbol of code lead: FIRST (≥) or SECOND (<)."""
    mask = 4**t - 1  # the first t positions
    want = mask // 3 * lead
    live = build_words(m, p)
    return [e for c, e in zip(live.codes, live.ells) if c & mask == want and e != m]


def branch_parts(l: int, p: int) -> list[int]:
    """Constituent weights of the induced module of head l >= 1 by the residue
    of l mod p: the head, then first/second-kind word weights at l-1 and l
    (plus l-1 itself in the divisible case)."""
    r = l % p
    parts = [l]
    if r == 0:
        parts.append(l - 1)
        parts += _branch(l - 1, p, FIRST)
        parts += _branch(l, p, SECOND)
    elif r == p - 1:
        parts += _branch(l - 1, p, FIRST)
        parts += _branch(l, p, FIRST)
    else:
        parts += _branch(l - 1, p, FIRST)
        parts += _branch(l, p, SECOND)
    return parts


def comp_factors_h0(l: int, p: int) -> frozenset[int]:
    """Highest weights of the composition factors of the minus induced module
    of head l >= 0, each of multiplicity 1 (asserted)."""
    if l < 0:
        raise ValueError("comp_factors_h0() needs l >= 0")
    if l == 0:
        return frozenset({0})
    parts = branch_parts(l, p)
    out = frozenset(parts)
    assert len(out) == len(parts), f"multiplicity > 1 at l={l}: {sorted(parts)}"
    return out


def block_of(l: int, p: int) -> int:
    """Block id in [0, p) of any integer weight: the unique a with l congruent
    to a or to 2p-1-a modulo 2p.  The group and every thickening share these
    classes, for every r."""
    m = l % (2 * p)
    return m if m < p else 2 * p - 1 - m


def ker_im_coker_factors(k: int, j: int, p: int) -> tuple[frozenset[int], ...]:
    """Composition factors of the kernel, image and cokernel of the (k, j)
    morphism, as sets of highest weights.

    Only the image has a case for j = 0.  j = 0 (so p | k): k - 1 and the
    first-kind word weights of k - 1.  j > 0: the first-kind word list cut to
    words opening with t 'greater-or-equal' symbols, t the digit length of j.
    Kernel and cokernel are what the image leaves of the two ends.
    """
    _need_admissible(k, j, p)
    if j == 0:
        im = frozenset([k - 1, *_branch(k - 1, p, FIRST)])
    else:
        # the image's weights are at most k - 1 - 2j < k - 1, so dropping the
        # head k - 1 in _branch drops no factor of the image
        im = frozenset(_branch(k - 1, p, FIRST, len(digits(j, p))))
    dom, cod = comp_factors_h0(k, p), comp_factors_h0(k - 1 - 2 * j, p)
    assert im <= dom and im <= cod, (k, j, p)
    return dom - im, im, cod - im
