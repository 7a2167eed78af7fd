"""Thickened rank-one modules: 2p^r-dimensional induced modules over the r-th
thickening, their socles, the unique Hom criterion, the thickened morphism
tables and composition factors.  Their blocks are spo21.block_of.

Weights live in all of Z here; the group-like generators may carry negative
exponents.  Monomials are indexed by (head, idx, eps) with 0 <= idx < p^r:

    minus side, head l:    x(1,1)^(l-idx-eps)  x(1,-1)^idx  x(1,0')^eps
    plus side,  head k     x(-1,-1)^(k-idx-eps) x(-1,1)^idx x(-1,0')^eps
    (module of lowest weight -k)

with torus weights l - 2 idx - eps and 2 idx + eps - k respectively; unlike
spo21's plus side, idx is the exponent of the second generator on both sides.
As in spo21, socles and morphisms are handed out only as integers (a morphism
as one integer row per source), and spolink.cli spells them.
"""

from __future__ import annotations

from .characters import Poly1, check_terms
from .padic import binom_mod
from .spo21 import branch_parts, socle_basis
from .words import MAX_DIGITS


def socle_basis_r(l: int, r: int, p: int) -> list[tuple[int, int]]:
    """(idx, eps) of the socle of the minus module of head l: the even idx
    with C(l, idx) nonzero mod p, then (when p does not divide l) the odd idx
    with C(l-1, idx) nonzero; idx < p^r, and MAX_TERMS caps the 2p^r pairs."""
    # C(l, idx) and C(l-1, idx) for idx < p^r depend only on the digits of l
    # below p^r, so the rank-one listing of l mod p^r serves; this is what
    # makes the p^r-shift isomorphisms work
    q = p**r
    check_terms(2 * q)
    return socle_basis(l % q, p)


def ch_h0_r(l: int, r: int, p: int) -> Poly1:
    """Minus-side induced character: weights l, l-1, ..., l - 2p^r + 1."""
    return dict.fromkeys(range(l, l - 2 * p**r, -1), 1)


def ch_l_r(l: int, r: int, p: int) -> Poly1:
    """Minus-side simple character, from the socle pairs."""
    return {l - 2 * idx - eps: 1 for idx, eps in socle_basis_r(l, r, p)}


def hom_r(k: int, l: int, r: int, p: int) -> tuple[int, str | None]:
    """Dimension and parity of the morphism space from the plus module of head
    k to the minus module of head l, like spo21.hom_dim: (1, "odd") exactly
    when l = 2p^r - k - 1, else (0, None).  The space is never even: l = k
    would need 2k = 2p^r - 1."""
    return (1, "odd") if l == 2 * p**r - k - 1 else (0, None)


def psi_r_rows(k: int, r: int, p: int) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """The morphism from the plus module of head k into the minus module of
    head lt = 2p^r - k - 1, in integers: lt, and one row (i, eps, ti, teps, c)
    per plus source (i, eps) in basis order (even i < p^r, then odd).

    With kt the representative of k in [p^r, 2p^r):

        even (idx=i, 0) -> (kt-i) C(kt-i-1, kt-p^r) * minus(p^r-i-1, 1)
        odd  (idx=i, 1) -> C(kt-i-1, kt-p^r)        * minus(p^r-i-1, 0)

    normalised so the odd source with i = p^r - 1 hits the target head
    monomial with coefficient 1.  c lives mod p; c = 0 marks a kernel source.
    Every image is asserted to be a target basis index of its source's weight.
    """
    q = p**r
    check_terms(2 * q)
    kt = k % q + q
    lt = 2 * q - k - 1
    rows = []
    for eps in (0, 1):
        for i in range(q):
            b = binom_mod(kt - i - 1, kt - q, p)
            c = b if eps else (kt - i) * b % p
            ti, teps = q - i - 1, 1 - eps
            assert not c or 0 <= ti < q and lt - 2 * ti - teps == 2 * i + eps - k, (k, r, p, i, eps)
            rows.append((i, eps, ti, teps, c))
    return lt, rows


def comp_factors_r(l: int, r: int, p: int) -> frozenset[int]:
    """Composition factors of the minus induced module of any integer head l,
    as a set of highest weights: normalise into [p^r, 2p^r), run the residue
    branches there, shift back.  The branches build words of r + 1 digits."""
    if r + 1 > MAX_DIGITS:
        raise ValueError(f"r = {r} needs words of {r + 1} base-{p} digits; "
                         f"they are built for at most {MAX_DIGITS}")
    q = p**r
    lt = (l - q) % q + q
    shift = l - lt
    parts = branch_parts(lt, p)
    out = frozenset([e + shift for e in parts])
    assert len(out) == len(parts), f"multiplicity > 1 at l={l}: {sorted(parts)}"
    return out


def psi_r_ker_im_coker(k: int, r: int, p: int) -> tuple[frozenset[int], ...]:
    """Kernel, image, cokernel factors of the thickened morphism at head k.

    The image is the single simple of highest weight 2p^r - k - 1; domain and
    codomain share a character, so kernel and cokernel both carry every other
    factor of the codomain.
    """
    lt = 2 * p**r - k - 1
    im, cod = frozenset({lt}), comp_factors_r(lt, r, p)
    assert im <= cod, (k, r, p)
    return cod - im, im, cod - im
