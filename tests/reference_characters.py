"""Reference characters: the rank-one characters as dicts, the dict-residual
greedy peel, and the tuple-keyed product expansion.

The library holds the rank-one simple characters as bitsets and peels them
as bits (spolink.characters), and keys the product expansion by ints
(spolink.rootdata); the tests replay it against these forms.  Characters
here are dicts {weight: coefficient} with int weights, and zero
coefficients are never stored.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import Callable

from spolink.padic import MAX_TERMS, TooManyTerms, digits
from spolink.rootdata import PolyN

Poly1 = dict[int, int]


class NegativeResidualError(ValueError):
    """Raised when peel() drives some coefficient negative: the input was not
    a nonnegative sum of the supplied simple characters."""


def ch_H0_sl2(k: int) -> Poly1:
    """Character of the rank-one induced module: x^k + x^(k-2) + ... + x^(-k)."""
    return dict.fromkeys(range(k, -k - 1, -2), 1)


def ch_L_sl2(k: int, p: int) -> Poly1:
    """Character of the simple of highest weight k: x^(k-2i) over i with p not
    dividing C(k, i), i.e. i digit-dominated by k in base p."""
    offs = [0]  # the digit-dominated i, digit 0 varying slowest
    for t, d in enumerate(digits(k, p)):
        offs = [o + c * p**t for o in offs for c in range(d + 1)]
    return {k - 2 * i: 1 for i in offs}


def ch_H0_spo(l: int) -> Poly1:
    """Character of the rank-one super induced module: two interleaved strings,
    weights l, l-1, ..., -l, each once (dimension 2l + 1)."""
    return dict.fromkeys(range(l, -l - 1, -1), 1)


def ch_L_spo(l: int, p: int) -> Poly1:
    """Character of the simple super module of highest weight l: one string
    when p | l, the two strings of weights l and l - 1 otherwise."""
    out = ch_L_sl2(l, p)
    if l % p != 0:
        out.update(ch_L_sl2(l - 1, p))
    return out


def ch_truncate(ch: Poly1, l: int, r: int, p: int) -> Poly1:
    """Keep the descending window of 2 p^r weights l, l-1, ... starting at l."""
    return {w: c for w, c in ch.items() if 0 <= l - w < 2 * p**r}


def poly_shift(a: Poly1, offset: int) -> Poly1:
    return {w + offset: c for w, c in a.items()}


def oracle_simple_r(hw: int, r: int, p: int) -> Poly1:
    """Thickened simple character: truncate the full simple character of the
    representative of hw in [p^r, 2p^r), then shift back."""
    q = p**r
    m = (hw - q) % q + q
    return poly_shift(ch_truncate(ch_L_spo(m, p), m, r, p), hw - m)


def peel(ch: Poly1, simple_ch: Callable[[int], Poly1]) -> Counter:
    """Greedy decomposition of ch into the given simple characters.

    Repeatedly take the largest weight with a positive residual coefficient,
    subtract that many copies of simple_ch at it, and record the factor.
    Raises NegativeResidualError unless the residual terminates at exactly
    zero; each simple character must have top coefficient 1 at its argument.
    """
    residual = {w: c for w, c in ch.items() if c}
    factors: Counter = Counter()
    if not residual:
        return factors
    w = max(residual)
    floor = min(residual)
    while w >= floor:
        c = residual.get(w, 0)
        if c < 0:
            raise NegativeResidualError(f"coefficient {c} at weight {w}")
        if c > 0:
            factors[w] = c
            for wt, coef in simple_ch(w).items():
                nv = residual.get(wt, 0) - c * coef
                if nv:
                    residual[wt] = nv
                else:
                    residual.pop(wt, None)
        w -= 1
    if residual:
        raise NegativeResidualError(f"nonzero residual left: {residual}")
    return factors


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
    least the term count."""
    steps = [(alpha, range(p**r)) for alpha in even_pos] + [(alpha, (0, 1)) for alpha in odd_pos]
    span, size, work = [1] * len(lam), 1, 0
    for alpha, ts in steps:
        work += size * len(ts)
        span = [s + ts[-1] * abs(a) for s, a in zip(span, alpha)]
        size = min(size * len(ts), prod(span))
    if work > MAX_TERMS:
        raise TooManyTerms(f"expands its product in up to {work:,} term updates, "
                           f"more than MAX_TERMS = {MAX_TERMS:,}")
    acc: PolyN = {tuple(lam): 1}
    for alpha, ts in steps:
        nxt: PolyN = {}
        for wt, c in acc.items():
            for t in ts:
                key = tuple(w - t * a for w, a in zip(wt, alpha))
                nxt[key] = nxt.get(key, 0) + c
        acc = nxt
    return acc
