"""Formal characters as dict Laurent polynomials, plus the greedy peel oracle.

Rank-one characters are dicts {weight: coefficient} with int weights; the
multivariate characters used for flag comparisons are dicts keyed by integer
coordinate tuples.  Zero coefficients are never stored.  Internally the peel
keeps its residual in a list indexed down from the top weight, and the product
expansion keys its terms by one mixed-radix int per coordinate tuple.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import Callable

from .padic import digits

Poly1 = dict[int, int]
PolyN = dict[tuple[int, ...], int]

# Rows or terms a listing may hold (thickened ones grow like p^r), and term
# updates a product character's expansion may make.
MAX_TERMS = 1_000_000


class TooManyTerms(ValueError):
    """A listing or expansion that could pass MAX_TERMS, refused before any of the work."""


def check_terms(bound: int) -> None:
    """Raise TooManyTerms when a listing of up to bound rows or terms passes MAX_TERMS."""
    if bound > MAX_TERMS:
        raise TooManyTerms(f"lists up to {bound:,} rows or terms, more than MAX_TERMS = {MAX_TERMS:,}")


class NegativeResidualError(ValueError):
    """Raised when peel() drives some coefficient negative: the input was not
    a nonnegative sum of the supplied simple characters."""


def ch_H0_sl2(k: int) -> Poly1:
    """Character of the rank-one induced module: x^k + x^(k-2) + ... + x^(-k)."""
    if k < 0:
        raise ValueError("ch_H0_sl2() needs k >= 0")
    return dict.fromkeys(range(k, -k - 1, -2), 1)


def ch_L_sl2(k: int, p: int) -> Poly1:
    """Character of the simple of highest weight k: x^(k-2i) over i with p not
    dividing C(k, i), i.e. i digit-dominated by k in base p."""
    if k < 0:
        raise ValueError("ch_L_sl2() needs k >= 0")
    offs = [0]  # the digit-dominated i, digit 0 varying slowest
    for t, d in enumerate(digits(k, p)):
        offs = [o + c * p**t for o in offs for c in range(d + 1)]
    return {k - 2 * i: 1 for i in offs}


def ch_H0_spo(l: int) -> Poly1:
    """Character of the rank-one super induced module: two interleaved strings,
    weights l, l-1, ..., -l, each once (dimension 2l + 1)."""
    if l < 0:
        raise ValueError("ch_H0_spo() needs l >= 0")
    return dict.fromkeys(range(l, -l - 1, -1), 1)


def ch_L_spo(l: int, p: int) -> Poly1:
    """Character of the simple super module of highest weight l.

    One string when p | l, the two strings of weights l and l - 1 otherwise.
    """
    if l < 0:
        raise ValueError("ch_L_spo() needs l >= 0")
    out = ch_L_sl2(l, p)
    if l % p != 0:
        out.update(ch_L_sl2(l - 1, p))
    return out


def ch_truncate(ch: Poly1, l: int, r: int, p: int) -> Poly1:
    """Keep the descending window of 2 p^r weights l, l-1, ... starting at l."""
    return {w: c for w, c in ch.items() if 0 <= l - w < 2 * p**r}


def peel(ch: Poly1, simple_ch: Callable[[int], Poly1]) -> Counter:
    """Greedy decomposition of ch into the given simple characters.

    Repeatedly take the largest weight with a positive residual coefficient,
    subtract that many copies of simple_ch at it, and record the factor.
    Raises NegativeResidualError unless the residual terminates at exactly
    zero; each simple character must have top coefficient 1 at its argument.

    The residual over [floor, top], the span of ch's nonzero terms, is a list
    indexed by top - weight; terms a simple character puts outside it go to a
    side dict and are never peeled.  A span past MAX_TERMS raises TooManyTerms
    before the list is made.
    """
    weights = [w for w, c in ch.items() if c]
    factors: Counter = Counter()
    if not weights:
        return factors
    top, floor = max(weights), min(weights)
    size = top - floor + 1
    check_terms(size)
    residual = [0] * size
    for w in weights:
        residual[top - w] = ch[w]
    outside: Poly1 = {}
    for i in range(size):
        c = residual[i]
        if not c:
            continue
        w = top - i
        if c < 0:
            raise NegativeResidualError(f"coefficient {c} at weight {w}")
        factors[w] = c
        for wt, coef in simple_ch(w).items():
            j = top - wt
            if 0 <= j < size:
                residual[j] -= c * coef
            else:
                outside[wt] = outside.get(wt, 0) - c * coef
    if any(residual) or any(outside.values()):
        left = {top - j: v for j, v in enumerate(residual) if v}
        left.update((wt, v) for wt, v in outside.items() if v)
        raise NegativeResidualError(f"nonzero residual left: {left}")
    return factors


def poly_shift(a: Poly1, offset: int) -> Poly1:
    return {w + offset: c for w, c in a.items()}


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
    if work > MAX_TERMS:
        raise TooManyTerms(f"expands its product in up to {work:,} term updates, "
                           f"more than MAX_TERMS = {MAX_TERMS:,}")
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
