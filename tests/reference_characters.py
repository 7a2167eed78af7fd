"""Reference characters: the tuple-keyed product expansion and the
dict-residual greedy peel.

These are the forms the library replaced with an int-keyed expansion
(spolink.rootdata) and a dense list residual (spolink.characters); the tests
replay the library against them.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import Callable

from spolink.characters import NegativeResidualError, Poly1
from spolink.padic import MAX_TERMS, TooManyTerms
from spolink.rootdata import PolyN


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
