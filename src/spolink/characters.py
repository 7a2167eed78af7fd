"""The oracle side: formal characters as dict Laurent polynomials, and the
greedy peel that decomposes them.

Characters are dicts {weight: coefficient} with int weights, and zero
coefficients are never stored.  Internally the peel keeps its residual in a
list indexed down from the top weight; pack reads a 0/1 character down from
its top weight into the bits of an int, and bits_L_sl2 and bits_L_spo build
the simple characters in that form straight from base-p digits.  Only
spolink.verify imports this module, and it imports nothing from spolink but
padic, the layer both sides share; a CI step checks both.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from .padic import check_terms, digits

Poly1 = dict[int, int]


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


def bits_L_sl2(k: int, p: int) -> int:
    """ch_L_sl2(k, p) as bits, equal to pack(ch_L_sl2(k, p), k): bit 2i for each
    i digit-dominated by k, built digit by digit (the Steinberg product).  The
    copies OR-ed in for one digit are disjoint, since the lower digits reach
    bit 2(p^t - 1) at most; the assert keeps every coefficient 1."""
    if k < 0:
        raise ValueError("bits_L_sl2() needs k >= 0")
    bits = 1
    for t, d in enumerate(digits(k, p)):
        step, acc = 2 * p**t, bits
        for c in range(1, d + 1):
            shifted = bits << c * step
            assert not acc & shifted
            acc |= shifted
        bits = acc
    return bits


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


def bits_L_spo(l: int, p: int) -> int:
    """ch_L_spo(l, p) as bits, equal to pack(ch_L_spo(l, p), l): the string of
    l on the even bits and, when p does not divide l, that of l - 1 on the odd."""
    if l < 0:
        raise ValueError("bits_L_spo() needs l >= 0")
    bits = bits_L_sl2(l, p)
    if l % p != 0:
        odd = bits_L_sl2(l - 1, p) << 1
        assert not bits & odd
        bits |= odd
    return bits


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


def pack(ch: Poly1, top: int) -> int:
    """A 0/1 character as an int with bit top - w set for each weight w, so
    weights read down from the top.  Raises ValueError on a coefficient other
    than 1 or a weight above top."""
    bits = 0
    for w, c in ch.items():
        if c != 1 or w > top:
            raise ValueError(f"pack() needs coefficients 1 at weights <= {top}, got {c} at {w}")
        bits |= 1 << (top - w)
    return bits
