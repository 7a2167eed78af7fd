"""The oracle side: the rank-one simple characters as bitsets, and the greedy
peel that decomposes a bitset into them.

A character with every coefficient 0 or 1 is an int read down from a top
weight: bit top - w is set for each weight w of the character.  bits_L_sl2
and bits_L_spo build the simple character of highest weight l in that form,
with top l, straight from base-p digits; pack reads a dict {weight: 1} into
it.  Only spolink.verify imports this module, and it imports nothing from
spolink but padic, the layer both sides share; a CI step checks both.
"""

from __future__ import annotations

from typing import Callable

from .padic import digits


def bits_L_sl2(k: int, p: int) -> int:
    """The simple character of highest weight k, with top k: bit 2i, weight
    k - 2i, for each i digit-dominated by k in base p, i.e. with p not dividing
    C(k, i).  It is built digit by digit (the Steinberg product).  The copies
    OR-ed in for one digit are disjoint, since the lower digits reach bit
    2(p^t - 1) at most; the assert keeps every coefficient 1."""
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


def bits_L_spo(l: int, p: int) -> int:
    """The simple super character of highest weight l, with top l: the string
    bits_L_sl2(l, p) on the even bits and, when p does not divide l, the
    string bits_L_sl2(l - 1, p) of weight l - 1 on the odd bits."""
    if l < 0:
        raise ValueError("bits_L_spo() needs l >= 0")
    bits = bits_L_sl2(l, p)
    if l % p != 0:
        odd = bits_L_sl2(l - 1, p) << 1
        assert not bits & odd
        bits |= odd
    return bits


def peel(target: int, packed: Callable[[int], int], *, top: int) -> frozenset[int]:
    """The heads of the simple characters that cover target (bit top - w for
    each weight w) exactly once, where packed(f) is the simple character of
    head f (bit f - w for weight w, bit 0 its head).

    Greedy from the top: the lowest bit i left is the next head, top - i, and
    its character, moved up to bit i, must hold bit i and lie inside what is
    left.  Raises ValueError when it does not, so target is no sum of
    distinct simple characters."""
    heads = []
    while target:
        low = target & -target
        head = top - low.bit_length() + 1
        bits = packed(head) << (top - head)
        if bits & ~target or not bits & low:
            raise ValueError(f"the simple character at {head} does not lie in what is left")
        target ^= bits
        heads.append(head)
    return frozenset(heads)


def pack(ch: dict[int, int], top: int) -> int:
    """A 0/1 character as an int with bit top - w set for each weight w, so
    weights read down from the top.  Raises ValueError on a coefficient other
    than 1 or a weight above top."""
    bits = 0
    for w, c in ch.items():
        if c != 1 or w > top:
            raise ValueError(f"pack() needs coefficients 1 at weights <= {top}, got {c} at {w}")
        bits |= 1 << (top - w)
    return bits
