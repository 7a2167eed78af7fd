"""Comparison words over {<, ≤, ≥, >} and the weights attached to them.

A weight k determines base-p digits a_0, ..., a_u of k + 1.  Words of length
u + 1 are grown generation by generation, each with its weight ell; each
live word names the simple constituent of highest weight ell of the induced
rank-one module of highest weight k, so the live words are its constituent
list as built: no weight repeats and none is negative.

A word is held as an int code with two bits per position, position i in bits
2i and 2i + 1, and the symbol SYMBOLS[s] at code s: < = 0, ≤ = 1, ≥ = 2,
> = 3.  build_words holds codes and weights in parallel lists of a Words
sequence, which spells a word only when it is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .padic import digits

LT = "<"
LE = "≤"  # ≤
GE = "≥"  # ≥
GT = ">"
SYMBOLS = (LT, LE, GE, GT)

# code & 3 of a non-head word: first kind (≥...) or second kind (<...)
FIRST = SYMBOLS.index(GE)
SECOND = SYMBOLS.index(LT)

MAX_DIGITS = 20  # live words grow exponentially with the digit count


class PrunedWord(NamedTuple):
    word: str
    ell: int


class Words(Sequence):
    """Live words of width positions as parallel lists of codes and weights;
    item i is spelled into a PrunedWord when it is read."""

    def __init__(self, codes: list[int], ells: list[int], width: int) -> None:
        self.codes, self.ells, self.width = codes, ells, width

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int) -> PrunedWord:
        word = "".join([SYMBOLS[self.codes[i] >> s & 3] for s in range(0, 2 * self.width, 2)])
        return PrunedWord(word, self.ells[i])


def build_words(k: int, p: int, lead: int | None = None, t: int = 1) -> Words:
    """The live words for weight k >= 0 with their weights, in listing order;
    with lead FIRST or SECOND, only those opening with t copies of its symbol.

    Words have one position per base-p digit a_0, ..., a_u of k + 1.  The
    listing is the base word < ≤ ... ≤ (generation -1), then generations
    0, ..., u - 1.  Generation j holds the bumps of generation j - 1 (its
    trailing < at j becomes ≥, the ≤ at j + 1 becomes <), then the spikes of
    the words of generations -1, ..., j - 2 in listing order (the ≤ at j
    becomes >, the ≤ at j + 1 becomes <).  A bump lowers the weight ell = k
    by 2 a_j p^j, a spike by 2 (a_j + 1) p^j.

    A word is dead when it has > at a digit p - 1 or < at a digit 0.  Dead
    positions are never rewritten except a trailing < by a bump, so a word
    dead before its trailing < is never built, and one dead only there is
    built for its bumps but not listed.  At most MAX_DIGITS digits.

    No rewrite at j touches a position below j, so the words opening with ≥^t
    grow from the bump chain ≥^t < ≤ ... ≤ of generation t - 1, those opening
    with < from the base word less generation 0 (≥ < ≤ ... ≤), and none with
    < <.  Each such subtree is grown alone, in the order of the whole listing.
    """
    if k < 0:
        raise ValueError(f"build_words() needs k >= 0, got {k}")
    a = digits(k + 1, p)
    if len(a) > MAX_DIGITS:
        raise ValueError(
            f"k = {k} needs {len(a)} base-{p} digits; words are built for at most {MAX_DIGITS}"
        )
    u = len(a) - 1
    base = sum(1 << 2 * i for i in range(1, u + 1))  # < ≤ ... ≤
    if lead is None or lead == SECOND and t == 1:
        j0, seed, ell = 0, base, k
    elif lead == FIRST and t <= u:  # each bump of the chain lowers ell by 2 a_i p^i
        seed = (4**t - 1) // 3 * FIRST | base >> 2 * t + 2 << 2 * t + 2
        j0, ell = t, k - 2 * ((k + 1) % p**t)
    else:
        return Words([], [], u + 1)
    prev, prev_ells = [seed], [ell]  # generation j - 1, all live before position j
    codes, ells = ([seed], [ell]) if a[j0] else ([], [])
    earlier, earlier_ells = [], []  # live words of generations -1, ..., j - 2
    if lead == SECOND:  # the state after generation 0, less its one word
        j0, prev, prev_ells, earlier, earlier_ells = 1, [], [], codes[:], ells[:]
    q = p**j0
    for j in range(j0, u):
        keep = ~(15 << 2 * j)  # clears positions j and j + 1
        bump, spike = 2 << 2 * j, 3 << 2 * j  # ≥ < and > < at j, j + 1
        drop = 2 * a[j] * q
        gen = [c & keep | bump for c in prev]
        gen_ells = [e - drop for e in prev_ells]
        if a[j] != p - 1:
            drop += 2 * q
            gen += [c & keep | spike for c in earlier]
            gen_ells += [e - drop for e in earlier_ells]
        if a[j]:
            earlier += prev
            earlier_ells += prev_ells
        if a[j + 1]:
            codes += gen
            ells += gen_ells
        prev, prev_ells = gen, gen_ells
        q *= p
    return Words(codes, ells, u + 1)
