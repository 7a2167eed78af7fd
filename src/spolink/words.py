"""Comparison words over {<, ≤, ≥, >} and the weight/subset maps attached to them.

A weight k determines base-p digits a_0, ..., a_u of k + 1.  Words of length
u + 1 are grown generation by generation, each with its weight ell; each
live word names the simple constituent of highest weight ell of the induced
rank-one module of highest weight k, so the live words are its constituent
list as built: no weight repeats and none is negative.
"""

from __future__ import annotations

from typing import NamedTuple

from .padic import digits

LT = "<"
LE = "≤"  # ≤
GE = "≥"  # ≥
GT = ">"

BASE = "base"
FIRST = "first"
SECOND = "second"

MAX_DIGITS = 20  # live words grow exponentially with the digit count


class PrunedWord(NamedTuple):
    word: str
    gen: int
    ell: int


def build_words(k: int, p: int) -> list[PrunedWord]:
    """The live words for weight k >= 0 with their weights, in listing order.

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
    """
    if k < 0:
        raise ValueError(f"build_words() needs k >= 0, got {k}")
    a = digits(k + 1, p)
    if len(a) > MAX_DIGITS:
        raise ValueError(
            f"k = {k} needs {len(a)} base-{p} digits; words are built for at most {MAX_DIGITS}"
        )
    u = len(a) - 1
    base = LT + LE * u
    prev = [(base, k)]  # generation j - 1, all live before position j
    out = [PrunedWord(base, -1, k)] if a[0] else []
    earlier: list[tuple[str, int]] = []  # live words of generations -1, ..., j - 2
    q = 1
    for j in range(u):
        gen = [(w[:j] + GE + LT + w[j + 2 :], e - 2 * a[j] * q) for w, e in prev]
        if a[j] != p - 1:
            drop = 2 * (a[j] + 1) * q
            gen += [(w[:j] + GT + LT + w[j + 2 :], e - drop) for w, e in earlier]
        if a[j]:
            earlier += prev
        if a[j + 1]:
            out += [PrunedWord(w, j, e) for w, e in gen]
        prev = gen
        q *= p
    return out


def kind(word: str, gen: int) -> str:
    """base for the unique generation -1 word, else first (≥...) or second (<...)."""
    if gen == -1:
        return BASE
    if word[0] == GE:
        return FIRST
    if word[0] == LT:
        return SECOND
    raise AssertionError(f"word {word!r} starts with {word[0]!r}: constructor bug")
