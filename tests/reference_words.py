"""Reference word builder: all 2^u words of length u + 1, dead or alive, and
a pruning pass that finds the dead ones and the weights afterwards.

This is the builder spolink.words replaced with one that grows only live
words; the tests replay the library against it.  The subset map s_set(k, w)
carves {0, ..., k} into the blocks of weights each constituent covers.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from spolink.padic import digits
from spolink.words import GE, GT, LE, LT, PrunedWord


class WordEntry(NamedTuple):
    word: str
    gen: int


def _bump(word: str, j: int) -> str:
    # first half of generation j: < at j becomes >=, <= at j+1 becomes <
    assert word[j] == LT and word[j + 1] == LE, (word, j)
    return word[:j] + GE + LT + word[j + 2 :]


def _spike(word: str, j: int) -> str:
    # second half of generation j: <= at j becomes >, <= at j+1 becomes <
    assert word[j] == LE and word[j + 1] == LE, (word, j)
    return word[:j] + GT + LT + word[j + 2 :]


def build_words(s: int, u: int) -> list[WordEntry]:
    """Ordered generations -1, 0, ..., s-1 of words of length u + 1.

    Generation j rewrites positions j and j+1, so it exists only for
    j + 1 <= u; requested generations beyond that are silently absent.
    s > u + 1 is rejected outright.
    """
    if s < 0 or u < 0:
        raise ValueError("build_words() needs s, u >= 0")
    if s > u + 1:
        raise ValueError(f"s = {s} exceeds u + 1 = {u + 1}")
    base = LT + LE * u
    out = [WordEntry(base, -1)]
    gens: list[list[str]] = []
    top = min(s - 1, u - 1)
    for j in range(top + 1):
        if j == 0:
            wj = [GE + LT + LE * (u - 1)]
        else:
            first_half = [_bump(w, j) for w in gens[j - 1]]
            earlier = [base] + [w for g in gens[: j - 1] for w in g]
            second_half = [_spike(w, j) for w in earlier]
            wj = first_half + second_half
        gens.append(wj)
        out.extend(WordEntry(w, j) for w in wj)
    return out


def ell(k: int, word: str, p: int) -> int:
    """Weight of a word: k minus 2*a_i*p^i per ≥ and 2*(a_i+1)*p^i per >.

    The digits a_i are those of k + 1; the word length must match their
    count.  The result may be negative.
    """
    a = digits(k + 1, p)
    if len(word) != len(a):
        raise ValueError(f"word length {len(word)} != digit count {len(a)} for k={k}")
    total = k
    for i, sym in enumerate(word):
        if sym == GE:
            total -= 2 * a[i] * p**i
        elif sym == GT:
            total -= 2 * (a[i] + 1) * p**i
    return total


def is_dead(word: str, a: list[int], p: int) -> bool:
    """Whether the word has > at a position whose digit a_i is p - 1, or < at
    a position whose digit is 0."""
    return any(
        (sym == GT and a[i] == p - 1) or (sym == LT and a[i] == 0)
        for i, sym in enumerate(word)
    )


def prune(words: list[str], k: int, p: int, drop_negative: bool = True) -> list[PrunedWord]:
    """Remove dead words, weigh the rest, deduplicate equal weights, optionally
    drop negatives.

    When several surviving words share a weight, the latest-listed one is
    kept.
    """
    a = digits(k + 1, p)
    kept: dict[int, tuple[int, PrunedWord]] = {}
    for idx, word in enumerate(words):
        if is_dead(word, a, p):
            continue
        e = ell(k, word, p)
        kept[e] = (idx, PrunedWord(word, e))
    out = [pw for _, pw in sorted(kept.values())]
    if drop_negative:
        out = [pw for pw in out if pw.ell >= 0]
    return out


def pruned_words(k: int, p: int, drop_negative: bool = True) -> list[PrunedWord]:
    """All surviving words for weight k, from the full 2^u listing."""
    u = max(len(digits(k + 1, p)) - 1, 0)
    return prune([w for w, _ in build_words(u + 1, u)], k, p, drop_negative)


def s_set(k: int, word: str, p: int) -> set[int]:
    """All s = sum s_i p^i whose digits obey the word's per-position constraint.

    <  : 0 <= s_i <= a_i - 1      ≤ : 0 <= s_i <= a_i
    ≥  : a_i <= s_i <= p - 1      > : a_i + 1 <= s_i <= p - 1

    An empty constraint at any position empties the whole set.
    """
    a = digits(k + 1, p)
    if len(word) != len(a):
        raise ValueError(f"word length {len(word)} != digit count {len(a)} for k={k}")
    ranges = []
    for i, sym in enumerate(word):
        if sym == LT:
            r = range(0, a[i])
        elif sym == LE:
            r = range(0, a[i] + 1)
        elif sym == GE:
            r = range(a[i], p)
        else:
            r = range(a[i] + 1, p)
        if len(r) == 0:
            return set()
        ranges.append(r)
    return {sum(s_i * p**i for i, s_i in enumerate(combo)) for combo in product(*ranges)}
