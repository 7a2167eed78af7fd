"""Closed-form constituents of rank-one induced modules and the matching
linkage predicate."""

from __future__ import annotations

from .padic import defect
from .words import build_words


def decompose_sl2(k: int, p: int) -> frozenset[int]:
    """Highest weights of the simple constituents of the induced module of
    highest weight k >= 0: one per live word, the words' weights asserted
    pairwise distinct, so every multiplicity is 1."""
    if k < 0:
        raise ValueError("decompose_sl2() needs k >= 0")
    ells = build_words(k, p).ells
    out = frozenset(ells)
    assert len(out) == len(ells), f"multiplicity > 1 at k={k}: {sorted(ells)}"
    assert k in out, f"head weight {k} missing from its own decomposition"
    return out


def linked_sl2(l: int, k: int, p: int) -> bool:
    """Whether the nonnegative weights l and k lie in one rank-one block:
    equal defects d, and l congruent to k or to -k-2 modulo 2 p^(d+1)."""
    if l < 0 or k < 0:
        raise ValueError("linked_sl2() needs l, k >= 0")
    d = defect(l, p)
    if defect(k, p) != d:
        return False
    mod = 2 * p ** (d + 1)
    return (l - k) % mod == 0 or (l + k + 2) % mod == 0
