"""Reference socle listings: a scan over every index with its binomial
residue, as spolink listed socles before it enumerated their base-p digits.
The tests replay the digit listings against these scans.
"""

from __future__ import annotations

from spolink.padic import binom_mod


def support_scan(n: int, p: int) -> list[int]:
    """The i in [0, n] with C(n, i) nonzero mod p."""
    return [i for i in range(n + 1) if binom_mod(n, i, p)]


def socle_scan(l: int, p: int) -> list[tuple[int, int]]:
    """(i, eps) of the even monomials with C(l, i) nonzero mod p, then (when p
    does not divide l) of the odd ones with C(l-1, i) nonzero; l >= 0."""
    out = [(i, 0) for i in range(l + 1) if binom_mod(l, i, p)]
    if l % p != 0:
        out += [(i, 1) for i in range(l) if binom_mod(l - 1, i, p)]
    return out


def socle_scan_r(l: int, r: int, p: int) -> list[tuple[int, int]]:
    """The same over idx < p^r for any integer head, with l and l - 1 read
    mod p^r."""
    q = p**r
    out = [(idx, 0) for idx in range(q) if binom_mod(l % q, idx, p)]
    if l % p != 0:
        out += [(idx, 1) for idx in range(q) if binom_mod((l - 1) % q, idx, p)]
    return out
