"""Exact base-p digit arithmetic: expansions, binomial residues, valuations,
and the two size caps, MAX_PRIME and MAX_TERMS.

Everything here is integer-exact at a fixed odd prime p >= 3.  Characteristic 2
is rejected up front: the rank-one formulas downstream divide by 2.

This is the one module both sides share: the closed forms and the oracles
(the characters module) import it, and it imports neither.
"""

from __future__ import annotations

import math
from collections import namedtuple


def is_odd_prime(p: int) -> bool:
    """True for odd primes >= 3 (2 is deliberately excluded)."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


MAX_PRIME = 2**31  # trial division takes a few milliseconds at most below this


class Prime(namedtuple("Prime", "p")):
    """A validated odd prime below MAX_PRIME, the characteristic used by
    every module."""

    __slots__ = ()

    def __new__(cls, p: int) -> Prime:
        if p >= MAX_PRIME:
            raise ValueError(f"p must be below 2^31 = {MAX_PRIME}, got {p!r}")
        if not is_odd_prime(p):
            raise ValueError(f"need an odd prime >= 3, got {p!r}")
        return tuple.__new__(cls, (p,))


# Rows or terms a listing may hold (thickened ones grow like p^r), and term
# updates a product character's expansion may make.
MAX_TERMS = 1_000_000


class TooManyTerms(ValueError):
    """A listing or expansion that could pass MAX_TERMS, refused before any of the work."""


def check_terms(bound: int, counted: str = "lists up to {:,} rows or terms") -> None:
    """Raise TooManyTerms when bound, the size of a listing or of some work
    that counted describes, passes MAX_TERMS."""
    if bound > MAX_TERMS:
        raise TooManyTerms(f"{counted.format(bound)}, more than MAX_TERMS = {MAX_TERMS:,}")


def digits(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, least significant first; 0 -> []."""
    if n < 0:
        raise ValueError(f"digits() needs n >= 0, got {n}")
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


def binom_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by digitwise products (Lucas); 0 when k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    r = 1
    while k:
        nd = n % p
        kd = k % p
        if kd > nd:
            return 0
        r = r * math.comb(nd, kd) % p
        n //= p
        k //= p
    return r


def binom_column(n: int, j: int, p: int) -> list[int]:
    """C(i, j) mod p for i = 0, ..., n - 1 (Lucas), built one base-p digit d of
    i at a time: the block of digit c is C(c, j_d) times the column so far."""
    col, q = [1], 1
    while q < n or q <= j:  # every digit of i < n, and of j
        f = [math.comb(c, j // q % p) % p for c in range(min(p, -(-n // q)))]
        col = [a * x % p for a in f for x in col]
        q *= p
    return col[:n]


def lucas_support(n: int, p: int) -> list[int]:
    """The i in [0, n], ascending, with C(n, i) nonzero mod p: by Lucas, those
    whose every base-p digit is at most n's; [] for n < 0."""
    if n < 0:
        return []
    out = [0]
    q = 1
    for d in digits(n, p):
        out = [a + c for c in range(0, (d + 1) * q, q) for a in out]
        q *= p
    return out


def lucas_count(n: int, p: int) -> int:
    """len(lucas_support(n, p)) without the listing: the product of n's
    base-p digits plus one; 0 for n < 0."""
    return math.prod(d + 1 for d in digits(n, p)) if n >= 0 else 0


def a_val(l: int, p: int) -> int:
    """Exponent of the exact power of p dividing l != 0."""
    if l == 0:
        raise ValueError("a_val() needs l != 0")
    l = abs(l)
    v = 0
    while l % p == 0:
        v += 1
        l //= p
    return v


def defect(l: int, p: int) -> int:
    """Largest d such that p^d divides l + 1 (always finite for l >= 0)."""
    if l < 0:
        raise ValueError(f"defect() needs l >= 0, got {l}")
    return a_val(l + 1, p)


def all_divisible(k: int, j: int, p: int) -> bool:
    """Whether p divides every one of C(k-j, 1), C(k-j+1, 2), ..., C(k-1, j).

    For j = 0 the set is empty and the answer is vacuously True.  Otherwise
    the run is all-divisible exactly when j < p^a, where p^a is the exact
    power of p dividing k - j.  Callers that additionally need p | k check
    that themselves.
    """
    if not 0 <= j < k:
        raise ValueError(f"all_divisible() needs 0 <= j < k, got j={j}, k={k}")
    if j == 0:
        return True
    return j < p ** a_val(k - j, p)


def divisible_js(k: int, p: int) -> list[int]:
    """The j in [1, k) with all_divisible(k, j, p), ascending, read off k's
    base-p digits: j < p^a needs p^a | k - j, so the one candidate in
    [p^(a-1), p^a) is k mod p^a, kept when it lies there and below k."""
    out, q = [], p
    while q <= k:
        if (j := k % q) * p >= q:
            out.append(j)
        q *= p
    return out
