"""Reference scans for the morphism data: admissible j's, the radical's odd
pairs and the morphism rows, as spolink computed them before it read the
all-divisible j's off base-p digits and took each row's binomial from one
Lucas column.  The tests replay the library against these scans.
"""

from __future__ import annotations

from spolink.padic import all_divisible, binom_mod
from spolink.spo21 import is_admissible_psi


def admissible_js_scan(k: int, p: int) -> list[int]:
    """Every j with k - 1 - 2j >= 0, kept when is_admissible_psi holds."""
    return [j for j in range((k + 1) // 2) if is_admissible_psi(k, j, p)]


def rad_basis_scan(k: int, p: int) -> list[tuple[int, int]]:
    """The radical's pairs: the even ones with i >= 1, the odd one with i = 0
    when p does not divide k, and the odd ones whose run is not all divisible;
    k >= 0."""
    if k == 0:
        return []
    out = [(i, 0) for i in range(1, k + 1)]
    if k % p != 0:
        out.append((0, 1))
    return out + [(j, 1) for j in range(1, k) if not all_divisible(k, j, p)]


def psi_rows_scan(k: int, j: int, p: int) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """The (k, j) morphism's target head and rows, with one binom_mod per row;
    (k, j) admissible."""
    rows = []
    for eps in (0, 1):
        for i in range(k + 1 - eps):
            c = binom_mod(i, j, p) if eps else i * binom_mod(i - 1, j, p) % p
            rows.append((i, eps, i - j - 1 + eps, 1 - eps, c))
    return k - 1 - 2 * j, rows
