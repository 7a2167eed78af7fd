"""Reference listings with only test callers: the whole thickened basis as
monomials, and a MorphismTable written out row by row from its objects.
The tests take table digests and the text writers' expected bytes from these.
"""

from __future__ import annotations

from spolink.characters import check_terms
from spolink.frobenius import GrtMonomial


def basis_h0_r(l: int, r: int, p: int, side: str) -> list[GrtMonomial]:
    """The 2 p^r monomials with idx < p^r and eps in {0, 1}; any integer head."""
    q = p**r
    check_terms(2 * q)
    out = [GrtMonomial(side, l, idx, 0) for idx in range(q)]
    out += [GrtMonomial(side, l, idx, 1) for idx in range(q)]
    return out


def table_tsv(table) -> str:
    """A MorphismTable as source/target/coeff lines, one per source in row
    order; a killed source has target and coeff 0."""
    lines = ["source\ttarget\tcoeff\n"]
    for src, row in table.rows.items():
        target, coeff = row or (0, 0)
        lines.append(f"{src}\t{target}\t{coeff}\n")
    return "".join(lines)
