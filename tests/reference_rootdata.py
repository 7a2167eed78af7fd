"""Reference positive systems: the block-by-block builder spolink.rootdata
replaced with a filter over the full root list.

Each family of positive roots is written out from the flag's symplectic and
orthogonal subsequences; the tests replay the library's phi_plus against it
on every signed flag.
"""

from __future__ import annotations

from itertools import combinations

from spolink.rootdata import (
    ODD,
    OR,
    SP,
    GroupShape,
    Label,
    Root,
    check_flag,
    label_vec,
    vadd,
    vsub,
)


def phi_plus(flag: tuple[Label, ...], shape: GroupShape) -> set[Root]:
    """Positive system of the Borel attached to a maximal isotropic flag.

    The symplectic subsequence b_1.., the orthogonal subsequence c_1.. (both
    in flag order, signed): sums and ordered differences within each block,
    the doubled symplectic weights, the mixed sums, and the mixed differences
    signed by which label comes first.  The single-label roots exist only in
    the odd parity type.
    """
    check_flag(flag, shape)
    pos = {label: t for t, label in enumerate(flag)}
    bs = [lb for lb in flag if lb[0] == SP]
    cs = [lb for lb in flag if lb[0] == OR]
    out: set[Root] = set()
    for block in (bs, cs):
        for a, b in combinations(block, 2):
            va, vb = label_vec(a, shape), label_vec(b, shape)
            out.add(Root(vsub(va, vb), "even", None))
            out.add(Root(vadd(va, vb), "even", None))
    for lb in bs:
        v = label_vec(lb, shape)
        out.add(Root(tuple(2 * c for c in v), "even", None))
    if shape.parity_type == ODD:
        for lb in cs:
            out.add(Root(label_vec(lb, shape), "even", None))
        for lb in bs:
            out.add(Root(label_vec(lb, shape), "odd", False))
    for b in bs:
        for c in cs:
            vb, vc = label_vec(b, shape), label_vec(c, shape)
            out.add(Root(vadd(vb, vc), "odd", True))
            diff = vsub(vb, vc) if pos[b] < pos[c] else vsub(vc, vb)
            out.add(Root(diff, "odd", True))
    return out
