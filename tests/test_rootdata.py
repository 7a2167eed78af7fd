from fractions import Fraction
from itertools import permutations, product

import pytest
import reference_rootdata as ref

from spolink import padic, rootdata
from spolink.rootdata import (
    EVEN,
    ODD,
    OR,
    SP,
    GroupShape,
    Move,
    apply_move,
    ch_z_flag,
    chain_of_borels,
    label_str,
    lambda_bracket,
    negate_flag,
    pairing,
    parse_label,
    phi_plus,
    phi_plus_vecs,
    rho_parts,
    roots,
    standard_flag,
    vneg,
)

SHAPES = [
    GroupShape(n, m, t)
    for n in range(5)
    for m in range(5 - n)
    if n + m >= 1
    for t in (ODD, EVEN)
]


def test_shape_validation():
    with pytest.raises(ValueError):
        GroupShape(0, 0, ODD)
    with pytest.raises(ValueError):
        GroupShape(1, 1, "mixed")


def test_label_roundtrip():
    for lb in [(SP, 1), (SP, -2), (OR, 1), (OR, -3)]:
        assert parse_label(label_str(lb)) == lb


def test_root_counts():
    shape = GroupShape(1, 1, ODD)
    rs = roots(shape)
    assert sum(1 for r in rs if r.parity == "even") == 4
    assert sum(1 for r in rs if r.parity == "odd") == 6
    shape = GroupShape(1, 1, EVEN)
    rs = roots(shape)
    assert sum(1 for r in rs if r.parity == "even") == 2
    assert sum(1 for r in rs if r.parity == "odd") == 4
    for shape in SHAPES:
        rs = roots(shape)
        n, m = shape.n, shape.m
        even = sum(1 for r in rs if r.parity == "even")
        odd = sum(1 for r in rs if r.parity == "odd")
        if shape.parity_type == ODD:
            assert even == 2 * n * n + 2 * m * m
            assert odd == 4 * n * m + 2 * n
        else:
            assert even == 2 * n * n + 2 * m * m - 2 * m
            assert odd == 4 * n * m


def test_phi_plus_standard_rank11():
    shape = GroupShape(1, 1, ODD)
    pos = {r.vec for r in phi_plus(standard_flag(shape), shape)}
    assert pos == {(2, 0), (0, 1), (1, 1), (1, 0), (1, -1)}


def test_phi_plus_negated_flag():
    for shape in SHAPES:
        fl = standard_flag(shape)
        pos = phi_plus_vecs(fl, shape)
        neg = phi_plus_vecs(negate_flag(fl), shape)
        assert neg == {vneg(v) for v in pos}


def test_phi_plus_halves_roots():
    for shape in SHAPES:
        pos = phi_plus_vecs(standard_flag(shape), shape)
        assert len(pos) == len(roots(shape)) // 2
        assert not pos & {vneg(v) for v in pos}


def _signed_flags(shape):
    """Every maximal isotropic flag of the shape: each order of its labels,
    each with every sign pattern."""
    for perm in permutations(standard_flag(shape)):
        for signs in product((1, -1), repeat=len(perm)):
            yield tuple((kd, s * i) for (kd, i), s in zip(perm, signs))


def test_phi_plus_equals_the_reference_on_every_flag():
    # phiplus --flag, rho --flag and lambda-bracket accept any flag, not only
    # the chain's: 4,280 signed flags over the shapes of rank <= 4
    flags = 0
    for shape in SHAPES:
        for fl in _signed_flags(shape):
            assert phi_plus(fl, shape) == ref.phi_plus(fl, shape), (shape, fl)
            flags += 1
    assert flags == 4280


def test_isotropy_flags():
    for shape in SHAPES:
        for r in phi_plus(standard_flag(shape), shape):
            if r.parity == "odd":
                zero = pairing(r.vec, r.vec, shape) == 0
                assert r.isotropic == zero
            else:
                assert r.isotropic is None


def test_apply_move_known():
    shape = GroupShape(1, 1, ODD)
    fl = standard_flag(shape)  # <1, 1bar>
    res = apply_move(fl, Move("transpose", 0), shape)
    assert res.flag_to == ((OR, 1), (SP, 1))
    assert res.alpha == (1, -1)
    assert res.levi == "GL11"
    res2 = apply_move(res.flag_to, Move("flip_symplectic"), shape)
    assert res2.flag_to == ((OR, 1), (SP, -1))
    assert res2.removed == {(1, 0), (2, 0)}
    assert res2.levi == "SPO21"


def test_apply_move_even_type_flip():
    shape = GroupShape(1, 1, EVEN)
    fl = ((OR, 1), (SP, 1))
    res = apply_move(fl, Move("flip_symplectic"), shape)
    assert res.removed == {(2, 0)}
    assert res.levi == "SL2"
    with pytest.raises(ValueError):
        apply_move(standard_flag(GroupShape(1, 1, EVEN)), Move("flip_orthogonal"), shape)


def test_relabel_is_borel_neutral():
    shape = GroupShape(1, 2, EVEN)
    fl = ((SP, -1), (OR, 1), (OR, 2))
    res = apply_move(fl, Move("relabel_orthogonal"), shape)
    assert res.flag_to == ((SP, -1), (OR, 1), (OR, -2))
    assert phi_plus_vecs(fl, shape) == phi_plus_vecs(res.flag_to, shape)


def test_chain_rank11_odd():
    shape = GroupShape(1, 1, ODD)
    steps = chain_of_borels(shape)
    assert len(steps) == 4
    flags = [steps[0].flag_from] + [s.flag_to for s in steps]
    assert [tuple(label_str(lb) for lb in fl) for fl in flags] == [
        ("1", "1bar"),
        ("1bar", "1"),
        ("1bar", "-1"),
        ("-1", "1bar"),
        ("-1", "-1bar"),
    ]


def test_chain_counts_and_endpoints():
    for shape in SHAPES:
        steps = chain_of_borels(shape)
        moves = [s for s in steps if s.move.kind != "relabel_orthogonal"]
        total = (shape.n + shape.m) ** 2
        if shape.parity_type == ODD:
            assert len(moves) == total
        else:
            assert len(moves) == total - shape.m
            assert len(steps) == total
        final = steps[-1].flag_to if steps else standard_flag(shape)
        assert final == negate_flag(standard_flag(shape))


def test_chain_steps_replay():
    for shape in SHAPES:
        for step in chain_of_borels(shape):
            res = apply_move(step.flag_from, step.move, shape)
            assert res.flag_to == step.flag_to
            before = phi_plus_vecs(step.flag_from, shape)
            after = phi_plus_vecs(step.flag_to, shape)
            assert before - after == set(res.removed)
            assert after - before == {vneg(v) for v in res.removed}


def test_all_moves_on_all_flags_small_rank():
    # every legal move on every flag declares the exact positive-system delta
    for shape in SHAPES:
        if shape.rank > 3:
            continue
        for fl in _signed_flags(shape):
            moves = [Move("transpose", s) for s in range(len(fl) - 1)]
            last = fl[-1][0]
            if last == SP:
                moves.append(Move("flip_symplectic"))
            elif shape.parity_type == ODD:
                moves.append(Move("flip_orthogonal"))
            else:
                moves.append(Move("relabel_orthogonal"))
            before = phi_plus_vecs(fl, shape)
            for mv in moves:
                res = apply_move(fl, mv, shape)
                after = phi_plus_vecs(res.flag_to, shape)
                assert before - after == set(res.removed), (shape, fl, mv)
                assert after - before == {vneg(v) for v in res.removed}, (shape, fl, mv)


def test_rho_parts_standard_rank11():
    shape = GroupShape(1, 1, ODD)
    rho0, rho1, rho = rho_parts(standard_flag(shape), shape)  # all doubled
    assert rho0 == (2, 1)  # rho0 = delta + eps/2
    assert rho1 == (3, 0)  # rho1 = 3/2 delta
    assert rho == (-1, 1)


def test_pairing_values():
    shape = GroupShape(2, 1, ODD)
    d1 = (1, 0, 0)
    assert pairing(d1, d1, shape) == 1
    assert pairing((2, 0, 0), (2, 0, 0), shape) == 4  # 2*delta_1 with itself
    iso = (1, 0, -1)  # delta_1 - eps_1
    assert pairing(iso, iso, shape) == 0
    rho0, rho1, _ = rho_parts(standard_flag(shape), shape)  # 2 rho0, 2 rho1
    for j in (1, 2):
        dj = tuple(1 if t == j - 1 else 0 for t in range(3))
        assert pairing(rho0, dj, shape) == 2 * (shape.n - j + 1)
        assert pairing(rho1, dj, shape) == 2 * shape.m + 1


def test_pre_flip_pairing_values():
    for shape in SHAPES:
        if shape.parity_type != ODD:
            continue
        for step in chain_of_borels(shape):
            if step.move.kind != "flip_symplectic":
                continue
            alpha = step.alpha
            rho0f, rho1f, _ = rho_parts(step.flag_from, shape)  # 2 rho0, 2 rho1
            assert pairing(rho0f, alpha, shape) == 2
            assert pairing(rho1f, alpha, shape) == 1


def test_lambda_bracket_standard_identity():
    for shape in SHAPES[:8]:
        lam = tuple(range(1, shape.rank + 1))
        assert lambda_bracket(lam, standard_flag(shape), shape, 1, 3) == lam


def test_lambda_bracket_integral_and_identity():
    # the bracket also reads lam + p^r (rho0F - rho0) - (rhoF - rho)
    for t in (ODD, EVEN):
        shape = GroupShape(1, 1, t)
        rho0s, _, rhos = rho_parts(standard_flag(shape), shape)
        for step in chain_of_borels(shape):
            fl = step.flag_to
            rho0f, _, rhof = rho_parts(fl, shape)
            for a in range(-1, 2):
                for b in range(-1, 2):
                    lam = (a, b)
                    br = lambda_bracket(lam, fl, shape, 1, 3)
                    # the rho parts are doubled, so halve the shift exactly
                    alt = tuple(
                        lam[i] + Fraction(3 * (rho0f[i] - rho0s[i]) - (rhof[i] - rhos[i]), 2)
                        for i in range(2)
                    )
                    assert br == alt
                    assert all(type(c) is int for c in br)


def test_ch_z_flag_mass_and_leading_term():
    shape = GroupShape(1, 1, ODD)
    fl = standard_flag(shape)
    lam = (0, 0)
    ch = ch_z_flag(lam, fl, shape, 1, 3)
    assert sum(ch.values()) == 2**3 * 3**2
    assert ch[(0, 0)] == 1 and max(ch) == (0, 0)


def test_ch_z_flag_independence_small():
    shape = GroupShape(1, 1, ODD)
    steps = chain_of_borels(shape)
    flags = [standard_flag(shape)] + [s.flag_to for s in steps]
    lam = (1, 1)
    chars = [
        ch_z_flag(lambda_bracket(lam, fl, shape, 1, 3), fl, shape, 1, 3)
        for fl in flags
    ]
    assert all(c == chars[0] for c in chars)


def test_the_size_cap_sits_at_the_root_integer_count(monkeypatch):
    # the closed-form count times the rank is what roots lists: admitted at
    # MAX_TERMS = that size, refused one below by roots and chain_of_borels alike
    sizes = {shape: len(roots(shape)) * shape.rank for shape in SHAPES}
    for shape, size in sizes.items():
        monkeypatch.setattr(padic, "MAX_TERMS", size - 1)
        roots.cache_clear()
        for build in (roots, chain_of_borels):
            with pytest.raises(ValueError, match=f"{size:,} integers in all") as exc:
                build(shape)
            assert type(exc.value) is ValueError  # not TooManyTerms, which the CLI pins on --r
        monkeypatch.setattr(padic, "MAX_TERMS", size)
        assert len(roots(shape)) * shape.rank == size
        chain_of_borels(shape)


def test_the_largest_rank_79_shape_is_admitted():
    shape = GroupShape(79, 0, ODD)  # 12,640 roots: 998,560 integers, the most at rank 79
    assert len(roots(shape)) * shape.rank == 998_560
    assert len(chain_of_borels(shape)) == 79 * 79


@pytest.mark.parametrize("shape", [GroupShape(80, 0, ODD), GroupShape(0, 80, EVEN),
                                   GroupShape(40, 40, ODD), GroupShape(1000, 0, ODD)])
def test_rank_80_is_refused_before_any_root_is_built(monkeypatch, shape):
    def built(*args):
        raise AssertionError("root data built before the size check")

    monkeypatch.setattr(rootdata, "delta", built)  # roots' first step
    monkeypatch.setattr(rootdata, "standard_flag", built)  # chain_of_borels' first step
    for build in (roots, chain_of_borels):
        with pytest.raises(ValueError, match="more than MAX_TERMS = 1,000,000; lower n [+] m"):
            build(shape)
