from collections import Counter

import pytest
from reference_tables import basis_h0_r

from spolink.characters import MAX_TERMS, TooManyTerms, ch_L_spo, ch_truncate, peel, poly_shift
from spolink.frobenius import (
    GrtMonomial,
    ch_h0_r,
    ch_l_r,
    comp_factors_r,
    hom_r,
    psi_r_ker_im_coker,
    psi_r_table,
    psi_r_tsv,
    socle_basis_r,
)
from spolink.spo21 import MINUS, PLUS, block_of

PRIMES = (3, 5)


def test_basis_h0_r():
    basis = basis_h0_r(5, 1, 3, MINUS)
    assert len(basis) == 6
    assert sorted(m.weight for m in basis) == [0, 1, 2, 3, 4, 5]
    for l in (-4, 0, 7):
        assert len(basis_h0_r(l, 2, 3, MINUS)) == 2 * 9
        assert len(basis_h0_r(l, 1, 5, PLUS)) == 10


def test_plus_side_weights_mirror_minus():
    # the plus module of head k shares its character with the minus module
    # of head 2p^r - k - 1
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for k in (-3, 0, q, 2 * q - 1, 2 * q + 4):
                plus = sorted(m.weight for m in basis_h0_r(k, r, p, PLUS))
                minus = sorted(m.weight for m in basis_h0_r(2 * q - k - 1, r, p, MINUS))
                assert plus == minus


def test_socle_basis_r_known():
    got = socle_basis_r(3, 1, 3, MINUS)
    assert got == [GrtMonomial(MINUS, 3, 0, 0)]
    assert len(socle_basis_r(2, 1, 3, MINUS)) == 5
    assert ch_l_r(2, 1, 3) == ch_L_spo(2, 3)  # small simple survives truncation


def test_listings_past_max_terms_are_refused():
    # 2 * 3^12 = 1,062,882 candidate monomials
    assert 2 * 3**12 > MAX_TERMS > 2 * 3**11
    for listing in (basis_h0_r, socle_basis_r):
        with pytest.raises(TooManyTerms, match="MAX_TERMS"):
            listing(1, 12, 3, MINUS)
    for table in (psi_r_table, psi_r_tsv):
        with pytest.raises(TooManyTerms):
            table(1, 12, 3)


def test_socle_shift_invariance():
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for l in range(-q, q + 1):
                base = [(m.idx, m.eps) for m in socle_basis_r(l, r, p, MINUS)]
                for t in (-2, 1, 5):
                    shifted = [
                        (m.idx, m.eps) for m in socle_basis_r(l + t * q, r, p, MINUS)
                    ]
                    assert shifted == base


def test_ch_l_r_is_truncated_group_character():
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for l in range(q, 2 * q):
                assert ch_l_r(l, r, p) == ch_truncate(ch_L_spo(l, p), l, r, p)


def test_hom_r():
    assert hom_r(4, 1, 1, 3) == (1, "odd")
    assert hom_r(4, 2, 1, 3) == (0, None)
    for p in PRIMES:
        for r in (1, 2):
            assert hom_r(p**r, p**r - 1, r, p) == (1, "odd")


def test_psi_r_table_normalisation():
    tab = psi_r_table(3, 1, 3)
    src = GrtMonomial(PLUS, 3, 2, 1)
    assert tab.rows[src] == (GrtMonomial(MINUS, 2, 0, 0), 1)
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for k in (-2, 0, q, 2 * q - 1, 3 * q + 1):
                tab = psi_r_table(k, r, p)
                src = GrtMonomial(PLUS, k, q - 1, 1)
                tgt = GrtMonomial(MINUS, 2 * q - k - 1, 0, 0)
                assert tab.rows[src] == (tgt, 1)


def test_psi_r_shift_covariance():
    # coefficients only depend on k mod p^r
    for p in PRIMES:
        r, q = 1, p
        for k in range(q, 2 * q):
            base = psi_r_table(k, r, p)
            for t in (-2, 3):
                other = psi_r_table(k + t * q, r, p)
                for src, row in base.rows.items():
                    src2 = GrtMonomial(PLUS, k + t * q, src.idx, src.eps)
                    assert _indices(other.rows[src2]) == _indices(row)


def _indices(row):
    # a table row with its target's head dropped: (idx, eps, coeff), or None
    return row and (row[0].idx, row[0].eps, row[1])


def test_comp_factors_r_known():
    assert dict(comp_factors_r(3, 1, 3)) == {3: 1, 2: 1}
    assert dict(comp_factors_r(9, 2, 3)) == {9: 1, 8: 1, 3: 1}
    assert dict(comp_factors_r(5, 1, 3)) == {5: 1, 0: 1}
    assert dict(comp_factors_r(1, 1, 3)) == {1: 1, -2: 1}


def test_comp_factors_r_shift():
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for l in range(-q, 2 * q):
                base = comp_factors_r(l, r, p)
                for t in (-1, 2):
                    want = Counter({hw + t * q: m for hw, m in base.items()})
                    assert comp_factors_r(l + t * q, r, p) == want


@pytest.mark.parametrize("p", PRIMES)
def test_comp_factors_r_equal_truncated_peel(p):
    for r in (1, 2):
        q = p**r

        def simple(hw):
            m = (hw - q) % q + q
            return poly_shift(ch_truncate(ch_L_spo(m, p), m, r, p), hw - m)

        for l in range(-2 * q, 2 * q + 1):
            assert comp_factors_r(l, r, p) == peel(ch_h0_r(l, r, p), simple)


def test_block_of_r_known():
    assert block_of(-1, 3) == 0
    assert block_of(3, 3) == 2
    for p in PRIMES:
        for a in range(p):
            for t in (-3, 0, 4):
                assert block_of(a + 2 * p * t, p) == a


@pytest.mark.parametrize("p", PRIMES)
def test_factors_stay_in_block_r(p):
    for r in (1, 2):
        for l in range(-30, 60):
            b = block_of(l, p)
            assert all(block_of(f, p) == b for f in comp_factors_r(l, r, p))


def test_psi_r_ker_im_coker():
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            ker, im, coker = psi_r_ker_im_coker(q, r, p)
            assert dict(im) == {q - 1: 1}
            want = comp_factors_r(q - 1, r, p) - Counter({q - 1: 1})
            assert ker == want and coker == want


def test_dimension_conservation():
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for l in range(-q, 2 * q + 1):
                total = sum(len(ch_l_r(hw, r, p)) for hw in comp_factors_r(l, r, p))
                assert total == 2 * q
