import pytest
from reference_characters import ch_L_spo, ch_truncate, peel, poly_shift

from spolink import cli
from spolink.frobenius import (
    ch_h0_r,
    ch_l_r,
    comp_factors_r,
    hom_r,
    psi_r_ker_im_coker,
    psi_r_rows,
    socle_basis_r,
)
from spolink.padic import MAX_TERMS, TooManyTerms
from spolink.spo21 import MINUS, block_of

PRIMES = (3, 5)


def _plus_weights(k, r, p):
    """Weights of the plus basis of head k, read off the sources of its rows."""
    return sorted(2 * i + eps - k for i, eps, *_ in psi_r_rows(k, r, p)[1])


def test_basis_h0_r():
    # the rows list the 2p^r pairs (idx, eps), idx < p^r, in basis order
    for p, r in ((3, 1), (3, 2), (5, 1)):
        q = p**r
        for k in (-4, 0, 7):
            sources = [(i, eps) for i, eps, *_ in psi_r_rows(k, r, p)[1]]
            assert sources == [(i, eps) for eps in (0, 1) for i in range(q)]
    assert _plus_weights(0, 1, 3) == [0, 1, 2, 3, 4, 5]


def test_plus_side_weights_mirror_minus():
    # the plus module of head k shares its character with the minus module
    # of head 2p^r - k - 1
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for k in (-3, 0, q, 2 * q - 1, 2 * q + 4):
                assert _plus_weights(k, r, p) == sorted(ch_h0_r(2 * q - k - 1, r, p))


def test_socle_basis_r_known():
    assert socle_basis_r(3, 1, 3) == [(0, 0)]
    assert cli._monomial(MINUS, 3, 0, 0, grt=True) == "x(1,1)^3"
    assert len(socle_basis_r(2, 1, 3)) == 5
    assert ch_l_r(2, 1, 3) == ch_L_spo(2, 3)  # small simple survives truncation


def test_listings_past_max_terms_are_refused():
    # 2 * 3^12 = 1,062,882 candidate monomials
    assert 2 * 3**12 > MAX_TERMS > 2 * 3**11
    with pytest.raises(TooManyTerms, match="MAX_TERMS"):
        socle_basis_r(1, 12, 3)
    with pytest.raises(TooManyTerms):
        psi_r_rows(1, 12, 3)


def test_socle_shift_invariance():
    # a shift by p^r moves every socle weight by p^r: the (idx, eps) stay
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for l in range(-q, q + 1):
                base = ch_l_r(l, r, p)
                for t in (-2, 1, 5):
                    assert ch_l_r(l + t * q, r, p) == poly_shift(base, t * q)


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
    # the odd source with idx = p^r - 1 hits the target head monomial
    lt, rows = psi_r_rows(3, 1, 3)
    assert lt == 2 and (2, 1, 0, 0, 1) in rows
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for k in (-2, 0, q, 2 * q - 1, 3 * q + 1):
                lt, rows = psi_r_rows(k, r, p)
                assert lt == 2 * q - k - 1
                assert rows[-1] == (q - 1, 1, 0, 0, 1)


def test_psi_r_shift_covariance():
    # the rows, which leave out both heads, only depend on k mod p^r
    for p in PRIMES:
        r, q = 1, p
        for k in range(q, 2 * q):
            base = psi_r_rows(k, r, p)[1]
            for t in (-2, 3):
                assert psi_r_rows(k + t * q, r, p)[1] == base


def test_comp_factors_r_known():
    assert comp_factors_r(3, 1, 3) == {3, 2}
    assert comp_factors_r(9, 2, 3) == {9, 8, 3}
    assert comp_factors_r(5, 1, 3) == {5, 0}
    assert comp_factors_r(1, 1, 3) == {1, -2}


def test_comp_factors_r_shift():
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for l in range(-q, 2 * q):
                base = comp_factors_r(l, r, p)
                for t in (-1, 2):
                    want = {hw + t * q for hw in base}
                    assert comp_factors_r(l + t * q, r, p) == want


@pytest.mark.parametrize("p", PRIMES)
def test_comp_factors_r_equal_truncated_peel(p):
    for r in (1, 2):
        q = p**r

        def simple(hw):
            m = (hw - q) % q + q
            return poly_shift(ch_truncate(ch_L_spo(m, p), m, r, p), hw - m)

        for l in range(-2 * q, 2 * q + 1):
            want = peel(ch_h0_r(l, r, p), simple)
            assert dict.fromkeys(comp_factors_r(l, r, p), 1) == want


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
            assert im == {q - 1}
            want = comp_factors_r(q - 1, r, p) - {q - 1}
            assert ker == want and coker == want


def test_dimension_conservation():
    for p in PRIMES:
        for r in (1, 2):
            q = p**r
            for l in range(-q, 2 * q + 1):
                total = sum(len(ch_l_r(hw, r, p)) for hw in comp_factors_r(l, r, p))
                assert total == 2 * q
