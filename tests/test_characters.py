from itertools import product

import pytest

from spolink import characters
from spolink.characters import (
    NegativeResidualError,
    ch_H0_sl2,
    ch_H0_spo,
    ch_L_sl2,
    ch_L_spo,
    ch_product_Zr,
    ch_truncate,
    peel,
    poly_shift,
)
from spolink.padic import binom_mod, digits

PRIMES = (3, 5, 7)


def test_ch_h0_sl2_known():
    assert ch_H0_sl2(0) == {0: 1}
    assert ch_H0_sl2(2) == {2: 1, 0: 1, -2: 1}
    assert ch_H0_sl2(3) == {3: 1, 1: 1, -1: 1, -3: 1}


def test_ch_l_sl2_known():
    assert ch_L_sl2(3, 3) == {3: 1, -3: 1}
    for p in PRIMES:
        assert ch_L_sl2(p - 1, p) == ch_H0_sl2(p - 1)  # full string
        assert ch_L_sl2(0, p) == {0: 1}


@pytest.mark.parametrize("p", PRIMES)
def test_ch_l_sl2_against_binomials(p):
    for k in range(0, 400):
        want = {k - 2 * i: 1 for i in range(k + 1) if binom_mod(k, i, p)}
        assert ch_L_sl2(k, p) == want


def reference_ch_L_sl2(k, p):
    """The simple character by a product over all digit choices, one sum per
    term: the reference for the digit-by-digit build."""
    ranges = [range(d + 1) for d in digits(k, p)]
    out = {}
    for combo in product(*ranges):
        i = sum(c * p**t for t, c in enumerate(combo))
        out[k - 2 * i] = 1
    return out


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_ch_l_sl2_matches_reference_in_key_order(p):
    for k in range(3001):
        assert list(ch_L_sl2(k, p).items()) == list(reference_ch_L_sl2(k, p).items())


def test_ch_h0_spo_known():
    assert ch_H0_spo(3) == {w: 1 for w in range(-3, 4)}
    assert ch_H0_spo(0) == {0: 1}
    assert ch_H0_spo(1) == {1: 1, 0: 1, -1: 1}
    for l in range(1, 50):
        merged = dict(ch_H0_sl2(l))
        merged.update(ch_H0_sl2(l - 1))
        assert ch_H0_spo(l) == merged


def test_ch_l_spo_known():
    assert ch_L_spo(3, 3) == {3: 1, -3: 1}
    assert ch_L_spo(2, 3) == {w: 1 for w in range(-2, 3)}
    for p in PRIMES:
        assert ch_L_spo(0, p) == {0: 1}


def test_ch_truncate():
    # the thickened induced window at head 5, r = 1, p = 3
    assert ch_truncate(ch_H0_spo(5), 5, 1, 3) == {w: 1 for w in range(0, 6)}
    assert ch_truncate(ch_L_spo(3, 3), 3, 1, 3) == {3: 1}


def test_peel_known():
    assert dict(peel(ch_H0_sl2(3), lambda w: ch_L_sl2(w, 3))) == {3: 1, 1: 1}
    for p in PRIMES:
        for k in (0, 1, 5, 12):
            assert dict(peel(ch_L_sl2(k, p), lambda w: ch_L_sl2(w, p))) == {k: 1}
    assert dict(peel(ch_H0_spo(3), lambda w: ch_L_spo(w, 3))) == {3: 1, 2: 1}


def test_peel_negative_residual():
    # a bare weight-2 term is not a nonnegative sum of rank-one simples at p=3
    with pytest.raises(NegativeResidualError):
        peel({2: 1}, lambda w: ch_L_sl2(w, 3))


def test_peel_multiplicities():
    doubled = {w: 2 * c for w, c in ch_H0_sl2(3).items()}
    assert dict(peel(doubled, lambda w: ch_L_sl2(w, 3))) == {3: 2, 1: 2}


def test_poly_shift():
    assert poly_shift({2: 1, 0: 3}, -2) == {0: 1, -2: 3}


def test_ch_product_total_mass():
    # rank (1,1) odd-type standard data: 2 even and 3 odd positive roots
    even = [(2, 0), (0, 1)]
    odd = [(1, 1), (1, 0), (1, -1)]
    ch = ch_product_Zr((0, 0), even, odd, 1, 3)
    assert sum(ch.values()) == 2**3 * 3**2
    assert ch[(0, 0) if (0, 0) in ch else max(ch)] >= 1
    assert max(ch) == (0, 0) and ch[(0, 0)] == 1  # leading coefficient one


def test_ch_product_term_bound_is_an_upper_bound(monkeypatch):
    # the check refuses a product whose term count could pass MAX_TERMS, so
    # with the cap one below the true count it must refuse
    for even, odd in [([(2, 0), (0, 1)], [(1, 1), (1, 0), (1, -1)]),
                      ([(1, -1), (1, 1), (2, 0), (0, 2)], [(1, 0, 1), (0, 1, -1)]),
                      ([], [(1,)])]:
        lam = (0,) * len((even + odd)[0])
        for p, r in ((3, 1), (3, 2), (5, 1)):
            terms = len(ch_product_Zr(lam, even, odd, r, p))
            with monkeypatch.context() as patch:
                patch.setattr(characters, "MAX_TERMS", terms - 1)
                with pytest.raises(characters.TooManyTerms):
                    ch_product_Zr(lam, even, odd, r, p)


def test_ch_product_shift_property():
    even = [(2, 0), (0, 1)]
    odd = [(1, 1), (1, 0), (1, -1)]
    base = ch_product_Zr((1, 2), even, odd, 1, 3)
    mu = (2, -1)
    shifted = ch_product_Zr((1 + 3 * mu[0], 2 + 3 * mu[1]), even, odd, 1, 3)
    assert shifted == {
        (w[0] + 3 * mu[0], w[1] + 3 * mu[1]): c for w, c in base.items()
    }
