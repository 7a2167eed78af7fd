import inspect
from itertools import product

import pytest
import reference_characters as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_characters import ch_H0_sl2, ch_H0_spo, ch_L_sl2, ch_L_spo, ch_truncate, poly_shift

from spolink import characters, padic, verify
from spolink.characters import bits_L_sl2, bits_L_spo, pack, peel
from spolink.padic import binom_mod, digits
from spolink.rootdata import (
    EVEN,
    ODD,
    GroupShape,
    chain_of_borels,
    ch_product_Zr,
    phi_plus,
    standard_flag,
)

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


def _never(w):
    raise AssertionError(f"peeled at {w}")


def test_peel_known():
    # ch H0(3) of sl2, the weights 3, 1, -1, -3 at bits 0, 2, 4, 6
    assert peel(0b1010101, lambda w: bits_L_sl2(w, 3), top=3) == {3, 1}
    for p in PRIMES:
        for k in (0, 1, 5, 12):
            assert peel(bits_L_sl2(k, p), lambda w: bits_L_sl2(w, p), top=k) == {k}
    assert peel(0b1111111, lambda w: bits_L_spo(w, 3), top=3) == {3, 2}  # ch H0(3) of spo
    assert peel(0, _never, top=5) == frozenset()


def test_peel_negative_residual(peel=peel):
    # a bare weight 2, or the weights 2 and -2 without 0, is no sum of distinct
    # rank-one simples at p=3, since L(2) holds 2, 0 and -2; a simple character
    # without its head bit is refused too, not peeled forever
    for target in (0b1, 0b10001):
        with pytest.raises(ValueError):
            peel(target, lambda w: bits_L_sl2(w, 3), top=2)
    with pytest.raises(ValueError):
        peel(0b11, lambda w: 0b10, top=1)


def test_a_peel_without_its_containment_test_fails_the_peel_tests():
    # XOR-ing out a head's character that does not lie in what is left turns
    # on bits below it, and 0b10001 then peels to {2, 0}
    source = inspect.getsource(characters.peel)
    assert source.count("bits & ~target or ") == 1
    scope = dict(vars(characters))
    exec(source.replace("bits & ~target or ", ""), scope)
    assert scope["peel"](0b10001, lambda w: bits_L_sl2(w, 3), top=2) == {2, 0}
    with pytest.raises(pytest.fail.Exception):
        test_peel_negative_residual(scope["peel"])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20000), st.integers(-20000, 20000), st.sampled_from((3, 5, 7, 11, 101)),
       st.sampled_from((1, 2)))
def test_peel_equals_the_dict_peel(l, hw, p, r):
    # ch H0(l) of sl2 and spo, and the thickened window at head hw, peeled as
    # bits by the sweeps' builders and as dicts by the reference route
    q = p**r
    for target, top, builder, ch, simple in (
            (((1 << 2 * l + 2) - 1) // 3, l, verify._memo(bits_L_sl2, p),
             ch_H0_sl2(l), verify._memo(ch_L_sl2, p)),
            ((1 << 2 * l + 1) - 1, l, verify._memo(bits_L_spo, p),
             ch_H0_spo(l), verify._memo(ch_L_spo, p)),
            ((1 << 2 * q) - 1, hw, verify._memo(verify.oracle_bits_r, r, p),
             dict.fromkeys(range(hw, hw - 2 * q, -1), 1), verify._memo(ref.oracle_simple_r, r, p))):
        assert peel(target, builder, top=top) == set(ref.peel(ch, simple))


def test_poly_shift():
    assert poly_shift({2: 1, 0: 3}, -2) == {0: 1, -2: 3}


def test_pack_reads_weights_down_from_the_top():
    assert pack({3: 1, 1: 1, -3: 1}, 3) == 0b1000101
    assert pack({-1: 1}, 2) == 0b1000
    assert pack({}, 4) == 0
    for l in (0, 1, 7, 40):
        assert pack(ch_H0_spo(l), l) == 2 ** (2 * l + 1) - 1


@pytest.mark.parametrize("ch, top", [({2: 1, 0: 2}, 2), ({2: 1, 0: 0}, 2), ({3: 1, 1: 1}, 2)])
def test_pack_refuses_a_coefficient_other_than_one_or_a_weight_above_top(ch, top):
    with pytest.raises(ValueError):
        pack(ch, top)


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
                patch.setattr(padic, "MAX_TERMS", terms - 1)
                with pytest.raises(padic.TooManyTerms):
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


SHAPES = [GroupShape(n, m, t) for n in range(4) for m in range(4) if 1 <= n + m <= 3
          for t in (ODD, EVEN)]


@st.composite
def product_inputs(draw):
    """A weight, r and p, and even and odd root lists drawn from a positive
    system of a shape of rank <= 3 at one of its chain flags, mixed with
    hand-made vectors of small coordinates (zero and negative ones too, the
    zero vector included); at most 3 even factors keeps the expansion small."""
    shape = draw(st.sampled_from(SHAPES))
    flag = draw(st.sampled_from(
        [standard_flag(shape)] + [step.flag_to for step in chain_of_borels(shape)]))
    pos = sorted(phi_plus(flag, shape), key=lambda root: root.vec)
    made = st.tuples(*[st.integers(-3, 3)] * shape.rank)
    even = [root.vec for root in pos if root.parity == "even"]
    odd = [root.vec for root in pos if root.parity == "odd"]
    even = draw(st.lists(st.sampled_from(even) | made if even else made, max_size=3))
    odd = draw(st.lists(st.sampled_from(odd) | made if odd else made, max_size=6))
    p, r = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]))
    lam = draw(st.tuples(*[st.integers(-50, 50)] * shape.rank))
    return lam, even, odd, r, p


@settings(max_examples=150, deadline=None)
@given(product_inputs())
def test_ch_product_matches_reference_item_for_item(inputs):
    assert list(ch_product_Zr(*inputs).items()) == list(ref.ch_product_Zr(*inputs).items())


def test_ch_product_matches_reference_on_a_full_rank_three_system():
    shape = GroupShape(2, 1, ODD)
    pos = phi_plus(standard_flag(shape), shape)
    even = sorted(r.vec for r in pos if r.parity == "even")
    odd = sorted(r.vec for r in pos if r.parity == "odd")
    for lam in ((0, 0, 0), (4, -3, 1)):
        got = ch_product_Zr(lam, even, odd, 1, 3)
        assert list(got.items()) == list(ref.ch_product_Zr(lam, even, odd, 1, 3).items())
