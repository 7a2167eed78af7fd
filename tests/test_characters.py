import ast
from collections import Counter
from itertools import product

import pytest
import reference_characters as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from spolink import padic
from spolink.characters import (
    NegativeResidualError,
    ch_H0_sl2,
    ch_H0_spo,
    ch_L_sl2,
    ch_L_spo,
    ch_truncate,
    pack,
    peel,
    poly_shift,
)
from spolink.padic import MAX_TERMS, TooManyTerms, binom_mod, digits
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


def _outcome(peel_fn, ch, simple):
    """peel's factors in order with the weights it asked simple for, or the
    error it raised; a leftover residual compares as a dict, whatever its order."""
    asked = []

    def recorded(w):
        asked.append(w)
        return simple(w)

    try:
        return list(peel_fn(ch, recorded).items()), asked
    except ValueError as exc:  # NegativeResidualError, or simple() refusing a weight
        head, _, rest = str(exc).partition(": ")
        if head == "nonzero residual left":
            return type(exc), head, ast.literal_eval(rest), asked
        return type(exc), str(exc), asked


@st.composite
def peel_inputs(draw):
    """A character and a family of simple characters to peel it with.

    Either sums of rank-one induced characters with multiplicities, peeled by
    the simples of that rank, or arbitrary small characters peeled by a made-up
    family w -> e^w + sum c_d e^(w+d), whose offsets d may reach above the
    cursor or below the floor and whose coefficients may be zero or negative.
    Either input may carry zero coefficients and stray terms."""
    ch: Counter = Counter()
    if draw(st.booleans()):
        p = draw(st.sampled_from((2, 3, 5, 7)))
        induced, simple_of = draw(st.sampled_from([(ch_H0_sl2, ch_L_sl2), (ch_H0_spo, ch_L_spo)]))
        for l, mult in draw(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 3)),
                                     min_size=1, max_size=4)):
            for w, c in induced(l).items():
                ch[w] += mult * c
        simple = lambda w: simple_of(w, p)
    else:
        ch.update(draw(st.dictionaries(st.integers(-30, 30), st.integers(-1, 3), max_size=12)))
        extra = draw(st.dictionaries(st.integers(-80, 40).filter(bool), st.integers(-2, 2),
                                     max_size=4))
        simple = lambda w: {w: 1, **{w + d: c for d, c in extra.items()}}
    for w, c in draw(st.dictionaries(st.integers(-70, 70), st.integers(-1, 1), max_size=3)).items():
        ch[w] += c
    for w in draw(st.lists(st.integers(-100, 100), max_size=3)):
        ch.setdefault(w, 0)
    return dict(ch), simple


@settings(max_examples=300, deadline=None)
@given(peel_inputs())
def test_peel_matches_reference(inputs):
    ch, simple = inputs
    assert _outcome(peel, ch, simple) == _outcome(ref.peel, ch, simple)


def test_peel_matches_reference_on_residual_outside_the_span():
    def high(w):  # terms above the cursor, which a later peel may cancel
        return {w: 1, w + 3: 1} if w % 2 else {w: 1, w + 1: -1}

    def low(w):  # a term below the floor, never peeled
        return {w: 1, w - 50: 1}

    for simple in (high, low, lambda w: {w: 1, w + 1: 0}):
        for ch in ({5: 1, 4: 1}, {5: 2, 4: 1, 3: 0}, {7: 1, 6: 2, 0: 1}, {0: 0}, {}):
            assert _outcome(peel, ch, simple) == _outcome(ref.peel, ch, simple)


def _never(w):
    raise AssertionError(f"peeled at {w}")


@settings(max_examples=50, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(MAX_TERMS + 1, 4 * MAX_TERMS))
def test_peel_refuses_a_span_past_max_terms_at_once(top, span):
    # spans stay small enough that a peel without the cap fails on _never, not
    # by filling memory
    with pytest.raises(TooManyTerms, match="MAX_TERMS"):
        peel({top: 1, top - span + 1: 2}, _never)


def test_peel_span_bound_is_exact_and_skips_zero_terms():
    assert peel({MAX_TERMS - 1: 1, 0: 2}, lambda w: {w: 1}) == Counter({MAX_TERMS - 1: 1, 0: 2})
    assert peel({10**15: 0, 4: 1, -10**15: 0}, lambda w: {w: 1}) == Counter({4: 1})
    with pytest.raises(TooManyTerms, match="MAX_TERMS"):
        peel({10**15: 1, -10**15: 1}, _never)
