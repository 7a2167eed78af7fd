import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_words as ref
from spolink.padic import digits
from spolink.spo21 import _branch
from spolink.words import (
    FIRST,
    GE,
    GT,
    LE,
    LT,
    MAX_DIGITS,
    SECOND,
    SYMBOLS,
    PrunedWord,
    build_words,
)

PRIMES = (3, 5, 7)


def test_build_words_first_generations():
    got = ref.build_words(1, 4)
    assert [w for w, _ in got] == [LT + LE * 4, GE + LT + LE * 3]
    assert [g for _, g in got] == [-1, 0]
    assert ref.build_words(0, 0) == [(LT, -1)]
    assert ref.build_words(1, 0) == [(LT, -1)]  # no room for generation 0
    # digits(k + 1, 7) = [1, 2]: the base word and generation 0, both live
    assert list(build_words(14, 7)) == [(LT + LE, 14), (GE + LT, 12)]
    assert list(build_words(0, 3)) == [(LT, 0)]


def test_build_words_sizes():
    for s in range(0, 9):
        got = ref.build_words(s, 10)
        assert len(got) == 2**s if s >= 1 else 1
        # generation j contributes 2^j words
        for j in range(s):
            assert sum(1 for _, g in got if g == j) == max(2**j, 1)
    # no digit of k + 1 is 0 or p - 1: all 2^u words live
    for u in range(0, 9):
        assert len(build_words(2 * (101 ** (u + 1) - 1) // 100 - 1, 101)) == 2**u


def test_build_words_rejects_overlong():
    with pytest.raises(ValueError):
        ref.build_words(6, 4)
    with pytest.raises(ValueError):
        ref.build_words(-1, 4)
    with pytest.raises(ValueError):
        build_words(-1, 3)
    assert len(build_words(3**MAX_DIGITS - 2, 3)) == MAX_DIGITS
    with pytest.raises(ValueError, match=f"at most {MAX_DIGITS}"):
        build_words(3**MAX_DIGITS - 1, 3)
    with pytest.raises(ValueError, match=f"at most {MAX_DIGITS}"):
        build_words(10**26, 3)


def test_ell_known():
    assert ref.ell(3, LT + LE, 3) == 3
    assert ref.ell(3, GE + LT, 3) == 1  # digits(4, 3) = [1, 1]
    with pytest.raises(ValueError):
        ref.ell(3, LT + LE + LE, 3)
    assert [pw.ell for pw in build_words(3, 3)] == [3, 1]


def test_s_set_known():
    assert ref.s_set(3, LT + LE, 3) == {0, 3}
    assert ref.s_set(3, GE + LT, 3) == {1, 2}
    # < at a position whose digit is 0 empties the set: digits(3, 3) = [0, 1]
    assert ref.s_set(2, LT + LE, 3) == set()


def _lists(live):
    return live.codes, live.ells


def test_codes_known():
    # two bits per position, position 0 lowest: < = 0, ≤ = 1, ≥ = 2, > = 3
    assert SYMBOLS == (LT, LE, GE, GT)
    assert _lists(build_words(14, 7)) == ([0b0100, 0b0010], [14, 12])
    assert _lists(build_words(0, 3)) == ([0], [0])
    # digits(12, 3) = [0, 1, 1]: the base word is dead, ≥<≤ and ≥≥< live
    live = build_words(11, 3)
    assert _lists(live) == ([0b010010, 0b001010], [11, 5])
    assert [pw.word for pw in live] == [GE + LT + LE, GE + GE + LT]


def test_words_read_as_a_list():
    live = build_words(11, 3)
    spelled = [PrunedWord(GE + LT + LE, 11), PrunedWord(GE + GE + LT, 5)]
    assert len(live) == 2 and live[-1] == spelled[-1]
    assert list(live) == spelled and type(live[0]) is PrunedWord
    assert list(live) == list(build_words(11, 3)) and list(live) != list(build_words(11, 5))


def test_prune_known():
    surv = build_words(3, 3)
    assert [(pw.word, pw.ell) for pw in surv] == [(LT + LE, 3), (GE + LT, 1)]
    surv = build_words(2, 3)  # digits(3,3) = [0,1]: the base word is dead
    assert [(pw.word, pw.ell) for pw in surv] == [(GE + LT, 2)]


@pytest.mark.parametrize("p", PRIMES)
def test_covering_partition(p):
    # for weights whose digits avoid 0 and p-1, the surviving subsets tile
    # {0, ..., k} and the smallest element recovers the weight drop
    for k in range(0, 1001):
        dg = digits(k + 1, p)
        if any(d in (0, p - 1) for d in dg):
            continue
        seen = []
        for pw in build_words(k, p):
            block = ref.s_set(k, pw.word, p)
            assert block, pw
            assert min(block) == (k - pw.ell) // 2
            seen.extend(block)
        assert sorted(seen) == list(range(k + 1)), f"k={k}, p={p}"


@pytest.mark.parametrize("p", PRIMES)
def test_min_element_matches_weight_drop(p):
    for k in range(0, 301):
        for pw in build_words(k, p):
            block = ref.s_set(k, pw.word, p)
            if block:
                assert min(block) == (k - pw.ell) // 2


def _reference_live(k: int, p: int) -> list[PrunedWord]:
    """The reference's full listing with the dead words dropped, weighed one
    word at a time."""
    a = digits(k + 1, p)
    return [
        PrunedWord(w, ref.ell(k, w, p))
        for w, _ in ref.build_words(len(a), len(a) - 1)
        if not ref.is_dead(w, a, p)
    ]


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_pruned_words_match_reference_exhaustively(p):
    # the live words need neither the reference's deduplication nor its
    # dropping of negative weights
    for k in range(0, 2001):
        live = build_words(k, p)
        for drop_negative in (True, False):
            assert list(live) == ref.pruned_words(k, p, drop_negative), (k, p, drop_negative)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from((3, 5, 7, 11, 101)), n_digits=st.integers(1, 14), data=st.data())
def test_live_words_match_reference_at_random_k(p, n_digits, data):
    # k + 1 has exactly n_digits base-p digits
    k = data.draw(st.integers(p ** (n_digits - 1) - 1, p**n_digits - 2), label="k")
    live = list(build_words(k, p))
    want = _reference_live(k, p)
    assert live == want
    for drop_negative in (True, False):
        assert live == ref.prune([pw.word for pw in want], k, p, drop_negative)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from((3, 5, 7, 11, 101)), n_digits=st.integers(1, 16), data=st.data())
def test_live_weights_are_distinct_and_nonnegative(p, n_digits, data):
    k = data.draw(st.integers(p ** (n_digits - 1) - 1, p**n_digits - 2), label="k")
    ells = [pw.ell for pw in build_words(k, p)]
    assert len(set(ells)) == len(ells)
    assert min(ells) >= 0


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from((3, 5, 7, 11, 101)), n_digits=st.integers(1, 16), data=st.data())
def test_code_filters_match_spelled_words(p, n_digits, data):
    k = data.draw(st.integers(p ** (n_digits - 1) - 1, p**n_digits - 2), label="k")
    live = build_words(k, p)
    codes, spelled = live.codes, list(live)
    assert [pw.ell for pw in spelled] == live.ells
    # a code's low two bits are the spelled first symbol, and every word but
    # the base (< ≤ ... ≤) opens with ≥ (first kind) or < (second kind)
    assert [SYMBOLS[c & 3] for c in codes] == [pw.word[0] for pw in spelled]
    assert all(pw.word[0] in (GE, LT) for pw in spelled)
    # the head is the word of weight k: the base word, or its bump when a_0 = 0
    rest = [pw for pw in spelled if pw.ell != k]
    assert _branch(k, p, FIRST) == [pw.ell for pw in rest if pw.word[0] == GE]
    assert _branch(k, p, SECOND) == [pw.ell for pw in rest if pw.word[0] == LT]
    # the leading-≥ mask of ker_im_coker_factors, for every cut t <= u + 1
    # (no head qualifies there: test_spo21's admissible-head test)
    for t in range(1, n_digits + 1):
        assert _branch(k, p, FIRST, t) == [pw.ell for pw in rest if pw.word[:t] == GE * t]
