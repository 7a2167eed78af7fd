import hashlib

import pytest
from reference_characters import ch_H0_spo, ch_L_spo, peel

from spolink import cli, frobenius, sl2, spo21
from spolink.padic import binom_mod, digits
from spolink.spo21 import (
    MINUS,
    PLUS,
    act,
    admissible_js,
    block_of,
    comp_factors_h0,
    hom_dim,
    ker_im_coker_factors,
    psi_rows,
    rad_basis,
    socle_basis,
)
from spolink.words import Words, build_words

PRIMES = (3, 5, 7)


def _basis(head: int) -> list[tuple[int, int]]:
    """The (i, eps) of the induced module of the given head, in basis order."""
    return [(i, 0) for i in range(head + 1)] + [(i, 1) for i in range(head)]


def _weight(head: int, pair: tuple[int, int]) -> int:
    i, eps = pair
    return head - 2 * i - eps


def test_monomial_weights_and_strings():
    assert _weight(5, (2, 1)) == 0
    assert cli._monomial(MINUS, 5, 2, 1) == "x(1,1)^2 x(1,-1)^2 x(1,0')"
    assert _weight(5, (2, 0)) == 1
    assert cli._monomial(PLUS, 5, 2, 0) == "x(-1,-1)^2 x(-1,1)^3"
    assert cli._monomial(MINUS, 0, 0, 0) == "1"


def test_basis_h0_counts():
    # the rows of a morphism list the plus basis of head k, in basis order
    for p in PRIMES:
        for k in range(1, 40):
            for j in admissible_js(k, p):
                sources = [(i, eps) for i, eps, *_ in psi_rows(k, j, p)[1]]
                assert sources == _basis(k)
    for head in range(8):
        weights = sorted(_weight(head, m) for m in _basis(head))
        assert weights == list(range(-head, head + 1))


def test_socle_basis_known():
    assert socle_basis(3, 3) == [(0, 0), (3, 0)]
    assert [cli._monomial(MINUS, 3, *m) for m in socle_basis(3, 3)] == ["x(1,1)^3", "x(1,-1)^3"]
    assert len(socle_basis(2, 3)) == 5
    for p in PRIMES:
        assert socle_basis(0, p) == [(0, 0)]


@pytest.mark.parametrize("p", PRIMES)
def test_socle_matches_simple_character(p):
    for l in range(0, 120):
        assert {_weight(l, m): 1 for m in socle_basis(l, p)} == ch_L_spo(l, p)


def test_act_known():
    k = 6
    assert act("y", k, 2, 1, 7) == ((3, 0), 1)
    # lowering beyond the available exponent vanishes
    assert act("f", k, 4, 0, 7, t=3) is None
    # raising pulls down the first exponent with a binomial coefficient
    i, j = 4, 1
    got = act("e", k, i, 1, 7, t=i - j)
    assert got == ((j, 1), binom_mod(i, i - j, 7))
    with pytest.raises(ValueError):
        act("h", k, 0, 0, 7)


def test_act_single_monomial_images():
    # f(t) lowers the weight by 2t, e(t) raises it by 2t, y lowers it by 1 and
    # x raises it by 1; an image's coefficient is a nonzero residue, and its
    # pair lies in the basis
    for p in (3, 5):
        for head in range(0, 12):
            basis = _basis(head)
            for mono in basis:
                images = [(act(op, head, *mono, p), shift) for op, shift in (("y", -1), ("x", 1))]
                for t in range(1, head + 1):
                    images += [(act("f", head, *mono, p, t), -2 * t),
                               (act("e", head, *mono, p, t), 2 * t)]
                for img, shift in images:
                    if img is not None:
                        assert img[0] in basis, (head, mono, img)
                        assert _weight(head, img[0]) == _weight(head, mono) + shift, (mono, img)
                        assert 0 < img[1] < p


def test_rad_basis_known():
    for p in PRIMES:
        assert rad_basis(0, p) == []
    got = set(rad_basis(3, 3))
    want = {(1, 0), (2, 0), (3, 0), (1, 1), (2, 1)}
    assert got == want  # codimension 2 in the 7-dimensional module


def test_hom_dim_known():
    assert hom_dim(3, 2, 3) == (1, "odd")
    assert hom_dim(3, 0, 3) == (0, None)
    assert hom_dim(3, 3, 3) == (1, "even")
    for p in PRIMES:
        assert hom_dim(0, 0, p) == (1, "even")
        assert hom_dim(0, 2, p) == (0, None)


def _table(k, j, p):
    """The (k, j) rows as a map (i, eps) -> ((ti, teps), c), or None when the
    source is killed."""
    return {(i, eps): ((ti, teps), c) if c else None
            for i, eps, ti, teps, c in psi_rows(k, j, p)[1]}


def test_psi_table_known():
    l, _ = psi_rows(3, 0, 3)
    assert l == 2
    rows = _table(3, 0, 3)
    assert rows[1, 0] == ((0, 1), 1)
    assert rows[2, 0] == ((1, 1), 2)
    assert rows[0, 0] is None
    assert rows[3, 0] is None
    # normalisation: the odd source with i = j hits the target head monomial
    assert rows[0, 1] == ((0, 0), 1)
    with pytest.raises(ValueError):
        psi_rows(4, 0, 3)  # j = 0 needs p | k


def test_psi_table_odd_sources_below_j_vanish():
    k, j, p = 13, 4, 3
    rows = _table(k, j, p)
    for i in range(j):
        assert rows[i, 1] is None


def _kernel_names(k, j, p, capsys) -> list[str]:
    """The names the kernel subcommand prints, one a line."""
    assert cli.main(["kernel", "--p", str(p), "--k", str(k), "--j", str(j), "--format", "tsv"]) == 0
    return capsys.readouterr().out.splitlines()


def test_kernel_basis_known(capsys):
    assert set(_kernel_names(3, 0, 3, capsys)) == {"x(-1,1)^3", "x(-1,-1)^3"}
    for k, j in ((4, 0), (3, 5)):
        with pytest.raises(ValueError, match=f"^\\(k={k}, j={j}\\) is not admissible at p=3$"):
            cli.run(["kernel", "--p", "3", "--k", str(k), "--j", str(j)])


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_matches_table_zero_rows(p, capsys):
    for k in range(1, 120):
        for j in admissible_js(k, p):
            rows = _table(k, j, p)
            zero = [cli._monomial(PLUS, k, *s) for s, row in rows.items() if row is None]
            assert zero == _kernel_names(k, j, p, capsys)
            assert len(rows) == 2 * k + 1


@pytest.mark.parametrize("p", PRIMES)
def test_table_kernel_is_act_stable(p):
    # a kernel is a submodule: every operator image of a monomial the rows
    # send to 0 is again one, so a wrongly zeroed row shows
    for k in range(1, 60):
        for j in admissible_js(k, p):
            kernel = {s for s, row in _table(k, j, p).items() if row is None}
            for mono in kernel:
                images = [act("y", k, *mono, p), act("x", k, *mono, p)]
                for t in range(1, k + 1):
                    images += [act("e", k, *mono, p, t), act("f", k, *mono, p, t)]
                for img in images:
                    assert img is None or img[0] in kernel, (k, j, mono, img)


def test_psi_equivariance_on_odd_sources():
    # raising first and mapping equals mapping first and raising
    for p in (3, 5):
        for k in range(1, 201):
            for j in admissible_js(k, p):
                l, rows = k - 1 - 2 * j, _table(k, j, p)
                for i in range(j, min(k, j + 6)):
                    src = {(i, 1): 1}
                    lhs_vec = src
                    if i > j:
                        lhs_vec = _linear(lambda m: act("e", k, *m, p, t=i - j), src, p)
                    lhs = _linear(lambda m: rows[m], lhs_vec, p)
                    rhs = _linear(lambda m: rows[m], src, p)
                    if i > j:
                        rhs = _linear(lambda m: act("e", l, *m, p, t=i - j), rhs, p)
                    assert lhs == rhs, (k, j, i, p)


def _linear(image, vec, p):
    """Extend a map on basis pairs, m -> (target, coeff) or None, linearly
    to a vector {pair: coeff}, coefficients mod p."""
    out: dict = {}
    for src, c in vec.items():
        if img := image(src):
            tgt, coeff = img
            out[tgt] = (out.get(tgt, 0) + c * coeff) % p
    return {m: c for m, c in out.items() if c}


def test_comp_factors_known():
    assert comp_factors_h0(3, 3) == {3, 2}
    assert comp_factors_h0(5, 3) == {5, 0}
    assert comp_factors_h0(9, 3) == {9, 8, 3}
    for p in PRIMES:
        for l in range(p - 1):
            assert comp_factors_h0(l, p) == {l}


def _doubled_words(k, p):
    """build_words with its last live word listed twice."""
    w = build_words(k, p)
    return Words(w.codes + w.codes[-1:], w.ells + w.ells[-1:], w.width)


def _doubled_parts(l, p, real=spo21.branch_parts):
    """branch_parts with its last weight listed twice."""
    parts = real(l, p)
    return parts + parts[-1:]


@pytest.mark.parametrize("module, name, fake, produce", [
    (sl2, "build_words", _doubled_words, lambda: sl2.decompose_sl2(9, 3)),
    (spo21, "branch_parts", _doubled_parts, lambda: spo21.comp_factors_h0(9, 3)),
    (frobenius, "branch_parts", _doubled_parts, lambda: frobenius.comp_factors_r(-5, 2, 3)),
], ids=["decompose_sl2", "comp_factors_h0", "comp_factors_r"])
def test_a_repeated_weight_raises(monkeypatch, module, name, fake, produce):
    # the constituents are a frozenset, which would merge a repeated weight
    # silently; each producer's length assert is what refuses it
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(AssertionError, match="multiplicity > 1"):
        produce()


@pytest.mark.parametrize("p", PRIMES)
def test_comp_factors_equal_peel(p):
    for l in range(0, 400):
        want = peel(ch_H0_spo(l), lambda w: ch_L_spo(w, p))
        assert dict.fromkeys(comp_factors_h0(l, p), 1) == want


def test_block_of_known():
    assert block_of(3, 3) == 2
    for p in PRIMES:
        for a in range(p):
            assert block_of(a, p) == a
        assert block_of(2 * p - 1, p) == 0
    # any integer: -1 is congruent to 2p - 1
    assert block_of(-1, 3) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_factors_stay_in_block(p):
    for l in range(0, 300):
        b = block_of(l, p)
        assert all(block_of(f, p) == b for f in comp_factors_h0(l, p))


def test_ker_im_coker_j0():
    assert ker_im_coker_factors(3, 0, 3) == ({3}, {2}, set())
    assert ker_im_coker_factors(6, 0, 3) == ({6}, {5}, {0})


# Every k < 2000 that p divides, and 10- to 13-digit multiples of p (10 digits
# at p = 3, whose words are built for at most 20 base-3 digits).
J0_HEADS = {
    3: [*range(3, 2000, 3), 3_000_000_021, 3_370_370_367],
    5: [*range(5, 2000, 5), 999_999_999_995, 1_234_567_890_125],
    7: [*range(7, 2000, 7), 9_999_999_999_997, 6_913_580_247_007],
}


def test_ker_im_coker_j0_unchanged():
    # recorded when j = 0 still had its own closed-form word lists
    lines = [f"{p} {k} " + " | ".join(str(sorted((hw, 1) for hw in part))
                                      for part in ker_im_coker_factors(k, 0, p))
             for p, heads in J0_HEADS.items() for k in heads]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == "cfeb3b66a426bbd4"


def test_ker_im_coker_j_positive():
    assert ker_im_coker_factors(10, 1, 3) == ({10, 4}, {7}, {4})


@pytest.mark.parametrize("p", (3, 5, 7))
def test_admissible_head_never_opens_the_image(p):
    # the j > 0 image is the words of k - 1 opening with t >=, t the digit
    # length of j; _branch drops the head (weight k - 1), which is safe only
    # because the head never opens so for an admissible j
    from spolink.words import GE, build_words

    for k in range(2, 400):
        for j in [j for j in admissible_js(k, p) if j]:
            t = len(digits(j, p))
            assert [pw for pw in build_words(k - 1, p)
                    if pw.ell == k - 1 and pw.word[:t] == GE * t] == [], (k, j)


@pytest.mark.parametrize("p", (3, 5))
def test_ker_plus_im_is_domain(p):
    for k in range(1, 200):
        for j in admissible_js(k, p):
            ker, im, coker = ker_im_coker_factors(k, j, p)
            assert ker.isdisjoint(im) and ker | im == comp_factors_h0(k, p)
            assert coker.isdisjoint(im) and coker | im == comp_factors_h0(k - 1 - 2 * j, p)
            assert all(isinstance(part, frozenset) for part in (ker, im, coker))


def test_image_reindexing_claim():
    # each image word (t leading >=) re-reads against the image head weight:
    # swap the prefix for < and t-1 copies of <=, bump position t from < to <=
    # or from >= to >, and the word weight is unchanged.  The prefix length t
    # must run through every zero digit above j, i.e. t is the exact power of
    # p in k - j; the re-read word can be longer than the smaller weight's
    # digit string, so evaluate with zero-padded digits.
    from spolink.padic import a_val, digits
    from spolink.words import GE, GT, LE, LT, build_words

    def ell_padded(m, word, p):
        a = digits(m + 1, p)
        a += [0] * (len(word) - len(a))
        total = m
        for i, sym in enumerate(word):
            if sym == GE:
                total -= 2 * a[i] * p**i
            elif sym == GT:
                total -= 2 * (a[i] + 1) * p**i
        return total

    for p in (3, 5):
        for k in range(1, 200):
            for j in admissible_js(k, p):
                if j == 0:
                    continue
                assert len(digits(j, p)) <= int(a_val(k - j, p))
                t = int(a_val(k - j, p))
                head = k - 1 - 2 * j
                reread = set()
                for pw in build_words(k - 1, p):
                    if pw.word[:t] != GE * t:
                        continue
                    z = LT + LE * (t - 1)
                    z += LE if pw.word[t] == LT else GT
                    z += pw.word[t + 1 :]
                    assert ell_padded(head, z, p) == pw.ell, (k, j, pw)
                    reread.add(ell_padded(head, z, p))
                _, im, _ = ker_im_coker_factors(k, j, p)
                assert set(im) == reread, (k, j, p)
