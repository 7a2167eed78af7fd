"""The memoised oracle sweeps still catch a wrong closed form: drop one factor,
basis pair or image at one weight, add or replace one factor, flip one
parity, or build the simple characters' bits wrong, and the matching check
fails, naming that weight.  Each check
keeps its own memo of simple characters, so no fault can hide behind an
answer cached by another check or another prime."""

from collections import Counter

import pytest
from reference_characters import ch_L_spo

from spolink import frobenius, linkage, rootdata, sl2, spo21, verify
from spolink.characters import bits_L_sl2, bits_L_spo, pack
from spolink.padic import digits

PRIMES = (3, 5, 7)


def _drop_smallest(factors: frozenset[int]) -> frozenset[int]:
    return factors - {min(factors)}


def _dropping(fn, at):
    """fn with its smallest factor dropped at the arguments ``at`` only."""
    return lambda *args: _drop_smallest(fn(*args)) if args == at else fn(*args)


def _first_with_two_factors(fn, p):
    return next(l for l in range(4 * p, 10**4) if len(fn(l, p)) >= 2)


@pytest.mark.parametrize("p", PRIMES)
def test_spo_oracle_catches_a_dropped_factor(monkeypatch, p):
    l = _first_with_two_factors(spo21.comp_factors_h0, p)
    monkeypatch.setattr(spo21, "comp_factors_h0", _dropping(spo21.comp_factors_h0, (l, p)))
    ok, detail = verify.check_spo_oracle(lmax=l + 10, primes=tuple(sorted({3, p})))
    assert not ok and f"at l={l}, p={p}:" in detail


@pytest.mark.parametrize("p", PRIMES)
def test_sl2_oracle_catches_a_dropped_factor(monkeypatch, p):
    k = _first_with_two_factors(sl2.decompose_sl2, p)
    monkeypatch.setattr(sl2, "decompose_sl2", _dropping(sl2.decompose_sl2, (k, p)))
    ok, detail = verify.check_sl2_oracle(kmax=k + 10, primes=tuple(sorted({3, p})))
    assert not ok and f"at k={k}, p={p}:" in detail


# criteria 2 and 4: the check, its bound's keyword, the weight's name in the
# message, the closed form's module and name, and the step between weights
SWEEPS = [
    (verify.check_sl2_oracle, "kmax", "k", sl2, "decompose_sl2", 2),
    (verify.check_spo_oracle, "lmax", "l", spo21, "comp_factors_h0", 1),
]


def _add_lowest_missing(factors, l, step):
    """factors with the lowest weight in [0, l] of l's parity (for step 2) that
    is not one of them added."""
    return factors | {next(w for w in range(l % step, l + 1, step) if w not in factors)}


def _replace_lowest_by_a_neighbour(factors, l, step):
    """factors with their lowest member f replaced by f + step, or f - step when
    that is a factor already: a weight in [0, l] of l's parity still."""
    f = min(factors)
    near = next(w for w in (f + step, f - step) if 0 <= w <= l and w not in factors)
    return factors - {f} | {near}


@pytest.mark.parametrize("mutate", [_add_lowest_missing, _replace_lowest_by_a_neighbour])
@pytest.mark.parametrize("check, bound, var, module, name, step", SWEEPS, ids=["sl2", "spo"])
@pytest.mark.parametrize("p", PRIMES)
def test_oracle_sweeps_catch_an_added_or_replaced_factor(
        monkeypatch, mutate, check, bound, var, module, name, step, p):
    true = getattr(module, name)
    l = _first_with_two_factors(true, p)
    monkeypatch.setattr(module, name,
                        lambda *a: mutate(true(*a), l, step) if a == (l, p) else true(*a))
    ok, detail = check(**{bound: l + 10, "primes": tuple(sorted({3, p}))})
    assert not ok and f"at {var}={l}, p={p}:" in detail


@pytest.mark.parametrize("part,message", [
    (0, "kernel characters mismatch"), (1, "image factors mismatch"),
    (2, "cokernel characters mismatch"),
])
def test_psi_tables_catch_a_dropped_factor(monkeypatch, part, message):
    k, j, p = 39, 3, 3  # kernel, image and cokernel each have two factors or more
    true = spo21.ker_im_coker_factors

    def mutant(*args):
        out = list(true(*args))
        if args == (k, j, p):
            out[part] = _drop_smallest(out[part])
        return tuple(out)

    monkeypatch.setattr(spo21, "ker_im_coker_factors", mutant)
    ok, detail = verify.check_psi_tables(kmax=k + 2, primes=(p,))
    assert not ok and detail == f"{message} at (k={k}, j={j}, p={p})"


@pytest.mark.parametrize("part, extra, message", [
    (0, lambda im: -1, "kernel characters mismatch"),
    (2, lambda im: -1, "cokernel characters mismatch"),
    (0, min, "kernel characters mismatch"),  # an image factor in the kernel too
], ids=["negative-kernel", "negative-cokernel", "image-in-kernel"])
def test_psi_tables_catch_an_added_factor(monkeypatch, part, extra, message):
    # a negative weight has no simple character: the check must fail, not raise
    k, j, p = 39, 3, 3
    true = spo21.ker_im_coker_factors

    def mutant(*args):
        out = list(true(*args))
        if args == (k, j, p):
            out[part] = out[part] | {extra(out[1])}
        return tuple(out)

    monkeypatch.setattr(spo21, "ker_im_coker_factors", mutant)
    ok, detail = verify.check_psi_tables(kmax=k + 2, primes=(p,))
    assert (ok, detail) == (False, f"{message} at (k={k}, j={j}, p={p})")


def _zeroing_first_image(fn, at):
    """A row producer fn with its first nonzero coefficient set to 0 at the
    arguments ``at`` only."""
    def mutant(*args):
        head, rows = fn(*args)
        if args == at:
            n = next(n for n, row in enumerate(rows) if row[4])
            rows = rows[:n] + [rows[n][:4] + (0,)] + rows[n + 1:]
        return head, rows
    return mutant


def test_psi_tables_catch_a_zeroed_row(monkeypatch):
    # the rows' image then is no sum of simple characters, so no factors
    # cover it, and the check reports it rather than raising
    k, j, p = 39, 3, 3
    monkeypatch.setattr(spo21, "psi_rows", _zeroing_first_image(spo21.psi_rows, (k, j, p)))
    ok, detail = verify.check_psi_tables(kmax=k + 2, primes=(p,))
    assert (ok, detail) == (False, f"image factors mismatch at (k={k}, j={j}, p={p})")


def test_psi_tables_catch_an_image_above_the_head(monkeypatch):
    # the row onto the head monomial moved one index up, out of the codomain:
    # the check must fail, not raise while packing the image
    k, j, p = 39, 3, 3
    true = spo21.psi_rows

    def mutant(*args):
        head, rows = true(*args)
        if args == (k, j, p):
            rows = [(i, eps, ti - ((ti, teps) == (0, 0)), teps, c) for i, eps, ti, teps, c in rows]
        return head, rows

    monkeypatch.setattr(spo21, "psi_rows", mutant)
    ok, detail = verify.check_psi_tables(kmax=k + 2, primes=(p,))
    assert (ok, detail) == (False, f"image factors mismatch at (k={k}, j={j}, p={p})")


def test_grt_catches_a_zeroed_row(monkeypatch):
    k, r, p = 4, 1, 3
    mutant = _zeroing_first_image(frobenius.psi_r_rows, (k, r, p))
    monkeypatch.setattr(frobenius, "psi_r_rows", mutant)
    ok, detail = verify.check_grt(rs=(r,), primes=(p,))
    assert (ok, detail) == (False, f"image is not the single simple at k={k}, r={r}, p={p}")


def test_grt_catches_kernel_and_cokernel_factors_dropped_alike(monkeypatch):
    # both lose their highest factor, so they still equal each other; only the
    # cover of the domain's window by kernel and image sees it
    k, r, p = 4, 1, 3
    true = frobenius.psi_r_ker_im_coker

    def mutant(*args):
        ker, im, coker = true(*args)
        if args == (k, r, p):
            ker, coker = ker - {max(ker)}, coker - {max(coker)}
        return ker, im, coker

    monkeypatch.setattr(frobenius, "psi_r_ker_im_coker", mutant)
    ok, detail = verify.check_grt(rs=(r,), primes=(p,))
    assert (ok, detail) == (False, f"ker/im/coker differ from oracle peels at k={k}, r={r}, p={p}")


@pytest.mark.parametrize("mutate", [
    lambda factors, lo: _drop_smallest(factors),
    lambda factors, lo: factors | {lo},  # the window's lowest weight, no factor
    lambda factors, lo: _drop_smallest(factors) | {min(factors) - 1},
], ids=["drop", "add", "replace"])
@pytest.mark.parametrize("r, p", [(1, 3), (2, 3), (1, 5)])
def test_grt_catches_a_dropped_added_or_replaced_factor(monkeypatch, mutate, r, p):
    # l = -2 p^r is the first weight swept, so no shift check sees the mutant first
    q = p**r
    l, lo = -2 * q, -4 * q + 1
    true = frobenius.comp_factors_r
    mutant = mutate(true(l, r, p), lo)
    assert lo not in true(l, r, p) and min(mutant) >= lo and mutant != true(l, r, p)
    monkeypatch.setattr(frobenius, "comp_factors_r",
                        lambda *a: mutant if a == (l, r, p) else true(*a))
    ok, detail = verify.check_grt(rs=(r,), primes=(p,))
    assert not ok and detail.startswith(f"mismatch at l={l}, r={r}, p={p}: {mutant} != ")


def test_hom_oracle_catches_a_dropped_rad_pair(monkeypatch):
    k, p = 10, 3
    true = spo21.rad_basis
    monkeypatch.setattr(spo21, "rad_basis", lambda *a: true(*a)[:-1] if a == (k, p) else true(*a))
    ok, detail = verify.check_hom_oracle(kmax=k + 2, primes=(p,))
    assert (ok, detail) == (False, f"rad_basis mismatch at k={k}, p={p}")


def test_hom_oracle_catches_a_duplicated_rad_pair(monkeypatch):
    # the same set of pairs, one listed twice: only a comparison of lists sees it
    k, p = 10, 3
    true = spo21.rad_basis
    monkeypatch.setattr(spo21, "rad_basis",
                        lambda *a: true(*a) + true(*a)[:1] if a == (k, p) else true(*a))
    ok, detail = verify.check_hom_oracle(kmax=k + 2, primes=(p,))
    assert (ok, detail) == (False, f"rad_basis mismatch at k={k}, p={p}")


@pytest.mark.parametrize("k, l, p", [(9, 9, 3), (3, 2, 3), (12, 5, 3)])  # even, j = 0, j = 3
def test_hom_oracle_catches_a_flipped_parity(monkeypatch, k, l, p):
    true = spo21.hom_dim
    assert true(k, l, p)[0] == 1

    def mutant(*args):
        dim, parity = true(*args)
        if args == (k, l, p):
            parity = "odd" if parity == "even" else "even"
        return dim, parity

    monkeypatch.setattr(spo21, "hom_dim", mutant)
    ok, detail = verify.check_hom_oracle(kmax=k + 2, primes=(p,))
    assert (ok, detail) == (False, f"hom mismatch at k={k}, l={l}, p={p}")


# admissible_js decides which (k, j) criterion 6 sweeps, so a j it drops would
# go unchecked there; criterion 5 holds its heads to the quotient's odd weights
@pytest.mark.parametrize("mutate, k", [
    (lambda js: [j for j in js if j], 3),  # no j = 0: the first k = p has only j = 0
    (lambda js: js[:-1] if js and js[-1] else js, 4),  # no top j > 0: j = 1 at k = 4
])
def test_hom_oracle_catches_a_dropped_admissible_j(monkeypatch, mutate, k):
    p, true = 3, spo21.admissible_js
    assert mutate(true(k, p)) != true(k, p)
    monkeypatch.setattr(spo21, "admissible_js", lambda *a: mutate(true(*a)))
    ok, detail = verify.check_hom_oracle(kmax=k + 20, primes=(p,))
    assert (ok, detail) == (False, f"admissible_js mismatch at k={k}, p={p}")


def test_hom_oracle_pass_line_is_unchanged():
    assert verify.check_hom_oracle(kmax=40) == (True, "all k <= 40, p in (3, 5, 7)")


def test_rootdata_catches_a_chain_step_with_a_non_simple_root(monkeypatch):
    # odd-type symplectic flips report 2v, which the flip removes but which is
    # v + v; the chain is built by the same apply_move, so a replay of each step
    # would pass it
    true = rootdata.apply_move

    def mutant(flag, move, shape):
        step = true(flag, move, shape)
        if move.kind == "flip_symplectic" and shape.parity_type == rootdata.ODD:
            step = step._replace(alpha=tuple(2 * a for a in step.alpha))
        return step

    monkeypatch.setattr(rootdata, "apply_move", mutant)
    ok, detail = verify.check_rootdata(3)
    flip, shape = rootdata.Move("flip_symplectic"), rootdata.GroupShape(1, 0, rootdata.ODD)
    assert (ok, detail) == (False, f"chain step {flip} removes no simple root for {shape}")


def test_linkage_rank1_catches_a_dropped_target(monkeypatch):
    # the factors at (0, 2, 3) are -6, -1 and 0, so the dropped target -6 lies
    # below 0: only a graph box reaching -2 p^2 still holds the move
    assert min(linkage.comp_factors_r(0, 2, 3)) == -6
    monkeypatch.setattr(linkage, "comp_factors_r", _dropping(linkage.comp_factors_r, (0, 2, 3)))
    ok, detail = verify.check_linkage_rank1(primes=(3,))
    assert (ok, detail) == (False, "noniso targets wrong at lam=0, r=2, p=3")


def test_linkage_rank1_takes_its_targets_from_the_oracle(monkeypatch):
    # the same wrong factors in the closed form and in the graph's moves: the
    # expected targets must come from the peel, not from comp_factors_r
    l, r, p = 3, 2, 3
    assert min(frobenius.comp_factors_r(l, r, p)) == -9  # the lowest, not the head
    mutant = _dropping(frobenius.comp_factors_r, (l, r, p))
    monkeypatch.setattr(frobenius, "comp_factors_r", mutant)
    monkeypatch.setattr(linkage, "comp_factors_r", mutant)
    ok, detail = verify.check_linkage_rank1(primes=(p,))
    assert (ok, detail) == (False, f"noniso targets wrong at lam={l}, r={r}, p={p}")


def _digit_range_off_by(extra):
    """bits_L_sl2 with c running to d + extra for each digit d, not to d, and
    no assert on the copies it ORs in."""
    def bits_L(k, p):
        bits = 1
        for t, d in enumerate(digits(k, p)):
            acc = bits
            for c in range(1, d + 1 + extra):
                acc |= bits << 2 * c * p**t
            bits = acc
        return bits
    return bits_L


def _spo_of(bits_sl2, odd_shift):
    """bits_L_spo from bits_sl2, with the string of l - 1 moved up odd_shift bits."""
    return lambda l, p: bits_sl2(l, p) | (bits_sl2(l - 1, p) << odd_shift if l % p else 0)


# builders put in for verify's bits_L_sl2 (criterion 2) and bits_L_spo
# (criteria 4, 6 and 7): each is wrong from the first weight with two digits
# or with an odd string, so every check fails at the first weight it sweeps there
BAD_BUILDERS = {
    "digit-range-short": {"bits_L_sl2": _digit_range_off_by(-1),
                          "bits_L_spo": _spo_of(_digit_range_off_by(-1), 1)},
    "digit-range-long": {"bits_L_sl2": _digit_range_off_by(1),
                         "bits_L_spo": _spo_of(_digit_range_off_by(1), 1)},
    "odd-string-unshifted": {"bits_L_spo": _spo_of(bits_L_sl2, 0)},
}
BUILDER_CHECKS = {
    "sl2-oracle": ("bits_L_sl2", verify.check_sl2_oracle, {"kmax": 30}, "mismatch at k=1, p=3: "),
    "spo-oracle": ("bits_L_spo", verify.check_spo_oracle, {"lmax": 30}, "mismatch at l=1, p=3: "),
    "psi-tables": ("bits_L_spo", verify.check_psi_tables, {"kmax": 10},
                   "image factors mismatch at (k=3, j=0, p=3)"),
    "thickening": ("bits_L_spo", verify.check_grt, {"rs": (1,)}, "mismatch at l=-6, r=1, p=3: "),
}
# the closed form's factors and the peel of the wrong bits, where those bits
# still tile the character: the line then reads as for a wrong closed form
STILL_TILING = {
    ("odd-string-unshifted", "spo-oracle"): (spo21.comp_factors_h0(1, 3), {0, 1}),
    ("odd-string-unshifted", "thickening"): (frobenius.comp_factors_r(-6, 1, 3), {-8, -7, -6}),
}


@pytest.mark.parametrize("bad, criterion", [
    (bad, criterion) for bad, builders in BAD_BUILDERS.items()
    for criterion, (name, *_) in BUILDER_CHECKS.items() if name in builders])
def test_cover_checks_catch_a_wrong_bit_builder(monkeypatch, bad, criterion):
    # the cover and the failure path's peel read the same wrong bits
    name, check, bound, message = BUILDER_CHECKS[criterion]
    monkeypatch.setattr(verify, name, BAD_BUILDERS[bad][name])
    ok, detail = check(primes=(3,), **bound)
    assert not ok and detail.startswith(message)
    if (bad, criterion) in STILL_TILING:
        got, peeled = STILL_TILING[bad, criterion]
        assert detail == f"{message}{got} != {frozenset(peeled)}"
    elif message.startswith("mismatch at "):
        # the closed form is right and the bits do not peel, so the line must
        # name the bit builder
        assert detail.endswith("the bit-built simples do not cover the character, "
                               "so the bit builder is at fault")


def test_the_builder_property_catches_bits_that_still_tile():
    # no check in verify can tell these bits from a wrong closed form; the
    # property bits_L_spo(w, p) == pack(ch_L_spo(w, p), w) can
    bits_L = BAD_BUILDERS["odd-string-unshifted"]["bits_L_spo"]
    assert bits_L(1, 3) != pack(ch_L_spo(1, 3), 1)


def _window_off_by(extra):
    """oracle_bits_r with its window extra weights longer than 2 p^r."""
    def bits_r(hw, r, p):
        q = p**r
        return bits_L_spo((hw - q) % q + q, p) & ((1 << 2 * q + extra) - 1)
    return bits_r


def test_linkage_rank1_fails_on_a_wrong_window_and_does_not_raise(monkeypatch):
    # one weight long, the head's simple reaches below the window and does not
    # peel; four weights short, the window peels into extra factors.  One
    # weight short changes no bit: no truncated simple holds bit 2 p^r - 1
    for r in (1, 2):
        assert all(_window_off_by(-1)(hw, r, 3) == verify.oracle_bits_r(hw, r, 3)
                   for hw in range(3**r, 2 * 3**r))
    monkeypatch.setattr(verify, "oracle_bits_r", _window_off_by(1))
    assert verify.check_linkage_rank1(primes=(3,)) == (False, (
        "no peel of the window at l=0, r=1, p=3, so the bit builder oracle_bits_r is at fault"))
    monkeypatch.setattr(verify, "oracle_bits_r", _window_off_by(-4))
    assert verify.check_linkage_rank1(primes=(3,)) == (
        False, "noniso targets wrong at lam=0, r=1, p=3")


def test_each_memo_is_its_own():
    calls = Counter()

    def simple(w, p):
        calls[w, p] += 1
        return ch_L_spo(w, p)

    a, b = verify._memo(simple, 3), verify._memo(simple, 3)
    assert a(10) == b(10) == a(10) == ch_L_spo(10, 3)
    assert a(10) is a(10) and a(10) is not b(10)
    assert calls == Counter({(10, 3): 2})  # built once per memo, not once in all
