"""The memoised oracle sweeps still catch a wrong closed form: drop one factor,
basis pair or image at one weight, add or replace one factor, or flip one
parity, and the matching check fails, naming that weight.  Each check
keeps its own memo of simple characters, so no fault can hide behind an
answer cached by another check or another prime."""

from collections import Counter

import pytest

from spolink import frobenius, linkage, rootdata, sl2, spo21, verify
from spolink.characters import ch_L_spo

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
    # the rows' image then is no sum of simple characters: peel raises, and
    # the check reports it rather than letting it out
    k, j, p = 39, 3, 3
    monkeypatch.setattr(spo21, "psi_rows", _zeroing_first_image(spo21.psi_rows, (k, j, p)))
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
    # peel of what the rows' image leaves of the domain sees it
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


def test_each_memo_is_its_own():
    calls = Counter()

    def simple(w, p):
        calls[w, p] += 1
        return ch_L_spo(w, p)

    a, b = verify._memo(simple, 3), verify._memo(simple, 3)
    assert a(10) == b(10) == a(10) == ch_L_spo(10, 3)
    assert a(10) is a(10) and a(10) is not b(10)
    assert calls == Counter({(10, 3): 2})  # built once per memo, not once in all
