"""Oracle-equivalence sweeps: every closed form replayed against an
independent brute-force route, at fixed desk-scale bounds.

This module joins the two sides: it is the one module that imports both the
closed forms and the oracle module, characters.  Its own oracles,
rad_oracle_quotient and oracle_simple_r, call no closed form they check.

Criteria 2 and 4 test each rank-one decomposition as an exact cover: the
factors' simple characters, packed into the bits of an int, must hold the
induced character's weights once each.  _cover_sweep shows this holds exactly
when the greedy peel gives those factors; the peel runs there only at a
failing weight, and stays the oracle of criteria 6, 7 and 11.

Each check returns (ok, detail).  run_all() executes the lot and prints one
line per check; the CLI's verify-all subcommand and the acceptance test module
both drive these functions.
"""

from __future__ import annotations

from operator import sub
from typing import Callable

from . import characters, frobenius, linkage, rootdata, sl2, spo21
from .characters import (
    NegativeResidualError, ch_H0_sl2, ch_H0_spo, ch_L_sl2, ch_L_spo, pack, peel,
)
from .padic import defect
from .words import GE, GT, LE, LT, build_words

Check = tuple[bool, str]

# The normative 16-row word table with its symbolic weight offsets: entry
# (i, 0) subtracts 2*a_i*p^i, entry (i, 1) subtracts 2*(a_i+1)*p^i.
WORD_TABLE: list[tuple[str, list[tuple[int, int]]]] = [
    (LT + LE + LE + LE + LE, []),
    (GE + LT + LE + LE + LE, [(0, 0)]),
    (GE + GE + LT + LE + LE, [(0, 0), (1, 0)]),
    (LT + GT + LT + LE + LE, [(1, 1)]),
    (GE + GE + GE + LT + LE, [(0, 0), (1, 0), (2, 0)]),
    (LT + GT + GE + LT + LE, [(1, 1), (2, 0)]),
    (LT + LE + GT + LT + LE, [(2, 1)]),
    (GE + LT + GT + LT + LE, [(0, 0), (2, 1)]),
    (GE + GE + GE + GE + LT, [(0, 0), (1, 0), (2, 0), (3, 0)]),
    (LT + GT + GE + GE + LT, [(1, 1), (2, 0), (3, 0)]),
    (LT + LE + GT + GE + LT, [(2, 1), (3, 0)]),
    (GE + LT + GT + GE + LT, [(0, 0), (2, 1), (3, 0)]),
    (LT + LE + LE + GT + LT, [(3, 1)]),
    (GE + LT + LE + GT + LT, [(0, 0), (3, 1)]),
    (GE + GE + LT + GT + LT, [(0, 0), (1, 0), (3, 1)]),
    (LT + GT + LT + GT + LT, [(1, 1), (3, 1)]),
]


def check_word_table() -> Check:
    """Criterion 1: the length-5 word list and its weight offsets, exactly."""
    want = [w for w, _ in WORD_TABLE]
    for p, a in ((7, (1, 2, 3, 4, 5)), (11, (3, 1, 4, 1, 5))):
        k = sum(ai * p**i for i, ai in enumerate(a)) - 1
        entries = build_words(k, p)  # no digit is 0 or p - 1: all 16 words live
        got = [pw.word for pw in entries]
        if got != want:
            return False, f"word list mismatch:\n got {got}\nwant {want}"
        for pw, (word, offsets) in zip(entries, WORD_TABLE):
            if pw.ell != k - sum(2 * (a[i] + bump) * p**i for i, bump in offsets):
                return False, f"offset mismatch at word {word} (p={p})"
    return True, "16 words and all symbolic offsets reproduced"


def _memo(simple: Callable[..., dict], *args) -> Callable[[int], dict]:
    """w -> simple(w, *args), each built once.  The memo is the default of a
    function made anew per call, so each sweep owns one and no closed form sees
    it; a default, unlike a closure cell, leaves bench/tracer.py a hashable closure."""
    def cached(w: int, memo: dict[int, dict] = {}) -> dict:
        return memo[w] if w in memo else memo.setdefault(w, simple(w, *args))
    return cached


def _packed(w: int, simple: Callable[[int, int], dict], p: int) -> int:
    return pack(simple(w, p), w)


def _covers(factors, l: int, step: int, packed: Callable[[int], int]) -> bool:
    """True when the simple characters of factors, as bitsets from packed
    (bit f - w for each weight w of L(f)), cover the weights l, l - step, ...,
    -l of the induced character exactly once: each factor lies in [0, l], no
    two share a weight, and together they hold them all."""
    union = 0
    for f in factors:
        if not 0 <= f <= l:
            return False
        bits = packed(f) << (l - f)
        if union & bits:
            return False
        union |= bits
    return union == ((1 << (2 * l + step)) - 1) // ((1 << step) - 1)


def _cover_sweep(var: str, top: int, primes, factors_of, ch_H0, ch_L, step: int) -> Check:
    """The closed form factors_of(l, p) against the characters of the induced
    module ch_H0(l) and the simples ch_L(f, p), for all l <= top.

    Every ch_L(f) has coefficient 1 at f, nonnegative coefficients and no
    weight above f, so the simple characters are unitriangular and ch_H0(l)
    has one decomposition into them; the greedy peel finds it.  The peel
    returns the set F, each factor once, exactly when the sum of ch_L(f) over
    F is ch_H0(l).  Each side is 0/1 (pack refuses any other coefficient),
    so that sum holds exactly when the supports of the ch_L(f) are disjoint
    and their union is the support of ch_H0(l), which _covers tests on
    bitsets.  Only at a failing l is the character peeled, to name both
    factor sets."""
    for p in primes:
        packed = _memo(_packed, ch_L, p)
        for l in range(top + 1):
            factors = factors_of(l, p)
            if not _covers(factors, l, step, packed):
                got, want = dict.fromkeys(factors, 1), peel(ch_H0(l), _memo(ch_L, p))
                return False, f"mismatch at {var}={l}, p={p}: {got} != {want}"
    return True, f"all {var} <= {top}, p in {tuple(primes)}"


def check_sl2_oracle(kmax: int = 1500, primes=(3, 5, 7)) -> Check:
    """Criterion 2: closed-form rank-one decompositions equal greedy peels,
    checked as an exact cover of ch H0(k)'s weights k, k - 2, ..., -k by the
    factors' simple characters; the exact cover is the conservation
    statement."""
    return _cover_sweep("k", kmax, primes, sl2.decompose_sl2, ch_H0_sl2, ch_L_sl2, 2)


def check_sl2_linkage(kmax: int = 1500, primes=(3, 5, 7)) -> Check:
    """Criterion 3: every constituent is linked to its head, with equal defect."""
    for p in primes:
        for k in range(kmax + 1):
            for l in sl2.decompose_sl2(k, p):
                if defect(l, p) != defect(k, p) or not sl2.linked_sl2(l, k, p):
                    return False, f"factor {l} of k={k} fails linkage at p={p}"
    return True, f"all k <= {kmax}, p in {tuple(primes)}"


def check_spo_oracle(lmax: int = 1500, primes=(3, 5, 7)) -> Check:
    """Criterion 4: rank-one super decompositions equal greedy peels, so the
    peels are multiplicity-free; checked as an exact cover of ch H0(l)'s
    weights l, l - 1, ..., -l by the factors' simple characters."""
    return _cover_sweep("l", lmax, primes, spo21.comp_factors_h0, ch_H0_spo, ch_L_spo, 1)


def rad_oracle_quotient(k: int, p: int) -> list[tuple[int, int]]:
    """(i, eps) of the plus monomials surviving modulo the span of all lowering
    images, computed from the operator actions themselves (every image is a
    single basis pair, so the span is a set of pairs)."""
    basis = [(i, 0) for i in range(k + 1)] + [(i, 1) for i in range(k)]
    in_rad = {img[0] for i, eps in basis if (img := spo21.act("y", k, i, eps, p))}
    for i, eps in basis:
        if (i, eps) in in_rad:
            continue
        for t in range(1, i + 1):
            img = spo21.act("f", k, i - t, eps, p, t)
            if img and img[0] == (i, eps):
                in_rad.add((i, eps))
                break
    return [m for m in basis if m not in in_rad]


def check_hom_oracle(kmax: int = 300, primes=(3, 5, 7)) -> Check:
    """Criterion 5: the closed-form Hom dimensions and parities equal the
    radical-quotient computation, and rad_basis complements the quotient."""
    for p in primes:
        for k in range(kmax + 1):
            quotient = rad_oracle_quotient(k, p)
            by_weight = {}
            for i, eps in quotient:
                if k - 2 * i - eps in by_weight:
                    return False, f"quotient weight clash at k={k}, p={p}"
                by_weight[k - 2 * i - eps] = eps
            basis = {(i, eps) for eps in (0, 1) for i in range(k + 1 - eps)}
            if sorted(spo21.rad_basis(k, p)) != sorted(basis - set(quotient)):
                return False, f"rad_basis mismatch at k={k}, p={p}"
            if any(w < 0 for w in by_weight):
                return False, f"negative quotient weight at k={k}, p={p}"
            for l in range(k + 3):
                dim, parity = spo21.hom_dim(k, l, p)
                eps = by_weight.get(l)
                want_dim = 0 if eps is None else 1
                want_par = None if eps is None else ("odd" if eps else "even")
                if (dim, parity) != (want_dim, want_par):
                    return False, f"hom mismatch at k={k}, l={l}, p={p}"
    return True, f"all k <= {kmax}, p in {tuple(primes)}"


def _char_of_factors(factors: frozenset[int], simple: Callable[[int], dict]) -> dict:
    out: dict[int, int] = {}
    for hw in factors:
        for w, c in simple(hw).items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def _char_minus(a: dict, b: dict) -> dict:
    return {w: c for w in set(a) | set(b) if (c := a.get(w, 0) - b.get(w, 0))}


def check_psi_tables(kmax: int = 300, primes=(3, 5, 7)) -> Check:
    """Criterion 6: morphism rows hold one row for each of the 2k + 1 source
    monomials (rank-nullity) and distinct image weights, and the
    image/kernel/cokernel factor sets agree with independent character
    peels and subtractions."""
    for p in primes:
        simple = _memo(ch_L_spo, p)
        for k in range(1, kmax + 1):
            for j in spo21.admissible_js(k, p):
                l, rows = spo21.psi_rows(k, j, p)
                if len(rows) != 2 * k + 1:
                    return False, f"rank-nullity broken at (k={k}, j={j}, p={p})"
                images = [l - 2 * ti - teps for _, _, ti, teps, c in rows if c]
                im_char = dict.fromkeys(images, 1)
                if len(im_char) != len(images):
                    return False, f"image weights collide at (k={k}, j={j}, p={p})"
                ker, im, coker = spo21.ker_im_coker_factors(k, j, p)
                try:
                    im_ok = peel(im_char, simple) == dict.fromkeys(im, 1)
                except NegativeResidualError:  # the rows' image is no sum of simples
                    im_ok = False
                if not im_ok:
                    return False, f"image factors mismatch at (k={k}, j={j}, p={p})"
                ker_char = _char_minus(ch_H0_spo(k), im_char)
                if _char_of_factors(ker, simple) != ker_char:
                    return False, f"kernel characters mismatch at (k={k}, j={j}, p={p})"
                coker_char = _char_minus(ch_H0_spo(k - 1 - 2 * j), im_char)
                if _char_of_factors(coker, simple) != coker_char:
                    return False, f"cokernel characters mismatch at (k={k}, j={j}, p={p})"
    return True, f"all admissible (k, j), k <= {kmax}, p in {tuple(primes)}"


def oracle_simple_r(hw: int, r: int, p: int) -> dict:
    """Thickened simple character by the independent route: truncate the full
    simple character of the shifted representative, then shift back."""
    q = p**r
    m = (hw - q) % q + q
    base = characters.ch_truncate(ch_L_spo(m, p), m, r, p)
    return characters.poly_shift(base, hw - m)


def check_grt(rs=(1, 2), primes=(3, 5)) -> Check:
    """Criterion 7: thickened decompositions equal truncated-character peels,
    dimension 2p^r is conserved, shifts act on factors, every thickened
    morphism image is the single expected simple, and its kernel, image and
    cokernel factors equal the peels of the rows' image and of what it leaves."""
    for p in primes:
        for r in rs:
            q = p**r
            simple = _memo(oracle_simple_r, r, p)
            for l in range(-2 * q, 4 * q + 1):
                got = frobenius.comp_factors_r(l, r, p)
                want = peel(frobenius.ch_h0_r(l, r, p), simple)
                if dict.fromkeys(got, 1) != want:
                    return False, f"mismatch at l={l}, r={r}, p={p}: {got} != {want}"
                total = sum(len(frobenius.ch_l_r(hw, r, p)) for hw in got)
                if total != 2 * q:
                    return False, f"dimension leak at l={l}, r={r}, p={p}"
                for t in (-2, 1, 3):
                    shifted = {hw + t * q for hw in got}
                    if frobenius.comp_factors_r(l + t * q, r, p) != shifted:
                        return False, f"shift equivariance fails at l={l}, t={t}, r={r}, p={p}"
            for k in range(-q, 2 * q + 1):
                head, rows = frobenius.psi_r_rows(k, r, p)
                im_weights = {head - 2 * ti - teps for _, _, ti, teps, c in rows if c}
                lt = 2 * q - k - 1
                if im_weights != set(frobenius.ch_l_r(lt, r, p)):
                    return False, f"image is not the single simple at k={k}, r={r}, p={p}"
                ker, im, coker = frobenius.psi_r_ker_im_coker(k, r, p)
                if im != {lt} or ker != coker:
                    return False, f"ker/im/coker inconsistency at k={k}, r={r}, p={p}"
                # the domain's character is ch_h0_r(lt) too: kernel and cokernel are what im leaves
                im_char = dict.fromkeys(im_weights, 1)
                try:
                    rest = peel(_char_minus(frobenius.ch_h0_r(lt, r, p), im_char), simple)
                    peels = rest, peel(im_char, simple), rest
                except NegativeResidualError:  # no sum of simples
                    peels = None
                want = tuple(dict.fromkeys(part, 1) for part in (ker, im, coker))
                if im_weights != set(simple(lt)) or peels != want:
                    return False, f"ker/im/coker differ from oracle peels at k={k}, r={r}, p={p}"
                if len(rows) != 2 * q:
                    return False, f"rank-nullity broken at k={k}, r={r}, p={p}"
    return True, f"r in {tuple(rs)}, p in {tuple(primes)}, two periods of l"


def _partition_by(nodes, key) -> list[list]:
    groups: dict = {}
    for x in nodes:
        groups.setdefault(key(x), []).append(x)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def check_blocks(primes=(3, 5, 7)) -> Check:
    """Criterion 8: shared-factor components reproduce the p block classes,
    for the group on [0, 4p^2] and for the thickening on [-2p^2, 2p^2]."""
    for p in primes:
        windows = [
            ("group", 0, 4 * p * p, lambda l: spo21.comp_factors_h0(l, p)),
            ("thickening", -2 * p * p, 2 * p * p, lambda l: frobenius.comp_factors_r(l, 1, p)),
        ]
        for name, lo, hi, factors in windows:
            nodes = range(lo, hi + 1)
            edges = [(l - lo, f - lo) for l in nodes for f in factors(l) if lo <= f <= hi]
            got = linkage.connected_components(nodes, edges)
            want = _partition_by(nodes, lambda l: spo21.block_of(l, p))
            if got != want or len(got) != p:
                return False, f"{name} block mismatch at p={p}"
    return True, f"p block classes on both windows, p in {tuple(primes)}"


def _shapes(rank_max: int = 4):
    for n in range(rank_max + 1):
        for m in range(rank_max + 1 - n):
            if n + m == 0:
                continue
            for t in (rootdata.ODD, rootdata.EVEN):
                yield rootdata.GroupShape(n, m, t)


def check_rootdata(rank_max: int = 4) -> Check:
    """Criterion 9: positive systems halve the root count on every chain flag,
    every chain step's root is in its delta and simple in the Borel it leaves,
    its delta matches a recomputation, chain lengths and endpoints are right,
    and the four normative pairings of 2 rho0 and 2 rho1 come out exactly."""
    for shape in _shapes(rank_max):
        all_roots = rootdata.roots(shape)
        if len(set(r.vec for r in all_roots)) != len(all_roots):
            return False, f"duplicate roots for {shape}"
        steps = rootdata.chain_of_borels(shape)
        flags = [rootdata.standard_flag(shape)] + [s.flag_to for s in steps]
        for fl in flags:
            pos = rootdata.phi_plus_vecs(fl, shape)
            if len(pos) != len(all_roots) // 2:
                return False, f"|positive system| wrong for {shape} at {fl}"
            if pos & {rootdata.vneg(v) for v in pos}:
                return False, f"positive system meets its negative for {shape}"
        moves = 0
        for step in steps:
            before = rootdata.phi_plus_vecs(step.flag_from, shape)
            # adjacent Borels differ by a simple root: alpha - beta is positive for no positive beta
            if (alpha := step.alpha) is not None and (alpha not in step.removed or any(
                    tuple(map(sub, alpha, beta)) in before for beta in before)):
                return False, f"chain step {step.move} removes no simple root for {shape}"
            after = rootdata.phi_plus_vecs(step.flag_to, shape)
            added = {rootdata.vneg(v) for v in step.removed}
            if before - after != step.removed or after - before != added:
                return False, f"declared delta wrong for {shape} step {step.move}"
            if step.move.kind != "relabel_orthogonal":
                moves += 1
            if step.move.kind == "flip_symplectic" and shape.parity_type == rootdata.ODD:
                j = step.flag_from[-1][1]
                alpha = rootdata.delta(j, shape)
                rho0f, rho1f, _ = rootdata.rho_parts(step.flag_from, shape)
                if rootdata.pairing(rho0f, alpha, shape) != 2:
                    return False, f"pre-flip rho0 pairing wrong for {shape}"
                if rootdata.pairing(rho1f, alpha, shape) != 1:
                    return False, f"pre-flip rho1 pairing wrong for {shape}"
        expected = (shape.n + shape.m) ** 2
        if shape.parity_type == rootdata.ODD:
            if moves != expected or len(steps) != expected:
                return False, f"chain length wrong for {shape}: {moves}"
        else:
            if moves != expected - shape.m:
                return False, f"chain length wrong for {shape}: {moves}"
        if flags[-1] != rootdata.negate_flag(rootdata.standard_flag(shape)):
            return False, f"chain endpoint wrong for {shape}"
        if shape.parity_type == rootdata.ODD:
            rho0, rho1, _ = rootdata.rho_parts(rootdata.standard_flag(shape), shape)
            for j in range(1, shape.n + 1):
                alpha = rootdata.delta(j, shape)
                if rootdata.pairing(rho0, alpha, shape) != 2 * (shape.n - j + 1):
                    return False, f"standard rho0 pairing wrong for {shape}"
                if rootdata.pairing(rho1, alpha, shape) != 2 * shape.m + 1:
                    return False, f"standard rho1 pairing wrong for {shape}"
    return True, f"all shapes with rank <= {rank_max}, both types"


def check_flag_independence(p: int = 3) -> Check:
    """Criterion 10: the flag-normalised product characters at r = 1 agree term
    by term across every chain flag, for both rank-(1,1) shapes and a 3x3
    weight grid."""
    for t in (rootdata.ODD, rootdata.EVEN):
        shape = rootdata.GroupShape(1, 1, t)
        steps = rootdata.chain_of_borels(shape)
        flags = [rootdata.standard_flag(shape)] + [s.flag_to for s in steps]
        for a in range(3):
            for b in range(3):
                lam = (a, b)
                reference = None
                for fl in flags:
                    ch = rootdata.ch_z_flag(
                        rootdata.lambda_bracket(lam, fl, shape, 1, p), fl, shape, 1, p
                    )
                    if reference is None:
                        reference = ch
                    elif ch != reference:
                        return False, f"character varies with the flag at {t}, lam=({a},{b})"
    return True, "identical characters across all chain flags, both types"


def check_linkage_rank1(primes=(3, 5, 7)) -> Check:
    """Criterion 11: rank-one linkage graphs on [-2p^2, 4p^2] reproduce the
    block partition, and the odd non-isotropic targets of each source are
    exactly its non-head constituents (all of them lie in the box), peeled as
    in criterion 7."""
    shape = rootdata.GroupShape(1, 0, rootdata.ODD)
    for p in primes:
        lo, hi = -2 * p * p, 4 * p * p
        graph = linkage.build_graph([(lo, hi)], shape, {1, 2}, p)
        got = [sorted(w[0] for w in comp) for comp in linkage.components(graph)]
        want = _partition_by(range(lo, hi + 1), lambda l: spo21.block_of(l, p))
        if sorted(got) != sorted(want):
            return False, f"rank-1 components differ from blocks at p={p}"
        targets: dict = {}
        for mv in graph.edges:
            if mv.kind == linkage.NONISO_ODD:
                targets.setdefault((mv.source[0], mv.r), set()).add(mv.target[0])
        for r in (1, 2):
            simple = _memo(oracle_simple_r, r, p)
            for c in range(0, 3 * p * p + 1, 3):
                l = c % p**r
                factors = peel(frobenius.ch_h0_r(l, r, p), simple)
                expect = {c - (l - lp) for lp in factors if lp != l}
                if targets.get((c, r), set()) != expect:
                    return False, f"noniso targets wrong at lam={c}, r={r}, p={p}"
    return True, f"block partition and noniso targets, p in {tuple(primes)}"


ALL_CHECKS = [
    ("1 word-table", check_word_table),
    ("2 sl2-oracle", check_sl2_oracle),
    ("3 sl2-linkage", check_sl2_linkage),
    ("4 spo-oracle", check_spo_oracle),
    ("5 hom-oracle", check_hom_oracle),
    ("6 psi-tables", check_psi_tables),
    ("7 thickening", check_grt),
    ("8 blocks", check_blocks),
    ("9 rootdata", check_rootdata),
    ("10 flag-independence", check_flag_independence),
    ("11 linkage-rank1", check_linkage_rank1),
]

QUICK_KWARGS = {
    "2 sl2-oracle": {"kmax": 200},
    "3 sl2-linkage": {"kmax": 200},
    "4 spo-oracle": {"lmax": 200},
    "5 hom-oracle": {"kmax": 60},
    "6 psi-tables": {"kmax": 60},
    "7 thickening": {"rs": (1,)},
    "9 rootdata": {"rank_max": 3},
    "11 linkage-rank1": {"primes": (3,)},
}


def run_all(quick: bool = False) -> bool:
    ok_all = True
    for name, fn in ALL_CHECKS:
        kwargs = QUICK_KWARGS.get(name, {}) if quick else {}
        ok, detail = fn(**kwargs)
        ok_all &= ok
        print(f"{'PASS' if ok else 'FAIL'}  criterion {name}: {detail}")
    return ok_all
