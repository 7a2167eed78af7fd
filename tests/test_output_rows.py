"""Integer rows to text: the Lucas digit listings of socles against scans
over every index, the command line's monomial names, and each text writer,
byte for byte, against the json form it replaced or digests recorded while
it matched the object form."""

import contextlib
import hashlib
import io
import json
from collections import Counter

import pytest
import reference_socle as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from spolink import cli, spo21
from spolink.frobenius import ch_l_r, psi_r_ker_im_coker, psi_r_rows, socle_basis_r
from spolink.padic import MAX_TERMS, lucas_count, lucas_support
from spolink.spo21 import MINUS, PLUS, socle_basis

primes = st.sampled_from((3, 5, 7, 11))
sides = st.sampled_from((MINUS, PLUS))


@settings(max_examples=80, deadline=None)
@given(st.integers(-5, 20_000), primes)
def test_lucas_support_is_the_binomial_scan(n, p):
    assert lucas_support(n, p) == ref.support_scan(n, p)
    assert lucas_count(n, p) == len(ref.support_scan(n, p))  # what socle_basis caps


def _printed(*argv) -> str:
    """What the command line prints for argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5_000), primes)
def test_socle_basis_is_the_scan(l, p):
    assert socle_basis(l, p) == ref.socle_scan(l, p)


def test_socle_basis_refuses_a_negative_head():
    with pytest.raises(ValueError, match="socle_basis"):
        socle_basis(-1, 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 3), primes)
def test_socle_basis_r_is_the_scan(l, r, p):
    scan = ref.socle_scan_r(l, r, p)
    assert socle_basis_r(l, r, p) == scan
    assert ch_l_r(l, r, p) == {l - 2 * idx - eps: 1 for idx, eps in scan}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 400), st.integers(-10**6, 10**6), st.integers(1, 2), primes, sides)
def test_spelled_bases_are_injective(head, head_r, r, p, side):
    # a whole module's basis gets pairwise distinct names, so a printed
    # socle names its pairs one to one
    basis = [(i, eps) for eps in (0, 1) for i in range(head + 1 - eps)]
    names = {cli._monomial(side, head, i, eps) for i, eps in basis}
    assert len(names) == len(basis) == 2 * head + 1
    q = p**r
    names_r = {cli._monomial(side, head_r, idx, eps, grt=True)
               for eps in (0, 1) for idx in range(q)}
    assert len(names_r) == 2 * q
    printed = _printed("socle", "--p", p, "--l", head, "--side", side, "--format", "tsv")
    assert printed.splitlines() == [cli._monomial(side, head, i, eps)
                                    for i, eps in socle_basis(head, p)]
    printed = _printed("socle", "--p", p, f"--l={head_r}", "--side", side, "--grt", "--r", r,
                       "--format", "tsv")
    assert printed.splitlines() == [cli._monomial(side, head_r, idx, eps, grt=True)
                                    for idx, eps in socle_basis_r(head_r, r, p)]


# ------------------------------------------------------------ text writers


def old_factors_out(factors: Counter, fmt: str) -> str:
    """The factor writers as they were: sorted items, and json.dumps."""
    items = sorted(factors.items(), reverse=True)
    if fmt == "tsv":
        return "\n".join(["hw\tmult"] + [f"{hw}\t{m}" for hw, m in items])
    if fmt == "text":
        return " + ".join(f"L({hw})" if m == 1 else f"{m}*L({hw})" for hw, m in items) or "0"
    return json.dumps({"factors": [{"hw": hw, "mult": m} for hw, m in items]})


@settings(max_examples=200, deadline=None)
@given(st.frozensets(st.integers(-10**25, 10**25), max_size=40),
       st.sampled_from(("json", "tsv", "text")))
def test_factor_text_is_the_old_form(factors, fmt):
    # empty sets and negative weights (decompose-grt) included; every
    # constituent set is multiplicity-free, so the old form saw mult 1 only
    assert cli._factors_out(factors, fmt) == old_factors_out(Counter(factors), fmt)


def test_basis_text_is_json_dumps():
    queries = [("socle", "--p", 3, "--l", 3),
               ("socle", "--p", 3, "--l=-7", "--side", "plus", "--grt", "--r", 2),
               ("kernel", "--p", 3, "--k", 39, "--j", 3)]
    lists = [[], ["1"], *(_printed(*q, "--format", "tsv").splitlines() for q in queries)]
    for names in lists:
        assert cli._names_out(names, "json") == json.dumps({"basis": names})
        assert cli._names_out(names, "tsv") == "\n".join(names)


def _admissible(kmax=200, ps=(3, 5, 7)):
    return [(k, j, p) for p in ps for k in range(1, kmax) for j in spo21.admissible_js(k, p)]


def _sha(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


# The sha256 of each text writer's output over a range, recorded while the
# tables were still also built from monomial objects and each text was checked
# equal, table by table, to the table written out from its objects.
PSI_TEXT = "067881b19dbcccb8453fa342884ff3e9df61d615087aaf4a6040380747b04fbc"
KERNEL_NAMES = "99a718c0700b88ba0bd802501c40ba150960b2ea8f460b007f6787513c405361"
PSI_R_TEXT = {
    (3, 1): "5ca74dc0fc4505faf03fa8f14ee6a77b2e8a880e11c816ba7cf81a9d380aa4e2",
    (3, 2): "dec1cad357199bccce0595360e056962c639cebe7d90bb03d0a4188869d40a46",
    (3, 3): "86d24e278ab0b4e45611e904557dba1f203945ef3da6df91c41861180f213496",
    (5, 1): "b06609c8c0781483b94a139e7cb7932229bddbc3b5d107b5775df54096cd7c5f",
    (5, 2): "b11a27b598fff67e3f8658c0a791b4977ce7616e294f8cbe96725512bdf8fae7",
    (7, 1): "d0374701ce4153bf6ec95b8eaa78f20e69fe5865de7d8dc87e7e8994323e3aa5",
    (7, 2): "1ba41d692498f677959b5450e7c5e51e9f9300a3a50d1dd4102590fff45373aa",
}


def test_psi_text_and_kernel_names_are_the_table_forms():
    adm = _admissible()
    assert _sha(f"{k} {j} {p}\n" + _printed("psi-table", "--p", p, "--k", k, "--j", j)
                for k, j, p in adm) == PSI_TEXT
    kernels = (_printed("kernel", "--p", p, "--k", k, "--j", j, "--format", "tsv")
               for k, j, p in adm)
    assert _sha(f"{k} {j} {p}\t" + names.replace("\n", "\t")[:-1] + "\n"
                for (k, j, p), names in zip(adm, kernels)) == KERNEL_NAMES


@pytest.mark.parametrize("p, r", list(PSI_R_TEXT))
def test_psi_r_text_is_the_table_form(p, r):
    q = p**r
    assert _sha(f"{k}\n" + _printed("psi-table", "--p", p, f"--k={k}", "--grt", "--r", r)
                for k in range(-2 * q, 3 * q)) == PSI_R_TEXT[p, r]


def _old_kic(ker, im, coker) -> str:
    def dump(f):
        return {"factors": [{"hw": hw, "mult": m} for hw, m in sorted(f.items(), reverse=True)]}
    return json.dumps({"kernel": dump(ker), "image": dump(im), "cokernel": dump(coker)}) + "\n"


def test_ker_im_coker_text_is_json_dumps(capsys):
    for k, j, p in _admissible(60):
        assert cli.main(["ker-im-coker", "--p", str(p), "--k", str(k), "--j", str(j)]) == 0
        parts = map(Counter, spo21.ker_im_coker_factors(k, j, p))
        assert capsys.readouterr().out == _old_kic(*parts)
    for k in range(-9, 19):
        assert cli.main(["ker-im-coker", "--p", "3", f"--k={k}", "--grt", "--r", "2"]) == 0
        assert capsys.readouterr().out == _old_kic(*map(Counter, psi_r_ker_im_coker(k, 2, 3)))


# --------------------------------------------------- thickened tables, r >= 3

GRT_SIZES = [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (5, 3), (5, 4), (7, 3), (11, 3)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GRT_SIZES), st.integers(-10**6, 10**6))
def test_psi_r_table_image_is_the_target_simple(size, k):
    # criterion 7's checks past its r in {1, 2}
    p, r = size
    q = p**r
    assert 2 * q <= MAX_TERMS
    head, rows = psi_r_rows(k, r, p)
    assert len(rows) == 2 * q
    lt = 2 * q - k - 1
    images = [head - 2 * ti - teps for _, _, ti, teps, c in rows if c]
    assert len(set(images)) == len(images)
    assert set(images) == set(ch_l_r(lt, r, p))
    ker, im, coker = psi_r_ker_im_coker(k, r, p)
    assert im == {lt} and ker == coker
