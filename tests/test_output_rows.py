"""Integer rows to text: the Lucas digit listings of socles against scans
over every index, and each text writer against the object or json form it
replaced, byte for byte."""

import json
from collections import Counter

import pytest
import reference_socle as ref
import reference_tables as tables
from hypothesis import given, settings
from hypothesis import strategies as st

from spolink import cli, spo21
from spolink.characters import MAX_TERMS
from spolink.frobenius import (
    ch_l_r, grt_name, psi_r_ker_im_coker, psi_r_table, psi_r_tsv, socle_basis_r,
)
from spolink.padic import lucas_support
from spolink.spo21 import MINUS, PLUS, monomial_name, socle_basis

primes = st.sampled_from((3, 5, 7, 11))
sides = st.sampled_from((MINUS, PLUS))


@settings(max_examples=80, deadline=None)
@given(st.integers(-5, 20_000), primes)
def test_lucas_support_is_the_binomial_scan(n, p):
    assert lucas_support(n, p) == ref.support_scan(n, p)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5_000), primes, sides)
def test_socle_basis_is_the_scan(l, p, side):
    got = socle_basis(l, p, side)
    assert got == ref.socle_scan(l, p, side)
    assert socle_basis(l, p, side, monomial_name) == [str(m) for m in got]


def test_socle_basis_refuses_a_negative_head():
    with pytest.raises(ValueError, match="socle_basis"):
        socle_basis(-1, 3, MINUS, monomial_name)


@settings(max_examples=80, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 3), primes, sides)
def test_socle_basis_r_is_the_scan(l, r, p, side):
    got = socle_basis_r(l, r, p, side)
    assert got == ref.socle_scan_r(l, r, p, side)
    assert socle_basis_r(l, r, p, side, grt_name) == [str(m) for m in got]
    if side == MINUS:
        assert ch_l_r(l, r, p) == {m.weight: 1 for m in got}


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
@given(st.dictionaries(st.integers(-10**25, 10**25), st.integers(1, 4), max_size=40),
       st.sampled_from(("json", "tsv", "text")))
def test_factor_text_is_the_old_form(factors, fmt):
    # empty lists, mult > 1 and negative weights (decompose-grt) included
    factors = Counter(factors)
    assert cli._factors_out(factors, fmt) == old_factors_out(factors, fmt)


def test_basis_text_is_json_dumps():
    lists = [[], ["1"], socle_basis(3, 3, MINUS, monomial_name),
             socle_basis_r(-7, 2, 3, PLUS, grt_name), spo21.kernel_basis(39, 3, 3, monomial_name)]
    for names in lists:
        assert cli._names_out(names, "json") == json.dumps({"basis": names})
        assert cli._names_out(names, "tsv") == "\n".join(names)


def _admissible(kmax=200, ps=(3, 5, 7)):
    return [(k, j, p) for p in ps for k in range(1, kmax) for j in spo21.admissible_js(k, p)]


def test_psi_text_and_kernel_names_are_the_table_forms():
    for k, j, p in _admissible():
        assert spo21.psi_tsv(k, j, p) == tables.table_tsv(spo21.psi_table(k, j, p)), (k, j, p)
        assert spo21.kernel_basis(k, j, p, monomial_name) == [
            str(m) for m in spo21.kernel_basis(k, j, p)], (k, j, p)


@pytest.mark.parametrize("p, r", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_psi_r_text_is_the_table_form(p, r):
    q = p**r
    for k in range(-2 * q, 3 * q):
        assert psi_r_tsv(k, r, p) == tables.table_tsv(psi_r_table(k, r, p)), (k, r, p)


def _old_kic(ker, im, coker) -> str:
    def dump(f):
        return {"factors": [{"hw": hw, "mult": m} for hw, m in sorted(f.items(), reverse=True)]}
    return json.dumps({"kernel": dump(ker), "image": dump(im), "cokernel": dump(coker)}) + "\n"


def test_ker_im_coker_text_is_json_dumps(capsys):
    for k, j, p in _admissible(60):
        assert cli.main(["ker-im-coker", "--p", str(p), "--k", str(k), "--j", str(j)]) == 0
        assert capsys.readouterr().out == _old_kic(*spo21.ker_im_coker_factors(k, j, p))
    for k in range(-9, 19):
        assert cli.main(["ker-im-coker", "--p", "3", f"--k={k}", "--grt", "--r", "2"]) == 0
        assert capsys.readouterr().out == _old_kic(*psi_r_ker_im_coker(k, 2, 3))


# --------------------------------------------------- thickened tables, r >= 3

GRT_SIZES = [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (5, 3), (5, 4), (7, 3), (11, 3)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GRT_SIZES), st.integers(-10**6, 10**6))
def test_psi_r_table_image_is_the_target_simple(size, k):
    # criterion 7's checks past its r in {1, 2}
    p, r = size
    q = p**r
    assert 2 * q <= MAX_TERMS
    tab = psi_r_table(k, r, p)
    assert len(tab.rows) == 2 * q
    lt = 2 * q - k - 1
    images = [row[0].weight for row in tab.rows.values() if row]
    assert len(set(images)) == len(images)
    assert set(images) == set(ch_l_r(lt, r, p))
    ker, im, coker = psi_r_ker_im_coker(k, r, p)
    assert im == Counter({lt: 1}) and ker == coker
