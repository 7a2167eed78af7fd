"""The contract of the two monomial types, spo21.Monomial and
frobenius.GrtMonomial: field order, sort order, hashing, rendering, range
checks, and the tables built from them.

The digests below were recorded before the types became tuples, so they pin
that the change of representation changed no output.
"""

import hashlib
import pickle
import random

import pytest
import reference_tables as ref

from spolink import frobenius, spo21
from spolink.frobenius import GrtMonomial
from spolink.spo21 import MINUS, PLUS, Monomial

PRIMES = (3, 5, 7)


def _fields(m) -> tuple:
    if isinstance(m, GrtMonomial):
        return (m.side, m.head, m.idx, m.eps)
    return (m.side, m.head, m.i, m.eps)


def _row(m) -> str:
    return f"{_fields(m)}|{m}|{m.weight}"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _sample(kind) -> list:
    """A shuffled mix of both sides and several heads."""
    if kind is Monomial:
        monos = [m for side in (MINUS, PLUS) for h in range(4) for m in spo21.basis_h0(h, side)]
    else:
        monos = [m for side in (MINUS, PLUS) for h in (-2, 0, 3)
                 for m in ref.basis_h0_r(h, 1, 3, side)]
    random.Random(7).shuffle(monos)
    return monos


def act_lines() -> list[str]:
    out = []
    for p in PRIMES:
        for k in range(16):
            for src in spo21.basis_h0(k, PLUS) + spo21.basis_h0(k, MINUS):
                for op, t in (("f", 1), ("f", 2), ("f", 3), ("e", 1), ("e", 2), ("y", 1), ("x", 1)):
                    img = spo21.act(op, src, p, t)
                    out.append(f"{p} {_row(src)} {op}{t} -> "
                               + ";".join(f"{_row(m)}*{c}" for m, c in filter(None, [img])))
    return out


def psi_table_lines() -> list[str]:
    out = []
    for p in PRIMES:
        for k in range(1, 40):
            for j in spo21.admissible_js(k, p):
                tab = spo21.psi_table(k, j, p)
                out.append(f"{p} {k} {j}")
                out += [f"{_row(s)} -> " + ";".join(f"{_row(m)}*{c}" for m, c in filter(None, [row]))
                        for s, row in tab.rows.items()]
                out.append(ref.table_tsv(tab))
    return out


def psi_r_table_lines() -> list[str]:
    out = []
    for p in (3, 5):
        for r in (1, 2):
            q = p**r
            for k in range(-q, 2 * q + 1):
                tab = frobenius.psi_r_table(k, r, p)
                out.append(f"{p} {r} {k}")
                out += [f"{_row(s)} -> " + ";".join(f"{_row(m)}*{c}" for m, c in filter(None, [row]))
                        for s, row in tab.rows.items()]
                out.append(ref.table_tsv(tab))
    return out


def kernel_basis_lines() -> list[str]:
    return [
        f"{p} {k} {j} " + ";".join(_row(m) for m in spo21.kernel_basis(k, j, p))
        for p in PRIMES for k in range(1, 60) for j in spo21.admissible_js(k, p)
    ]


RECORDED = {
    "act": "32315ce0c445be9d",
    "psi_table": "24aa60491cc3eedf",
    "psi_r_table": "8af49c711a51373d",
    "kernel_basis": "2313591b8b3db66e",
}

SORTED = {Monomial: "628aa1fb514eca3b", GrtMonomial: "c9508545d05af0cd"}


@pytest.mark.parametrize("name,lines", [
    ("act", act_lines), ("psi_table", psi_table_lines),
    ("psi_r_table", psi_r_table_lines), ("kernel_basis", kernel_basis_lines),
])
def test_tables_unchanged(name, lines):
    assert _digest(lines()) == RECORDED[name]


@pytest.mark.parametrize("kind", [Monomial, GrtMonomial])
def test_sort_hash_and_str(kind):
    sample = _sample(kind)
    assert _digest(_row(m) for m in sorted(sample)) == SORTED[kind]
    for m in sample:
        assert hash(m) == hash(_fields(m))
        assert m == kind(*_fields(m)) and len({m, kind(*_fields(m))}) == 1
        assert pickle.loads(pickle.dumps(m)) == m


def test_known_strings():
    assert str(Monomial(MINUS, 5, 2, 1)) == "x(1,1)^2 x(1,-1)^2 x(1,0')"
    assert str(Monomial(PLUS, 5, 2, 0)) == "x(-1,-1)^2 x(-1,1)^3"
    assert str(Monomial(PLUS, 0, 0, 0)) == "1"
    assert str(GrtMonomial(MINUS, -2, 1, 1)) == "x(1,1)^-4 x(1,-1) x(1,0')"
    assert str(GrtMonomial(PLUS, 3, 2, 0)) == "x(-1,-1) x(-1,1)^2"
    assert repr(Monomial(MINUS, 3, 1, 0)) == "Monomial(side='minus', head=3, i=1, eps=0)"
    assert repr(GrtMonomial(PLUS, -1, 0, 1)) == "GrtMonomial(side='plus', head=-1, idx=0, eps=1)"


BAD_MONOMIALS = [
    ("sideways", 3, 0, 0),  # side
    (MINUS, 3, 0, 2),  # eps
    (PLUS, 3, 0, -1),  # eps
    (MINUS, 3, -1, 0),  # i below 0
    (MINUS, 3, 4, 0),  # i above head
    (PLUS, 3, 3, 1),  # i above head - eps
    (MINUS, -1, 0, 0),  # no i fits a negative head
]
BAD_GRT = [
    ("sideways", 3, 0, 0),  # side
    (MINUS, 3, 0, 2),  # eps
    (PLUS, -3, 0, -1),  # eps
    (MINUS, 3, -1, 0),  # idx
]


@pytest.mark.parametrize("kind,fields", [(Monomial, f) for f in BAD_MONOMIALS]
                         + [(GrtMonomial, f) for f in BAD_GRT])
def test_every_construction_checks_its_fields(kind, fields):
    with pytest.raises(ValueError):
        kind(*fields)
    with pytest.raises(ValueError):
        kind(MINUS, 3, 0, 0)._replace(**dict(zip(kind._fields, fields)))
    with pytest.raises(ValueError):
        kind._make(fields)
