"""The monomials of the rank-one tables as index tuples (side, head, i, eps):
their names as the command line spells them, their weights, and the tables
and kernels the command line writes from the integer rows.

The digests below were recorded when monomials were still objects of their
own, so they pin that handing out index tuples, and spelling them only in
the command line, changed no output.
"""

import contextlib
import hashlib
import io

import pytest

from spolink import cli, frobenius, spo21
from spolink.spo21 import MINUS, PLUS

PRIMES = (3, 5, 7)


def _row(side: str, head: int, i: int, eps: int) -> str:
    """A rank-one monomial as its fields, name and weight."""
    return f"{(side, head, i, eps)}|{cli._monomial(side, head, i, eps)}|{head - 2 * i - eps}"


def _row_r(side: str, head: int, idx: int, eps: int) -> str:
    """A thickened monomial likewise; a plus weight counts up from -head."""
    weight = head - 2 * idx - eps if side == MINUS else 2 * idx + eps - head
    return f"{(side, head, idx, eps)}|{cli._monomial(side, head, idx, eps, grt=True)}|{weight}"


def _printed(*argv) -> str:
    """What the command line prints for argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _basis(head: int) -> list[tuple[int, int]]:
    """The (i, eps) of the induced module of the given head, in basis order."""
    return [(i, 0) for i in range(head + 1)] + [(i, 1) for i in range(head)]


OPS = (("f", 1), ("f", 2), ("f", 3), ("e", 1), ("e", 2), ("y", 1), ("x", 1))


def act_lines() -> list[str]:
    out = []
    for p in PRIMES:
        for k in range(16):
            for side in (PLUS, MINUS):
                for i, eps in _basis(k):
                    for op, t in OPS:
                        img = spo21.act(op, k, i, eps, p, t)
                        out.append(f"{p} {_row(side, k, i, eps)} {op}{t} -> "
                                   + (f"{_row(side, k, *img[0])}*{img[1]}" if img else ""))
    return out


def psi_table_lines() -> list[str]:
    out = []
    for p in PRIMES:
        for k in range(1, 40):
            for j in spo21.admissible_js(k, p):
                l, rows = spo21.psi_rows(k, j, p)
                out.append(f"{p} {k} {j}")
                out += [f"{_row(PLUS, k, i, eps)} -> "
                        + (f"{_row(MINUS, l, ti, teps)}*{c}" if c else "")
                        for i, eps, ti, teps, c in rows]
                out.append(_printed("psi-table", "--p", p, "--k", k, "--j", j))
    return out


def psi_r_table_lines() -> list[str]:
    out = []
    for p in (3, 5):
        for r in (1, 2):
            q = p**r
            for k in range(-q, 2 * q + 1):
                lt, rows = frobenius.psi_r_rows(k, r, p)
                out.append(f"{p} {r} {k}")
                out += [f"{_row_r(PLUS, k, i, eps)} -> "
                        + (f"{_row_r(MINUS, lt, ti, teps)}*{c}" if c else "")
                        for i, eps, ti, teps, c in rows]
                out.append(_printed("psi-table", "--p", p, f"--k={k}", "--grt", "--r", r))
    return out


def kernel_basis_lines() -> list[str]:
    out = []
    for p in PRIMES:
        for k in range(1, 60):
            for j in spo21.admissible_js(k, p):
                zero = [(i, eps) for i, eps, _, _, c in spo21.psi_rows(k, j, p)[1] if not c]
                names = _printed("kernel", "--p", p, "--k", k, "--j", j, "--format", "tsv")
                names = names.splitlines()
                out.append(f"{p} {k} {j} " + ";".join(
                    f"{(PLUS, k, i, eps)}|{name}|{k - 2 * i - eps}"
                    for (i, eps), name in zip(zero, names, strict=True)))
    return out


RECORDED = {
    "act": "32315ce0c445be9d",
    "psi_table": "24aa60491cc3eedf",
    "psi_r_table": "8af49c711a51373d",
    "kernel_basis": "2313591b8b3db66e",
}


@pytest.mark.parametrize("name,lines", [
    ("act", act_lines), ("psi_table", psi_table_lines),
    ("psi_r_table", psi_r_table_lines), ("kernel_basis", kernel_basis_lines),
])
def test_tables_unchanged(name, lines):
    assert _digest(lines()) == RECORDED[name]


def test_known_strings():
    assert cli._monomial(MINUS, 5, 2, 1) == "x(1,1)^2 x(1,-1)^2 x(1,0')"
    assert cli._monomial(PLUS, 5, 2, 0) == "x(-1,-1)^2 x(-1,1)^3"
    assert cli._monomial(PLUS, 0, 0, 0) == "1"
    assert cli._monomial(MINUS, -2, 1, 1, grt=True) == "x(1,1)^-4 x(1,-1) x(1,0')"
    assert cli._monomial(PLUS, 3, 2, 0, grt=True) == "x(-1,-1) x(-1,1)^2"
