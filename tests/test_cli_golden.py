"""Golden CLI corpus: every argv in CASES is replayed in process and its
stdout, stderr and exit code must equal the recorded ones in golden_cli.json
byte for byte.

The corpus covers every subcommand with every --format, -h for the top level
and each subcommand, and every exit-2 path.  verify-all appears only with -h:
its full run takes a minute, and test_cli runs its quick form.  Re-record (only when an output is
meant to change, and say which entries changed) with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from spolink.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

# argparse wraps help text to the terminal width, read from COLUMNS
COLUMNS = "80"

FORMATS = ((), ("--format", "json"), ("--format", "tsv"), ("--format", "text"))

SUBCOMMANDS = (
    "decompose-sl2", "decompose-spo21", "decompose-grt", "socle", "hom", "psi-table",
    "kernel", "ker-im-coker", "blocks", "blocks-grt", "roots", "phiplus", "chain", "rho",
    "lambda-bracket", "char-z", "linkage-graph", "components", "verify-all",
)

QUERIES = [
    ["decompose-sl2", "--p", "3", "--k", "3"],
    ["decompose-sl2", "--p", "5", "--k", "124"],
    ["decompose-sl2", "--p", "7", "--k", "0"],
    ["decompose-sl2", "--p", "3", "--k", "531446"],
    ["decompose-spo21", "--p", "3", "--l", "9"],
    ["decompose-spo21", "--p", "5", "--l", "0"],
    ["decompose-spo21", "--p", "7", "--l", "350"],
    ["decompose-grt", "--p", "3", "--r", "1", "--l=-2"],
    ["decompose-grt", "--p", "5", "--r", "2", "--l", "37"],
    ["decompose-grt", "--p", "3", "--r", "3", "--l", "100"],
    ["socle", "--p", "3", "--l", "3"],
    ["socle", "--p", "3", "--l", "5", "--side", "plus"],
    ["socle", "--p", "5", "--l", "0"],
    ["socle", "--p", "3", "--l", "5", "--grt", "--r", "1", "--side", "plus"],
    ["socle", "--p", "3", "--l=-4", "--grt", "--r", "2"],
    ["hom", "--p", "3", "--k", "3", "--l", "2"],
    ["hom", "--p", "3", "--k", "3", "--l", "3"],
    ["hom", "--p", "3", "--k", "4", "--l", "0"],
    ["hom", "--p", "5", "--k", "25", "--l", "24"],
    ["hom", "--p", "3", "--k", "4", "--l", "1", "--grt", "--r", "1"],
    ["hom", "--p", "3", "--k", "4", "--l", "2", "--grt", "--r", "1"],
    ["hom", "--p", "3", "--k", "4", "--l", "4", "--grt", "--r", "1"],
    ["hom", "--p", "5", "--k=-3", "--l", "52", "--grt", "--r", "2"],
    ["psi-table", "--p", "3", "--k", "13", "--j", "4"],
    ["psi-table", "--p", "5", "--k", "25", "--j", "0"],
    ["psi-table", "--p", "3", "--k", "4", "--grt", "--r", "1"],
    ["psi-table", "--p", "5", "--k=-7", "--grt", "--r", "1"],
    ["kernel", "--p", "3", "--k", "3", "--j", "0"],
    ["kernel", "--p", "3", "--k", "14", "--j", "2"],
    ["ker-im-coker", "--p", "3", "--k", "10", "--j", "1"],
    ["ker-im-coker", "--p", "3", "--k", "3", "--j", "0"],
    ["ker-im-coker", "--p", "3", "--k", "4", "--grt", "--r", "1"],
    ["ker-im-coker", "--p", "5", "--k", "30", "--grt", "--r", "2"],
    ["blocks", "--p", "3", "--window", "0:12"],
    ["blocks", "--p", "5", "--window", "7:7"],
    ["blocks-grt", "--p", "3", "--window=-18:18"],
    ["blocks-grt", "--p", "7", "--window=-3:-1"],
    ["roots", "--n", "1", "--m", "1", "--type", "odd"],
    ["roots", "--n", "2", "--m", "1", "--type", "even"],
    ["roots", "--n", "0", "--m", "2", "--type", "odd"],
    ["phiplus", "--n", "1", "--m", "1", "--type", "odd"],
    ["phiplus", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1bar,-1"],
    ["phiplus", "--n", "2", "--m", "1", "--type", "even", "--flag=-1bar,2,-1"],
    ["chain", "--n", "1", "--m", "1", "--type", "odd"],
    ["chain", "--n", "2", "--m", "2", "--type", "even"],
    ["rho", "--n", "1", "--m", "1", "--type", "odd"],
    ["rho", "--n", "2", "--m", "1", "--type", "even", "--flag", "1,1bar,2"],
    ["lambda-bracket", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1,1bar",
     "--weight", "2,1", "--r", "1", "--p", "3"],
    ["lambda-bracket", "--n", "1", "--m", "1", "--type", "even", "--flag=-1bar,-1",
     "--weight=-2,5", "--r", "2", "--p", "5"],
    ["char-z", "--n", "1", "--m", "1", "--type", "odd", "--weight", "0,0", "--r", "1",
     "--p", "3"],
    ["char-z", "--n", "1", "--m", "1", "--type", "even", "--flag", "1bar,-1",
     "--weight", "1,2", "--r", "1", "--p", "3"],
    ["linkage-graph", "--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--rset", "1",
     "--box", "0:10"],
    ["linkage-graph", "--n", "1", "--m", "1", "--type", "odd", "--p", "3",
     "--box=-3:3,-3:3"],
    ["linkage-graph", "--n", "1", "--m", "1", "--type", "even", "--p", "3", "--rset", "1",
     "--box", "0:4,0:4"],
    ["components", "--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--box", "0:36"],
    ["components", "--n", "1", "--m", "1", "--type", "odd", "--p", "3", "--rset", "1",
     "--box=-4:4,-4:4"],
    ["components", "--n", "0", "--m", "1", "--type", "even", "--p", "5", "--rset", "2",
     "--box", "0:30"],
]

EXIT_2 = [
    # argparse rejections
    ["no-such-command"],
    [],
    ["decompose-sl2", "--p", "3"],
    ["decompose-sl2", "--p", "three", "--k", "3"],
    ["decompose-sl2", "--p", "3", "--k", "3", "--format", "xml"],
    ["socle", "--p", "3", "--l", "3", "--side", "middle"],
    ["roots", "--n", "1", "--m", "1", "--type", "odd", "--bogus"],
    ["blocks", "--p", "3", "--window", "-2:3"],
    # the characteristic
    ["decompose-sl2", "--p", "4", "--k", "3"],
    ["decompose-sl2", "--p", "9", "--k", "3"],
    ["decompose-sl2", "--p", "2", "--k", "3"],
    ["decompose-sl2", "--p", "1", "--k", "3"],
    ["decompose-sl2", "--p=-3", "--k", "3"],
    ["blocks-grt", "--p", "15", "--window", "0:3"],
    ["components", "--n", "1", "--m", "0", "--type", "odd", "--p", "6", "--box", "0:3"],
    # weights out of range
    ["decompose-sl2", "--p", "3", "--k=-1"],
    ["decompose-spo21", "--p", "3", "--l=-1"],
    ["socle", "--p", "3", "--l=-1"],
    ["hom", "--p", "3", "--k=-1", "--l", "1"],
    ["hom", "--p", "3", "--k", "1", "--l=-1"],
    # morphism parameters
    ["psi-table", "--p", "3", "--k", "4", "--j", "0"],
    ["psi-table", "--p", "3", "--k", "4"],
    ["kernel", "--p", "3", "--k", "4", "--j", "0"],
    ["kernel", "--p", "3", "--k", "3", "--j", "5"],
    ["ker-im-coker", "--p", "3", "--k", "4", "--j", "0"],
    ["ker-im-coker", "--p", "3", "--k", "4"],
    # malformed windows, boxes, r-sets
    ["blocks", "--p", "3", "--window", "1"],
    ["blocks", "--p", "3", "--window", "a:b"],
    ["blocks-grt", "--p", "3", "--window", "0:1:2"],
    ["components", "--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--box", "0-3"],
    ["components", "--n", "1", "--m", "1", "--type", "odd", "--p", "3", "--box", "0:3"],
    ["linkage-graph", "--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--rset", "x",
     "--box", "0:3"],
    # shapes, flags, weights
    ["roots", "--n=-1", "--m", "1", "--type", "odd"],
    ["roots", "--n", "0", "--m", "0", "--type", "odd"],
    ["phiplus", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1,2bar"],
    ["phiplus", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1,xbar"],
    ["rho", "--n", "2", "--m", "0", "--type", "odd", "--flag", "1"],
    ["lambda-bracket", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1,1bar",
     "--weight", "2", "--r", "1", "--p", "3"],
    ["char-z", "--n", "1", "--m", "1", "--type", "odd", "--weight", "0,x", "--r", "1",
     "--p", "3"],
]

# Out-of-range inputs, rejected with exit 2 before any output: negative blocks
# windows, r < 1, and windows or boxes with lo > hi.
RANGES = [
    ["blocks", "--p", "3", "--window=-2:3"],
    ["blocks", "--p", "3", "--window", "5:0"],
    ["blocks-grt", "--p", "3", "--window", "5:0"],
    ["decompose-grt", "--p", "3", "--r=-1", "--l", "1"],
    ["decompose-grt", "--p", "3", "--r", "0", "--l", "2"],
    ["hom", "--p", "3", "--k", "1", "--l", "1", "--grt", "--r", "0"],
    ["ker-im-coker", "--p", "3", "--k", "2", "--grt", "--r", "0"],
    ["lambda-bracket", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1,1bar",
     "--weight", "2,1", "--r=-1", "--p", "3"],
    ["char-z", "--n", "1", "--m", "1", "--type", "odd", "--weight", "0,0", "--r", "0",
     "--p", "3"],
    ["components", "--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--rset", "0",
     "--box", "0:5"],
    ["components", "--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--box", "5:0"],
    ["linkage-graph", "--n", "1", "--m", "1", "--type", "odd", "--p", "3",
     "--box", "0:2,3:1"],
]

HELP = [["-h"]] + [[name, "-h"] for name in SUBCOMMANDS]

# Where argparse's handling reaches past the subcommand's own parser: options
# before the subcommand, abbreviations, help anywhere, stray or repeated
# positionals, "--", command prefixes and unknown options after a valid
# subcommand, whose usage line is the top level's.
PARSER_EDGES = [
    ["--seed-irrelevant", "--bogus", "decompose-sl2", "--p", "3", "--k", "3"],
    ["--seed", "decompose-sl2", "--p", "3", "--k", "3"],
    ["decompose-sl2", "--p", "3", "--k", "3", "--form", "tsv"],
    ["decompose-sl2", "--p", "3", "--k", "3", "-h"],
    ["decompose-sl2", "--help"],
    ["--help"],
    ["decompose-sl2", "--p", "3", "--k", "3", "roots"],
    ["decompose-sl2", "decompose-sl2", "--p", "3", "--k", "3"],
    ["--", "decompose-sl2", "--p", "3", "--k", "3"],
    ["decomp", "--p", "3", "--k", "3"],
    ["hom", "--p", "3", "--k", "5", "--l", "1", "--grt", "--r", "1", "--bogus"],
]

# Spellings at the edge of the plain reader (cli._PlainParser): --opt=VALUE
# (a dash-leading value, which --opt VALUE reaches only through argparse once
# cli._parse has joined it), a repeated option (the last wins),
# --seed-irrelevant twice, a store_true flag twice or given a value, int
# spellings int() accepts, an empty string value, and a stray "-".
PLAIN_EDGES = [
    ["decompose-grt", "--p=3", "--r=2", "--l=-5", "--p=5"],
    ["decompose-grt", "--p", "3", "--r", "2", "--l", "-5"],
    ["--seed-irrelevant", "--seed-irrelevant", "decompose-sl2", "--p", "3", "--k", "3"],
    ["hom", "--p", "3", "--k", "5", "--l", "1", "--grt", "--grt"],
    ["hom", "--p", "3", "--k", "5", "--l", "1", "--grt="],
    ["socle", "--p", "3", "--l", "4", "--side", "plus", "--side", "minus"],
    ["decompose-sl2", "--p", "3", "--k", "1_0"],
    ["rho", "--n", "1", "--m", "1", "--type", "odd", "--flag="],
    ["rho", "--n", "1", "--m", "1", "--type", "odd", "--flag", "-1,2"],
    ["decompose-sl2", "--p", "3", "--k", "3", "-"],
]

# Spaced values that begin with a dash and a digit, joined to their option
# before argparse reads them (blocks --window -2:3 and rho --flag -1,2 above
# are refused as values, not as options).
DASH_VALUES = [
    ["rho", "--n", "1", "--m", "1", "--type", "odd", "--flag", "-1,1bar"],
    ["lambda-bracket", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1,1bar",
     "--weight", "-2,1", "--r", "1", "--p", "3"],
    ["components", "--n", "1", "--m", "1", "--type", "odd", "--p", "3", "--rset", "1",
     "--box", "-3:6,0:5"],
    ["blocks-grt", "--p", "3", "--window", "-2:3"],
]

# Weights near the 20-digit cap of the word builder: k + 1 = 3^20 - 1 has
# twenty digits p - 1, so 20 of its 2^19 words live; the thickened head
# normalises to a weight of 16 base-7 digits.
LONG_WORDS = [
    ["decompose-sl2", "--p", "3", "--k", "3486784399"],
    ["decompose-grt", "--p", "7", "--r", "15", "--l=-4607563851886857"],
]

CASES = (
    [q + list(f) for q in QUERIES for f in FORMATS]
    + [["--seed-irrelevant", "decompose-sl2", "--p", "3", "--k", "8"]]
    + LONG_WORDS
    + EXIT_2
    + RANGES
    + HELP
    + PARSER_EDGES
    + PLAIN_EDGES
    + DASH_VALUES
)


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: -h, or a rejected argv
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _python() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def _from_argparse(entry: dict) -> bool:
    return bool({"-h", "--help"} & set(entry["argv"])) or entry["stderr"].startswith("usage:")


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_lists_every_case():
    assert [e["argv"] for e in _load()["cases"]] == CASES


def test_corpus_replays_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    golden = _load()
    # argparse's own wording (help pages, usage errors) varies between Python
    # versions; it is compared only on the version that recorded the corpus
    same_python = golden["python"] == _python()
    mismatches = [
        e["argv"]
        for e in golden["cases"]
        if (same_python or not _from_argparse(e)) and invoke(e["argv"]) != e
    ]
    assert mismatches == []


def test_corpus_covers_every_subcommand_and_format():
    used = {(q[0], f) for q in QUERIES for f in FORMATS}
    cli_commands = [name for name in SUBCOMMANDS if name != "verify-all"]
    assert used == {(name, f) for name in cli_commands for f in FORMATS}
    assert all(e["code"] == 2 for e in _load()["cases"] if e["argv"] in EXIT_2 + RANGES)


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.write_text(
        json.dumps({"python": _python(), "cases": [invoke(a) for a in CASES]},
                   ensure_ascii=False, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
