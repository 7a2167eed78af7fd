import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spolink import cli, padic, rootdata, verify
from spolink.cli import COMMANDS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decompose_sl2_json(capsys):
    code, out = run_cli(capsys, "decompose-sl2", "--p", "3", "--k", "3")
    assert code == 0
    assert json.loads(out) == {
        "factors": [{"hw": 3, "mult": 1}, {"hw": 1, "mult": 1}]
    }


def test_decompose_spo21_formats(capsys):
    code, out = run_cli(capsys, "decompose-spo21", "--p", "3", "--l", "9", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["hw\tmult", "9\t1", "8\t1", "3\t1"]
    code, out = run_cli(capsys, "decompose-spo21", "--p", "3", "--l", "9", "--format", "text")
    assert out.strip() == "L(9) + L(8) + L(3)"


def test_decompose_grt(capsys):
    code, out = run_cli(capsys, "decompose-grt", "--p", "3", "--r", "1", "--l", "1")
    assert code == 0
    assert json.loads(out) == {
        "factors": [{"hw": 1, "mult": 1}, {"hw": -2, "mult": 1}]
    }


def test_socle_and_kernel(capsys):
    code, out = run_cli(capsys, "socle", "--p", "3", "--l", "3")
    assert code == 0
    assert json.loads(out) == {"basis": ["x(1,1)^3", "x(1,-1)^3"]}
    code, out = run_cli(capsys, "kernel", "--p", "3", "--k", "3", "--j", "0")
    assert json.loads(out) == {"basis": ["x(-1,1)^3", "x(-1,-1)^3"]}


def test_hom(capsys):
    code, out = run_cli(capsys, "hom", "--p", "3", "--k", "3", "--l", "2")
    assert json.loads(out) == {"dim": 1, "parity": "odd"}
    code, out = run_cli(capsys, "hom", "--p", "3", "--k", "4", "--l", "1", "--grt", "--r", "1")
    assert json.loads(out) == {"dim": 1, "parity": "odd"}


def test_psi_table_tsv(capsys):
    code, out = run_cli(capsys, "psi-table", "--p", "3", "--k", "3", "--j", "0")
    lines = out.splitlines()
    assert lines[0] == "source\ttarget\tcoeff"
    assert len(lines) == 1 + 7
    assert any("\t0\t0" in line for line in lines[1:])


def test_ker_im_coker(capsys):
    code, out = run_cli(capsys, "ker-im-coker", "--p", "3", "--k", "3", "--j", "0")
    got = json.loads(out)
    assert got["kernel"] == {"factors": [{"hw": 3, "mult": 1}]}
    assert got["image"] == {"factors": [{"hw": 2, "mult": 1}]}
    assert got["cokernel"] == {"factors": []}


def test_blocks_tsv(capsys):
    code, out = run_cli(capsys, "blocks", "--p", "3", "--window", "0:6")
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["weight", "block"]
    assert rows[1:] == [
        ["0", "0"], ["1", "1"], ["2", "2"], ["3", "2"], ["4", "1"], ["5", "0"], ["6", "0"],
    ]
    # values starting with a dash need the = form
    code, out = run_cli(capsys, "blocks-grt", "--p", "3", "--window=-1:1")
    assert out.splitlines()[1] == "-1\t0"


def test_roots_and_phiplus(capsys):
    code, out = run_cli(capsys, "roots", "--n", "1", "--m", "1", "--type", "odd")
    got = json.loads(out)
    assert len(got["roots"]) == 10
    code, out = run_cli(capsys, "phiplus", "--n", "1", "--m", "1", "--type", "odd")
    got = json.loads(out)
    assert {tuple(r["root"]) for r in got["roots"]} == {
        (2, 0), (0, 1), (1, 1), (1, 0), (1, -1)
    }
    code, out = run_cli(capsys, "phiplus", "--n", "1", "--m", "1", "--type", "odd",
                        "--flag", "1bar,-1")
    assert code == 0


def test_chain(capsys):
    code, out = run_cli(capsys, "chain", "--n", "1", "--m", "1", "--type", "odd")
    entries = json.loads(out)
    assert len(entries) == 5
    assert entries[0]["move"] is None
    assert entries[-1]["flag"] == ["-1", "-1bar"]


def test_rho_and_lambda_bracket(capsys):
    code, out = run_cli(capsys, "rho", "--n", "1", "--m", "1", "--type", "odd")
    got = json.loads(out)
    assert got["rho0"] == ["1", "1/2"]
    assert got["rho1"] == ["3/2", "0"]
    code, out = run_cli(capsys, "lambda-bracket", "--n", "1", "--m", "1", "--type", "odd",
                        "--flag", "1,1bar", "--weight", "2,1", "--r", "1", "--p", "3")
    assert json.loads(out) == {"weight": [2, 1]}


def test_rho_prints_the_halves_of_its_doubled_integers(capsys):
    for shape in verify._shapes(3):
        steps = rootdata.chain_of_borels(shape)
        for flag in [rootdata.standard_flag(shape)] + [s.flag_to for s in steps]:
            code, out = run_cli(capsys, "rho", "--n", str(shape.n), "--m", str(shape.m),
                                "--type", shape.parity_type,
                                "--flag=" + ",".join(map(rootdata.label_str, flag)))
            got = json.loads(out)
            assert code == 0
            for name in ("rho0", "rho1", "rho"):
                assert got[name] == [str(Fraction(c, 2)) for c in got["doubled"][name]]


def test_char_z(capsys):
    code, out = run_cli(capsys, "char-z", "--n", "1", "--m", "1", "--type", "odd",
                        "--weight", "0,0", "--r", "1", "--p", "3")
    got = json.loads(out)
    assert sum(t["coeff"] for t in got["terms"]) == 72
    assert got["terms"][0] == {"weight": [0, 0], "coeff": 1}


def test_linkage_graph_and_components(capsys):
    code, out = run_cli(capsys, "linkage-graph", "--n", "1", "--m", "0", "--type", "odd",
                        "--p", "3", "--rset", "1", "--box", "0:10")
    got = json.loads(out)
    assert got["nodes"][0] == [0]
    assert all(set(e) == {"src", "dst", "kind", "alpha", "r"} for e in got["edges"])
    code, out = run_cli(capsys, "components", "--n", "1", "--m", "0", "--type", "odd",
                        "--p", "3", "--rset", "1,2", "--box", "0:36")
    lines = out.splitlines()
    assert lines[0] == "component\tweight"
    assert len({line.split("\t")[0] for line in lines[1:]}) == 3


def test_invalid_inputs_exit_2(capsys):
    assert main(["decompose-sl2", "--p", "4", "--k", "3"]) == 2
    assert main(["decompose-sl2", "--p", "3", "--k", "-1"]) == 2
    assert main(["psi-table", "--p", "3", "--k", "4", "--j", "0"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_seed_flag_is_accepted_and_inert(capsys):
    code1, out1 = run_cli(capsys, "--seed-irrelevant", "decompose-sl2", "--p", "3", "--k", "8")
    code2, out2 = run_cli(capsys, "decompose-sl2", "--p", "3", "--k", "8")
    assert code1 == code2 == 0 and out1 == out2


def test_verify_all_quick_smoke(capsys):
    assert main(["verify-all", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 11


# Malformed option values, by the option their one error line must name.
MALFORMED = {
    "--window": [["blocks", "--p", "3", "--window", "1"],
                 ["blocks", "--p", "3", "--window", "a:b"],
                 ["blocks-grt", "--p", "3", "--window", "0:1:2"]],
    "--box": [["components", "--n", "1", "--m", "0", "--type", "odd", "--p", "3",
               "--box", "0-3"]],
    "--rset": [["linkage-graph", "--n", "1", "--m", "0", "--type", "odd", "--p", "3",
                "--rset", "x", "--box", "0:3"]],
    "--flag": [["phiplus", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1,xbar"]],
    "--weight": [["char-z", "--n", "1", "--m", "1", "--type", "odd", "--weight", "0,x",
                  "--r", "1", "--p", "3"]],
}

# Out-of-range values, by the option or the cap their one error line must
# name: first those listed below already, then ones that are new to the list.
RANGE_NAMED = {
    "--window": [["blocks", "--p", "3", "--window", "5:0"],
                 ["blocks-grt", "--p", "3", "--window", "5:0"]],
    "--box": [["components", "--n", "1", "--m", "0", "--type", "odd", "--p", "3",
               "--box", "5:0"],
              ["linkage-graph", "--n", "1", "--m", "1", "--type", "odd", "--p", "3",
               "--box", "0:2,3:1"]],
}
NAMED = {
    "--box": [["components", "--n", "1", "--m", "1", "--type", "odd", "--p", "3",
               "--box", "0:3"]],
    "--weight": [["lambda-bracket", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1,1bar",
                  "--weight", "2", "--r", "1", "--p", "3"]],
    "at most 20": [["decompose-sl2", "--p", "3", "--k", str(10**26)]],
    "below 2^31": [["decompose-sl2", "--p", "1000000000000000003", "--k", "3"]],
    "r = 20": [["decompose-grt", "--p", "3", "--r", "20", "--l", "5"],
               ["linkage-graph", "--n", "1", "--m", "0", "--type", "odd", "--p", "3",
                "--rset", "20", "--box", "0:3"]],
    # p^r alone would not finish here
    "--r": [["hom", "--p", "3", "--k", "1", "--l", "1", "--grt", "--r", "100000000"],
            ["lambda-bracket", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1,1bar",
             "--weight", "2,1", "--r", "100000000", "--p", "3"],
            ["psi-table", "--p", "3", "--k", "1", "--grt", "--r", "25"],
            ["socle", "--p", "3", "--l", "1", "--grt", "--r", "25"],
            ["char-z", "--n", "1", "--m", "0", "--type", "odd", "--weight", "0", "--r", "30",
             "--p", "3"]],
    "--rset": [["components", "--n", "1", "--m", "1", "--type", "even", "--p", "3",
                "--rset", "100000000", "--box", "0:1,0:1"]],
}
# Boxes whose graph passes linkage.MAX_EDGES, and listings that could pass
# padic.MAX_TERMS: the error names the option.
CAPPED = {
    "--box": [["linkage-graph", "--n", "1", "--m", "0", "--type", "odd", "--p", "3",
               "--box", "0:20000"],
              # no roots, so no edges: only the node count stops it
              ["components", "--n", "0", "--m", "1", "--type", "even", "--p", "3",
               "--box", "0:99999999"],
              ["linkage-graph", "--n", "1", "--m", "1", "--type", "even", "--p", "101",
               "--rset", "1", "--box", "0:1999,0:1999"],
              # few nodes, but each tests up to 2^19 noniso steps against the box
              ["components", "--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--rset", "19",
               "--box", "1743392100:1743392199"],
              ["components", "--n", "1", "--m", "1", "--type", "odd", "--p", "3", "--rset", "19",
               "--box", "1743392190:1743392190,0:39"]],
    # Lucas counts of 3,486,784,401 and 2,657,205 socle monomials
    "--l": [["socle", "--p", "3", "--l", "3486784399"],
            ["socle", "--p", "3", "--l", "1594322", "--side", "plus"]],
    "--k": [["psi-table", "--p", "3", "--k", "729000", "--j", "0"],
            ["kernel", "--p", "3", "--k", "729000", "--j", "0"]],
    "--window": [["blocks", "--p", "3", "--window", "0:2000000"],
                 ["blocks-grt", "--p", "3", "--window=-1000000:1"]],
    "--r": [["socle", "--p", "3", "--l", "1", "--grt", "--r", "12"],
            ["psi-table", "--p", "3", "--k", "1", "--grt", "--r", "12"],
            ["char-z", "--n", "1", "--m", "0", "--type", "odd", "--weight", "0", "--r", "12",
             "--p", "3"],
            ["char-z", "--n", "2", "--m", "1", "--type", "odd", "--weight", "0,0,0",
             "--r", "4", "--p", "3"],
            # few terms, but each of 28 factors touches up to 985,608 of them
            ["char-z", "--n", "3", "--m", "2", "--type", "odd", "--weight", "0,0,0,0,0",
             "--r", "1", "--p", "3"],
            # four factors of 167 terms over up to 249,001 weights
            ["char-z", "--n", "0", "--m", "2", "--type", "odd", "--weight", "0,0",
             "--r", "1", "--p", "167"]],
}


@pytest.mark.parametrize("argv", [
    ["blocks", "--p", "3", "--window=-2:3"],
    ["blocks", "--p", "3", "--window", "5:0"],
    ["blocks-grt", "--p", "3", "--window", "5:0"],
    ["decompose-grt", "--p", "3", "--r=-1", "--l", "1"],
    ["decompose-grt", "--p", "3", "--r", "0", "--l", "2"],
    ["socle", "--p", "3", "--l", "2", "--grt", "--r=-1"],
    ["hom", "--p", "3", "--k", "1", "--l", "1", "--grt", "--r", "0"],
    ["psi-table", "--p", "3", "--k", "2", "--grt", "--r=-1"],
    ["ker-im-coker", "--p", "3", "--k", "2", "--grt", "--r", "0"],
    ["lambda-bracket", "--n", "1", "--m", "1", "--type", "odd", "--flag", "1,1bar",
     "--weight", "2,1", "--r=-1", "--p", "3"],
    ["char-z", "--n", "1", "--m", "1", "--type", "odd", "--weight", "0,0", "--r=-1",
     "--p", "3"],
    ["components", "--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--rset", "0",
     "--box", "0:5"],
    ["linkage-graph", "--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--rset=1,-1",
     "--box", "0:5"],
    ["components", "--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--box", "5:0"],
    ["linkage-graph", "--n", "1", "--m", "1", "--type", "odd", "--p", "3",
     "--box", "0:2,3:1"],
    *[argv for argvs in MALFORMED.values() for argv in argvs],
    *[argv for argvs in NAMED.values() for argv in argvs],
    *[argv for argvs in CAPPED.values() for argv in argvs],
])
def test_ranges_rejected_before_any_output(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    for option, argvs in [*MALFORMED.items(), *RANGE_NAMED.items(), *NAMED.items(),
                          *CAPPED.items()]:
        if argv in argvs:
            assert option in captured.err


@pytest.mark.parametrize("argv,counted", [
    (["socle", "--p", "3", "--l", "1", "--grt", "--r", "12"],
     "--r 12 lists up to 1,062,882 rows or terms"),
    (["char-z", "--n", "3", "--m", "2", "--type", "odd", "--weight", "0,0,0,0,0", "--r", "1",
      "--p", "3"], "--r 1 expands its product in up to 12,314,313 term updates"),
])
def test_max_terms_refusals_name_what_they_count(capsys, argv, counted):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {counted}, more than MAX_TERMS = 1,000,000; lower it\n"


@pytest.mark.parametrize("argv,given,size", [
    (["socle", "--p", "3", "--l", "10"], "--l 10", 6),  # 101 and 100 in base 3: 4 + 2
    (["socle", "--p", "3", "--l", "1743392199"], "--l 1743392199", 524_288),  # 0, then 1s
    (["psi-table", "--p", "3", "--k", "9", "--j", "0"], "--k 9", 19),
    (["kernel", "--p", "3", "--k", "9", "--j", "0"], "--k 9", 19),
    (["blocks", "--p", "3", "--window", "0:9"], "--window 0:9", 10),
    (["blocks-grt", "--p", "3", "--window=-9:0"], "--window -9:0", 10),
    # even type: no noniso steps, so the node count sizes the box
    (["components", "--n", "1", "--m", "1", "--type", "even", "--p", "3", "--box", "0:3,0:4"],
     "--box 0:3,0:4", 20),
])
def test_listing_caps_sit_at_each_listing_size(monkeypatch, capsys, argv, given, size):
    # accepted at MAX_TERMS = size, refused one below, before any output
    monkeypatch.setattr(padic, "MAX_TERMS", size)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(padic, "MAX_TERMS", size - 1)
    assert main(argv) == 2
    fix = "narrow" if given.startswith(("--window", "--box")) else "lower"
    assert capsys.readouterr() == ("", f"error: {given} lists up to {size:,} rows or terms, "
                                   f"more than MAX_TERMS = {size - 1:,}; {fix} it\n")


def test_the_step_cap_sits_at_the_step_count(monkeypatch, capsys):
    # the odd box's 20 nodes test 60 noniso steps against it at r in {1, 2}
    argv = ["components", "--n", "1", "--m", "1", "--type", "odd", "--p", "3", "--box", "0:3,0:4"]
    monkeypatch.setattr(padic, "MAX_TERMS", 60)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(padic, "MAX_TERMS", 59)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --box 0:3,0:4 tests at least 60 non-isotropic "
                                   "steps against the box, more than MAX_TERMS = 59; narrow it\n")


# Every command that takes a shape, at rank 80: the root-data cap refuses it
# before any root is built, with no option of the query to blame but n and m.
RANK_80 = ["--n", "80", "--m", "0", "--type", "odd"]
FLAG_80 = ",".join(str(i) for i in range(1, 81))
WEIGHT_80 = ",".join(["0"] * 80)
BOX_80 = ",".join(["0:0"] * 80)


@pytest.mark.parametrize("argv", [
    ["roots", *RANK_80],
    ["phiplus", *RANK_80],
    ["chain", *RANK_80],
    ["rho", *RANK_80],
    ["lambda-bracket", *RANK_80, "--flag", FLAG_80, "--weight", WEIGHT_80, "--r", "1",
     "--p", "3"],
    ["char-z", *RANK_80, "--weight", WEIGHT_80, "--r", "1", "--p", "3"],
    ["linkage-graph", *RANK_80, "--p", "3", "--box", BOX_80],
    ["components", *RANK_80, "--p", "3", "--box", BOX_80],
], ids=lambda argv: argv[0])
def test_rank_taking_commands_refuse_rank_80(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: the odd-type shape n = 80, m = 0 has 12,960 roots "
                                   "of 80 coordinates, 1,036,800 integers in all, more than "
                                   "MAX_TERMS = 1,000,000; lower n + m\n")


# Parser tokens: every subcommand and option, a few abbreviations and near
# misses, help, "--", an unknown option and some values.
OPTIONS = sorted({flag for _, arguments, _ in COMMANDS.values() for flag, _ in arguments})
TOKENS = [*COMMANDS, *OPTIONS, "--format", "--seed-irrelevant", "--seed", "--form", "--gr",
          "--wei", "decomp", "-h", "--help", "--he", "--", "--bogus", "3", "-1", "0:3", "x",
          "odd", "tsv"]


# Option values by kind, each list split into values the option takes and
# values it refuses: int spellings int() accepts and rejects, strings empty,
# spaced or starting with a dash (taken only as --opt=VALUE by the plain
# reader; argparse also takes -4 and, once _parse joins it, -1,2 spaced, never -x).
INT_VALUES = (["3", "+3", " 5", "1_0", "-4"], ["1.5", ""])
TEXT_VALUES = (["1,2", "0:3", "a b", "", "-x", "-1,2"], [])


@st.composite
def argvs(draw):
    """A subcommand with its required options and some others, one time in
    four between random tokens or shuffled.  --seed-irrelevant may lead,
    once or twice.  An option comes once or twice, as --opt VALUE or
    --opt=VALUE, its value taken or, one time in four, refused; a store_true
    flag comes as itself or as --flag=."""
    name = draw(st.sampled_from(list(COMMANDS)))
    options = []
    for flag, kw in [("--format", {"choices": ("json", "tsv", "text")}), *COMMANDS[name][1]]:
        if not (kw.get("required") or draw(st.booleans())):
            continue
        for _ in range(draw(st.sampled_from((1, 1, 2)))):
            if kw.get("action") == "store_true":
                options.append(draw(st.sampled_from((flag, flag, flag + "="))))
                continue
            if "choices" in kw:
                taken, refused = list(kw["choices"]), ["xml"]
            else:
                taken, refused = INT_VALUES if kw.get("type") is int else TEXT_VALUES
            value = draw(st.sampled_from(refused if refused and draw(st.integers(0, 3)) == 0
                                         else taken))
            options += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    lead = ["--seed-irrelevant"] * draw(st.integers(0, 2))
    noise = (st.lists(st.sampled_from(TOKENS), max_size=2) if draw(st.integers(0, 3)) == 0
             else st.just([]))
    argv = draw(noise) + lead + [name, *options] + draw(noise)
    return draw(st.permutations(argv)) if draw(st.integers(0, 3)) == 0 else argv


def _outcome(parse, argv):
    """The Namespace, or the exit code with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _joined(argv):
    """argv with each --opt VALUE made --opt=VALUE where --opt is spelled in
    full, takes a value in the subcommand named by the first token without a
    dash, and VALUE starts with a dash and a digit."""
    name = next((a for a in argv if not a.startswith("-")), None)
    if name not in COMMANDS:
        return argv
    takes_value = {"--format"} | {flag for flag, kw in COMMANDS[name][1] if "action" not in kw}
    out = []
    for a in argv:
        if out and out[-1] in takes_value and len(a) > 1 and a[0] == "-" and a[1].isdigit():
            out[-1] = f"{out[-1]}={a}"
        else:
            out.append(a)
    return out


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_lean_parse_matches_the_full_parser(argv):
    full = _outcome(build_parser().parse_args, _joined(argv))
    assert _outcome(cli._parse, argv) == full
    # the join only turns refusals into answers: what argparse reads as given,
    # it reads alike joined
    given = _outcome(build_parser().parse_args, argv)
    assert given == full or isinstance(given, tuple)


RHO = ["rho", "--n", "1", "--m", "1", "--type", "odd"]


@pytest.mark.parametrize("argv, read", [
    ([*RHO, "--flag", "-1,1bar"], [*RHO, "--flag=-1,1bar"]),
    (["blocks", "--window", "-2:3", "--p", "3"], ["blocks", "--window=-2:3", "--p", "3"]),
    (["decompose-grt", "--p", "3", "--r", "2", "--l", "-5", "--format", "-1"],
     ["decompose-grt", "--p", "3", "--r", "2", "--l=-5", "--format=-1"]),
    # left as given: a dash and no digit, an abbreviation (argparse's to resolve),
    # a token after a joined one, a store_true flag, a value after a value
    ([*RHO, "--flag", "-x"], None),
    ([*RHO, "--fla", "-1,2"], None),
    ([*RHO, "--flag=-1,2", "-3"], None),
    (["hom", "--p", "3", "--k", "1", "--l", "1", "--grt", "-1"], None),
    (["hom", "--p", "3", "--k", "1", "--l", "1", "--r", "2", "-1"], None),
])
def test_spaced_dash_values_are_joined_to_full_option_names(argv, read):
    assert _joined(argv) == (read or argv)
    assert _outcome(cli._parse, argv) == _outcome(build_parser().parse_args, read or argv)


def test_only_the_named_subparser_is_built(monkeypatch, capsys):
    built, calls = [], []
    add_parser, build = argparse._SubParsersAction.add_parser, cli.build_parser

    def counting(self, name, **kw):
        built.append(name)
        return add_parser(self, name, **kw)

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    # a plain query is read off one build_parser call; argparse builds nothing
    assert main(["decompose-sl2", "--p", "3", "--k", "3"]) == 0
    assert built == [] and calls == [(["decompose-sl2"], cli._PlainParser)]
    # an abbreviation is for argparse, which builds every subparser
    calls.clear()
    assert main(["decompose-sl2", "--p", "3", "--k", "3", "--form", "tsv"]) == 0
    assert calls == [(["decompose-sl2"], cli._PlainParser), ()] and built == list(COMMANDS)
    # so is a spaced dash value, which argparse reads joined to its option
    calls.clear()
    assert main(["rho", "--n", "1", "--m", "1", "--type", "odd", "--flag", "-1,1bar"]) == 0
    assert calls == [(["rho"], cli._PlainParser), ()]
    built.clear()
    with pytest.raises(SystemExit):
        main(["-h"])
    assert built == list(COMMANDS) and len(built) == 19


# The spolink modules a fresh interpreter holds after `import spolink.cli` and
# one cli.main(argv), with its exit code: rank-one queries, a refused one too,
# load only the eager modules.  Every subcommand that loads more runs here, as
# in process an earlier query may have bound what its _LAZY row leaves out.
EAGER = {"cli", "padic", "words", "sl2", "spo21", "frobenius"}
SHAPE_11 = ["--n", "1", "--m", "1", "--type", "odd"]
BOX_9 = ["--n", "1", "--m", "0", "--type", "odd", "--p", "3", "--box", "0:9"]
IMPORT_SETS = {
    "bare import": ([], None, EAGER),
    "decompose-sl2": (["decompose-sl2", "--p", "3", "--k", "3"], 0, EAGER),
    **{name: ([name, *SHAPE_11, *extra], 0, EAGER | {"rootdata"}) for name, extra in [
        ("roots", []), ("phiplus", []), ("chain", []), ("rho", []),
        ("lambda-bracket", ["--flag", "1,1bar", "--weight", "2,1", "--r", "1", "--p", "3"]),
        ("char-z", ["--weight", "0,0", "--r", "1", "--p", "3"])]},
    "linkage-graph": (["linkage-graph", *BOX_9], 0, EAGER | {"rootdata", "linkage"}),
    "components": (["components", *BOX_9], 0, EAGER | {"rootdata", "linkage"}),
    "verify-all": (["verify-all", "--quick"], 0,
                   EAGER | {"verify", "characters", "rootdata", "linkage"}),
    "socle refused": (["socle", "--p", "3", "--l", "3486784399"], 2, EAGER),
}
LOADED = """
import contextlib, io, json, sys
from spolink import cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m[8:] for m in sys.modules if m.startswith("spolink."))]))
"""


@pytest.mark.parametrize("case", list(IMPORT_SETS))
def test_each_subcommand_imports_only_what_it_runs(case):
    argv, code, modules = IMPORT_SETS[case]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == [code, sorted(modules)]


def test_a_reader_that_closes_early_ends_the_query_quietly():
    # k + 1 is eighteen base-3 ones: 2^17 factors, about 1.9 MB of JSON, more
    # than a pipe holds, so the listing is still being written when the reader
    # closes after 10 bytes, as `| head -c 10` would
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "spolink.cli", "decompose-sl2", "--p", "3",
                             "--k", str((3**18 - 1) // 2 - 1)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{"factors"'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


@pytest.mark.parametrize("shape, flag, labels", [
    (["--n", "1", "--m", "1"], "-1,2", "1, 1bar"),
    (["--n", "2", "--m", "0"], "1", "1, 2"),
    (["--n", "0", "--m", "2"], "1bar,1bar", "1bar, 2bar"),
])
def test_a_flag_that_misses_the_shape_is_refused_in_the_user_s_terms(capsys, shape, flag, labels):
    code = main(["rho", *shape, "--type", "odd", f"--flag={flag}"])
    n, m = shape[1], shape[3]
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --flag {flag} does not fit --n {n} --m {m}: it needs each of {labels} once, "
        "with either sign, in any order\n")
