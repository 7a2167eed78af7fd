"""Command-line front end: one subcommand per computation, JSON/TSV output,
and a verify-all mode that replays every oracle sweep.

Each subcommand is one row of COMMANDS: its help line, its arguments and the
handler that formats its result.  The maths lives in the library; this module
parses, validates ranges before any output, and formats.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import frobenius, linkage, rootdata, sl2, spo21, verify
from .characters import TooManyTerms, check_terms
from .padic import Prime
from .rootdata import GroupShape
from .spo21 import MINUS, PLUS
from .words import MAX_DIGITS


def _factors_out(factors: frozenset[int], fmt: str) -> str:
    """A multiplicity-free constituent set, highest weight first."""
    hws = sorted(factors, reverse=True)
    if fmt == "tsv":
        return "\n".join(["hw\tmult", *(f"{hw}\t1" for hw in hws)])
    if fmt == "text":
        return " + ".join([f"L({hw})" for hw in hws]) or "0"
    # json.dumps of {"factors": [{"hw": hw, "mult": 1}, ...]}: every entry is
    # an int, so joining f-strings gives the same bytes
    rows = ", ".join([f'{{"hw": {hw}, "mult": 1}}' for hw in hws])
    return f'{{"factors": [{rows}]}}'


# The even generators x(s,s), x(s,-s) and the odd one x(s,0') of each side s.
_GENERATORS = {
    MINUS: ("x(1,1)", "x(1,-1)", "x(1,0')"),
    PLUS: ("x(-1,-1)", "x(-1,1)", "x(-1,0')"),
}


def _monomial(side: str, head: int, i: int, eps: int, grt: bool = False) -> str:
    """The printed form of the basis pair (i, eps) of the module of the given
    head and side: rank one puts i on x(1,-1) and on x(-1,-1), a thickening
    puts it on the second generator of both sides (see spo21 and frobenius).
    Exponent 0 is left out, exponent 1 prints bare, the empty product is 1."""
    a, b, c = _GENERATORS[side]
    first, second = (i, head - i - eps) if side == PLUS and not grt else (head - i - eps, i)
    out = "" if first == 0 else a if first == 1 else f"{a}^{first}"
    if second:
        b = b if second == 1 else f"{b}^{second}"
        out = f"{out} {b}" if out else b
    if eps:  # 0 or 1
        out = f"{out} {c}" if out else c
    return out or "1"


def _names_out(names: list[str], fmt: str) -> str:
    if fmt in ("tsv", "text"):
        return "\n".join(names)
    # json.dumps({"basis": names}): a monomial name is plain ASCII with no
    # quote or backslash, so it needs no escaping
    rows = ", ".join([f'"{name}"' for name in names])
    return f'{{"basis": [{rows}]}}'


def _roots_out(roots) -> str:
    return json.dumps({"roots": [
        {"root": list(r.vec), "parity": r.parity, "isotropic": r.isotropic}
        for r in roots
    ]})


@contextlib.contextmanager
def _malformed(option: str, value: str, form: str):
    """Turn a ValueError from parsing an option's value into one message that
    names the option."""
    try:
        yield
    except ValueError:
        raise ValueError(f"{option} needs {form}, got {value!r}") from None


def _flag(args, shape: GroupShape):
    """The --flag given, checked against the shape, or the standard flag."""
    if not args.flag:
        return rootdata.standard_flag(shape)
    with _malformed("--flag", args.flag, "a comma list like 1,-2,1bar"):
        flag = tuple(rootdata.parse_label(tok.strip()) for tok in args.flag.split(","))
    rootdata.check_flag(flag, shape)
    return flag


def _parse_weight(s: str, shape: GroupShape) -> tuple[int, ...]:
    with _malformed("--weight", s, "comma-separated integers"):
        out = tuple(int(tok) for tok in s.split(","))
    if len(out) != shape.rank:
        raise ValueError(f"--weight needs {shape.rank} coordinates, got {len(out)}")
    return out


def _parse_window(s: str, option: str) -> tuple[int, int]:
    with _malformed(option, s, "LO:HI"):
        lo, hi = map(int, s.split(":"))
    if lo > hi:
        raise ValueError(f"{option} range {s} is empty: need LO <= HI")
    return lo, hi


def _parse_rset(s: str) -> set[int]:
    with _malformed("--rset", s, "comma-separated integers"):
        r_set = {int(tok) for tok in s.split(",")}
    for r in (min(r_set), max(r_set)):
        _check_r("--rset entries", r, s)
    return r_set


def _check_r(option: str, r: int, given) -> None:
    """1 <= r < MAX_DIGITS: thickened words have r + 1 digits, and p^r comes first."""
    if r < 1:
        raise ValueError(f"{option} must be >= 1, got {given}")
    if r >= MAX_DIGITS:
        raise ValueError(f"{option} must be <= {MAX_DIGITS - 1}: r = {r} needs words of "
                         f"{r + 1} digits, built for at most {MAX_DIGITS}")


def _shape(args) -> GroupShape:
    return GroupShape(args.n, args.m, args.type)


def _step_json(step: rootdata.ChainStep | None, flag) -> dict:
    if step is None:
        return {"flag": [rootdata.label_str(lb) for lb in flag], "move": None,
                "alpha": None, "levi": None}
    move = step.move.kind if step.move.pos is None else f"{step.move.kind}@{step.move.pos}"
    alpha = list(step.alpha) if step.alpha is not None else None
    return {"flag": [rootdata.label_str(lb) for lb in step.flag_to], "move": move,
            "alpha": alpha, "levi": step.levi}


# ------------------------------------------------------------------ handlers
# handler(args, p) returns the text to print; p is the validated prime, or
# None for subcommands without --p.


def _need_j(args) -> int:
    if args.j is None:
        raise ValueError(f"{args.command} needs --j unless --grt is given")
    return args.j


def _socle(args, p):
    if args.grt:
        pairs = frobenius.socle_basis_r(args.l, args.r, p)
    else:
        pairs = spo21.socle_basis(args.l, p)
    return _names_out([_monomial(args.side, args.l, i, eps, args.grt) for i, eps in pairs],
                      args.format)


def _hom(args, p):
    if args.grt:
        dim, parity = frobenius.hom_r(args.k, args.l, args.r, p)
    else:
        dim, parity = spo21.hom_dim(args.k, args.l, p)
    return json.dumps({"dim": dim, "parity": parity})


def _psi_table(args, p):
    """The morphism's rows as source/target/coeff lines; a killed source has
    target and coeff 0."""
    if args.grt:
        head, rows = frobenius.psi_r_rows(args.k, args.r, p)
    else:
        head, rows = spo21.psi_rows(args.k, _need_j(args), p)
    lines = [f"{_monomial(PLUS, args.k, i, eps, args.grt)}\t"
             f"{_monomial(MINUS, head, ti, teps, args.grt) if c else 0}\t{c}"
             for i, eps, ti, teps, c in rows]
    return "\n".join(["source\ttarget\tcoeff", *lines])


def _kernel(args, p):
    """The plus-side names of the sources the (k, j) rows send to 0, in row order."""
    rows = spo21.psi_rows(args.k, args.j, p)[1]
    return _names_out([_monomial(PLUS, args.k, i, eps) for i, eps, _, _, c in rows if not c],
                      args.format)


def _ker_im_coker(args, p):
    if args.grt:
        parts = frobenius.psi_r_ker_im_coker(args.k, args.r, p)
    else:
        parts = spo21.ker_im_coker_factors(args.k, _need_j(args), p)
    ker, im, coker = (_factors_out(part, "json") for part in parts)
    return f'{{"kernel": {ker}, "image": {im}, "cokernel": {coker}}}'


def _blocks_out(lo: int, hi: int, p: int) -> str:
    check_terms(hi - lo + 1)
    rows = [f"{l}\t{spo21.block_of(l, p)}" for l in range(lo, hi + 1)]
    return "\n".join(["weight\tblock"] + rows)


def _blocks(args, p):
    lo, hi = _parse_window(args.window, "--window")
    if lo < 0:
        raise ValueError(
            f"blocks needs weights >= 0, got {args.window} (blocks-grt takes any integer)"
        )
    return _blocks_out(lo, hi, p)


def _phiplus(args, p):
    shape = _shape(args)
    return _roots_out(sorted(rootdata.phi_plus(_flag(args, shape), shape), key=lambda r: r.vec))


def _chain(args, p):
    shape = _shape(args)
    entries = [_step_json(None, rootdata.standard_flag(shape))]
    entries += [_step_json(s, None) for s in rootdata.chain_of_borels(shape)]
    return json.dumps(entries)


def _rho(args, p):
    shape = _shape(args)
    parts = dict(zip(("rho0", "rho1", "rho"), rootdata.rho_parts(_flag(args, shape), shape)))
    out = {name: [f"{c}/2" if c % 2 else str(c // 2) for c in vec] for name, vec in parts.items()}
    out["doubled"] = parts
    return json.dumps(out)


def _weight_at_flag(args) -> tuple:
    """(--weight, flag, shape), with the flag checked first."""
    shape = _shape(args)
    flag = _flag(args, shape)
    return _parse_weight(args.weight, shape), flag, shape


def _lambda_bracket(args, p):
    br = rootdata.lambda_bracket(*_weight_at_flag(args), args.r, p)
    return json.dumps({"weight": list(br)})


def _char_z(args, p):
    ch = rootdata.ch_z_flag(*_weight_at_flag(args), args.r, p)
    terms = [{"weight": list(w), "coeff": ch[w]} for w in sorted(ch, reverse=True)]
    return json.dumps({"terms": terms})


def _graph(args, p) -> linkage.LinkageGraph:
    shape = _shape(args)
    box = [_parse_window(tok, "--box") for tok in args.box.split(",")]
    r_set = _parse_rset(args.rset)
    if len(box) != shape.rank:
        raise ValueError(f"--box needs {shape.rank} ranges (the shape rank), got {len(box)}")
    return linkage.build_graph(box, shape, r_set, p)


def _linkage_graph(args, p):
    graph = _graph(args, p)
    return json.dumps({
        "nodes": [list(w) for w in graph.nodes],
        "edges": [
            {"src": list(e.source), "dst": list(e.target), "kind": e.kind,
             "alpha": list(e.alpha), "r": e.r}
            for e in graph.edges
        ],
    })


def _components(args, p):
    rows = ["component\tweight"]
    for cid, comp in enumerate(linkage.components(_graph(args, p))):
        rows += [f"{cid}\t{','.join(map(str, w))}" for w in comp]
    return "\n".join(rows)


# ------------------------------------------------------------- the commands
# Arguments are (flag, add_argument keywords), added in the order listed.


def _int(flag: str, **kw) -> tuple[str, dict]:
    return flag, {"type": int, **kw}


P, K, L, R = (_int(f, required=True) for f in ("--p", "--k", "--l", "--r"))
J = _int("--j")
GRT = [("--grt", {"action": "store_true"}), _int("--r", default=1)]
SHAPE = [_int("--n", required=True), _int("--m", required=True),
         ("--type", {"choices": ("odd", "even"), "required": True})]
FLAG = ("--flag", {"help": "comma list like 1,-2,1bar (default: standard)"})
WEIGHT = ("--weight", {"required": True})
WINDOW = ("--window", {"required": True, "metavar": "LO:HI"})
GRAPH = [*SHAPE, P, ("--rset", {"default": "1,2"}),
         ("--box", {"required": True, "metavar": "LO:HI[,LO:HI...]"})]

# name -> (help line or None, arguments, handler); verify-all's handler
# prints its report as the sweeps run and returns whether all passed.
COMMANDS = {
    "decompose-sl2": ("constituents of the rank-one induced module", [P, K],
                      lambda args, p: _factors_out(sl2.decompose_sl2(args.k, p), args.format)),
    "decompose-spo21": ("constituents of the super induced module", [P, L],
                        lambda args, p: _factors_out(spo21.comp_factors_h0(args.l, p),
                                                     args.format)),
    "decompose-grt": ("constituents of the thickened induced module", [P, R, L],
                      lambda args, p: _factors_out(frobenius.comp_factors_r(args.l, args.r, p),
                                                   args.format)),
    "socle": ("socle monomial basis",
              [P, L, ("--side", {"choices": (MINUS, PLUS), "default": MINUS}), *GRT],
              _socle),
    "hom": ("Hom dimension between induced modules", [P, K, L, *GRT], _hom),
    "psi-table": ("morphism table on basis monomials", [P, K, J, *GRT], _psi_table),
    "kernel": ("closed-form kernel basis of a morphism", [P, K, _int("--j", required=True)],
               _kernel),
    "ker-im-coker": ("kernel/image/cokernel constituents", [P, K, J, *GRT], _ker_im_coker),
    "blocks": ("block ids over a weight window", [P, WINDOW], _blocks),
    "blocks-grt": ("thickening block ids over a weight window", [P, WINDOW],
                   lambda args, p: _blocks_out(*_parse_window(args.window, "--window"), p)),
    "roots": (None, SHAPE, lambda args, p: _roots_out(rootdata.roots(_shape(args)))),
    "phiplus": (None, [*SHAPE, FLAG], _phiplus),
    "chain": (None, SHAPE, _chain),
    "rho": (None, [*SHAPE, FLAG], _rho),
    "lambda-bracket": ("flag-normalised weight",
                       [*SHAPE, ("--flag", {"required": True}), WEIGHT, R, P], _lambda_bracket),
    "char-z": ("product character of the thickened induced module",
               [*SHAPE, ("--flag", {}), WEIGHT, R, P], _char_z),
    "linkage-graph": (None, GRAPH, _linkage_graph),
    "components": (None, GRAPH, _components),
    "verify-all": ("run every oracle-equivalence sweep",
                   [("--quick", {"action": "store_true", "help": "reduced sweep bounds"})],
                   lambda args, p: verify.run_all(quick=args.quick)),
}


class _Unparsed(Exception):
    """The plain reader met something else; the full argparse parser answers."""


class _PlainParser:
    """Reads a plain query off the calls build_parser makes: every option
    spelled in full, as --opt=VALUE or as --opt VALUE with VALUE not starting
    with a dash, each value converted by its type and inside its choices, a
    repeated option's last value winning, every required option given, and
    --seed-irrelevant only before the subcommand.  argparse returns the same
    Namespace for such an argv; anything else raises _Unparsed."""

    def __init__(self, **_):
        self.options = {}  # flag -> add_argument keywords
        self.commands = {}  # subcommand name -> its _PlainParser

    def add_argument(self, flag, **kw):
        self.options[flag] = kw

    def add_subparsers(self, dest, **_):
        self.dest = dest
        return self

    def add_parser(self, name, **_):
        self.commands[name] = _PlainParser()
        return self.commands[name]

    def parse_args(self, argv, ns=None):
        ns = ns or argparse.Namespace()
        given, i = {}, 0
        while i < len(argv) and argv[i] not in self.commands:
            flag, eq, value = argv[i].partition("=")
            kw = self.options.get(flag)
            if kw is None or eq and "action" in kw:  # store_true takes no value
                raise _Unparsed
            if "action" in kw:
                value = True
            else:
                if not eq:
                    i += 1
                    if i == len(argv) or argv[i].startswith("-"):
                        raise _Unparsed
                    value = argv[i]
                try:
                    value = kw.get("type", str)(value)
                except ValueError:
                    raise _Unparsed from None
                if value not in kw.get("choices", [value]):
                    raise _Unparsed
            given[flag] = value
            i += 1
        for flag, kw in self.options.items():
            if kw.get("required") and flag not in given:
                raise _Unparsed
            default = kw.get("default", False if "action" in kw else None)
            setattr(ns, flag.lstrip("-").replace("-", "_"), given.get(flag, default))
        if not self.commands:
            return ns
        if i == len(argv):
            raise _Unparsed
        setattr(ns, self.dest, argv[i])
        return self.commands[argv[i]].parse_args(argv[i + 1:], ns)


def build_parser(names=COMMANDS, parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The parser holding the named subcommands' parsers, all by default."""
    top = parser_class(
        prog="spolink",
        description="Exact decompositions, morphism tables, blocks, root data "
        "and linkage graphs for rank-one super modules and their thickenings.",
    )
    top.add_argument("--seed-irrelevant", action="store_true",
                     help="accepted for interface compatibility; nothing here is random")
    sub = top.add_subparsers(dest="command", required=True)
    for name in names:
        help_, arguments, _ = COMMANDS[name]
        # a subcommand without help stays out of the top-level listing
        sp = sub.add_parser(name, **({"help": help_} if help_ else {}))
        sp.add_argument("--format", choices=("json", "tsv", "text"), default="json")
        for flag, kw in arguments:
            sp.add_argument(flag, **kw)
    return top


def _parse(argv: list[str]) -> argparse.Namespace:
    """Read a plain query off the named subcommand's build_parser calls.  Help,
    a missing or unknown subcommand and anything else the plain reader does
    not take go to the full parser, so all help pages and usage errors are
    argparse's own.  No top-level option takes a value, so the first token
    without a dash names the subcommand."""
    name = next((a for a in argv if not a.startswith("-")), None)
    if name in COMMANDS:
        with contextlib.suppress(_Unparsed):
            return build_parser([name], _PlainParser).parse_args(argv)
    return build_parser().parse_args(argv)


# The option sizing each listing MAX_TERMS caps, where that is not --r (thickened
# listings and product characters): a rank-one weight, a window or a linkage box.
_SIZED_BY = {"socle": "--l", "psi-table": "--k", "kernel": "--k", "blocks": "--window",
             "blocks-grt": "--window", "linkage-graph": "--box", "components": "--box"}


def run(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    p = Prime(args.p).p if hasattr(args, "p") else None
    if hasattr(args, "r"):
        _check_r("--r", args.r, args.r)
    try:
        out = COMMANDS[args.command][2](args, p)
    except linkage.TooManyEdges as exc:
        raise ValueError(f"--box {args.box} spans {exc}; narrow it") from None
    except TooManyTerms as exc:
        option = "--r" if getattr(args, "grt", False) else _SIZED_BY.get(args.command, "--r")
        fix = "narrow" if option in ("--window", "--box") else "lower"
        raise ValueError(f"{option} {getattr(args, option[2:])} {exc}; {fix} it") from None
    if isinstance(out, bool):
        return 0 if out else 1
    print(out)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
