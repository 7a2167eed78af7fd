"""The benchmark's three workloads: seeded inputs, one timed call per case,
and checks of each output that do not rely on the closed forms under test.

A workload is a ``Workload``: ``generate(seed)`` builds the case list,
``run(case)`` is the only code that calls into spolink (it is what gets
timed), ``check(case, out)`` returns an error message or None, and
``digest(case, out)`` gives the canonical text hashed into the golden file.

Every call into spolink looks the function up on its module at call time,
so the traced run, which rebinds module attributes, sees every case.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

# ----------------------------------------------------------------- digits
# Own base-p arithmetic, so the gates below share no code with spolink.


def base_digits(n: int, p: int) -> list[int]:
    if n < 0:
        raise ValueError(f"base_digits() needs n >= 0, got {n}")
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


def dim_simple_sl2(k: int, p: int) -> int:
    """Steinberg: the simple of highest weight k >= 0 has dimension
    prod(d_i + 1) over the base-p digits d_i of k."""
    return math.prod(d + 1 for d in base_digits(k, p))


def dim_simple_spo(l: int, p: int) -> int:
    """The super simple is one sl2 string when p | l, two strings otherwise."""
    return dim_simple_sl2(l, p) + (dim_simple_sl2(l - 1, p) if l % p else 0)


def dim_simple_r(hw: int, r: int, p: int) -> int:
    """Dimension of the thickened simple of any integer head: digit products
    over the lowest r digits of hw mod p^r (and of hw - 1 when p does not
    divide hw)."""
    q = p**r
    even = math.prod(d + 1 for d in base_digits(hw % q, p))
    odd = math.prod(d + 1 for d in base_digits((hw - 1) % q, p)) if hw % p else 0
    return even + odd


def admissible(k: int, j: int, p: int) -> bool:
    """Brute force: the weight-lowering morphism at (k, j) exists when the
    target head k-1-2j is >= 0 and either j = 0 and p | k, or p divides every
    C(k-j+i-1, i) for 1 <= i <= j."""
    if k < 1 or j < 0 or k - 1 - 2 * j < 0:
        return False
    if j == 0:
        return k % p == 0
    return all(math.comb(k - j + i - 1, i) % p == 0 for i in range(1, j + 1))


def _admissible_pair(rnd: random.Random, p: int, kmin: int, kmax: int) -> tuple[int, int]:
    """A random admissible (k, j) with kmin <= k < kmax and j < p^2: take j,
    the least p^a > j, and k = j + m p^a, then confirm by brute force."""
    while True:
        j = rnd.randrange(0, p * p)
        step = p
        while step <= j:
            step *= p
        m_lo, m_hi = -(-(max(kmin, 2 * j + 1) - j) // step), -(-(kmax - j) // step)
        if m_lo >= m_hi:
            continue
        k = j + rnd.randrange(m_lo, m_hi) * step
        if kmin <= k < kmax and admissible(k, j, p):
            return k, j


def _with_digits(rnd: random.Random, p: int, d: int) -> int:
    return rnd.randrange(p ** (d - 1), p**d)


# ------------------------------------------------------------ workload type


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple[str, ...]  # spolink modules a user of this workload imports
    generate: Callable[[int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    digest: Callable[[Any, Any], str]
    label: Callable[[Any], str]


def _mod(name: str):
    import importlib

    return importlib.import_module(f"spolink.{name}")


# ------------------------------------------------------------- oracle_sweep
# One case is one verify.check_* call at one prime.  Bounds are cut from the
# acceptance bounds (sl2/spo 1500, hom/psi 300) so one pass takes seconds.

ORACLE_PRIMES = (3, 5, 7)
ORACLE_BOUNDS = {"sl2": 450, "hom": 110}


def oracle_cases(seed: int, sl2_max: int = ORACLE_BOUNDS["sl2"],
                 hom_max: int = ORACLE_BOUNDS["hom"], rank_max: int = 4) -> list:
    rnd = random.Random(seed)
    cases = [("check_word_table", {}), ("check_rootdata", {"rank_max": rank_max})]
    for p in ORACLE_PRIMES:
        cases += [
            ("check_sl2_oracle", {"kmax": sl2_max, "primes": (p,)}),
            ("check_sl2_linkage", {"kmax": sl2_max, "primes": (p,)}),
            ("check_spo_oracle", {"lmax": sl2_max, "primes": (p,)}),
            ("check_hom_oracle", {"kmax": hom_max, "primes": (p,)}),
            ("check_psi_tables", {"kmax": hom_max, "primes": (p,)}),
            ("check_blocks", {"primes": (p,)}),
            ("check_flag_independence", {"p": p}),
            ("check_linkage_rank1", {"primes": (p,)}),
        ]
    # criterion 7 at its acceptance primes only: at p = 11 it alone costs 60x more
    cases += [("check_grt", {"primes": (p,)}) for p in ORACLE_PRIMES[:2]]
    rnd.shuffle(cases)
    return cases


def _oracle_run(case):
    fn, kwargs = case
    return getattr(_mod("verify"), fn)(**kwargs)


def _oracle_check(case, out):
    ok, detail = out
    return None if ok is True else f"{case[0]} failed: {detail}"


ORACLE = Workload(
    name="oracle_sweep",
    modules=("verify",),
    generate=oracle_cases,
    run=_oracle_run,
    check=_oracle_check,
    digest=lambda case, out: repr(out),
    label=lambda case: f"{case[0]}{sorted(case[1].items())}",
)

# -------------------------------------------------------------- cli_queries
# One case is one argv list passed to spolink.cli.main in process.  Most
# weights have 1-6 base-p digits; one query in ten has 10-16 digits and goes
# only to the word-based commands.  Commands whose cost is linear in the
# weight (tables, kernels, socles, windows) stay below a few hundred.

CLI_PRIMES = (3, 5, 7)
SMALL_COMMANDS = (
    "decompose-sl2", "decompose-spo21", "decompose-grt", "hom", "hom-grt",
    "psi-table", "psi-table-grt", "kernel", "ker-im-coker", "ker-im-coker-grt",
    "socle", "socle-grt", "blocks", "blocks-grt", "roots", "phiplus", "chain", "rho",
)
BIG_COMMANDS = ("decompose-sl2", "decompose-spo21", "decompose-grt", "ker-im-coker")
# digit counts of the big queries: every 10-digit count costs about a 64th of
# a 16-digit one (all 2^u words are built), so the schedule leans small
BIG_DIGITS = (10,) * 6 + (11,) * 4 + (12,) * 2 + (13,) * 1 + (14,) * 1 + (16,) * 1
# ker-im-coker builds the words of three weights: past 13 digits one query
# would cost seconds
BIG_KIC_DIGITS = 13


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    kind: str
    p: int
    params: tuple  # what the gates need: (k,), (l, r), (k, j), ...


def _small_query(rnd: random.Random, cmd: str, p: int) -> Query:
    P = ("--p", str(p))
    d = rnd.randint(1, 6)
    if cmd == "decompose-sl2":
        k = _with_digits(rnd, p, d)
        return Query((cmd, *P, "--k", str(k)), cmd, p, (k,))
    if cmd == "decompose-spo21":
        l = _with_digits(rnd, p, d)
        return Query((cmd, *P, "--l", str(l)), cmd, p, (l,))
    if cmd == "decompose-grt":
        r = rnd.randint(1, 3)
        l = _with_digits(rnd, p, d) * rnd.choice((1, -1))
        return Query((cmd, *P, "--r", str(r), f"--l={l}"), cmd, p, (l, r))
    if cmd == "hom":
        k = _with_digits(rnd, p, d)
        l = k - 1 - 2 * rnd.randrange(0, 40) if rnd.random() < 0.7 else k + rnd.randrange(0, 3)
        l = l if l >= 0 else k
        return Query(("hom", *P, "--k", str(k), "--l", str(l)), cmd, p, (k, l))
    if cmd == "hom-grt":
        r = rnd.randint(1, 3)
        k = rnd.randrange(-p**r, 2 * p**r)
        l = 2 * p**r - k - 1 if rnd.random() < 0.5 else rnd.randrange(-p**r, 2 * p**r)
        return Query(("hom", *P, f"--k={k}", f"--l={l}", "--grt", "--r", str(r)), cmd, p, (k, l, r))
    if cmd in ("psi-table", "kernel"):
        k, j = _admissible_pair(rnd, p, 1, 200)
        return Query((cmd, *P, "--k", str(k), "--j", str(j)), cmd, p, (k, j))
    if cmd == "ker-im-coker":
        k, j = _admissible_pair(rnd, p, 1, p ** max(d, 2))
        return Query((cmd, *P, "--k", str(k), "--j", str(j)), cmd, p, (k, j))
    if cmd in ("psi-table-grt", "ker-im-coker-grt"):
        r = rnd.randint(1, 2)
        k = rnd.randrange(-2 * p**r, 3 * p**r)
        return Query((cmd[:-4], *P, f"--k={k}", "--grt", "--r", str(r)), cmd, p, (k, r))
    if cmd == "socle":
        l = rnd.randrange(0, 300)
        return Query(("socle", *P, "--l", str(l), "--side", rnd.choice(("minus", "plus"))), cmd, p, (l,))
    if cmd == "socle-grt":
        r = rnd.randint(1, 2)
        l = rnd.randrange(-3 * p**r, 3 * p**r)
        return Query(("socle", *P, f"--l={l}", "--grt", "--r", str(r)), cmd, p, (l, r))
    if cmd in ("blocks", "blocks-grt"):
        lo = rnd.randrange(0, p**d) * (1 if cmd == "blocks" else rnd.choice((1, -1)))
        hi = lo + rnd.randrange(0, 100)
        return Query((cmd, *P, f"--window={lo}:{hi}"), cmd, p, (lo, hi))
    # root data: p is irrelevant; ranks up to 4
    n = rnd.randint(0, 3)
    m = rnd.randint(1 if n == 0 else 0, 4 - n)
    t = rnd.choice(("odd", "even"))
    return Query((cmd, "--n", str(n), "--m", str(m), "--type", t), cmd, p, (n, m, t))


def _big_query(rnd: random.Random, cmd: str, p: int, d: int) -> Query:
    P = ("--p", str(p))
    if cmd == "decompose-sl2":
        k = _with_digits(rnd, p, d)
        return Query((cmd, *P, "--k", str(k)), cmd, p, (k,))
    if cmd == "decompose-spo21":
        l = _with_digits(rnd, p, d)
        return Query((cmd, *P, "--l", str(l)), cmd, p, (l,))
    if cmd == "decompose-grt":
        # the words are those of l mod p^r, so r sets the digit count
        r = d - 1
        l = _with_digits(rnd, p, d + rnd.randint(0, 3)) * rnd.choice((1, -1))
        return Query((cmd, *P, "--r", str(r), f"--l={l}"), cmd, p, (l, r))
    d = min(d, BIG_KIC_DIGITS)
    k, j = _admissible_pair(rnd, p, p ** (d - 1), p**d)
    return Query((cmd, *P, "--k", str(k), "--j", str(j)), cmd, p, (k, j))


def cli_cases(seed: int, small_per: int = 10, big_digits=BIG_DIGITS) -> list[Query]:
    """A fixed command schedule, so every seed does the same mix: every small
    command at every prime ``small_per`` times, plus one big query per (big
    command, entry of ``big_digits``).  The seed draws weights and order."""
    rnd = random.Random(seed)
    out = []
    for cmd in SMALL_COMMANDS:
        for p in CLI_PRIMES:
            out += [_small_query(rnd, cmd, p) for _ in range(small_per)]
    for i, d in enumerate(big_digits):
        for cmd in BIG_COMMANDS:
            out.append(_big_query(rnd, cmd, CLI_PRIMES[i % len(CLI_PRIMES)], d))
    rnd.shuffle(out)
    return out


def _cli_run(q: Query):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _mod("cli").main(list(q.argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _factor_dims(factors: list, dim: Callable[[int], int]) -> int:
    return sum(f["mult"] * dim(f["hw"]) for f in factors)


def _cli_gate(q: Query, text: str) -> str | None:
    p, kind = q.p, q.kind
    if kind == "decompose-sl2":
        (k,) = q.params
        got = _factor_dims(json.loads(text)["factors"], lambda hw: dim_simple_sl2(hw, p))
        return None if got == k + 1 else f"factor dimensions sum to {got}, want {k + 1}"
    if kind == "decompose-spo21":
        (l,) = q.params
        got = _factor_dims(json.loads(text)["factors"], lambda hw: dim_simple_spo(hw, p))
        return None if got == 2 * l + 1 else f"factor dimensions sum to {got}, want {2 * l + 1}"
    if kind == "decompose-grt":
        l, r = q.params
        got = _factor_dims(json.loads(text)["factors"], lambda hw: dim_simple_r(hw, r, p))
        return None if got == 2 * p**r else f"factor dimensions sum to {got}, want {2 * p**r}"
    if kind in ("psi-table", "psi-table-grt"):
        rows = len(text.splitlines()) - 1
        want = 2 * q.params[0] + 1 if kind == "psi-table" else 2 * p ** q.params[1]
        return None if rows == want else f"{rows} table rows, want {want}"
    if kind in ("ker-im-coker", "ker-im-coker-grt"):
        res = json.loads(text)
        if kind == "ker-im-coker":
            k, j = q.params
            dim = lambda hw: dim_simple_spo(hw, p)  # noqa: E731
            dom, cod = 2 * k + 1, 2 * (k - 1 - 2 * j) + 1
        else:
            k, r = q.params
            dim = lambda hw: dim_simple_r(hw, r, p)  # noqa: E731
            dom = cod = 2 * p**r
        ker, im, coker = (_factor_dims(res[key]["factors"], dim) for key in ("kernel", "image", "cokernel"))
        if ker + im != dom or im + coker != cod:
            return f"kernel+image={ker + im} (want {dom}), image+cokernel={im + coker} (want {cod})"
        return None
    if kind == "hom":
        k, l = q.params
        res = json.loads(text)
        if l == k:
            want = (1, "even")
        elif (k - 1 - l) % 2 == 0 and admissible(k, (k - 1 - l) // 2, p):
            want = (1, "odd")
        else:
            want = (0, None)
        got = (res["dim"], res["parity"])
        return None if got == want else f"hom {got}, want {want}"
    if kind == "hom-grt":
        res = json.loads(text)
        ok = (res["dim"], res["parity"] is None) in ((0, True), (1, False))
        return None if ok else f"inconsistent hom {res}"
    if kind == "kernel":
        k, j = q.params
        size = len(json.loads(text)["basis"])
        return None if 0 < size < 2 * k + 1 else f"kernel of size {size} in dimension {2 * k + 1}"
    if kind in ("socle", "socle-grt"):
        size = len(json.loads(text)["basis"])
        want = dim_simple_spo(q.params[0], p) if kind == "socle" else dim_simple_r(*q.params, p)
        return None if size == want else f"socle of size {size}, want {want}"
    if kind in ("blocks", "blocks-grt"):
        lo, hi = q.params
        rows = [line.split("\t") for line in text.splitlines()[1:]]
        ids = {int(w): int(b) for w, b in rows}
        if sorted(ids) != list(range(lo, hi + 1)) or not all(0 <= b < p for b in ids.values()):
            return "block rows do not cover the window with ids in [0, p)"
        if any(ids[w] != ids[w + 2 * p] for w in ids if w + 2 * p in ids):
            return "block ids are not 2p-periodic"
        return None
    n, m, t = q.params
    res = json.loads(text)
    odd = t == "odd"
    n_roots = 2 * (n + m) ** 2 - 2 * m + (2 * (n + m) if odd else 0)
    if kind == "roots":
        got = len(res["roots"])
        return None if got == n_roots else f"{got} roots, want {n_roots}"
    if kind == "phiplus":
        got = len(res["roots"])
        return None if 2 * got == n_roots else f"{got} positive roots, want {n_roots // 2}"
    if kind == "chain":
        got = len(res) - 1
        return None if got == (n + m) ** 2 else f"{got} chain steps, want {(n + m) ** 2}"
    return None if set(res) == {"rho0", "rho1", "rho", "doubled"} else f"rho keys {sorted(res)}"


def _cli_check(q: Query, out):
    code, text, err = out
    if code != 0:
        return f"exit {code}: {err.strip()}"
    return _cli_gate(q, text)


CLI = Workload(
    name="cli_queries",
    modules=("cli",),
    generate=cli_cases,
    run=_cli_run,
    check=_cli_check,
    digest=lambda q, out: f"{out[0]}\n{out[1]}\n{out[2]}",
    label=lambda q: "spolink " + " ".join(q.argv),
)

# ------------------------------------------------------------ linkage_boxes
# One case is one build_graph + components call.  The per-node cost differs
# by 10x between shapes and grows with the box, so each (shape, type, r-set)
# has a fixed box size; the seed places the box and orders the cases.

SHAPES = ((1, 0), (2, 0), (1, 1), (2, 1))
BOX_SIDE = {  # (rank, r-set size, parity type) -> box side length
    (1, 1, "odd"): 150, (1, 2, "odd"): 110, (1, 1, "even"): 200, (1, 2, "even"): 150,
    (2, 1, "odd"): 14, (2, 2, "odd"): 11, (2, 1, "even"): 21, (2, 2, "even"): 16,
    (3, 1, "odd"): 6, (3, 2, "odd"): 5, (3, 1, "even"): 7, (3, 2, "even"): 6,
}


@dataclass(frozen=True)
class BoxCase:
    n: int
    m: int
    parity_type: str
    p: int
    r_set: tuple[int, ...]
    box: tuple[tuple[int, int], ...]


def linkage_cases(seed: int, scale: float = 1.0) -> list[BoxCase]:
    """Every shape x parity type x p in {3, 5} x r-set in {{1}, {1, 2}}, plus
    a second, larger box for every rank >= 2 case at p = 3 (44 boxes)."""
    rnd = random.Random(seed)
    out = []
    for n, m in SHAPES:
        for t in ("odd", "even"):
            for p in (3, 5):
                for r_set in ((1,), (1, 2)):
                    side = BOX_SIDE[(n + m, len(r_set), t)]
                    sides = [side] + ([side + (side + 3) // 4] if n + m >= 2 and p == 3 else [])
                    for s in sides:
                        s = max(2, round(s * scale))
                        box = []
                        for _ in range(n + m):
                            lo = rnd.randrange(-s // 2, s)
                            box.append((lo, lo + s - 1))
                        out.append(BoxCase(n, m, t, p, r_set, tuple(box)))
    rnd.shuffle(out)
    return out


def _linkage_run(c: BoxCase):
    linkage, rootdata = _mod("linkage"), _mod("rootdata")
    shape = rootdata.GroupShape(c.n, c.m, c.parity_type)
    graph = linkage.build_graph([list(b) for b in c.box], shape, set(c.r_set), c.p)
    return graph, linkage.components(graph)


def _linkage_check(c: BoxCase, out):
    import networkx as nx

    graph, comps = out
    want_nodes = math.prod(hi - lo + 1 for lo, hi in c.box)
    if len(graph.nodes) != want_nodes or len(set(graph.nodes)) != want_nodes:
        return f"{len(graph.nodes)} nodes, want {want_nodes} distinct"
    in_box = lambda w: all(lo <= x <= hi for x, (lo, hi) in zip(w, c.box))  # noqa: E731
    if not all(in_box(e.source) and in_box(e.target) for e in graph.edges):
        return "an edge leaves the box"
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from((e.source, e.target) for e in graph.edges)
    want = sorted((sorted(cc) for cc in nx.connected_components(g)), key=lambda cc: cc[0])
    return None if comps == want else f"{len(comps)} components, networkx finds {len(want)}"


def _linkage_digest(c: BoxCase, out) -> str:
    graph, comps = out
    by_kind = Counter((e.kind, e.r) for e in graph.edges)
    return repr((sorted(by_kind.items()), comps))


LINKAGE = Workload(
    name="linkage_boxes",
    modules=("linkage",),
    generate=linkage_cases,
    run=_linkage_run,
    check=_linkage_check,
    digest=_linkage_digest,
    label=lambda c: (f"build_graph(box={list(c.box)}, shape=({c.n},{c.m},{c.parity_type}), "
                     f"r_set={set(c.r_set)}, p={c.p})"),
)

WORKLOADS = {w.name: w for w in (ORACLE, CLI, LINKAGE)}
