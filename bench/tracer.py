"""Per-layer tracing from outside the program: every public module-level
function of the ten spolink modules is wrapped at every binding that holds it, so both
``module.f(...)`` calls and ``from .module import f`` names go through the
wrapper.  Nothing under ``src/`` is edited.

Each wrapped call is a span (name, start, end, parent), timed in CPU time of
the process, like the benchmark's end-to-end metrics.  A layer's self time
is the time its spans cover minus the time their child spans cover, so the
self times of all layers plus the benchmark's own share add up to the time
of the root spans exactly, in integer nanoseconds.  The functions in
``FOLDED`` are crossed up to hundreds of thousands of times per pass; their
spans are folded into per-(caller, callee) aggregates instead of being
stored.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("padic", "words", "characters", "sl2", "spo21", "frobenius",
          "rootdata", "linkage", "verify", "cli")
BENCH = "bench"

FOLDED = frozenset({
    "padic.digits", "padic.binom_mod", "padic.a_val", "padic.defect", "padic.carries",
    "padic.all_divisible", "padic.is_odd_prime", "words.ell", "words.kind",
    "words.build_words", "words.pruned_words", "words.prune", "characters.ch_L_sl2",
    "characters.ch_L_spo", "characters.ch_H0_sl2", "characters.ch_H0_spo", "rootdata.vadd",
    "rootdata.vsub", "rootdata.vneg", "rootdata.natural", "rootdata.doubled", "rootdata.delta",
    "rootdata.eps", "rootdata.label_vec", "rootdata.pairing", "rootdata.coroot_pairing",
    "rootdata.check_flag", "rootdata.standard_flag", "rootdata.phi_plus", "rootdata.rho_parts",
    "spo21._sub_multiset", "spo21.act", "spo21.hom_dim", "spo21.is_admissible_psi",
    "spo21.branch_parts", "sl2.linked_sl2", "linkage.moves_iso_odd", "linkage.moves_noniso_odd",
    "linkage.moves_even", "frobenius.comp_factors_r",
})
# Private functions are left unwrapped (their time is their module's self
# time either way), except these: one crosses modules, one is an oracle entry.
PRIVATE_WRAPPED = frozenset({"spo21._sub_multiset", "verify._char_of_factors"})

# Functions a verify.check_* hands its brute-force side to.  Time spent under
# one of these, called directly from a criterion, is oracle time; time under
# any other spolink call from a criterion is closed-form time.
ORACLE_ENTRY = frozenset({
    "characters.peel", "characters.ch_H0_sl2", "characters.ch_L_sl2",
    "characters.ch_H0_spo", "characters.ch_L_spo", "characters.ch_truncate",
    "characters.poly_shift", "verify.rad_oracle_quotient", "verify.oracle_simple_r",
    "verify._char_of_factors",
})
R_VALUES = (1, 2)
EDGE_KINDS = ("iso_odd", "noniso_odd", "even")


class Tracer:
    """Install with ``install()``, time cases inside ``with tracer.case(label)``,
    read ``metrics()``, and ``uninstall()`` before untraced work."""

    def __init__(self) -> None:
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, start, end
        self.folded: dict[tuple[str, str], list[int]] = {}  # (caller, callee) -> n, total, self
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.check_ns: Counter = Counter()
        self.split_ns: Counter = Counter()  # "oracle" / "closed_form"
        self.root_ns = 0
        self._simple_args: set = set()
        self._cfr_args: set = set()
        self._stack: list[list] = []  # [span id, name, start, child ns]
        self._next_id = 1

    # ------------------------------------------------------------ spans
    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.process_time_ns()
        return frame

    def _exit(self, frame: list, layer: str) -> None:
        end = time.process_time_ns()
        stack = self._stack
        stack.pop()
        sid, name, start, child = frame
        dur = end - start
        own = dur - child
        self.self_ns[layer] += own
        parent = stack[-1] if stack else None
        if parent is None:
            self.root_ns += dur
            self.spans.append((sid, 0, name, start, end))
            return
        parent[3] += dur
        pname = parent[1]
        if pname.startswith("verify.check_"):
            self.split_ns["oracle" if name in ORACLE_ENTRY else "closed_form"] += dur
        if name in FOLDED:
            agg = self.folded.setdefault((pname, name), [0, 0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += own
        else:
            self.spans.append((sid, parent[0], name, start, end))
        if name.startswith("verify.check_"):
            self.check_ns[name] += dur

    @contextlib.contextmanager
    def case(self, label: str):
        """One benchmark case: the root span."""
        frame = self._enter(f"{BENCH}.case {label}")
        try:
            yield
        finally:
            self._exit(frame, BENCH)

    # -------------------------------------------------------- wrapping
    def _wrap(self, fn, name: str, layer: str, pre, post):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if pre is not None:
                args = pre(args, kwargs)
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, layer)
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"spolink.{layer}") for layer in LAYERS}
        pre, post = self._pre_hooks(), self._post_hooks()
        wrappers = {}
        for layer, mod in modules.items():
            for obj in vars(mod).values():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                name = f"{layer}.{obj.__name__}"
                if not obj.__name__.startswith("_") or name in PRIVATE_WRAPPED:
                    wrappers[obj] = self._wrap(obj, name, layer, pre.get(name), post.get(name))
        holders = list(modules.values()) + [importlib.import_module("spolink")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    # ---------------------------------------------------------- counters
    def _pre_hooks(self):
        def peel(args, kwargs):
            self.counts["characters.peel.calls"] += 1
            ch, simple_ch = args

            def counted(w):
                self.counts["characters.simple_ch.calls"] += 1
                cells = tuple(c.cell_contents for c in simple_ch.__closure__ or ())
                self._simple_args.add((simple_ch.__code__, cells, w))
                return simple_ch(w)

            return ch, counted

        def comp_factors_r(args, kwargs):
            self._cfr_args.add((args, tuple(sorted(kwargs.items()))))
            return args

        return {"characters.peel": peel, "frobenius.comp_factors_r": comp_factors_r}

    def _post_hooks(self):
        def build_words(args, kwargs, result):
            self.counts["words.words_built"] += len(result)

        def prune(args, kwargs, result):
            self.counts["words.words_kept"] += len(result)

        def build_graph(args, kwargs, graph):
            self.counts["linkage.nodes"] += len(graph.nodes)
            for e in graph.edges:
                self.counts[f"linkage.edges.{e.kind}"] += 1
                self.counts[f"linkage.edges.{e.kind}.r{e.r}"] += 1

        return {"words.build_words": build_words, "words.prune": prune,
                "linkage.build_graph": build_graph}

    # ----------------------------------------------------------- results
    def metrics(self, check_names: dict[str, str]) -> dict[str, float]:
        """Per-layer metrics of what was traced since the last reset.
        ``check_names`` maps verify.check_* function names to c01..c11."""
        s = 1e-9
        calls, counts = self.calls, self.counts
        m: dict[str, float] = {"trace.cpu_s": self.root_ns * s, f"{BENCH}.self_s": self.self_ns[BENCH] * s}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_ns[layer] * s
        layer_calls = Counter()
        for name, n in calls.items():
            layer_calls[name.split(".", 1)[0]] += n
        m["padic.calls"] = layer_calls["padic"]
        m["spo21.calls"] = layer_calls["spo21"]
        built, kept = counts["words.words_built"], counts["words.words_kept"]
        m["words.words_built"] = built
        m["words.words_kept"] = kept
        m["words.keep_ratio"] = kept / built if built else 0.0
        m["characters.peel.calls"] = counts["characters.peel.calls"]
        n_simple = counts["characters.simple_ch.calls"]
        m["characters.simple_ch.calls"] = n_simple
        m["characters.simple_ch.distinct_ratio"] = len(self._simple_args) / n_simple if n_simple else 0.0
        n_cfr = calls["frobenius.comp_factors_r"]
        m["frobenius.comp_factors_r.calls"] = n_cfr
        m["frobenius.comp_factors_r.distinct_ratio"] = len(self._cfr_args) / n_cfr if n_cfr else 0.0
        nodes = counts["linkage.nodes"]
        m["rootdata.phi_plus.calls"] = calls["rootdata.phi_plus"]
        m["rootdata.phi_plus.calls_per_node"] = calls["rootdata.phi_plus"] / nodes if nodes else 0.0
        m["linkage.nodes"] = nodes
        for kind in EDGE_KINDS:
            m[f"linkage.edges.{kind}"] = counts[f"linkage.edges.{kind}"]
            for r in R_VALUES:
                m[f"linkage.edges.{kind}.r{r}"] = counts[f"linkage.edges.{kind}.r{r}"]
        oracle, closed = self.split_ns["oracle"] * s, self.split_ns["closed_form"] * s
        m["verify.closed_form_s"] = closed
        m["verify.oracle_s"] = oracle
        m["verify.oracle_share"] = oracle / (oracle + closed) if oracle + closed else 0.0
        for fn_name, tag in sorted(check_names.items(), key=lambda kv: kv[1]):
            m[f"verify.{tag}_s"] = self.check_ns[f"verify.{fn_name}"] * s
        m["cli.build_parser.calls"] = calls["cli.build_parser"]
        return m

    def write(self, path) -> None:
        """Spans of the last traced pass as JSON lines, then the folded
        aggregates; start and end are process CPU-time nanoseconds."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
            for (caller, callee), (n, total, own) in sorted(self.folded.items()):
                fh.write(json.dumps({"folded": callee, "caller": caller, "count": n,
                                     "total_ns": total, "self_ns": own}) + "\n")
