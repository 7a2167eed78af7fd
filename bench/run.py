"""Run one spolink benchmark workload and print its metrics.

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 40 --trace 0

Run from the repository root; spolink is imported from ``src/`` of the same
checkout.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see bench/README.md).  The exit code is 0 only when
every case was correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / "out"

# Every time the benchmark gates on is CPU time of the process doing the work.
# On a shared VM the hypervisor takes the CPU away for whole seconds (steal
# time); wall-clock times of the same pass then differ by up to 2x a minute
# apart.  spolink is a single-threaded, CPU-bound calculator, so its CPU time
# is the time a user waits on an unloaded machine.
CPU_NS = time.process_time_ns
# The CPU itself also runs faster or slower, by up to 2x within seconds to
# minutes, as other guests load the host.  So the passes' CPU times are scaled
# to a fixed machine speed: during a pass, after any case that ends at least
# PROBE_INTERVAL_NS of CPU time after the last sample, a short reference loop
# that uses no spolink code is timed, and the pass's case times are scaled by
# REF_NOMINAL_S / (the mean of its samples).  Scaling each case by the two
# samples around it instead tracked the speed worse: over ten seeds the
# spread of oracle_sweep's case_p50_norm_ms rose from 0.03 to 0.09.
# REF_NOMINAL_S is about what the loop takes on the 2-CPU VM the bounds were
# set on, when it is not contended, so the scaled times read close to CPU
# seconds there.
REF_N = 40_000
REF_NOMINAL_S = 0.02
PROBE_INTERVAL_NS = 250_000_000
REF_SETUP_SAMPLES = 3

DEFAULT_SEED = 1
HELD_OUT_SEED = 97
SETUP_RUNS = 5
MIN_PASSES = 3
MAX_REPORTED_FAILURES = 5

# A fresh interpreter: import what a user of the workload imports, then make
# the workload's inputs.  Prints the CPU seconds that took, then the CPU
# seconds of REF_SETUP_SAMPLES reference loops run after it.
SETUP_SNIPPET = """
import sys, time
t0 = time.process_time()
src, bench, name, seed = sys.argv[1:5]
sys.path[:0] = [src, bench]
import importlib, workloads
w = workloads.WORKLOADS[name]
for m in w.modules:
    importlib.import_module("spolink." + m)
w.generate(int(seed))
t1 = time.process_time()
from run import REF_SETUP_SAMPLES, reference_loop
for _ in range(REF_SETUP_SAMPLES):
    reference_loop()
print(t1 - t0, time.process_time() - t1)
"""


def _mix(a: int, b: int) -> int:
    return (a * b + 7) % 1009


def reference_loop(n: int = REF_N) -> int:
    """Fixed pure-Python work of the kinds spolink does (small-integer
    arithmetic, tuples, a dict, calls, str), using no spolink code."""
    counts: dict = {}
    total = 0
    for i in range(n):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + _mix(*key)
        total += len(str(i))
    return total + len(counts)


class SpeedProbe:
    """Samples the machine's speed during a pass.  Called with ``force`` at
    the start and end of a pass and without it after every case, it times one
    reference loop when forced or once PROBE_INTERVAL_NS of CPU time have
    passed since the last sample.  The garbage collector is off while a
    sample runs, so the heap the program left behind does not slow it."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._last = CPU_NS()

    def __call__(self, force: bool = False) -> None:
        t0 = CPU_NS()
        if force or t0 - self._last >= PROBE_INTERVAL_NS:
            gc.disable()
            try:
                reference_loop()
            finally:
                gc.enable()
            self._last = CPU_NS()
            self.samples.append(self._last - t0)

    def scale(self) -> float:
        """REF_NOMINAL_S over the mean sample since the last call."""
        mean_s = sum(self.samples) / len(self.samples) * 1e-9
        self.samples = []
        return REF_NOMINAL_S / mean_s


def import_program() -> None:
    """Put this checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "spolink" / "__init__.py").is_file():
        raise SystemExit(f"error: no spolink sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    spolink = importlib.import_module("spolink")
    if Path(spolink.__file__).resolve().parent != SRC / "spolink":
        raise SystemExit(f"error: imported spolink from {spolink.__file__}, not {SRC}")


def tail_percentile(n_cases: int) -> int:
    """Highest whole percentile with at least ten of one pass's cases above
    its nearest rank (50 at least).  It depends only on the case list, so a
    faster program, which fits more passes into a run, keeps its percentile."""
    return max(100 * (n_cases - 10) // n_cases, 50)


def nearest_rank(sorted_values: list, q: int):
    return sorted_values[max(-(-q * len(sorted_values) // 100) - 1, 0)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(workload: str, seed: int) -> list[str] | None:
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))


def measure_setup(workload: str, seed: int, runs: int = SETUP_RUNS) -> list[float]:
    """Set-up CPU seconds of ``runs`` fresh interpreters, each scaled to the
    reference speed measured in the same interpreter."""
    out = []
    for _ in range(runs):
        res = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(BENCH_DIR), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup, ref = map(float, res.stdout.split())
        out.append(setup * REF_NOMINAL_S * REF_SETUP_SAMPLES / ref)
    return out


class Runner:
    """Runs passes over one workload's case list and judges every output.

    The first pass checks each output with the workload's own gates and, for
    a seed with a recorded golden file, against its digest; later passes must
    reproduce the first pass's digests, and a wrong output fails every pass.
    """

    def __init__(self, workload, cases: list, golden: list[str] | None = None,
                 report=print) -> None:
        self.w = workload
        self.cases = cases
        self.golden = golden
        if golden is not None and len(golden) != len(cases):
            raise SystemExit(f"error: golden file has {len(golden)} digests for {len(cases)} cases")
        self.reference: list[str | None] = [None] * len(cases)
        self.verdict: list[str | None] = [None] * len(cases)
        self.attempted = 0
        self.failed = 0
        self.report = report

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            self.report(f"FAIL case {i} [{self.w.label(self.cases[i])}]: {why}")

    def run_pass(self, tracer=None, probe=None) -> tuple[list[int], int]:
        """One pass; returns the per-case CPU nanoseconds of the program
        calls, and the wall-clock nanoseconds they took in all.  ``probe``,
        if given, is called after every case, outside its timing."""
        gc.collect()
        if probe is not None:
            probe(force=True)
        times, wall = [], 0
        for i, case in enumerate(self.cases):
            self.attempted += 1
            label = None if tracer is None else self.w.label(case)
            w0, t0 = time.perf_counter_ns(), CPU_NS()
            try:
                if tracer is None:
                    out = self.w.run(case)
                else:
                    with tracer.case(label):
                        out = self.w.run(case)
            except Exception as exc:  # a crash is one failed case, not a dead run
                out, err = None, f"{type(exc).__name__}: {exc}"
            else:
                err = None
            times.append(CPU_NS() - t0)
            wall += time.perf_counter_ns() - w0
            if probe is not None:
                probe()
            if err is None:
                self._judge(i, case, out)
            else:
                self._fail(i, err)
        if probe is not None:
            probe(force=True)
        return times, wall

    def _judge(self, i: int, case, out) -> None:
        d = digest(self.w.digest(case, out))
        if self.reference[i] is None:
            try:
                err = self.w.check(case, out)
            except Exception as exc:  # an unparsable output is a wrong output
                err = f"check raised {type(exc).__name__}: {exc}"
            if err is None and self.golden is not None and self.golden[i] != d:
                err = f"output digest {d} differs from the recorded {self.golden[i]}"
            self.reference[i], self.verdict[i] = d, err
        elif self.reference[i] != d:
            err = "output differs from the first pass"
        else:
            err = self.verdict[i]  # the same output as before: the same verdict
        if err is not None:
            self._fail(i, err)


def end_to_end(runner: Runner, seconds: float, setup: list[float]) -> dict:
    """Passes while the next one fits in ``seconds`` of wall-clock time (at
    least MIN_PASSES).  The metrics are CPU times scaled to the reference
    speed; the raw CPU and wall-clock times are printed beside them, but not
    gated on."""
    norms, cpus, walls, scales = [], [], [], []
    per_case: list[list[float]] = [[] for _ in runner.cases]
    probe = SpeedProbe()
    start, last = time.perf_counter(), 0.0
    while len(norms) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        times, wall = runner.run_pass(probe=probe)
        last = time.perf_counter() - t0
        scale = probe.scale()
        scales.append(scale)
        norms.append(sum(times) * 1e-9 * scale)
        for per_pass, t in zip(per_case, times):
            per_pass.append(t * scale)
        cpus.append(sum(times) * 1e-9)
        walls.append(wall * 1e-9)
    case_ns = sorted(statistics.median(ts) for ts in per_case)
    q = tail_percentile(len(case_ns))
    n_beyond = len(case_ns) + (q * len(case_ns) // -100)
    nq = statistics.quantiles(norms, n=4) if len(norms) > 1 else [norms[0]] * 3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_norm_s": (statistics.median(norms), "s"),
        "case_p50_norm_ms": (statistics.median(case_ns) * 1e-6, "ms"),
        "case_tail_norm_ms": (nearest_rank(case_ns, q) * 1e-6, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    runner.report(f"setup_s           {m['setup_s'][0]:.4f} s   (scaled CPU, median of {len(setup)} fresh "
                  "processes: " + ", ".join(f"{s:.3f}" for s in setup) + ")")
    runner.report(f"pass_norm_s       {m['pass_norm_s'][0]:.4f} s   (median of {len(norms)} passes, "
                  f"quartiles {nq[0]:.4f} .. {nq[2]:.4f}; " + " ".join(f"{x:.3f}" for x in norms) + ")")
    runner.report(f"case_p50_norm_ms  {m['case_p50_norm_ms'][0]:.4f} ms  (p50 over {len(case_ns)} cases, "
                  f"each the median of its {len(norms)} passes)")
    runner.report(f"case_tail_norm_ms {m['case_tail_norm_ms'][0]:.4f} ms  (p{q} over {len(case_ns)} cases, "
                  f"{n_beyond} beyond, each the median of its {len(norms)} passes)")
    runner.report(f"fail_ratio        {runner.failed / max(runner.attempted, 1):.4f}     "
                  f"({runner.failed} of {runner.attempted} cases)")
    runner.report(f"peak_rss_mb       {rss_mb:.1f} MB")
    runner.report(f"not gated: CPU s per pass {' '.join(f'{x:.3f}' for x in cpus)}; wall-clock s per pass "
                  f"{' '.join(f'{x:.3f}' for x in walls)}; speed scale per pass {' '.join(f'{x:.3f}' for x in scales)}")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced passes (at least one each) while the next
    pair fits in the run's time; per-layer times are medians over the traced passes, counts must
    repeat exactly from one traced pass to the next."""
    verify = importlib.import_module("spolink.verify")
    check_names = {fn.__name__: f"c{int(label.split()[0]):02d}" for label, fn in verify.ALL_CHECKS}
    tracer = Tracer()
    untraced_cpus, per_pass = [], []
    start, last = time.perf_counter(), 0.0
    while not per_pass or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        untraced_cpus.append(sum(runner.run_pass()[0]) * 1e-9)
        tracer.reset()
        tracer.install()
        try:
            runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        per_pass.append(tracer.metrics(check_names))
        last = time.perf_counter() - t0
    counts = [k for k, v in per_pass[0].items() if isinstance(v, int)]
    for other in per_pass[1:]:
        moved = [k for k in counts if other[k] != per_pass[0][k]]
        if moved:
            runner.failed += 1
            runner.report(f"FAIL exact counters differ between traced passes: {moved}")
    metrics = {k: per_pass[0][k] if k in counts else statistics.median(p[k] for p in per_pass)
               for k in per_pass[0]}
    metrics["trace.untraced_cpu_s"] = statistics.median(untraced_cpus)
    metrics["trace.overhead_s"] = metrics["trace.cpu_s"] - metrics["trace.untraced_cpu_s"]
    tracer.write(trace_path)
    runner.report(f"spans of the last traced pass written to {trace_path}")
    for k, v in metrics.items():
        runner.report(f"{k:42s} {v}")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "share", "per_node")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup(w.name, args.seed)
    for m in w.modules:
        importlib.import_module(f"spolink.{m}")
    cases = w.generate(args.seed)
    runner = Runner(w, cases, load_golden(w.name, args.seed))
    print(f"workload {w.name}, seed {args.seed}, {len(cases)} cases per pass, "
          f"{'traced' if args.trace else 'untraced'}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        metrics = traced(runner, args.seconds, OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(runner, args.seconds, setup)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
