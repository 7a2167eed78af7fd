"""Tests of the benchmark itself, on tiny case lists.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run

run.import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "oracle_sweep": lambda seed: workloads.oracle_cases(seed, sl2_max=30, hom_max=12, rank_max=2),
    "cli_queries": lambda seed: workloads.cli_cases(seed, small_per=1, big_digits=(10,)),
    "linkage_boxes": lambda seed: workloads.linkage_cases(seed, scale=0.3),
}
EXACT = ("words.words_built", "words.words_kept", "characters.simple_ch.calls",
         "rootdata.phi_plus.calls", "cli.build_parser.calls", "linkage.nodes",
         *(k for kind in tracing.EDGE_KINDS
           for k in (f"linkage.edges.{kind}", *(f"linkage.edges.{kind}.r{r}" for r in tracing.R_VALUES))))


BENCHMARK = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def check_names():
    verify = __import__("spolink.verify").verify
    return {fn.__name__: f"c{int(label.split()[0]):02d}" for label, fn in verify.ALL_CHECKS}


def traced_pass(name: str, seed: int = run.DEFAULT_SEED):
    w = workloads.WORKLOADS[name]
    runner = run.Runner(w, TINY[name](seed), report=lambda line: None)
    tr = tracing.Tracer()
    tr.install()
    try:
        runner.run_pass(tr)
    finally:
        tr.uninstall()
    assert runner.failed == 0
    return tr


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counters_repeat(name):
    first = traced_pass(name).metrics(check_names())
    second = traced_pass(name).metrics(check_names())
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["words.words_built"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_sum_to_traced_cpu(name):
    tr = traced_pass(name)
    assert sum(tr.self_ns.values()) == tr.root_ns  # integer nanoseconds: exact
    m = tr.metrics(check_names())
    layers = [f"{layer}.self_s" for layer in (*tracing.LAYERS, tracing.BENCH)]
    assert sum(m[k] for k in layers) == pytest.approx(m["trace.cpu_s"], abs=1e-9 * len(layers))
    assert all(m[k] >= 0 for k in layers)


def test_per_layer_metrics_match_benchmark_json():
    m = traced_pass("cli_queries").metrics(check_names())
    added_by_run = {"trace.untraced_cpu_s", "trace.overhead_s"}
    assert set(m) | added_by_run == {x["name"] for x in BENCHMARK["per_layer"]}
    assert all(run.unit_of(x["name"]) == x["unit"] for x in BENCHMARK["per_layer"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_workload_layers_show_up():
    oracle = traced_pass("oracle_sweep").metrics(check_names())
    assert oracle["characters.peel.calls"] > 0 and 0 < oracle["verify.oracle_share"] < 1
    assert all(oracle[f"verify.c{i:02d}_s"] > 0 for i in range(1, 12))
    cli = traced_pass("cli_queries").metrics(check_names())
    assert cli["cli.build_parser.calls"] == len(TINY["cli_queries"](run.DEFAULT_SEED))
    assert cli["characters.peel.calls"] == 0
    boxes = traced_pass("linkage_boxes").metrics(check_names())
    assert boxes["rootdata.phi_plus.calls_per_node"] > 0 and boxes["linkage.edges.even"] > 0


def test_tracer_restores_every_binding():
    from spolink import cli, padic, words

    before = (padic.digits, words.digits, cli.build_parser)
    tr = tracing.Tracer()
    tr.install()
    assert words.digits is not before[1] and words.digits is padic.digits
    tr.uninstall()
    assert (padic.digits, words.digits, cli.build_parser) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    gen = workloads.WORKLOADS[name].generate
    assert gen(5) == gen(5)
    assert gen(5) != gen(6)
    assert len(gen(5)) == len(gen(6))  # same mix for every seed


def test_generated_cli_inputs_are_valid():
    from spolink.spo21 import is_admissible_psi

    for q in workloads.cli_cases(3):
        if q.kind in ("psi-table", "kernel", "ker-im-coker"):
            assert is_admissible_psi(*q.params, q.p), q
    for k in range(1, 60):
        for j in range(k):
            assert workloads.admissible(k, j, 5) == is_admissible_psi(k, j, 5)


def wrong_decompose(real):
    def decompose_sl2(k, p):
        out = Counter(real(k, p))
        out[k + 2] = 1  # one extra factor: the dimension gate must catch it
        return out

    return decompose_sl2


def test_injected_wrong_output_fails(monkeypatch):
    from spolink import sl2

    cases = [q for q in workloads.cli_cases(2, small_per=1, big_digits=(10,)) if q.kind == "decompose-sl2"]
    runner = run.Runner(workloads.CLI, cases, report=lambda line: None)
    runner.run_pass()
    assert runner.failed == 0
    monkeypatch.setattr(sl2, "decompose_sl2", wrong_decompose(sl2.decompose_sl2))
    runner = run.Runner(workloads.CLI, cases, report=lambda line: None)
    runner.run_pass()
    runner.run_pass()  # the same wrong output fails again
    assert runner.failed == 2 * len(cases)


def test_golden_mismatch_fails():
    cases = TINY["oracle_sweep"](1)[:3]
    runner = run.Runner(workloads.ORACLE, cases, golden=["0" * 16] * 3, report=lambda line: None)
    runner.run_pass()
    assert runner.failed == 3


def test_recorded_golden_matches():
    golden = json.loads(run.GOLDEN.read_text())
    for name, per_seed in golden.items():
        assert set(per_seed) == {str(run.DEFAULT_SEED), str(run.HELD_OUT_SEED)}
        for seed, digests in per_seed.items():
            assert len(digests) == len(workloads.WORKLOADS[name].generate(int(seed)))


@pytest.mark.parametrize("inject", [False, True])
def test_main_exit_code_and_result_line(monkeypatch, capsys, inject):
    from spolink import sl2

    w = dataclasses.replace(workloads.CLI, generate=lambda seed: workloads.cli_cases(seed, small_per=1, big_digits=(10,)))
    monkeypatch.setitem(workloads.WORKLOADS, "cli_queries", w)
    monkeypatch.setattr(run, "measure_setup", lambda name, seed: [0.5, 0.25, 0.75])
    if inject:
        monkeypatch.setattr(sl2, "decompose_sl2", wrong_decompose(sl2.decompose_sl2))
    code = run.main(["--workload", "cli_queries", "--seed", "4", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in BENCHMARK["end_to_end"])
    assert result["metrics"]["setup_s"]["value"] == 0.5
    assert result["attempted"] == run.MIN_PASSES * len(w.generate(4))
    assert (code, result["correct"], result["failed"] > 0) == ((1, False, True) if inject else (0, True, False))


def test_speed_scale_is_nominal_over_mean_sample():
    probe = run.SpeedProbe()
    probe(force=True)
    probe()  # sooner than the probe interval after the last sample: no sample
    probe(force=True)
    mean_s = sum(probe.samples) / 2 * 1e-9
    assert probe.scale() == pytest.approx(run.REF_NOMINAL_S / mean_s)
    assert probe.samples == []


def test_measure_setup_runs_a_fresh_interpreter():
    (setup,) = run.measure_setup("linkage_boxes", 1, runs=1)
    assert 0 < setup < 60


def test_tail_percentile():
    assert [run.tail_percentile(n) for n in (5, 20, 28, 44, 600)] == [50, 50, 64, 77, 98]
    for n in (28, 44, 600, 1000):
        q = run.tail_percentile(n)
        ranked = list(range(n))
        assert n - 1 - run.nearest_rank(ranked, q) >= 10  # ten cases beyond
        assert n - 1 - run.nearest_rank(ranked, q + 1) < 10  # and no higher percentile has


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_queries", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
