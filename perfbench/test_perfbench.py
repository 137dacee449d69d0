"""Smoke test of the benchmark itself: tiny inputs, a second seed.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import corpus
import gen
import layers
import run
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 2  # not a seed used while tuning the benchmark


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert any(f"seed={SEED}" in line for line in lines)
    assert any("sha256 of round 0" in line for line in lines)


def test_inputs_follow_the_seed():
    a = wl.classify_inputs("classify-dup", SEED, 0, tiny=True)
    b = wl.classify_inputs("classify-dup", SEED, 0, tiny=True)
    c = wl.classify_inputs("classify-dup", SEED + 1, 0, tiny=True)
    assert a == b and a != c
    assert wl.equiv_inputs(SEED, 0, tiny=True) == wl.equiv_inputs(SEED, 0, tiny=True)


def test_transformed_copy_keeps_rank():
    f = gen.gf(9)
    rng = wl.rng_for(SEED, "test", 0)
    rows = gen.random_code(f, 3, 10, rng)
    assert gen.rank(f, gen.transformed_copy(f, rows, rng)) == 3


def test_corpus_shapes():
    shapes = {name: (len(rows), len(rows[0])) for name, _, rows, _ in corpus.build()}
    assert shapes["golay24_2"] == (12, 24) and shapes["golay11_3"] == (6, 11)
    assert shapes["hamming13_3"] == (10, 13) and shapes["rm1_5"] == (6, 32)
    for name, f, rows, _ in corpus.build():
        assert gen.rank(f, rows) == len(rows), name


def test_recorded_partition_must_match(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RECORDED", str(tmp_path / "recorded.json"))
    plan = run.Plan("classify-dup", SEED, tiny=True)
    plan.round_digests = ["round-input"]
    plan.stats["partitions"] = [[[[0, 1]], []]]
    first = wl.Run()
    run.check_recorded(plan, first, record=True)
    assert not first.wrong
    plan.stats["partitions"] = [[[[0], [1]], []]]
    second = wl.Run()
    run.check_recorded(plan, second, record=False)
    assert second.wrong


def test_fails_without_library_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "classify-dup", "--seed", str(SEED), "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
