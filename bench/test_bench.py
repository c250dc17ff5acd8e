"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest bench/test_bench.py -q

They check that a seed fixes the generated inputs, that the output checks
catch a perturbed analytic value, that a repeat one ulp off no longer matches
the checked session, and that a run prints exactly the metrics BENCHMARK.json
declares.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import twoshock  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(workloads.inputs(workload, 7), sort_keys=True)
    again = json.dumps(workloads.inputs(workload, 7), sort_keys=True)
    other = json.dumps(workloads.inputs(workload, 8), sort_keys=True)
    assert first == again
    assert first != other


def test_seed_keeps_the_shape_of_the_work():
    for workload in workloads.WORKLOADS:
        a, b = workloads.inputs(workload, 1), workloads.inputs(workload, 2)
        assert _structure(a) == _structure(b), workload


def _structure(value):
    """The inputs with floats and seeds replaced by markers: shapes, counts and families."""
    if isinstance(value, dict):
        return {k: "seed" if k.endswith("seed") else _structure(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_structure(v) for v in value]
    return "float" if isinstance(value, float) else value


@pytest.fixture(scope="module")
def catastrophic_session():
    data = workloads.inputs("catastrophic", 3)
    ledger = workloads.Ledger()
    workloads.execute(twoshock, "catastrophic", data, ledger, workdir=None)
    return data, ledger


def test_checks_pass_on_the_program_outputs(catastrophic_session):
    data, ledger = catastrophic_session
    verdict = checks.check("catastrophic", data, ledger)
    assert not verdict.failed, verdict.messages


@pytest.mark.parametrize("key, delta", [(("survival", 5, 10), 1e-9), (("mean", 130), 1e-6)])
def test_a_perturbed_analytic_value_is_caught(catastrophic_session, key, delta):
    data, ledger = catastrophic_session
    original = ledger.results[key]
    ledger.results[key] = original * (1.0 + delta) + delta
    try:
        verdict = checks.check("catastrophic", data, ledger)
    finally:
        ledger.results[key] = original
    assert verdict.failed == {key}


def test_a_repeat_one_ulp_off_changes_the_digest(catastrophic_session):
    _, ledger = catastrophic_session
    before = ledger.digest()
    key = ("survival", 5, 10)
    original = ledger.results[key]
    ledger.results[key] = math.nextafter(original, 2.0)
    try:
        assert ledger.digest() != before
    finally:
        ledger.results[key] = original
    assert ledger.digest() == before


def test_a_perturbed_damage_value_is_caught():
    data = workloads.inputs("damage_levels", 3)
    ledger = workloads.Ledger()
    workloads.execute(twoshock, "damage_levels", data, ledger, workdir=None)
    assert not checks.check("damage_levels", data, ledger).failed
    key = ("level", 1, 3)
    ledger.results[key] += 1e-8
    assert checks.check("damage_levels", data, ledger).failed == {key}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(args, cwd=ROOT, timeout=180):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    proc = _run(["--workload", "catastrophic", "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _spec()[section]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == declared
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "catastrophic", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
