"""Tests of the benchmark itself: seeded inputs, references, failure labels and
the output contract.  Run with ``python3 -m pytest perfbench/tests -q`` from
the repository root."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import refs  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.PLAN)
def test_selection_is_a_function_of_the_seed(name):
    pool = workloads.load_pool(name)
    first = workloads.select(name, pool, 7)
    assert first == workloads.select(name, pool, 7)
    assert first != workloads.select(name, pool, 8)
    cycle = workloads.PLAN[name]["cycle"]
    assert [inst["N"] for inst in first[: 2 * len(cycle)]] == list(cycle) * 2


def test_swap_daily_always_holds_the_baseline_rows():
    pool = workloads.load_pool("swap_daily")
    for seed in (1, 2, 3):
        chosen = {(i["sigma"], i["kappa"], i["N"]) for i in workloads.select("swap_daily", pool, seed)}
        assert {row for row, _ in refs.BASELINE} <= chosen


def test_references_reproduce_the_60_digit_baseline():
    assert refs.check_baseline() <= 5e-7


def test_var_call_reference_matches_monte_carlo():
    w, a = refs.spectrum(0.08, 1.5, 52)
    strike = float(sum(w + a))
    x = refs._mc_samples_quadform(w, a, 200_000, 5)
    mc, se = refs.cv_mean(x.clip(min=strike) - strike, [(x, strike)])
    assert abs(refs.var_call(w, a, strike) - mc) <= 4 * se


def _outcome(name, sigma, kappa, n_obs):
    inst = {"sigma": sigma, "kappa": kappa, "N": n_obs}
    inst.update(refs.swap_refs(sigma, kappa, n_obs, 0))
    return workloads.Workload(name).run(inst).results


def test_classifier_labels_the_known_corners():
    assert _outcome("swap_daily", 0.005, 3.0, 252) == [("wrong", False)]
    assert _outcome("swap_intraday", 0.0479, 3.969, 2000) == [("raised:OverflowError", False)]
    assert _outcome("swap_daily", 0.05, 0.5, 252) == [("ok", False)]


def test_a_certified_quote_outside_tolerance_is_a_false_certificate():
    inst = {"vol": 5.0, "var": 25.0}
    assert workloads.check_swap(inst, (5.0, 1e-9), (25.0, 0.0)) == (True, False)
    assert workloads.check_swap(inst, (5.1, 1e-9), (25.0, 0.0)) == (False, True)
    assert workloads.check_swap(inst, (5.1, math.inf), (25.0, 0.0)) == (False, False)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


@pytest.mark.parametrize("workload, trace, busy", [
    ("swap_daily", "0", None),
    ("swap_daily", "1", "model.return_moments.self_ms"),
    ("option_smile", "1", "rvdist.coeffs_hp.calls"),
    ("cli_validate", "1", "mc.msteps_per_s"),
])
def test_last_line_reports_every_declared_metric(workload, trace, busy):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert out["correct"] and out["attempted"] >= 1
    if trace == "1":
        m = {k: v["value"] for k, v in out["metrics"].items()}
        layer_sum = sum(v for k, v in m.items() if k.endswith(".self_ms"))
        assert layer_sum == pytest.approx(m["trace.request_ms"], rel=1e-6)
        assert m[busy] > 0


def test_counts_depend_on_the_seed_not_on_the_time():
    counts = []
    for seconds in ("1", "3"):
        proc = _run("--workload", "swap_daily", "--seed", "4", "--seconds", seconds, "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((out["attempted"], out["failed"]))
    assert counts[0] == counts[1]
    assert counts[0][1] > 0  # the silent wrong-quote baseline rows


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swap_daily", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name, index", [("swap_daily", 10), ("cli_validate", 3)])
def test_stored_references_are_reproducible(name, index):
    inst = workloads.load_pool(name)[index]
    fresh = refs.swap_refs(inst["sigma"], inst["kappa"], inst["N"], 0)
    assert fresh["var"] == pytest.approx(inst["var"], rel=1e-12)
    assert fresh["vol"] == pytest.approx(inst["vol"], rel=1e-10)
