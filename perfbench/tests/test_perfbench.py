"""Tests of the benchmark itself; run with `python3 -m pytest perfbench/tests -q`.

They use the smoke instance (4 steps on a 6x4x4 lattice) and its
reference, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(workload: str, trace: int, seed: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_traced_counts_repeat_exactly():
    counts = ("constraints.feasible_actions.calls", "dynamics.q_moments.calls",
              "dynamics.g_moments.calls", "kernel.bvn_evals", "constraints.feasible_frac")
    first, second = (_result("scenario-sim", 1, seed=s)["metrics"] for s in (3, 4))
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_other_seed_checks_invariants_only():
    result = _result("scenario-sim", 0, seed=7)
    assert result["correct"] and result["failed"] == 0


def test_missing_checkout_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-serial", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    w = replace(run.WORKLOADS["scenario-sim"], **run.SMOKE)
    with np.load(HERE / "ref" / "smoke.npz") as data:
        ref = {k: data[k] for k in data.files}
    _, out = run.run_pipeline(w, checks.REFERENCE_SEED, tmp_path_factory.mktemp("smoke"))
    return out, ref, checks.action_labels()


def test_unchanged_outputs_pass(smoke_outputs):
    out, ref, labels = smoke_outputs
    it = run.Iteration(0.0, 0.0, 0.0)
    run.check_outputs(it, out, checks.REFERENCE_SEED, ref, labels)
    assert it.failed == 0 and it.attempted == 1 + len(out.exported) + len(out.paths)


def test_perturbed_value_or_policy_table_fails(smoke_outputs):
    out, ref, _ = smoke_outputs
    values, actions = out.values.values, out.policy.actions
    assert checks.check_tables(values, actions, ref) == 0
    bumped = values.copy()
    bumped[1, 5] += 1e-9
    assert checks.check_tables(bumped, actions, ref) == 1
    flipped = actions.copy()
    flipped[0, 0] = (flipped[0, 0] + 1) % 7
    assert checks.check_tables(values, flipped, ref) == 1


def _rewrite(path, old: str, new: str, tmp_path) -> str:
    text = Path(path).read_text(encoding="utf-8")
    assert old in text
    target = tmp_path / Path(path).name
    target.write_text(text.replace(old, new, 1), encoding="utf-8")
    return str(target)


def test_perturbed_export_fails(smoke_outputs, tmp_path):
    out, ref, labels = smoke_outputs
    path = out.exported[0]
    row = Path(path).read_text(encoding="utf-8").splitlines()[1].split(",")
    value = float(row[7])
    assert "." in row[7] and "e" not in row[7]
    bumped = _rewrite(path, f",{row[7]},", f",{value + abs(value) * 1e-9!r},", tmp_path)
    assert not checks.check_export_file(bumped, 0, ref, labels)
    # The same numbers in another float spelling still pass.
    respelled = _rewrite(path, f",{row[7]},", f",{row[7]}0,", tmp_path)
    assert checks.check_export_file(respelled, 0, ref, labels)


def test_perturbed_path_fails(smoke_outputs, tmp_path):
    out, ref, labels = smoke_outputs
    s, idx, path = out.paths[0]
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    last = lines[-1].split(",")
    cum = float(last[-1])
    bumped = _rewrite(path, lines[-1], ",".join(last[:-1] + [repr(cum * (1 + 1e-9))]), tmp_path)
    assert checks.check_path_file(bumped, out.policy.actions, out.grid, labels)  # invariants hold
    assert not checks.check_path_file(bumped, out.policy.actions, out.grid, labels, ref, s, idx)
    other = next(a for a in labels if a != last[6])
    relabelled = _rewrite(path, lines[-1], ",".join(last[:6] + [other] + last[7:]), tmp_path)
    assert not checks.check_path_file(relabelled, out.policy.actions, out.grid, labels)


def test_malformed_export_row_fails(smoke_outputs, tmp_path):
    out, ref, labels = smoke_outputs
    path = out.exported[0]
    row = Path(path).read_text(encoding="utf-8").splitlines()[1].split(",")
    garbled = _rewrite(path, f",{row[7]},", ",not-a-number,", tmp_path)
    assert not checks.check_export_file(garbled, 0, ref, labels)
    truncated = _rewrite(path, ",".join(row), ",".join(row[:5]), tmp_path)
    assert not checks.check_export_file(truncated, 0, ref, labels)


@pytest.mark.parametrize("broken", ["exit", "raise"])
def test_failed_simulate_command_counts_as_failed(broken, monkeypatch, tmp_path):
    from microgrid_dp import cli

    def main(argv):
        if broken == "raise":
            raise RuntimeError("broken simulate")
        return 1

    monkeypatch.setattr(cli, "main", main)
    w = replace(run.WORKLOADS["scenario-sim"], **run.SMOKE)
    it, _ = run.run_pipeline(w, checks.REFERENCE_SEED, tmp_path)
    assert it.attempted == it.failed == 5


def test_hostspeed_restores_the_alarm_handler():
    import signal

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.measure() as m:
        sum(i * i for i in range(200_000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(m.ticks) >= hostspeed.MIN_TICKS and 0 < m.own <= m.wall and m.seconds > 0
    with hostspeed.measure(calibrate=False) as plain:
        pass
    assert plain.seconds == plain.wall and not plain.ticks
    with hostspeed.measure() as short:   # shorter than one interval: all ticks run after it
        pass
    assert short.inside == 0 and short.own == short.wall and short.seconds > 0
