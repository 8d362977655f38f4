"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at its minimum size (one round) untraced and traced,
and checks that each metric named in BENCHMARK.json is printed with its
unit, that a wrong reference value or a failing verify report makes a run
incorrect, and that the benchmark refuses to run where the program's
sources are missing.  The verify workload dominates the cost (about three
minutes in all).
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import cli_workload
import common
import kernels_workload
import reference
import verify_workload

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd=common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    res = _run(workload, trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    provenance = json.loads(res.stdout.splitlines()[-2])["provenance"]
    assert provenance["seed"] == 3 and provenance["nproc"] >= 1


def test_wrong_reference_fails_a_capacity_call():
    common.prepare_environment()
    wrong = reference.ratio(5) + 1e-9
    op = cli_workload._one_shot("ratio", lambda: wrong, "ratio", "--d", "5")
    outcome = common.run_cli(op.args)
    assert outcome.returncode == 0
    tally = common.Tally()
    tally.record(op.label, True, op.check(outcome.stdout))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    right = cli_workload._one_shot("ratio", lambda: reference.ratio(5), "ratio", "--d", "5")
    assert right.check(outcome.stdout) == []


def test_wrong_reference_fails_the_kernels_workload(monkeypatch):
    common.prepare_environment()
    common.TMP.mkdir(exist_ok=True)
    true_value = reference.quantum_unclamped
    monkeypatch.setattr(reference, "quantum_unclamped", lambda d, r: true_value(d, r) + 1e-6)
    try:
        _, state = kernels_workload.setup(3)
        tally, _, _, _ = kernels_workload.run(state, 3, 0.0)
    finally:
        shutil.rmtree(common.TMP, ignore_errors=True)
    assert tally.wrong == 1 and tally.failed == 1
    assert tally.problems[0]["op"] == "ci-mixed"


def test_failing_verify_report_makes_the_run_incorrect(monkeypatch):
    common.prepare_environment()
    from grasschan import verify

    in_process = SimpleNamespace(op=lambda label: contextlib.nullcontext())
    args = ["verify", "--suite", "covariance", "--d", "2", "--r", "0.5", "--seed", "7"]
    tally = common.Tally()
    verify_workload.record(tally, common.run_cli(args, in_process), 2, 0.5, 7)
    assert (tally.attempted, tally.failed) == (1, 0)

    true_apply = verify.apply_kraus

    def skewed(kraus, rho):  # adds a term no channel covariance survives
        out = true_apply(kraus, rho)
        return out + 1e-3 * np.diag(np.arange(out.shape[0]))

    monkeypatch.setattr(verify, "apply_kraus", skewed)
    outcome = common.run_cli(args, in_process)
    assert outcome.returncode == 1 and json.loads(outcome.stdout)["pass"] is False
    verify_workload.record(tally, outcome, 2, 0.5, 7)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    assert not tally.correct


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(common.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("kernels", 0, cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""
