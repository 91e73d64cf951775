"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from workloads import C7_MODELS, Dp, MonteCarlo

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {w.name: w for w in (
    MonteCarlo("mc-wide", "verify", C7_MODELS, n=60, reps=64, workers_config="descents"),
    MonteCarlo("mc-long", "simulate", ("friedman",), n=200, reps=8),
    Dp("dp", C7_MODELS, exact_n=20, float_n=40),
)}


def run_tiny(capsys, name: str, trace: int, table=TINY) -> tuple[str, dict]:
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads=table)
    assert code == 0
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


def test_workload_names_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_once_with_unit_and_checks_pass(capsys, name, trace):
    out, result = run_tiny(capsys, name, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, out
    assert result["attempted"] >= 2 * len(TINY[name].ops)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    last = out.strip().splitlines()[-1]
    for metric in declared:
        assert last.count(f'"{metric["name"]}"') == 1
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_replicates_are_failed_operations(capsys, monkeypatch):
    from driftchain import chain, cli, stats

    original = chain.replicate_final

    def off_by_one(*args, **kwargs):
        return original(*args, **kwargs) + np.int64(1)

    for module in (chain, cli, stats):
        monkeypatch.setattr(module, "replicate_final", off_by_one)
    for name in ("mc-wide", "mc-long"):
        _, result = run_tiny(capsys, name, 0)
        assert result["correct"] is False
        assert result["failed"] == result["attempted"]


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-wide",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
