"""Self-test of the benchmark's correctness gate and metric coverage.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

Corruption is injected here only: one decoded answer and one catalog cell.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import session  # noqa: E402
from hermipir import scheme, tables  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _error_rate(result: dict) -> tuple[bool, float]:
    correct, attempted, failed = run.gate([result])
    return correct, failed / attempted


def test_corrupt_answer_fails_gate(monkeypatch):
    reconstruct = scheme.SchemeInstance.reconstruct

    def corrupted(instance, answers):
        answers = answers.copy()
        answers[0] = (answers[0] + 1) % instance.field.order
        return reconstruct(instance, answers)

    monkeypatch.setattr(scheme.SchemeInstance, "reconstruct", corrupted)
    result = session.run_session({"workload": "pir-socket-q5", "session": 0, "seed": 1,
                                  "trials": 2, "workers": 1})
    correct, error_rate = _error_rate(result)
    assert not correct and error_rate > 0
    assert result["failures"]


def test_corrupt_catalog_cell_fails_gate(monkeypatch):
    build = tables.build_table1

    def corrupted(*args, **kwargs):
        structure = build(*args, **kwargs)
        cell = structure["rows"][0]["cells"][0]
        cell["rate"], cell["reference_relation"] = "0.99999", "exceeds"
        return structure

    monkeypatch.setattr(tables, "build_table1", corrupted)
    result = session.run_session({"workload": "catalog-search", "session": 0, "seed": 1,
                                  "orders": [17], "ops_seconds": 0.0})
    correct, error_rate = _error_rate(result)
    assert not correct and error_rate > 0


def test_clean_catalog_session_passes():
    result = session.run_session({"workload": "catalog-search", "session": 0, "seed": 1,
                                  "orders": [17], "ops_seconds": 0.0})
    assert run.gate([result]) == (True, 3, 0)   # secondary, Table 1, secondary


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric(trace, group):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", str(trace), "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    names = {m["name"] for m in BENCH[group]}
    workloads = [w["name"] for w in BENCH["workloads"]]
    assert set(final["metrics"]) == {f"{w}/{n}" for w in workloads for n in names}
    for m in BENCH[group]:
        assert f"{m['name']} = " in proc.stdout
