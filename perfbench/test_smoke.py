"""Smoke test of the benchmark harness at tiny scale.

Run with: PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_schema(workload: str, trace: str) -> None:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_same_seed_same_inputs_and_counts() -> None:
    lines = []
    for _ in range(2):
        proc = _run("--workload", "paper-mix", "--seed", "5", "--seconds", "0.2",
                    "--trace", "1", "--scale", "tiny")
        assert proc.returncode == 0, proc.stdout[-2000:]
        lines.append([ln for ln in proc.stdout.splitlines()
                      if ln.startswith(("inputs:", "counts sha256"))])
    assert len(lines[0]) == 2 and lines[0] == lines[1]


def test_gate_trips_on_wrong_verdict(monkeypatch, capsys) -> None:
    import hamq
    import run

    def wrong(g, config=None):
        return hamq.Certificate(outcome="CertifiedHamiltonConnected",
                                fired_condition={"name": "Ore"},
                                parameters={}, witnesses={}, trace=[])

    monkeypatch.setattr(hamq, "certify", wrong)
    monkeypatch.delenv("HAMQ_THREADS", raising=False)  # main() clears it
    code = run.main(["--workload", "paper-mix", "--seed", "11", "--seconds", "0.1",
                     "--scale", "tiny"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code != 0
    assert json.loads(out[-1])["correct"] is False
    assert any("not Hamilton-connected" in ln for ln in out)


def test_gate_rejects_false_separator() -> None:
    import gate
    import hamq

    g = hamq.complete(6)
    report = {"outcome": "ExceptionalFamily", "fired_condition": None,
              "witnesses": {"non_hamilton_connected": True,
                            "membership": {"Y": [0, 1]}}}
    assert gate.check(g, None, report) is not None
    cut = hamq.Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    ok = {"outcome": "NotHamiltonConnected", "fired_condition": None,
          "witnesses": {"reason": "cut-vertex", "cut_vertex": 2}}
    assert gate.check(cut, "not-hc", ok) is None
    assert gate.check(cut, "not-hc", dict(ok, witnesses={"reason": "cut-vertex",
                                                         "cut_vertex": 0})) is not None


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "paper-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
