"""Smoke test of the benchmark harness; short runs of the real workloads.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted(workload, trace, key):
    out = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", NAMES[0], "--seed", "3", "--seconds", "0.3")
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_planted_wrong_answer_exits_nonzero(capsys):
    def drop_a_coloring(tc):
        real = tc.quandle_colorings

        def wrong(*args, **kwargs):
            search = real(*args, **kwargs)
            search.colorings.pop()
            return search

        tc.quandle_colorings = wrong

    argv = ["--workload", "algebra-ladder", "--seed", "3", "--seconds", "0.3"]
    assert run.main(argv, plant=drop_a_coloring) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_planted_deadline_overrun_counts_as_failed(monkeypatch):
    workload = workloads.WORKLOADS["certify-hosts"]
    sys.path.insert(0, str(run.SRC))
    tc, pool, _ = run.setup(workload, 3)
    real = tc.parse_diagram
    calls = []

    def slow_once(text):
        calls.append(text)
        if len(calls) == 1:
            time.sleep(5)
        return real(text)

    tc.parse_diagram = slow_once
    monkeypatch.setattr(run, "DEADLINE_S", 1.0)  # the real guard would take 10 s to fire
    samples = run.measure(workload, tc, pool, 0, count=3)
    first, *rest = samples
    assert first.error == "deadline" and 1.0 <= first.wall < 2.0
    assert all(s.error is None for s in rest)
    assert run.end_to_end(samples, 0.1)["verdict_share"]["value"] == pytest.approx(2 / 3)


def test_timings_are_scaled_to_the_reference_speed():
    assert run.scaled(0.1, run.REFERENCE_S, run.REFERENCE_S) == pytest.approx(0.1)
    assert run.scaled(0.1, 2 * run.REFERENCE_S, 2 * run.REFERENCE_S) == pytest.approx(0.05)
    assert 0.0005 < run.reference() < 0.05


def test_readme_records_every_workload_and_per_layer_metric():
    text = (BENCH / "README.md").read_text()
    for name in NAMES + [m["name"] for m in SPEC["per_layer"]]:
        assert f"`{name}`" in text, name
