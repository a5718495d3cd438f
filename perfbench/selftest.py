"""The benchmark's own tests (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/selftest.py -q

Smoke runs use tiny budgets and a small surrogate (``run.py --smoke``);
they check the output format, the correctness checks and the
traced/untraced trace-hash parity, not performance.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Patcher, Tracer, timed  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


class Base:
    def method(self, x):
        return ("method", x)

    @staticmethod
    def static(x):
        return ("static", x)

    @classmethod
    def klass(cls, x):
        return ("klass", cls.__name__, x)


class Child(Base):
    pass


def test_patcher_wraps_and_restores_every_descriptor_kind():
    tracer, patcher = Tracer(), Patcher()
    originals = {name: vars(Base)[name] for name in ("method", "static", "klass")}
    patcher.wrap(Child, "static", timed(tracer, "child.static"))  # inherited
    for name in originals:
        patcher.wrap(Base, name, timed(tracer, name))
    snapshot = patcher.snapshot()

    assert Base().method(1) == ("method", 1)
    assert Base.static(2) == ("static", 2)
    assert Base().static(3) == ("static", 3)
    assert Child.klass(4) == ("klass", "Child", 4)
    assert Child.static(5) == ("static", 5)
    assert dict(tracer.calls) == {
        "method": 1,
        "static": 2,
        "klass": 1,
        "child.static": 1,
    }

    patcher.restore()
    assert Patcher.is_restored(snapshot)
    assert all(vars(Base)[name] is raw for name, raw in originals.items())
    assert "static" not in vars(Child)


def test_tracer_self_time_reentrancy_and_coverage():
    ticks = iter(range(100))
    tracer = Tracer(interval_names=("outer",), clock=lambda: float(next(ticks)))
    outer = tracer.open("outer")  # t=0
    assert tracer.open("outer") is None  # re-entrant span is not recorded
    inner = tracer.open("inner")  # t=1
    tracer.close(inner)  # t=2
    tracer.close(outer)  # t=3
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.total["outer"] == 3.0
    assert tracer.self_time["outer"] == 2.0
    assert tracer.intervals == [(0.0, 3.0)]
    tracer.intervals.append((2.0, 5.0))
    assert tracer.covered(1.0, 4.0) == 3.0


def test_benchmark_json_is_well_formed():
    assert set(CONFIG) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]] + WORKLOADS
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert all(set(w) == {"name", "why"} for w in CONFIG["workloads"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONFIG["workloads"])
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert all(unit.match(m["unit"]) for m in CONFIG["end_to_end"] + CONFIG["per_layer"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in CONFIG["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in CONFIG["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in CONFIG["per_layer"])
    setup = [m for m in CONFIG["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = CONFIG["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        untraced, traced = info["trace_hashes"]
        assert untraced == traced and len(traced) == 64
        assert result["metrics"]["error_rate"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["fingerprint"]["nproc"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
