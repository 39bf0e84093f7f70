"""Tests of the benchmark itself.

    python -m pytest perfbench

They check that every metric BENCHMARK.json lists is emitted with its unit,
that a deliberately broken correctness check shows up as failed operations,
and that a traced run's layer self times add up to its timed wall time.
"""

import csv
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import worker
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seconds: float = 1.0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload,trace", [("min-delay", 0), ("min-delay", 1), ("rate-sweep", 0)])
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    listed = SPEC["per_layer" if trace else "end_to_end"]
    result = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", ["min-delay", "rate-sweep"])
def test_traced_self_times_add_up_to_timed_wall_time(workload):
    m = {k: v["value"] for k, v in bench(workload, 1, seconds=2.0)["metrics"].items()}
    total = sum(v for k, v in m.items() if k.endswith((".self_s", ".s")))
    assert total == pytest.approx(m["trace.timed_s"], rel=0.05)


def test_broken_certificate_check_counts_failed_points(monkeypatch, tmp_path):
    def broken_report(inst, sol):
        return {"mu_lower": 0.0, "mu_upper": 0.0, "scheduling": 0.0,
                "stability_gap": -1.0, "latency_margin": 0.0}

    monkeypatch.setattr(workloads, "constraint_report", broken_report)
    res = worker.measure(workloads.WORKLOADS["rate-sweep"], 3, 0.5, False, str(tmp_path))
    assert not res["correct"]
    assert res["failed"] >= workloads.WORKLOADS["rate-sweep"].resolve_optimal
    assert 0 < res["failed"] / res["attempted"] < 1


def test_tampered_csv_hop_sum_fails_the_resolve_check(tmp_path):
    sweep = replace(workloads.WORKLOADS["rate-sweep"], resolve_optimal=10**6, resolve_infeasible=0)
    batch = sweep.run(workloads.batch_cfg(sweep.cfg, 3, 0, str(tmp_path)), "tampered")
    assert sweep.check([batch], 3) == []

    path = batch.artifacts["csv"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = next(r for r in rows if r["sum_rate_fd_pps"])
    row["sum_rate_fd_pps"] = repr(float(row["sum_rate_fd_pps"]) * (1 + 1e-12))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    failures = sweep.check([batch], 3)
    assert len(failures) == 1 and "hop sums differ" in failures[0]


def test_broken_queue_check_counts_failed_runs(monkeypatch, tmp_path):
    sim = replace(workloads.WORKLOADS["queue-sim"], n_packets=20_000)
    monkeypatch.setattr(workloads.QueueSim, "ks_limit", 0.0)
    res = worker.measure(sim, 3, 0.1, False, str(tmp_path))
    assert not res["correct"]
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]
