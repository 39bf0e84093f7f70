"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload rate-sweep --seed 0 --seconds 15 --trace 0

Workloads: rate-sweep, large-tree, min-delay, queue-sim (see README.md).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run. The line is one
JSON object with the keys correct, attempted, failed and metrics. The full
record, with provenance and failure messages, goes to
.perfbench_out/<workload>-seed<seed>-trace<t>.json. Exits non-zero, printing
no result, when a worker cannot run (for example without the iabnet sources).

This process imports no numpy: the workload runs in a fresh worker process,
so its peak RSS is its own, and set-up is measured by starting further
set-up-only workers.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
WORKLOADS = ("rate-sweep", "large-tree", "min-delay", "queue-sim")
# Set-up-only workers started before the measured one; setup_s is the median
# of their set-up times and the measured worker's, each rescaled by the host
# slowdown the worker sampled right after it (see worker.HostSpeed).
SETUP_PROBES = 2
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def spawn(args, out: Path, deadline: float, setup_only: bool) -> tuple[float, float, dict | None]:
    """Start one worker and wait for it.

    Returns its set-up seconds, the host slowdown sampled just after set-up,
    and its result.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    ready = [ln for ln in lines if ln.startswith("READY ")]
    if len(ready) != 1:
        raise WorkerFailed(f"worker printed no READY line:\n{proc.stdout[-2000:]}")
    _, setup_s, slowdown = ready[0].split()
    return float(setup_s), float(slowdown), None if setup_only else json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="iabnet benchmark: one run of one workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setups = [spawn(args, run_dir / f"probe{k}", deadline, setup_only=True)[:2]
                  for k in range(0 if args.trace else SETUP_PROBES)]
        *main_setup, res = spawn(args, run_dir, deadline, setup_only=False)
    except WorkerFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(tuple(main_setup))

    if args.trace:
        metrics = res.pop("layers")
    else:
        metrics = {
            "setup_s": (statistics.median(s / slowdown for s, slowdown in setups), "s"),
            "items_per_ref_s": (res["items_per_ref_s"], "1/s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    record = {"workload": args.workload, "trace": args.trace,
              "setup_samples": [{"s": s, "host_slowdown": h} for s, h in setups],
              **res, "metrics": metrics}
    (OUT / f"{run_dir.name}.json").write_text(json.dumps(record, indent=2))

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(f"{res['items']} {res['item_unit']} in {res['batches']} batches, "
          f"{res['timed_s']:.3f} s timed; {res['failed']}/{res['attempted']} failed")
    for msg in res["failures"]:
        print(f"FAILED {msg}")
    print("provenance " + json.dumps(res["provenance"]["openblas_threads"]))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
