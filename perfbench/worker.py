"""One benchmark run of one workload, in a process of its own.

Usage (normally started by run.py, which passes --spawned-at):

    python3 perfbench/worker.py --workload rate-sweep --seed 0 --seconds 15 \
        --trace 0 --out .perfbench_out/rate-sweep --spawned-at <time.monotonic()>

It pins both OpenBLAS copies to one thread before numpy is imported, imports
iabnet from the checkout's ``src/``, warms up, then prints ``READY`` with its
set-up time. With --setup-only it stops there. Otherwise it runs batches of
the workload until --seconds have passed, checks the outputs outside the timed
region and prints one JSON line with the measurements and their provenance.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
for p in (str(HERE), str(SRC)):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (loads scipy's OpenBLAS copy)

import iabnet  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(iabnet.__file__).resolve().parent != SRC / "iabnet":
    raise ImportError(f"iabnet imported from {iabnet.__file__}, not from {SRC}")


def openblas_threads() -> dict[str, int]:
    """Thread counts of the OpenBLAS copies bundled with numpy and scipy."""
    out = {}
    for pkg, symbol in ((np, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        libs = sorted(glob.glob(str(libdir / "libscipy_openblas*.so*")))
        if not libs:
            raise RuntimeError(f"no bundled OpenBLAS found in {libdir}")
        fn = getattr(ctypes.CDLL(libs[0]), symbol)
        fn.argtypes = []
        fn.restype = ctypes.c_int
        out[pkg.__name__] = int(fn())
    return out


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int, digests: dict[str, str]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "git_sha": git_sha(),
        "seed": seed,
        "artifact_sha256": digests,
    }


class HostSpeed:
    """Samples the host's speed during the timed region.

    On a shared host the core itself can slow down and speed up by 20-30%
    within seconds, and then that drift, not the program, dominates the
    run-to-run spread of raw throughput (README.md, Host drift). So every
    PERIOD_S of wall time a
    SIGALRM handler runs a fixed calibration kernel (Python loops, small
    numpy/LAPACK calls: the mix the workloads run) and records how long it
    took. The kernel's share of the timed region is subtracted from it, and
    the remainder is rescaled to a host that runs one kernel slice in
    REF_SLICE_S: throughput is reported as items_per_ref_s, and set-up time,
    rescaled by slices run just after it, as setup_s.
    """

    PERIOD_S = 0.25
    REF_SLICE_S = 0.012
    ITERATIONS = 150

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.random((60, 60))
        self._a = a @ a.T + 60.0 * np.eye(60)
        self._v = rng.random(60)
        self.slices: list[float] = []

    def kernel(self) -> float:
        t0 = time.perf_counter()
        acc: dict[int, float] = {}
        for _ in range(self.ITERATIONS):
            np.linalg.cholesky(self._a)
            x = np.linalg.solve(self._a, self._v)
            y = np.exp(-x) * np.log1p(x * x)
            for i in range(60):
                acc[i] = acc.get(i - 1, 0.0) + float(y[i])
        return time.perf_counter() - t0

    def _sample(self, signum, frame) -> None:
        self.slices.append(self.kernel())

    def __enter__(self):
        self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self, n: int) -> float:
        """Run n slices now, outside any timed region; returns the slowdown."""
        self.kernel()
        self.slices = [self.kernel() for _ in range(n)]
        return self.slowdown()

    def slowdown(self) -> float:
        """How much slower than the reference host this host ran, on average.

        Speed (REF_SLICE_S over a slice time), not slice time, is averaged:
        the work done between two samples is proportional to the speed then.
        """
        if not self.slices:
            raise RuntimeError("timed region too short for a host-speed sample")
        return 1.0 / statistics.fmean(self.REF_SLICE_S / s for s in self.slices)

    def reference_seconds(self, elapsed: float) -> float:
        """`elapsed` minus the kernel's time, on the reference host."""
        return (elapsed - sum(self.slices)) / self.slowdown()


def timed_batches(workload, seed: int, seconds: float, out_dir: str):
    """Run batches 0, 1, ... until `seconds` have passed."""
    done = []
    t0 = time.perf_counter()
    while True:
        i = len(done)
        cfg = workloads.batch_cfg(workload.cfg, seed, i, out_dir)
        done.append(workload.run(cfg, f"{workload.name}-{i:04d}"))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return done, elapsed


def traced_pairs(workload, seed: int, seconds: float, out_dir: str, tracer):
    """Run each batch traced, then again untraced, until `seconds` have passed.

    Pairing each traced batch with an untraced run of the same config right
    after it exposes both to the same host speed, so their time ratio is the
    tracing overhead, not host drift.
    """
    traced, untraced = [], []
    traced_s = untraced_s = 0.0
    t0 = time.perf_counter()
    while True:
        i = len(traced)
        cfg = workloads.batch_cfg(workload.cfg, seed, i, out_dir + "/traced")
        name = f"{workload.name}-{i:04d}"
        tracer.install()
        try:
            t = time.perf_counter()
            traced.append(workload.run(cfg, name))
            traced_s += time.perf_counter() - t
        finally:
            tracer.uninstall()
        t = time.perf_counter()
        again = replace(cfg, output=replace(cfg.output, dir=out_dir + "/untraced"))
        untraced.append(workload.run(again, name))
        untraced_s += time.perf_counter() - t
        if time.perf_counter() - t0 >= seconds:
            return traced, untraced, traced_s, untraced_s


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """The timed run and its checks; the caller has already warmed up.

    Untraced: batches for `seconds`, with the host speed sampled. Traced:
    pairs of traced and untraced batches for `seconds` (see traced_pairs);
    the two runs of each batch must write identical files.
    """
    result: dict = {}
    again = []
    if trace:
        tracer = tracing.Tracer()
        batches, again, elapsed, again_s = traced_pairs(workload, seed, seconds, out_dir, tracer)
        tracer.write(os.path.join(out_dir, "spans.jsonl"))
        busy_s = elapsed
    else:
        with HostSpeed() as host:
            batches, elapsed = timed_batches(workload, seed, seconds, out_dir)
        busy_s = elapsed - sum(host.slices)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    completed = sum(workload.items(b) for b in batches)
    if trace:
        packets = completed if workload.unit == "packets" else 0
        result["layers"] = tracing.layer_metrics(tracer.spans, elapsed, packets)
        result["layers"]["trace.overhead_frac"] = (elapsed / again_s - 1.0, "frac")
    else:
        result.update(host_slices_s=host.slices,
                      host_slowdown=host.slowdown(),
                      items_per_ref_s=completed / host.reference_seconds(elapsed))

    failed_ops = workload.failed_ops(batches)
    wrong = workload.check(batches, seed)
    for a, b in zip(again, batches):
        if a.digests() != b.digests():
            wrong.append(f"{b.name}: untraced replay wrote different outputs")
    digests = {k: v for b in batches for k, v in b.digests().items()}
    attempted = sum(len(workload.points(b)) for b in batches)
    result.update(
        correct=not wrong,
        attempted=attempted,
        failed=min(len(failed_ops) + len(wrong), attempted),
        failures=(wrong + failed_ops)[:20],
        batches=len(batches),
        items=completed,
        item_unit=workload.unit,
        timed_s=elapsed,
        items_per_s=completed / busy_s,
        peak_rss_mb=rss_mb,
        provenance=provenance(seed, digests),
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    workload.warmup(os.path.join(args.out, "warmup"))
    setup_s = time.monotonic() - args.spawned_at
    threads = openblas_threads()
    if set(threads.values()) != {1}:
        print(f"OpenBLAS is not pinned to one thread: {threads}", file=sys.stderr)
        return 3
    # Five slices right after set-up rescale set-up time like throughput.
    print(f"READY {setup_s!r} {HostSpeed().sample(5)!r}", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace), args.out)
    result["setup_s"] = setup_s
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
