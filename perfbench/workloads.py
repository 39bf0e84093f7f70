"""The four benchmark workloads: their configs, one timed batch each, and the
correctness checks run on the batches after the timed region.

A workload runs as a sequence of batches. Batch ``i`` of a run with seed ``s``
is one call of an ``iabnet.experiments`` runner plus ``save_run``, on the
workload's config with ``mc.seed = s * 10**6 + i``. The runners and
``save_run`` are looked up on the module at call time, so the tracer's
wrappers see them.

Why each workload exists, and the layer shares measured on it, are in
README.md next to this file.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
from dataclasses import dataclass, field, replace

import numpy as np

from iabnet import experiments
from iabnet.channel import ArrayConfig, LinkBudget, RinrConfig, capacity_from_links, drop_ues, link_states
from iabnet.experiments import (
    DuplexConfig,
    ExperimentConfig,
    McConfig,
    OutputConfig,
    QosConfig,
    TopologyConfig,
    base_tree,
    hop_sum_rates,
)
from iabnet.optimizer import (
    InfeasibleDelay,
    NumericalFailure,
    ProblemInstance,
    constraint_report,
    solve_utility_max,
)
from iabnet.topology import DuplexMode, network_matrices

BATCH_SEED_STRIDE = 10**6


@dataclass
class Batch:
    """One timed call: its config, what it returned and the files it wrote."""

    cfg: ExperimentConfig
    name: str
    output: object = None
    artifacts: dict = field(default_factory=dict)
    error: str = ""

    def digests(self) -> dict[str, str]:
        out = {}
        for kind, path in sorted(self.artifacts.items()):
            if kind != "manifest":
                with open(path, "rb") as fh:
                    out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
        return out


def batch_cfg(cfg: ExperimentConfig, seed: int, index: int, out_dir: str) -> ExperimentConfig:
    return replace(
        cfg,
        mc=replace(cfg.mc, seed=seed * BATCH_SEED_STRIDE + index),
        output=replace(cfg.output, dir=out_dir),
    )


def _small(cfg: ExperimentConfig) -> ExperimentConfig:
    """The warm-up input: the same experiment on a one-relay line, one drop."""
    return replace(cfg, topology=replace(cfg.topology, K=1, w=1), mc=replace(cfg.mc, n_drops=1))


# ---------------------------------------------------------------------------
# sweeps: rate-sweep, large-tree, min-delay


@dataclass(frozen=True)
class Sweep:
    """A drop sweep; one point is one (drop, sweep value, mode) solve."""

    name: str
    runner: str   # attribute of iabnet.experiments
    axis: str     # CSV column holding the sweep value
    cfg: ExperimentConfig
    # Points re-solved per run by the correctness check, drawn from the seed.
    resolve_optimal: int = 0
    resolve_infeasible: int = 0

    unit = "points"

    def values(self) -> list[float]:
        if self.axis == "rinr_db":
            return list(self.cfg.duplex.rinr_db_sweep)
        source = self.cfg.qos.delta_s if self.axis == "delta_s" else self.cfg.qos.lambda_min_pps
        return [float(v) for v in np.atleast_1d(source)]

    def warmup(self, out_dir: str) -> None:
        self.run(replace(_small(self.cfg), output=OutputConfig(dir=out_dir)), "warmup")

    def run(self, cfg: ExperimentConfig, name: str) -> Batch:
        batch = Batch(cfg=cfg, name=name)
        try:
            batch.output = getattr(experiments, self.runner)(cfg)
        except NumericalFailure as exc:  # e.g. min-delay's LP / closed-form cross-check
            batch.error = f"aborted: {exc}"
            return batch
        batch.artifacts = experiments.save_run(cfg, name, results=batch.output)
        return batch

    def points(self, batch: Batch) -> list[tuple[int, float, str, str]]:
        """(drop, value, mode, status) for every point the batch attempted."""
        modes = list(self.cfg.duplex.modes)
        if batch.output is None:
            return [(d, v, m, batch.error) for d in range(batch.cfg.mc.n_drops)
                    for v in self.values() for m in modes]
        out = []
        for res in batch.output:
            seen = set()
            for row in res.rows:
                if self.axis == "lambda_min_pps":
                    if row["mode"] in modes:
                        status = "optimal" if row["feasible"] else "infeasible"
                        out.append((res.drop, row[self.axis], row["mode"], status))
                elif (key := row[self.axis]) not in seen:
                    seen.add(key)
                    out.extend((res.drop, key, m, row[f"status_{m}"]) for m in modes)
        return out

    def items(self, batch: Batch) -> int:
        return len(self.points(batch))

    def failed_ops(self, batches: list[Batch]) -> list[str]:
        """Points the runner recorded as numerical failures (``error:`` status)."""
        return [f"{b.name} drop {drop} {self.axis}={value} {mode}: {status}"
                for b in batches for drop, value, mode, status in self.points(b)
                if status.startswith("error:")]

    def check(self, batches: list[Batch], seed: int) -> list[str]:
        """Wrong outputs, one message per point: points of a sweep that aborted,
        and points that fail the workload's correctness rule."""
        failures = [f"{b.name} drop {drop} {self.axis}={value} {mode}: {status}"
                    for b in batches if b.error
                    for drop, value, mode, status in self.points(b)]
        if self.axis == "lambda_min_pps":
            failures += self._check_nesting(batches)
        else:
            failures += self._check_resolve(batches, seed)
        return failures

    def _check_nesting(self, batches: list[Batch]) -> list[str]:
        """Criterion 7's rule: FD is feasible wherever HD is, with t* no smaller."""
        failures = []
        for b in batches:
            for res in b.output or ():
                pairs: dict[float, dict[str, dict]] = {}
                for row in res.rows:
                    if row["mode"] in ("hd", "fd"):
                        pairs.setdefault(row["lambda_min_pps"], {})[row["mode"]] = row
                for lam, pair in pairs.items():
                    hd, fd = pair.get("hd"), pair.get("fd")
                    if hd is None or fd is None or not hd["feasible"]:
                        continue
                    if not fd["feasible"] or fd["t_star"] < hd["t_star"] * (1 - 1e-9):
                        failures.append(f"{b.name} drop {res.drop} lambda_min={lam}: "
                                        f"FD t*={fd['t_star']} below HD t*={hd['t_star']}")
        return failures

    def _check_resolve(self, batches: list[Batch], seed: int) -> list[str]:
        """Re-solve a seed-drawn sample of points through the public API.

        An optimal point must pass criterion 9's certificate thresholds and
        reproduce the hop sums its CSV holds, exactly. An infeasible point
        must be rejected again.
        """
        pts = [(b, d, v, m, s) for b in batches for d, v, m, s in self.points(b)]
        rng = random.Random(seed)
        optimal = [p for p in pts if p[4] == "optimal"]
        infeasible = [p for p in pts if p[4] == "infeasible"]
        sample = rng.sample(optimal, min(self.resolve_optimal, len(optimal)))
        sample += rng.sample(infeasible, min(self.resolve_infeasible, len(infeasible)))
        failures = []
        for b, drop, value, mode, status in sample:
            if problems := self._resolve(b, drop, value, mode, status):
                failures.append(f"{b.name} drop {drop} {self.axis}={value} {mode}: "
                                + "; ".join(problems))
        return failures

    def _resolve(self, b: Batch, drop: int, value: float, mode: str, status: str) -> list[str]:
        cfg = b.cfg
        rinr_db, delta = (value, float(np.atleast_1d(cfg.qos.delta_s)[0])) \
            if self.axis == "rinr_db" else (cfg.duplex.rinr_db_sweep[0], value)
        rng = np.random.default_rng([cfg.mc.seed, drop])
        tree = drop_ues(base_tree(cfg), cfg.topology.ue_radius_m, rng)
        ch = cfg.channel
        budget = LinkBudget(ptx_dbm=ch.ptx_dbm, bandwidth_hz=ch.bandwidth_hz,
                            noise_psd_dbm_hz=ch.noise_psd_dbm_hz,
                            noise_figure_db=ch.noise_figure_db, carrier_hz=ch.carrier_hz)
        links = link_states(tree, budget, rng, ArrayConfig(n_bs_ant=ch.n_bs_ant, n_ue_ant=ch.n_ue_ant))
        dmode = DuplexMode(mode)
        caps = capacity_from_links(links, dmode, RinrConfig(rinr_db=rinr_db), budget,
                                   8.0 * cfg.qos.packet_bytes)
        inst = ProblemInstance(matrices=network_matrices(tree, dmode, caps),
                               eta=cfg.qos.eta, delta_s=delta)
        try:
            sol = solve_utility_max(inst)
        except InfeasibleDelay:
            return [] if status == "infeasible" else ["re-solve is infeasible"]
        if status != "optimal":
            return [f"re-solve is optimal, CSV says {status}"]
        problems = []
        rep = constraint_report(inst, sol)
        if not (rep["scheduling"] <= 1e-8 and rep["mu_upper"] <= 1e-8
                and rep["mu_lower"] >= -1e-8 and rep["stability_gap"] > 0
                and rep["latency_margin"] >= -1e-8):
            problems.append(f"constraint certificate {rep}")
        if not sol.kkt_residual <= 1e-6 * max(abs(sol.objective), 1e-3):
            problems.append(f"KKT residual {sol.kkt_residual} for objective {sol.objective}")
        if hop_sum_rates(tree, sol.lam) != self._csv_hop_sums(b, drop, value, mode):
            problems.append("hop sums differ from the CSV")
        return problems

    def _csv_hop_sums(self, b: Batch, drop: int, value: float, mode: str) -> dict[int, float]:
        with open(b.artifacts["csv"], newline="") as fh:
            return {
                int(row["hop"]): float(row[f"sum_rate_{mode}_pps"])
                for row in csv.DictReader(fh)
                if int(row["drop"]) == drop and float(row[self.axis]) == value
                and row[f"sum_rate_{mode}_pps"] != ""
            }


# ---------------------------------------------------------------------------
# queue-sim


@dataclass(frozen=True)
class QueueSim:
    """Queue validation runs; the work unit is one simulated packet."""

    name: str
    cfg: ExperimentConfig
    n_packets: int

    unit = "packets"
    # Criterion 8's thresholds.
    ks_limit = 0.02
    delivery_slack = 0.02

    def warmup(self, out_dir: str) -> None:
        cfg = replace(self.cfg, output=OutputConfig(dir=out_dir))
        report = experiments.run_queue_validation(cfg, n_packets=5_000)
        experiments.save_run(cfg, "warmup", report=report)

    def run(self, cfg: ExperimentConfig, name: str) -> Batch:
        batch = Batch(cfg=cfg, name=name)
        batch.output = experiments.run_queue_validation(cfg, n_packets=self.n_packets)
        batch.artifacts = experiments.save_run(cfg, name, report=batch.output)
        return batch

    def points(self, batch: Batch) -> list[str]:
        return [batch.output["status"]]

    def failed_ops(self, batches: list[Batch]) -> list[str]:
        """Validation runs whose operating-point solve was not optimal."""
        return [f"{b.name}: status {b.output['status']}"
                for b in batches if b.output["status"] != "optimal"]

    def items(self, batch: Batch) -> int:
        return self.n_packets

    def check(self, batches: list[Batch], seed: int) -> list[str]:
        """Criterion 8's thresholds on every validation run that simulated."""
        failures = []
        for b in batches:
            rep = b.output
            if rep["status"] != "optimal":
                continue
            ks = max(rep["ks_distance_per_edge"].values())
            delivery = min(rep["delivery_probability"])
            floor = rep["eta"] - self.delivery_slack
            if not (ks < self.ks_limit and delivery >= floor):
                failures.append(f"{b.name}: worst KS distance {ks} (limit {self.ks_limit}), "
                                f"worst delivery probability {delivery} (floor {floor})")
        return failures


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            name="rate-sweep",
            runner="run_rate_sweep",
            axis="rinr_db",
            cfg=ExperimentConfig(
                topology=TopologyConfig(kind="line", K=3, w=2),
                qos=QosConfig(delta_s=3.5e-3),
                duplex=DuplexConfig(modes=("hd", "fd"),
                                    rinr_db_sweep=(-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0)),
                mc=McConfig(n_drops=1),
            ),
            resolve_optimal=4,
            resolve_infeasible=2,
        ),
        Sweep(
            name="large-tree",
            runner="run_delay_sweep",
            axis="delta_s",
            cfg=ExperimentConfig(
                topology=TopologyConfig(kind="line", K=8, w=20),
                # One delay, so each 15 s run covers five to eight drops of two
                # optimal solves; see README.md for why not a five-delay sweep.
                qos=QosConfig(delta_s=(0.1,)),
                duplex=DuplexConfig(modes=("hd", "fd"), rinr_db_sweep=(-10.0,)),
                mc=McConfig(n_drops=1),
            ),
            resolve_optimal=1,
        ),
        Sweep(
            name="min-delay",
            runner="run_min_delay_sweep",
            axis="lambda_min_pps",
            cfg=ExperimentConfig(
                topology=TopologyConfig(kind="line", K=3, w=2),
                qos=QosConfig(lambda_min_pps=(10.0, 50.0, 100.0, 200.0, 400.0)),
                duplex=DuplexConfig(modes=("hd", "fd"), rinr_db_sweep=(-15.0,)),
                mc=McConfig(n_drops=10),
            ),
        ),
        QueueSim(
            name="queue-sim",
            cfg=ExperimentConfig(
                topology=TopologyConfig(kind="line", K=3, w=2),
                qos=QosConfig(delta_s=3.5e-3),
                duplex=DuplexConfig(modes=("fd",), rinr_db_sweep=(-math.inf,)),
                mc=McConfig(n_drops=1),
            ),
            n_packets=1_200_000,
        ),
    )
}
