"""Configuration-driven Monte Carlo experiments.

Each experiment drops UEs around their serving BSs, draws one set of link
states per drop, evaluates both duplex modes on those shared states (paired
comparison), and writes figure-ready CSV tables plus a <name>.run.json
manifest per experiment, so several experiments can share one output
directory.

Within a drop, each distinct problem is solved once: the utility sweeps key
their solves on (mode, capacity vector, delta), so sweep points that leave a
mode's capacities unchanged (half duplex across an RINR sweep) reuse the
solve, and the min-delay sweep builds each mode's matrices once.

Drops run serially; each owns an independent RNG substream keyed by
(seed, drop index), so outputs are bit-identical for a fixed (config, seed)
regardless of execution order.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import queueing
from .channel import (
    MIN_UE_DISTANCE_M,
    ArrayConfig,
    LinkBudget,
    RinrConfig,
    capacity_from_links,
    drop_ues,
    link_states,
)
from .optimizer import (
    InfeasibleDelay,
    NumericalFailure,
    ProblemInstance,
    closed_form_t_star,
    constraint_report,
    min_feasible_delay,
    solve_min_delay_lp,
    solve_utility_max,
)
from .topology import (
    DuplexMode,
    RoutingTree,
    line_network,
    network_matrices,
    tree_from_json,
    two_child_tree,
)


def _require(ok: bool, name: str, value, rule: str) -> None:
    if not ok:
        raise ValueError(f"config field {name} must be {rule}, got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class TopologyConfig:
    kind: str = "line"           # line | two_child | custom
    K: int = 3
    w: int = 1
    spacing_m: float = 200.0
    ue_radius_m: float = 100.0
    tree_json: str | None = None  # path, for kind == "custom"

    def __post_init__(self):
        kinds = ("line", "two_child", "custom")
        _require(self.kind in kinds, "topology.kind", self.kind, f"one of {kinds}")
        _require(_is_int(self.K) and self.K >= 0, "topology.K", self.K, "an integer >= 0")
        _require(_is_int(self.w) and self.w >= 1, "topology.w", self.w, "an integer >= 1")
        # BS-BS and BS-UE distances must stay inside the pathloss model's range
        _require(_is_real(self.spacing_m) and 10.0 <= self.spacing_m <= 5000.0,
                 "topology.spacing_m", self.spacing_m, "a number in [10, 5000] m")
        _require(_is_real(self.ue_radius_m) and MIN_UE_DISTANCE_M < self.ue_radius_m <= 5000.0,
                 "topology.ue_radius_m", self.ue_radius_m,
                 f"a number in ({MIN_UE_DISTANCE_M:g}, 5000] m")
        _require(self.kind != "custom" or bool(self.tree_json), "topology.tree_json",
                 self.tree_json, "a path when topology.kind is 'custom'")


@dataclass(frozen=True)
class ChannelConfig:
    carrier_hz: float = 30e9
    bandwidth_hz: float = 100e6
    n_bs_ant: int = 64
    n_ue_ant: int = 16
    ptx_dbm: float = 30.0
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 10.0

    def __post_init__(self):
        for name in ("carrier_hz", "bandwidth_hz"):
            value = getattr(self, name)
            _require(_is_real(value) and math.isfinite(value) and value > 0,
                     f"channel.{name}", value, "a positive finite number")
        for name in ("n_bs_ant", "n_ue_ant"):
            value = getattr(self, name)
            _require(_is_int(value) and value >= 1, f"channel.{name}", value, "an integer >= 1")
        for name in ("ptx_dbm", "noise_psd_dbm_hz", "noise_figure_db"):
            value = getattr(self, name)
            _require(_is_real(value) and math.isfinite(value), f"channel.{name}", value,
                     "a finite number")


@dataclass(frozen=True)
class QosConfig:
    eta: float = 0.9
    delta_s: float | tuple[float, ...] = 3.5e-3
    lambda_min_pps: float | tuple[float, ...] = 0.0
    packet_bytes: int = 10000

    def __post_init__(self):
        _require(_is_real(self.eta) and 0.0 < self.eta < 1.0, "qos.eta", self.eta,
                 "a number in (0, 1)")
        delta_s = np.atleast_1d(self.delta_s)
        _require(delta_s.size > 0 and all(_is_real(d) and d > 0 for d in delta_s),
                 "qos.delta_s", self.delta_s, "positive numbers, non-empty")
        lambda_min = np.atleast_1d(self.lambda_min_pps)
        _require(lambda_min.size > 0 and all(_is_real(v) and v >= 0 for v in lambda_min),
                 "qos.lambda_min_pps", self.lambda_min_pps, "numbers >= 0, non-empty")
        _require(_is_int(self.packet_bytes) and self.packet_bytes > 0, "qos.packet_bytes",
                 self.packet_bytes, "a positive integer")


@dataclass(frozen=True)
class DuplexConfig:
    modes: tuple[str, ...] = ("hd", "fd")
    rinr_db_sweep: tuple[float, ...] = (-math.inf,)

    def __post_init__(self):
        modes = tuple(m.value for m in DuplexMode)
        _require(len(self.modes) > 0 and all(m in modes for m in self.modes), "duplex.modes",
                 self.modes, f"a non-empty list drawn from {modes}")
        _require(isinstance(self.rinr_db_sweep, tuple) and len(self.rinr_db_sweep) > 0
                 and all(_is_real(x) and (math.isfinite(x) or x == -math.inf)
                         for x in self.rinr_db_sweep),
                 "duplex.rinr_db_sweep", self.rinr_db_sweep,
                 "a non-empty list of finite numbers or '-inf'")


@dataclass(frozen=True)
class McConfig:
    n_drops: int = 20
    seed: int = 0

    def __post_init__(self):
        _require(_is_int(self.n_drops) and self.n_drops >= 0, "mc.n_drops", self.n_drops,
                 "an integer >= 0")
        _require(_is_int(self.seed) and self.seed >= 0, "mc.seed", self.seed, "an integer >= 0")


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "results"


@dataclass(frozen=True)
class ExperimentConfig:
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    qos: QosConfig = field(default_factory=QosConfig)
    duplex: DuplexConfig = field(default_factory=DuplexConfig)
    mc: McConfig = field(default_factory=McConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; an unknown section or field
        raises ValueError naming it (e.g. ``qos.delta``)."""
        sections = {
            "topology": TopologyConfig,
            "channel": ChannelConfig,
            "qos": QosConfig,
            "duplex": DuplexConfig,
            "mc": McConfig,
            "output": OutputConfig,
        }
        for key in d:
            if key not in sections:
                raise ValueError(
                    f"unknown config section {key!r}; expected one of {sorted(sections)}"
                )

        def build(cls, key):
            sub = dict(d.get(key, {}))
            names = {f.name for f in fields(cls)}
            for k in sub:
                if k not in names:
                    raise ValueError(
                        f"unknown config field {key}.{k}; {key} takes {sorted(names)}"
                    )
            for k, v in sub.items():
                if isinstance(v, list):
                    sub[k] = tuple(v)
                elif v == "-inf":
                    sub[k] = -math.inf
            if isinstance(sub.get("rinr_db_sweep"), tuple):
                sub["rinr_db_sweep"] = tuple(
                    -math.inf if x == "-inf" else float(x) if _is_real(x) else x
                    for x in sub["rinr_db_sweep"]
                )
            return cls(**sub)

        return ExperimentConfig(**{key: build(cls, key) for key, cls in sections.items()})


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


@dataclass
class DropResult:
    """One Monte Carlo drop: solutions per (mode, sweep point) plus hop rates."""

    drop: int
    seed: tuple[int, int]
    rows: list[dict]


# ---------------------------------------------------------------------------
# shared plumbing


def base_tree(cfg: ExperimentConfig) -> RoutingTree:
    t = cfg.topology
    if t.kind == "line":
        return line_network(t.K, t.w, t.spacing_m)
    if t.kind == "two_child":
        return two_child_tree(t.w, t.spacing_m)
    if t.kind == "custom":
        with open(t.tree_json) as fh:
            return tree_from_json(fh.read())
    raise ValueError(f"unknown topology kind {t.kind!r}")


def _budget(cfg: ExperimentConfig) -> LinkBudget:
    c = cfg.channel
    return LinkBudget(
        ptx_dbm=c.ptx_dbm,
        bandwidth_hz=c.bandwidth_hz,
        noise_psd_dbm_hz=c.noise_psd_dbm_hz,
        noise_figure_db=c.noise_figure_db,
        carrier_hz=c.carrier_hz,
    )


def _arrays(cfg: ExperimentConfig) -> ArrayConfig:
    return ArrayConfig(n_bs_ant=cfg.channel.n_bs_ant, n_ue_ant=cfg.channel.n_ue_ant)


def _modes(cfg: ExperimentConfig) -> list[DuplexMode]:
    return [DuplexMode(m) for m in cfg.duplex.modes]


def _packet_bits(cfg: ExperimentConfig) -> float:
    return 8.0 * cfg.qos.packet_bytes


def _drop_rng(cfg: ExperimentConfig, drop: int) -> np.random.Generator:
    return np.random.default_rng([cfg.mc.seed, drop])


def _drop_links(cfg: ExperimentConfig, tree: RoutingTree, drop: int):
    rng = _drop_rng(cfg, drop)
    dropped = drop_ues(tree, cfg.topology.ue_radius_m, rng)
    links = link_states(dropped, _budget(cfg), rng, _arrays(cfg))
    return dropped, links


def hop_sum_rates(tree: RoutingTree, lam: np.ndarray) -> dict[int, float]:
    """Sum of solved UE rates grouped by route length (hop index 1..max)."""
    out: dict[int, float] = {}
    for m, ue in enumerate(tree.ue_ids):
        h = tree.hops(ue)
        out[h] = out.get(h, 0.0) + float(lam[m])
    return out


def _capacities(cfg, links, mode: DuplexMode, rinr_db: float) -> np.ndarray:
    return capacity_from_links(
        links, mode, RinrConfig(rinr_db=rinr_db), _budget(cfg), _packet_bits(cfg)
    )


def _solve_utility(cfg, tree, mode, caps, delta_s):
    """(solution or None, status string, the instance solved)."""
    mats = network_matrices(tree, mode, caps)
    inst = ProblemInstance(matrices=mats, eta=cfg.qos.eta, delta_s=delta_s)
    try:
        return solve_utility_max(inst), "optimal", inst
    except InfeasibleDelay:
        return None, "infeasible", inst
    except NumericalFailure as exc:  # recorded, never fatal per drop
        return None, f"error:{exc}", inst


def _gain_cell(num: float | None, den: float | None) -> tuple[str, bool]:
    """(gain string, both_feasible flag); infinite gain is the string 'inf'."""
    if num is None and den is None:
        return "", False
    if den is None or den == 0.0:
        return "inf", False
    if num is None:
        return "0", False
    return f"{num / den:.9g}", True


# ---------------------------------------------------------------------------
# sweeps


def _utility_sweep(cfg: ExperimentConfig, axis: str) -> list[DropResult]:
    """Per-hop sum rates and FD/HD rate gain along one axis, "rinr_db" or
    "delta_s"; the other is held at its first value.

    Per drop, each distinct (mode, capacity vector, delta) is solved once.
    Keying on the capacities rather than on the RINR keeps the channel's rule
    of which edges RINR degrades out of this module.
    """
    rinrs = list(cfg.duplex.rinr_db_sweep)
    deltas = [float(d) for d in np.atleast_1d(cfg.qos.delta_s)]
    if axis == "rinr_db":
        points = [(r, r, deltas[0]) for r in rinrs]
    else:
        points = [(d, rinrs[0], d) for d in deltas]
    hd, fd = DuplexMode.HALF_DUPLEX, DuplexMode.FULL_DUPLEX
    tree0 = base_tree(cfg)
    results = []
    for drop in range(cfg.mc.n_drops):
        tree, links = _drop_links(cfg, tree0, drop)
        solved = {}
        rows = []
        for value, rinr_db, delta in points:
            rates, stats = {}, {}
            for mode in _modes(cfg):
                caps = _capacities(cfg, links, mode, rinr_db)
                key = (mode, caps.tobytes(), delta)
                if key not in solved:
                    solved[key] = _solve_utility(cfg, tree, mode, caps, delta)[:2]
                sol, stats[mode] = solved[key]
                rates[mode] = hop_sum_rates(tree, sol.lam) if sol else {}
            hops = sorted(set().union(*rates.values()) or {1})
            for h in hops:
                gain, both = _gain_cell(
                    rates.get(fd, {}).get(h), rates.get(hd, {}).get(h)
                )
                rows.append(
                    {
                        "drop": drop,
                        axis: value,
                        "hop": h,
                        "sum_rate_hd_pps": rates.get(hd, {}).get(h, ""),
                        "sum_rate_fd_pps": rates.get(fd, {}).get(h, ""),
                        "rate_gain": gain,
                        "both_feasible": both,
                        "status_hd": stats.get(hd, ""),
                        "status_fd": stats.get(fd, ""),
                    }
                )
        results.append(DropResult(drop=drop, seed=(cfg.mc.seed, drop), rows=rows))
    return results


def run_rate_sweep(cfg: ExperimentConfig) -> list[DropResult]:
    """Per-hop sum-rate and FD/HD rate gain versus residual self-interference."""
    return _utility_sweep(cfg, "rinr_db")


def run_delay_sweep(cfg: ExperimentConfig) -> list[DropResult]:
    """Per-hop rate gain versus the delay threshold, on shared drops."""
    return _utility_sweep(cfg, "delta_s")


def run_min_delay_sweep(cfg: ExperimentConfig) -> list[DropResult]:
    """Minimum feasible delay versus the rate floor, LP cross-checked against
    the closed-form row minimum on every row.

    The two agree where the closed form is positive.  Below zero the LP's
    mu >= 0 bounds bind and push its t* under the closed form's, so there
    the check is only that the LP optimum is nonpositive too.
    """
    tree0 = base_tree(cfg)
    lambdas = [float(v) for v in np.atleast_1d(cfg.qos.lambda_min_pps)]
    rinr_db = cfg.duplex.rinr_db_sweep[0]
    results = []
    for drop in range(cfg.mc.n_drops):
        tree, links = _drop_links(cfg, tree0, drop)
        mode_mats = [
            (mode, network_matrices(tree, mode, _capacities(cfg, links, mode, rinr_db)))
            for mode in _modes(cfg)
        ]
        rows = []
        for lam_min in lambdas:
            t_stars: dict[DuplexMode, float] = {}
            for mode, mats in mode_mats:
                t_star = solve_min_delay_lp(mats, lam_min).t_star
                t_cf, k_cf = closed_form_t_star(mats, lam_min)
                rel = abs(t_star - t_cf) / max(abs(t_cf), 1e-300)
                if (rel > 1e-6) if t_cf > 0 else (t_star > 0):
                    raise NumericalFailure(
                        f"LP / closed-form disagreement: {t_star} vs {t_cf}"
                    )
                t_stars[mode] = t_star
                rows.append(
                    {
                        "drop": drop,
                        "lambda_min_pps": lam_min,
                        "mode": mode.value,
                        "t_star": t_star,
                        "delta_star_s": (min_feasible_delay(t_star, cfg.qos.eta)
                                         if t_star > 0 else ""),
                        "feasible": t_star > 0,
                        "bottleneck_bs": k_cf,
                        "closed_form_rel_err": rel,
                    }
                )
            hd = t_stars.get(DuplexMode.HALF_DUPLEX)
            fd = t_stars.get(DuplexMode.FULL_DUPLEX)
            if hd is not None and fd is not None:
                gain, _ = _gain_cell(fd if fd > 0 else None, hd if hd > 0 else None)
                rows.append(
                    {
                        "drop": drop,
                        "lambda_min_pps": lam_min,
                        "mode": "gain",
                        "t_star": "",
                        "delta_star_s": "",
                        "feasible": hd > 0 and fd > 0,
                        "bottleneck_bs": "",
                        "closed_form_rel_err": "",
                        "gain": gain,
                    }
                )
        results.append(DropResult(drop=drop, seed=(cfg.mc.seed, drop), rows=rows))
    return results


def run_queue_validation(cfg: ExperimentConfig, n_packets: int = 100_000) -> dict:
    """Solve one drop in full duplex, simulate the queueing network at the
    solved operating point, and compare empirical delivery probabilities and
    per-queue sojourn CDFs with their analytic forms.

    The mode is the constant FULL_DUPLEX; cfg.duplex.modes is not read.
    """
    if n_packets < 1:
        raise ValueError(f"n_packets must be at least 1, got {n_packets}")
    from scipy.stats import kstest

    mode = DuplexMode.FULL_DUPLEX
    tree0 = base_tree(cfg)
    tree, links = _drop_links(cfg, tree0, 0)
    delta = float(np.atleast_1d(cfg.qos.delta_s)[0])
    rinr_db = cfg.duplex.rinr_db_sweep[0]
    caps = _capacities(cfg, links, mode, rinr_db)
    sol, status, inst = _solve_utility(cfg, tree, mode, caps, delta)
    if sol is None:
        return {"status": status, "mode": mode.value}

    mats = inst.matrices
    sim_rng = np.random.default_rng([cfg.mc.seed, 10_000])
    deliveries = queueing.simulate(mats, sol.lam, sol.mu, n_packets, sim_rng)

    delivery = queueing.delivery_probability(deliveries, mats.num_ue, delta)
    gaps = mats.C * sol.mu - mats.F @ sol.lam
    ks = {}
    for edge, sojourns in queueing.per_queue_sojourns(deliveries, mats).items():
        stat = kstest(sojourns, lambda x, g=gaps[edge]: queueing.sojourn_cdf(g, x)).statistic
        ks[int(edge)] = float(stat)

    return {
        "status": status,
        "mode": mode.value,
        "eta": cfg.qos.eta,
        "delta_s": delta,
        "n_packets": len(deliveries),
        "delivery_probability": [float(p) for p in delivery],
        "ks_distance_per_edge": ks,
        "constraint_report": constraint_report(inst, sol),
    }


# ---------------------------------------------------------------------------
# persistence


def write_rows_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        with open(path, "w", newline="") as fh:
            fh.write("")
        return
    fields = []
    for r in rows:
        for k in r:
            if k not in fields:
                fields.append(k)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _jsonable(obj):
    if isinstance(obj, float) and math.isinf(obj):
        return "-inf" if obj < 0 else "inf"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def save_run(
    cfg: ExperimentConfig,
    name: str,
    results: list[DropResult] | None = None,
    report: dict | None = None,
) -> dict[str, str]:
    """Persist a sweep (CSV) or report (JSON) plus its <name>.run.json
    manifest.

    Returns the paths written, keyed by artifact kind.
    """
    os.makedirs(cfg.output.dir, exist_ok=True)
    paths = {}
    if results is not None:
        rows = [row for r in results for row in r.rows]
        csv_path = os.path.join(cfg.output.dir, f"{name}.csv")
        write_rows_csv(csv_path, rows)
        paths["csv"] = csv_path
    if report is not None:
        rep_path = os.path.join(cfg.output.dir, f"{name}.json")
        with open(rep_path, "w") as fh:
            json.dump(_jsonable(report), fh, indent=2)
        paths["report"] = rep_path
    manifest = {
        "experiment": name,
        "config": _jsonable(asdict(cfg)),
        "seed": cfg.mc.seed,
        "n_drops": cfg.mc.n_drops,
        "artifacts": sorted(paths.values()),
    }
    man_path = os.path.join(cfg.output.dir, f"{name}.run.json")
    with open(man_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    paths["manifest"] = man_path
    return paths
