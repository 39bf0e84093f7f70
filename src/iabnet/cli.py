"""Command-line entry point.

Subcommands map one-to-one onto the experiment runners and the closed-form
line-network analyses.  All of them accept --config (JSON, sections topology/
channel/qos/duplex/mc/output); --seed, --drops and --out override the config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import analysis, experiments
from .analysis import InfeasibleTarget, LineNetworkParams
from .experiments import ExperimentConfig, load_config
from .topology import DuplexMode


def _resolved_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, seed=args.seed))
    if args.drops is not None:
        cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, n_drops=args.drops))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output=dataclasses.replace(cfg.output, dir=args.out))
    return cfg


def _line_params(cfg: ExperimentConfig, args) -> LineNetworkParams:
    lam = float(np.atleast_1d(cfg.qos.lambda_min_pps)[0])
    return LineNetworkParams(
        K=max(cfg.topology.K, 1),
        w=cfg.topology.w,
        R_b=args.rb_pps,
        R_a=args.ra_pps,
        lambda_min=lam,
    )


SWEEPS = {
    "min-delay": (experiments.run_min_delay_sweep, "min_delay"),
    "rate-sweep": (experiments.run_rate_sweep, "rate_sweep"),
    "delay-sweep": (experiments.run_delay_sweep, "delay_sweep"),
}


def cmd_sweep(args) -> int:
    cfg = _resolved_config(args)
    runner, name = SWEEPS[args.command]
    paths = experiments.save_run(cfg, name, results=runner(cfg))
    print(json.dumps(paths))
    return 0


def cmd_utility(args) -> int:
    cfg = _resolved_config(args)
    tree, links = experiments._drop_links(cfg, experiments.base_tree(cfg), 0)
    delta = float(np.atleast_1d(cfg.qos.delta_s)[0])
    rinr = cfg.duplex.rinr_db_sweep[0]
    out = {}
    for mode in (DuplexMode(m) for m in cfg.duplex.modes):
        caps = experiments._capacities(cfg, links, mode, rinr)
        sol, status, _ = experiments._solve_utility(cfg, tree, mode, caps, delta)
        out[mode.value] = {"status": status} if sol is None else {
            "status": status,
            "lambda": [float(v) for v in sol.lam],
            "mu": [float(v) for v in sol.mu],
            "objective": sol.objective,
            "kkt_residual": sol.kkt_residual,
        }
    print(json.dumps(out, indent=2))
    return 0


def cmd_kmax(args) -> int:
    cfg = _resolved_config(args)
    params = _line_params(cfg, args)
    delta = float(np.atleast_1d(cfg.qos.delta_s)[0])
    out = {}
    for mode in DuplexMode:
        try:
            out[mode.value] = analysis.k_max(params, delta, cfg.qos.eta, mode)
        except InfeasibleTarget:
            out[mode.value] = "infeasible"
    print(json.dumps(out))
    return 0


def cmd_latency_gain(args) -> int:
    cfg = _resolved_config(args)
    params = _line_params(cfg, args)
    lambdas = [float(v) for v in np.atleast_1d(cfg.qos.lambda_min_pps)]
    delta = float(np.atleast_1d(cfg.qos.delta_s)[0])
    import os

    os.makedirs(cfg.output.dir, exist_ok=True)
    path = os.path.join(cfg.output.dir, "latency_gain.csv")
    analysis.write_line_sweep_csv(path, params, lambdas, delta, cfg.qos.eta)
    print(json.dumps({"csv": path}))
    return 0


def cmd_validate_queues(args) -> int:
    cfg = _resolved_config(args)
    report = experiments.run_queue_validation(cfg, n_packets=args.packets)
    paths = experiments.save_run(cfg, "queue_validation", report=report)
    print(json.dumps(paths))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="iabnet",
        description="Latency-constrained analysis of full-duplex self-backhauled networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, line_rates=False):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--drops", type=int, help="override mc.n_drops")
        p.add_argument("--out", help="override output.dir")
        if line_rates:
            p.add_argument("--ra-pps", type=float, required=True, help="access capacity, packets/s")
            p.add_argument("--rb-pps", type=float, required=True, help="backhaul capacity, packets/s")

    common(sub.add_parser("min-delay", help="minimum feasible delay sweep (LP + closed form)"))
    common(sub.add_parser("utility", help="solve one utility-max instance per duplex mode"))
    common(sub.add_parser("kmax", help="maximum chain depth for the delay target"), line_rates=True)
    common(sub.add_parser("latency-gain", help="closed-form line-network gain sweep"), line_rates=True)
    common(sub.add_parser("rate-sweep", help="rate gain vs residual self-interference"))
    common(sub.add_parser("delay-sweep", help="rate gain vs delay threshold"))
    vq = sub.add_parser("validate-queues", help="simulate a solved operating point")
    common(vq)
    vq.add_argument("--packets", type=int, default=100_000)

    args = parser.parse_args(argv)
    if args.command == "validate-queues" and args.packets < 1:
        vq.error(f"argument --packets: must be at least 1, got {args.packets}")
    handlers = {
        **dict.fromkeys(SWEEPS, cmd_sweep),
        "utility": cmd_utility,
        "kmax": cmd_kmax,
        "latency-gain": cmd_latency_gain,
        "validate-queues": cmd_validate_queues,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
