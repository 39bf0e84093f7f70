"""Command-line entry point.

Each subcommand is one entry of RUNNERS: a runner from iabnet.experiments
whose output experiments.save_run writes as <name>.csv or <name>.json beside
a <name>.run.json manifest.  A subcommand prints the paths written, except
utility and kmax, which print their report.  All of them accept --config
(JSON, sections topology/channel/qos/duplex/mc/output); --seed, --drops and
--out override the config.  The closed-form line analyses, latency-gain and
kmax, also take the line capacities --ra-pps and --rb-pps, which their
manifests record.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, NamedTuple

from . import experiments
from .experiments import ExperimentConfig, load_config


def _resolved_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, seed=args.seed))
    if args.drops is not None:
        cfg = dataclasses.replace(cfg, mc=dataclasses.replace(cfg.mc, n_drops=args.drops))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output=dataclasses.replace(cfg.output, dir=args.out))
    return cfg


def _line(args) -> dict:
    return {"R_a": args.ra_pps, "R_b": args.rb_pps}


def _packet_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


class Runner(NamedTuple):
    """One subcommand: what it computes, where save_run puts it, what it prints."""

    run: Callable[[ExperimentConfig, argparse.Namespace], dict]  # -> save_run keyword arguments
    name: str                  # artifact name
    prints: str = "paths"      # "paths" written, or the "report"
    indent: int | None = None  # JSON indent of what it prints


RUNNERS = {
    "min-delay": Runner(
        lambda cfg, args: {"results": experiments.run_min_delay_sweep(cfg)}, "min_delay"),
    "rate-sweep": Runner(
        lambda cfg, args: {"results": experiments.run_rate_sweep(cfg)}, "rate_sweep"),
    "delay-sweep": Runner(
        lambda cfg, args: {"results": experiments.run_delay_sweep(cfg)}, "delay_sweep"),
    "validate-queues": Runner(
        lambda cfg, args: {"report": experiments.run_queue_validation(cfg, args.packets)},
        "queue_validation"),
    "utility": Runner(
        lambda cfg, args: {"report": experiments.run_utility(cfg)}, "utility", "report", 2),
    "kmax": Runner(
        lambda cfg, args: {"report": experiments.run_kmax(cfg, **_line(args)),
                           "line": _line(args)},
        "kmax", "report"),
    "latency-gain": Runner(
        lambda cfg, args: {"rows": experiments.run_latency_gain(cfg, **_line(args)),
                           "line": _line(args)},
        "latency_gain"),
}


def build_parser() -> argparse.ArgumentParser:
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
    vq.add_argument("--packets", type=_packet_count, default=100_000)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    runner = RUNNERS[args.command]
    cfg = _resolved_config(args)
    saved = runner.run(cfg, args)
    paths = experiments.save_run(cfg, runner.name, **saved)
    print(json.dumps(paths if runner.prints == "paths" else saved["report"], indent=runner.indent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
