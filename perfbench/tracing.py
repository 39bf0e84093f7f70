"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the iabnet layers from outside the
program: it replaces the function object in every ``iabnet`` module namespace
that holds it (the defining module, ``iabnet.experiments`` and the package
``__init__``, which import names directly), so calls made through any of those
names are timed. Nothing under ``src/`` changes.

Spans are kept in memory as ``[name, start, end, parent, outcome]`` and written
out once the run ends. ``parent`` is the index of the enclosing span, or -1.
``outcome`` is ``"ok"`` for a normal return, else the exception class name.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs whose calls become spans named "<module>.<function>".
TRACED = (
    ("experiments", "run_rate_sweep"),
    ("experiments", "run_delay_sweep"),
    ("experiments", "run_min_delay_sweep"),
    ("experiments", "run_queue_validation"),
    ("experiments", "save_run"),
    ("optimizer", "solve_utility_max"),
    # Also reached from inside solve_utility_max (its LP pre-check), through
    # the optimizer module's own global name.
    ("optimizer", "solve_min_delay_lp"),
    ("optimizer", "closed_form_t_star"),
    ("channel", "link_states"),
    ("channel", "capacity_from_links"),
    ("topology", "network_matrices"),
    ("queueing", "simulate"),
    ("queueing", "per_queue_sojourns"),
    ("queueing", "delivery_probability"),
)

# run_queue_validation imports kstest from scipy.stats at call time, so the
# attribute on scipy.stats is the one place to wrap it.
KSTEST = ("scipy.stats", "kstest")


class Tracer:
    """Records properly nested spans of one thread of calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, "ok"]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every TRACED function, and scipy.stats.kstest, in place."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items() if n == "iabnet" or n.startswith("iabnet.")]
        for module, func in TRACED:
            original = getattr(sys.modules[f"iabnet.{module}"], func)
            wrapper = self.wrap(f"{module}.{func}", original)
            for ns in namespaces:
                if getattr(ns, func, None) is original:
                    self._patch(ns, func, wrapper)
        stats = sys.modules.get(KSTEST[0])
        if stats is not None:
            self._patch(stats, KSTEST[1], self.wrap("scipy.stats.kstest", getattr(stats, KSTEST[1])))

    def _patch(self, ns, attr, wrapper) -> None:
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, outcome in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "outcome": outcome}) + "\n")


def _quantile_ms(durations: list[float], q: int) -> float:
    """q-th percentile (q in 10..90 by 10) of durations in seconds, as ms."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=10, method="inclusive")[q // 10 - 1] * 1e3


def layer_metrics(spans: list[list], timed_s: float, packets_simulated: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), from one traced run.

    A span's self time is its duration minus its children's durations. The
    runners' self time (``experiments.self_s``) is what the experiments module
    does between the layer calls: drops, row building, the loop over edges
    in run_queue_validation.
    Every metric is emitted on every workload; a layer a workload never calls
    reads 0.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    calls: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    self_by_outcome: dict[tuple[str, str], float] = defaultdict(float)
    outcomes: dict[tuple[str, str], int] = defaultdict(int)
    for i, (name, _, _, _, outcome) in enumerate(spans):
        calls[name].append(dur[i])
        self_s[name] += dur[i] - child[i]
        self_by_outcome[name, outcome] += dur[i] - child[i]
        outcomes[name, outcome] += 1

    util, lp = "optimizer.solve_utility_max", "optimizer.solve_min_delay_lp"
    sim_s = self_s["queueing.simulate"]
    return {
        f"{util}.calls": (len(calls[util]), "count"),
        f"{util}.self_s": (self_s[util], "s"),
        f"{util}.p50_ms": (_quantile_ms(calls[util], 50), "ms"),
        f"{util}.p90_ms": (_quantile_ms(calls[util], 90), "ms"),
        f"{util}.optimal": (outcomes[util, "ok"], "count"),
        f"{util}.infeasible": (outcomes[util, "InfeasibleDelay"], "count"),
        f"{util}.optimal_s": (self_by_outcome[util, "ok"], "s"),
        f"{util}.infeasible_s": (self_by_outcome[util, "InfeasibleDelay"], "s"),
        f"{lp}.calls": (len(calls[lp]), "count"),
        f"{lp}.s": (self_s[lp], "s"),
        f"{lp}.p50_ms": (_quantile_ms(calls[lp], 50), "ms"),
        "optimizer.closed_form_t_star.calls": (len(calls["optimizer.closed_form_t_star"]), "count"),
        "optimizer.closed_form_t_star.s": (self_s["optimizer.closed_form_t_star"], "s"),
        "channel.link_states.calls": (len(calls["channel.link_states"]), "count"),
        "channel.link_states.s": (self_s["channel.link_states"], "s"),
        "channel.capacity_from_links.s": (self_s["channel.capacity_from_links"], "s"),
        "topology.network_matrices.calls": (len(calls["topology.network_matrices"]), "count"),
        "topology.network_matrices.s": (self_s["topology.network_matrices"], "s"),
        "queueing.simulate.s": (sim_s, "s"),
        "queueing.simulate.packets_per_s": (packets_simulated / sim_s if sim_s > 0 else 0.0, "1/s"),
        "queueing.per_queue_sojourns.s": (self_s["queueing.per_queue_sojourns"], "s"),
        "queueing.delivery_probability.s": (self_s["queueing.delivery_probability"], "s"),
        "scipy.stats.kstest.s": (self_s["scipy.stats.kstest"], "s"),
        "experiments.self_s": (
            sum(v for k, v in self_s.items() if k.startswith("experiments.run_")), "s"),
        "experiments.save_run.s": (self_s["experiments.save_run"], "s"),
        "trace.timed_s": (timed_s, "s"),
    }
