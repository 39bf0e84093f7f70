"""Queueing view of the backhaul tree: independent M/M/1 queues per edge.

The analytic law, in array form: `sojourn_cdf` is the exponential per-hop
sojourn CDF, and `route_log_cdf` sums its log along every route at once,
giving each UE's delivery-probability left-hand side (the product-form CDF of
the scaled worst-hop delay).  The event-driven simulator is the empirical
oracle for both: it returns the delivered packets as arrays (`Deliveries`),
which `delivery_probability` and `per_queue_sojourns` reduce to the per-UE
and per-edge quantities the law predicts.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .topology import NetworkMatrices


class UnstableQueue(ValueError):
    """Service rate does not exceed arrival rate."""


def sojourn_cdf(gap, x):
    """P[sojourn <= x] at an M/M/1 queue whose service rate exceeds its
    arrival rate by gap: the exponential law 1 - exp(-gap * x)."""
    return -np.expm1(-gap * x)


def route_log_cdf(matrices: NetworkMatrices, gap: np.ndarray, delta_s: float) -> np.ndarray:
    """Per UE m, log P[h_m * (worst hop sojourn on route m) <= delta_s].

    The hops are independent M/M/1 queues (Jackson's product form), so this is
    the sum over the route of log sojourn_cdf(gap_v, delta_s / h_m), with gap
    the per-edge service minus arrival rate.  The delivery constraint of UE m
    holds iff it is >= log(eta).
    """
    ue, edge = np.nonzero(matrices.F.T)
    logs = np.log(sojourn_cdf(gap[edge], delta_s / matrices.h[ue]))
    return np.bincount(ue, logs, matrices.num_ue)


# ---------------------------------------------------------------------------
# event-driven simulation

# share of the delivered packets dropped from the front of a simulated run
WARMUP_FRAC = 0.1


@dataclass(frozen=True)
class Deliveries:
    """Delivered packets in order of delivery.

    ue[i] is packet i's destination UE (int64, shape (n,)).  sojourns_s[i, k]
    is its sojourn at hop k of that UE's route (float64, shape (n, H), H the
    longest route); columns past the route's end are 0.
    """

    ue: np.ndarray
    sojourns_s: np.ndarray

    def __len__(self) -> int:
        return len(self.ue)

    @property
    def total_s(self) -> np.ndarray:
        """End-to-end delay per packet, summed hop by hop from the first."""
        total = self.sojourns_s[:, 0].copy()
        for col in self.sojourns_s.T[1:]:
            total += col
        return total


def simulate(
    matrices: NetworkMatrices,
    lam: np.ndarray,
    mu: np.ndarray,
    n_packets: int,
    rng: np.random.Generator,
) -> Deliveries:
    """Simulate the queueing network and return the delivered packets.

    Packets arrive at the donor as one Poisson stream per UE; each queue is
    FIFO with exponential service at rate C_v * mu_v, service times are
    redrawn independently at every hop, and relays forward by the packet's
    destination.  The run stops after n_packets deliveries, and the first
    WARMUP_FRAC of them is dropped.

    Draw order: one exponential(1/sum(lam)) for the first arrival; per
    arrival, one uniform for the UE (searched in the CDF Generator.choice
    builds from lam/sum(lam), so the pick equals choice(p=...)), a service
    draw if the UE's first queue was empty, then the next inter-arrival; per
    departure, a service draw for the next packet in that queue, then one if
    the forwarded packet finds its next queue empty.  Events are ordered by
    (time, push order).  For a given generator state, every validation
    report and criterion 8's values depend on this order and on the float
    operations on times (t + svc, t - enter): changing either changes them.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    arrivals = matrices.F @ lam
    service = matrices.C * mu
    if np.any(service - arrivals <= 0):
        bad = int(np.argmin(service - arrivals))
        raise UnstableQueue(
            f"edge {bad}: service {service[bad]:.6g} <= arrival {arrivals[bad]:.6g}"
        )
    total_rate = float(lam.sum())
    if total_rate <= 0:
        raise ValueError("total arrival rate must be positive")
    cdf = (lam / total_rate).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    inter = 1.0 / total_rate
    scale = [float(1.0 / service[l]) for l in range(matrices.num_edges)]
    routes = matrices.routes
    first_edge = [r[0] for r in routes]
    H = max(map(len, routes))
    pad = [(0.0,) * (H - len(r)) for r in routes]

    heappush, heappop = heapq.heappush, heapq.heappop
    exponential, uniform = rng.exponential, rng.random
    # FIFO queues of packets [ue, enter time, sojourn at hop 0, hop 1, ...];
    # heap entries (time, seq, edge), edge -1 marking the next arrival
    queues = [deque() for _ in range(matrices.num_edges)]
    heap = [(exponential(inter), 0, -1)]
    seq = 1
    ue_out, soj_out = array("q"), array("d")
    n_out, n_target = 0, int(n_packets)

    while n_out < n_target:
        t, _, l = heappop(heap)
        if l < 0:
            m = bisect_right(cdf, uniform())
            l = first_edge[m]
            q = queues[l]
            q.append([m, t])
            if len(q) == 1:
                heappush(heap, (t + exponential(scale[l]), seq, l))
                seq += 1
            heappush(heap, (t + exponential(inter), seq, -1))
            seq += 1
            continue
        q = queues[l]
        pkt = q.popleft()
        pkt.append(t - pkt[1])
        if q:
            heappush(heap, (t + exponential(scale[l]), seq, l))
            seq += 1
        m = pkt[0]
        route = routes[m]
        hop = len(pkt) - 2
        if hop < len(route):
            l = route[hop]
            pkt[1] = t
            q = queues[l]
            q.append(pkt)
            if len(q) == 1:
                heappush(heap, (t + exponential(scale[l]), seq, l))
                seq += 1
        else:
            ue_out.append(m)
            soj_out.extend(pkt[2:])
            soj_out.extend(pad[m])
            n_out += 1

    n_skip = int(WARMUP_FRAC * n_out)
    return Deliveries(
        ue=np.frombuffer(ue_out, dtype=np.int64)[n_skip:].copy(),
        sojourns_s=np.frombuffer(soj_out, dtype=np.float64).reshape(-1, H)[n_skip:].copy(),
    )


def delivery_probability(deliveries: Deliveries, num_ue: int, delta_s: float) -> np.ndarray:
    """Empirical P[total delay <= delta] per UE (NaN for a UE never delivered)."""
    counts = np.bincount(deliveries.ue, minlength=num_ue)
    hits = np.bincount(deliveries.ue[deliveries.total_s <= delta_s], minlength=num_ue)
    return np.where(counts > 0, hits / np.maximum(counts, 1), np.nan)


def per_queue_sojourns(deliveries: Deliveries, matrices: NetworkMatrices) -> dict[int, np.ndarray]:
    """Group hop sojourn times by edge index, each in order of delivery.

    Keys come in order of first use: UEs by first delivery, each route's
    edges from the donor out.
    """
    ue, sojourns = deliveries.ue, deliveries.sojourns_s
    ues, first = np.unique(ue, return_index=True)
    out: dict[int, np.ndarray] = {}
    for m in ues[np.argsort(first)]:
        for l in matrices.routes[m]:
            if l in out:
                continue
            # hop index of edge l on each UE's route, -1 where it is not on it
            hop = np.array([r.index(l) if l in r else -1 for r in matrices.routes])[ue]
            rows = np.flatnonzero(hop >= 0)
            out[l] = sojourns[rows, hop[rows]]
    return out
