"""The array M/M/1 delay law and the event-driven network simulator."""

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iabnet import experiments, queueing
from iabnet.experiments import (
    DuplexConfig,
    ExperimentConfig,
    McConfig,
    QosConfig,
    TopologyConfig,
    run_queue_validation,
)
from iabnet.queueing import (
    Deliveries,
    UnstableQueue,
    delivery_probability,
    per_queue_sojourns,
    route_log_cdf,
    simulate,
    sojourn_cdf,
)
from iabnet.topology import DuplexMode, line_network, network_matrices

HD, FD = DuplexMode.HALF_DUPLEX, DuplexMode.FULL_DUPLEX


def _single_queue_matrices(capacity=1000.0):
    return network_matrices(line_network(0, 1), HD, capacity)


class TestArrayLaw:
    def test_sojourn_cdf_value(self):
        assert sojourn_cdf(100.0, 0.01) == pytest.approx(1 - math.exp(-1.0))

    @given(
        st.floats(1.0, 1e4),
        st.floats(0.0, 0.99),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_sojourn_cdf_monotone_in_delay(self, service, rho, d1, d2):
        gap = service - rho * service
        lo, hi = sorted((d1, d2))
        assert 0.0 <= sojourn_cdf(gap, lo) <= sojourn_cdf(gap, hi) <= 1.0

    def test_route_log_cdf_is_sum_of_hop_logs(self):
        m, lam, mu = _line_1_1_hd()
        gap = m.C * mu - m.F @ lam
        delta = 0.004
        got = route_log_cdf(m, gap, delta)
        assert got.shape == (m.num_ue,)
        for ue, route in enumerate(m.routes):
            hops = [math.log(sojourn_cdf(gap[l], delta / len(route))) for l in route]
            assert got[ue] == pytest.approx(sum(hops), rel=1e-14)
        # the 2-hop UE's route CDF is the product of its per-hop CDFs at delta/2
        assert math.exp(got[1]) == pytest.approx(
            sojourn_cdf(gap[0], delta / 2) * sojourn_cdf(gap[2], delta / 2), rel=1e-12)

    def test_simulated_delivery_meets_route_law(self):
        # 2-hop line: UE 0 on the donor (edge 1), UE 1 behind the relay (edges
        # 0, 2).  h * (worst hop) bounds the end-to-end delay from above, so the
        # law is a lower bound on the empirical delivery probability.
        m, lam, mu = _line_1_1_hd()
        gap = m.C * mu - m.F @ lam
        deliveries = simulate(m, lam, mu, 60_000, np.random.default_rng(14))
        for delta in (4e-3, 1.6e-2, 6e-2):
            empirical = delivery_probability(deliveries, m.num_ue, delta)
            assert np.all(empirical >= np.exp(route_log_cdf(m, gap, delta)) - 0.02)


class TestSimulator:
    def test_mm1_mean_sojourn_moderate_load(self):
        m = _single_queue_matrices()
        deliveries = simulate(m, np.array([500.0]), np.array([1.0]), 100_000,
                              np.random.default_rng(100))
        mean = np.mean(deliveries.total_s)
        assert mean == pytest.approx(1.0 / 500.0, rel=0.02)

    def test_deterministic_under_seed(self):
        m = network_matrices(line_network(1, 1), HD, 2000.0)
        lam = np.array([300.0, 300.0])
        mu = np.array([0.9, 0.4, 0.4])
        a = simulate(m, lam, mu, 5000, np.random.default_rng(9))
        b = simulate(m, lam, mu, 5000, np.random.default_rng(9))
        assert len(a) == len(b) == 4500
        assert np.array_equal(a.ue, b.ue)
        assert np.array_equal(a.sojourns_s, b.sojourns_s)

    def test_split_modes_agree_on_rates(self):
        # destination routing delivers each UE its share of the arrivals
        m = network_matrices(line_network(1, 1), HD, 3000.0)
        lam = np.array([400.0, 200.0])
        mu = np.array([0.9, 0.5, 0.5])
        deliveries = simulate(m, lam, mu, 60_000, np.random.default_rng(10))
        counts = np.bincount(deliveries.ue, minlength=2)
        frac = counts / counts.sum()
        assert frac[0] == pytest.approx(400.0 / 600.0, abs=0.02)

    def test_hop_counts_match_routes(self):
        m = network_matrices(line_network(2, 1), HD, 4000.0)
        lam = np.array([200.0, 200.0, 200.0])
        mu = np.full(m.num_edges, 0.3)
        deliveries = simulate(m, lam, mu, 20_000, np.random.default_rng(11))
        hops = np.array([len(r) for r in m.routes])[deliveries.ue]
        assert deliveries.sojourns_s.shape == (len(deliveries), max(map(len, m.routes)))
        filled = deliveries.sojourns_s > 0
        assert np.array_equal(filled.sum(axis=1), hops)
        assert np.all(filled == (np.arange(filled.shape[1]) < hops[:, None]))

    def test_unstable_operating_point_rejected(self):
        m = _single_queue_matrices(100.0)
        with pytest.raises(UnstableQueue):
            simulate(m, np.array([200.0]), np.array([1.0]), 1000,
                     np.random.default_rng(0))

    def test_delivery_probability_against_analytic_bound(self):
        # single M/M/1: empirical P[D <= delta] should match 1 - exp(-gap*delta)
        m = _single_queue_matrices()
        lam, mu = np.array([600.0]), np.array([1.0])
        deliveries = simulate(m, lam, mu, 80_000, np.random.default_rng(12))
        delta = 0.005
        p = delivery_probability(deliveries, 1, delta)[0]
        assert p == pytest.approx(sojourn_cdf(400.0, delta), abs=0.02)

    def test_per_queue_sojourns_cover_all_edges(self):
        m = network_matrices(line_network(1, 1), HD, 2000.0)
        lam = np.array([300.0, 300.0])
        mu = np.array([0.9, 0.4, 0.4])
        deliveries = simulate(m, lam, mu, 10_000, np.random.default_rng(13))
        per_edge = per_queue_sojourns(deliveries, m)
        assert set(per_edge) == set(range(m.num_edges))
        for v in per_edge.values():
            assert len(v) > 0
            assert np.all(np.asarray(v) > 0)


# ---------------------------------------------------------------------------
# bit-exactness oracle: the earlier dict-and-closure event loop (destination
# routing) with one record per packet, and the per-sample reductions that
# consumed it


@dataclass
class _Sample:
    ue: int
    hop_sojourns_s: list

    @property
    def total_s(self):
        return sum(self.hop_sojourns_s)


def _reference_simulate(matrices, lam, mu, n_packets, rng, warmup_frac=0.1):
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    arrivals = matrices.F @ lam
    service = matrices.C * mu
    if np.any(service - arrivals <= 0):
        bad = int(np.argmin(service - arrivals))
        raise UnstableQueue(
            f"edge {bad}: service {service[bad]:.6g} <= arrival {arrivals[bad]:.6g}"
        )

    E = matrices.num_edges
    routes = matrices.routes
    next_edge = [dict() for _ in range(E)]
    first_edge = [r[0] for r in routes]
    for m, r in enumerate(routes):
        for i, l in enumerate(r[:-1]):
            next_edge[l][m] = r[i + 1]

    total_rate = float(lam.sum())
    if total_rate <= 0:
        raise ValueError("total arrival rate must be positive")
    ue_probs = lam / total_rate

    queue = [[] for _ in range(E)]
    busy = [False] * E

    t = 0.0
    seq = 0
    events = []

    def push(time, kind, payload):
        nonlocal seq
        heapq.heappush(events, (time, seq, kind, payload))
        seq += 1

    def start_service(l, time):
        pkt = queue[l][0]
        busy[l] = True
        svc = rng.exponential(1.0 / service[l])
        push(time + svc, "depart", (l,))

    def enqueue(l, pkt, time):
        pkt["enter"] = time
        queue[l].append(pkt)
        if not busy[l]:
            start_service(l, time)

    delivered = []
    n_target = int(n_packets)

    def inject(time):
        m = int(rng.choice(len(ue_probs), p=ue_probs))
        enqueue(first_edge[m], {"ue": m, "sojourns": []}, time)

    push(rng.exponential(1.0 / total_rate), "arrive", ())

    while events and len(delivered) < n_target:
        t, _, kind, payload = heapq.heappop(events)
        if kind == "arrive":
            inject(t)
            push(t + rng.exponential(1.0 / total_rate), "arrive", ())
        else:
            (l,) = payload
            pkt = queue[l].pop(0)
            busy[l] = False
            pkt["sojourns"].append(t - pkt["enter"])
            if queue[l]:
                start_service(l, t)
            nxt = next_edge[l].get(pkt["ue"])
            if nxt is None:
                delivered.append(_Sample(ue=pkt["ue"], hop_sojourns_s=pkt["sojourns"]))
            else:
                enqueue(nxt, pkt, t)

    n_skip = int(warmup_frac * len(delivered))
    return delivered[n_skip:]


def _reference_delivery_probability(samples, num_ue, delta_s):
    hits = np.zeros(num_ue)
    counts = np.zeros(num_ue)
    for s in samples:
        counts[s.ue] += 1
        if s.total_s <= delta_s:
            hits[s.ue] += 1
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, hits / np.maximum(counts, 1), np.nan)


def _reference_per_queue_sojourns(samples, matrices):
    acc = {}
    for s in samples:
        for hop, soj in zip(matrices.routes[s.ue], s.hop_sojourns_s):
            acc.setdefault(hop, []).append(soj)
    return {l: np.asarray(v) for l, v in acc.items()}


def _as_deliveries(samples, matrices):
    H = max(map(len, matrices.routes))
    sojourns = np.zeros((len(samples), H))
    for i, s in enumerate(samples):
        sojourns[i, :len(s.hop_sojourns_s)] = s.hop_sojourns_s
    return Deliveries(ue=np.array([s.ue for s in samples], dtype=np.int64),
                      sojourns_s=sojourns)


def _single_queue():
    return _single_queue_matrices(), np.array([500.0]), np.array([1.0])


def _line_1_1_hd():
    m = network_matrices(line_network(1, 1), HD, np.array([2500.0, 1800.0, 1200.0]))
    return m, np.array([350.0, 250.0]), np.array([0.45, 0.3, 0.25])


def _line_3_2_fd_solved():
    # the queue-sim benchmark's operating point: line K=3 w=2, FD, drop 0
    cfg = ExperimentConfig(
        topology=TopologyConfig(kind="line", K=3, w=2),
        qos=QosConfig(delta_s=3.5e-3),
        duplex=DuplexConfig(modes=("fd",), rinr_db_sweep=(-math.inf,)),
        mc=McConfig(n_drops=1),
    )
    tree, links = experiments._drop_links(cfg, experiments.base_tree(cfg), 0)
    caps = experiments._capacities(cfg, links, FD, -math.inf)
    sol, status, _ = experiments._solve_utility(cfg, tree, FD, caps, 3.5e-3)
    assert status == "optimal"
    return network_matrices(tree, FD, caps), sol.lam, sol.mu


NETWORKS = {"single-queue": _single_queue, "line-1-1-hd": _line_1_1_hd,
            "line-3-2-fd-solved": _line_3_2_fd_solved}


@pytest.fixture(scope="module", params=[(n, s) for n in NETWORKS for s in (3, 17)],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def oracle_run(request):
    name, seed = request.param
    matrices, lam, mu = NETWORKS[name]()
    rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    samples = _reference_simulate(matrices, lam, mu, 8_000, rng_ref)
    deliveries = simulate(matrices, lam, mu, 8_000, rng_new)
    return matrices, samples, deliveries, rng_ref, rng_new


class TestBitExactOracle:
    def test_same_packets_and_generator_state(self, oracle_run):
        matrices, samples, deliveries, rng_ref, rng_new = oracle_run
        expected = _as_deliveries(samples, matrices)
        assert len(deliveries) == len(samples) == 7_200
        assert np.array_equal(deliveries.ue, expected.ue)
        assert np.array_equal(deliveries.sojourns_s, expected.sojourns_s)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_total_delay_sums_hops_from_the_first(self):
        # off-grid values, where the order of the additions shows in the last bit
        hops = np.random.default_rng(0).exponential(1e-3, size=(5_000, 4))
        hops[::3, 2:] = 0.0
        samples = [_Sample(ue=0, hop_sojourns_s=list(row[row > 0])) for row in hops]
        total = Deliveries(ue=np.zeros(len(hops), dtype=np.int64), sojourns_s=hops).total_s
        assert np.array_equal(total, [s.total_s for s in samples])

    def test_delivery_probability_equals_per_sample_formula(self, oracle_run):
        matrices, samples, deliveries, _, _ = oracle_run
        for delta in (1e-3, 3.5e-3, 1e-2):
            got = delivery_probability(deliveries, matrices.num_ue, delta)
            want = _reference_delivery_probability(samples, matrices.num_ue, delta)
            assert np.array_equal(got, want, equal_nan=True)

    def test_per_queue_sojourns_equal_per_sample_grouping(self, oracle_run):
        matrices, samples, deliveries, _, _ = oracle_run
        got = per_queue_sojourns(deliveries, matrices)
        want = _reference_per_queue_sojourns(samples, matrices)
        assert list(got) == list(want)
        for edge in want:
            assert np.array_equal(got[edge], want[edge])

    def test_undelivered_ue_reads_nan(self):
        m, _, mu = _line_1_1_hd()
        lam = np.array([350.0, 0.0])
        deliveries = simulate(m, lam, mu, 2_000, np.random.default_rng(5))
        samples = _reference_simulate(m, lam, mu, 2_000, np.random.default_rng(5))
        assert np.array_equal(deliveries.ue, _as_deliveries(samples, m).ue)
        got = delivery_probability(deliveries, m.num_ue, 1e-2)
        assert np.isnan(got[1]) and not np.isnan(got[0])
        assert list(per_queue_sojourns(deliveries, m)) == list(_reference_per_queue_sojourns(samples, m))

    def test_queue_validation_report_unchanged(self, monkeypatch):
        cfg = ExperimentConfig(
            topology=TopologyConfig(kind="line", K=1, w=1),
            qos=QosConfig(delta_s=1.0e-3),
            mc=McConfig(n_drops=1, seed=0),
        )
        report = run_queue_validation(cfg, n_packets=20_000)
        monkeypatch.setattr(
            queueing, "simulate",
            lambda m, lam, mu, n, rng: _as_deliveries(_reference_simulate(m, lam, mu, n, rng), m),
        )
        reference = run_queue_validation(cfg, n_packets=20_000)
        assert json.dumps(report) == json.dumps(reference)
