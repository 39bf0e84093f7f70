"""Min-delay LP, closed-form cross-checks and the utility interior-point solver."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iabnet.optimizer import (
    InfeasibleDelay,
    InfeasibleRate,
    ProblemInstance,
    SolveStatus,
    _LatencyGeometry,
    _ShiftedGeometry,
    _psi,
    closed_form_t_star,
    constraint_report,
    min_feasible_delay,
    solve_min_delay_lp,
    solve_utility_max,
)
from iabnet.queueing import route_log_cdf
from iabnet.topology import DuplexMode, line_network, network_matrices

from conftest import feasible_lambda_upper, random_instance

HD, FD = DuplexMode.HALF_DUPLEX, DuplexMode.FULL_DUPLEX


def _feasible_delta(matrices, eta=0.9, slack=4.0):
    """Delay threshold comfortably inside the delivery-probability region."""
    t0, _ = closed_form_t_star(matrices, 0.0)
    return slack * (-math.log1p(-eta)) / t0


def _per_ue_latency_margin(inst, lam, mu):
    """Reference: min over UEs of the route's psi sum minus log(eta), one UE at a time."""
    m = inst.matrices
    gap = m.C * mu - m.F @ lam
    worst = np.inf
    for mi, route in enumerate(m.routes):
        x = gap[list(route)] * (inst.delta_s / m.h[mi])
        worst = min(worst, float(np.sum(_psi(x)) - math.log(inst.eta)))
    return worst


class TestMinFeasibleDelay:
    def test_value(self):
        assert min_feasible_delay(100.0, 0.9) == pytest.approx(-math.log(0.1) / 100.0)

    def test_infeasible_rate(self):
        with pytest.raises(InfeasibleRate):
            min_feasible_delay(0.0, 0.9)
        with pytest.raises(InfeasibleRate):
            min_feasible_delay(-5.0, 0.9)


class TestMinDelayLp:
    @pytest.mark.parametrize("mode", [HD, FD])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_lp_matches_closed_form(self, mode, seed):
        rng = np.random.default_rng(seed)
        _, m = random_instance(rng, mode)
        lam_min = rng.uniform(0, feasible_lambda_upper(m, 0.9))
        sol = solve_min_delay_lp(ProblemInstance(matrices=m, eta=0.9,
                                                 lambda_min_pps=lam_min))
        t_cf, _ = closed_form_t_star(m, lam_min)
        assert sol.t_star == pytest.approx(t_cf, rel=1e-8)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_pruned_and_unpruned_agree(self, seed):
        rng = np.random.default_rng(seed)
        _, m = random_instance(rng, HD)
        inst = ProblemInstance(matrices=m, eta=0.9, lambda_min_pps=5.0)
        a = solve_min_delay_lp(inst, prune=True)
        b = solve_min_delay_lp(inst, prune=False)
        assert a.t_star == pytest.approx(b.t_star, rel=1e-8)

    def test_infeasible_rate_flagged(self):
        m = network_matrices(line_network(1, 1), HD, 100.0)
        lam_min = 2 * feasible_lambda_upper(m)
        sol = solve_min_delay_lp(ProblemInstance(matrices=m, eta=0.9,
                                                 lambda_min_pps=lam_min))
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.t_star <= 0

    def test_delta_star_reported(self):
        m = network_matrices(line_network(1, 1), HD, 1000.0)
        sol = solve_min_delay_lp(ProblemInstance(matrices=m, eta=0.9,
                                                 lambda_min_pps=10.0))
        assert sol.delta_star_s == pytest.approx(
            -math.log(0.1) / sol.t_star
        )

    def test_solution_json_round_trip(self):
        m = network_matrices(line_network(1, 1), HD, 1000.0)
        sol = solve_min_delay_lp(ProblemInstance(matrices=m, eta=0.9,
                                                 lambda_min_pps=10.0))
        d = json.loads(sol.to_json())
        assert d["status"] == "optimal"
        assert len(d["mu"]) == m.num_edges


class TestUtilityMax:
    def test_single_ue_analytic_optimum(self):
        # donor -> one UE: schedule the whole slot, push lambda until the
        # delivery constraint binds: lambda* = c - zeta
        c = 2000.0
        m = network_matrices(line_network(0, 1), HD, c)
        delta = 0.01
        zeta = -math.log(0.1) / delta
        sol = solve_utility_max(ProblemInstance(matrices=m, eta=0.9, delta_s=delta))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.lam[0] == pytest.approx(c - zeta, rel=1e-4)

    @pytest.mark.parametrize("mode,seed", [(HD, 50), (FD, 51), (HD, 52), (FD, 53)])
    def test_certificate_on_random_instances(self, mode, seed):
        rng = np.random.default_rng(seed)
        _, m = random_instance(rng, mode)
        inst = ProblemInstance(matrices=m, eta=0.9, delta_s=_feasible_delta(m))
        sol = solve_utility_max(inst)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.kkt_residual <= 1e-6 * max(abs(sol.objective), 1e-3)
        rep = constraint_report(inst, sol)
        assert rep["scheduling"] <= 1e-8
        assert rep["mu_upper"] <= 1e-8
        assert rep["mu_lower"] >= -1e-8
        assert rep["stability_gap"] > 0
        assert rep["latency_margin"] >= -1e-8
        # routes here have at most 5 hops; np.sum adds fewer than 8 terms in
        # order, so the array law must reproduce the per-UE loop bit for bit
        assert rep["latency_margin"] == _per_ue_latency_margin(inst, sol.lam, sol.mu)

    def test_tight_delay_is_infeasible(self):
        m = network_matrices(line_network(3, 1), HD, 3000.0)
        t0, _ = closed_form_t_star(m, 0.0)
        delta_star = -math.log(0.1) / t0
        with pytest.raises(InfeasibleDelay):
            solve_utility_max(
                ProblemInstance(matrices=m, eta=0.9, delta_s=0.99 * delta_star)
            )

    def test_more_capacity_more_utility(self):
        m1 = network_matrices(line_network(1, 1), HD, 2000.0)
        m2 = network_matrices(line_network(1, 1), HD, 4000.0)
        delta = _feasible_delta(m1)
        s1 = solve_utility_max(ProblemInstance(matrices=m1, eta=0.9, delta_s=delta))
        s2 = solve_utility_max(ProblemInstance(matrices=m2, eta=0.9, delta_s=delta))
        assert s2.objective > s1.objective

    def test_fd_dominates_hd_objective(self):
        caps = 3000.0
        delta = None
        for mode in (HD, FD):
            m = network_matrices(line_network(2, 1), mode, caps)
            if delta is None:
                delta = _feasible_delta(m)  # HD is tighter; reuse for both
            sol = solve_utility_max(ProblemInstance(matrices=m, eta=0.9, delta_s=delta))
            if mode is HD:
                obj_hd = sol.objective
            else:
                assert sol.objective >= obj_hd - 1e-9


def _geometry_point(rng, m, x_lo=1e-3, x_hi=1e3):
    """(delta, z, log_eta) with delta = 1: log-uniform edge gaps, two of
    them pinned so that the pair arguments x = gap/h_m reach x_lo and x_hi;
    log(eta) sits one below the smallest route sum, so every margin g_m is
    at least 1."""
    M, E = m.num_ue, m.num_edges
    lam = rng.uniform(1.0, 100.0, M)
    gap = 10.0 ** rng.uniform(math.log10(x_lo), math.log10(x_hi), E)
    gap[rng.permutation(E)[:2]] = (x_lo, x_hi * m.h.max())[: min(E, 2)]
    mu = (m.F @ lam + gap) / m.C
    z = np.concatenate((lam, mu))
    psi_sums = [np.sum(_psi(gap[list(r)] / m.h[i])) for i, r in enumerate(m.routes)]
    return 1.0, z, min(psi_sums) - 1.0


def _dense_oracle(m, delta, z, log_eta):
    """The per-pair formulation: x = A z with one row per (UE, route edge)
    pair, and the route selector S; returns (g, grad, H, Jg)."""
    M, E = m.num_ue, m.num_edges
    pairs = [(mi, v) for mi in range(M) for v in m.routes[mi]]
    A = np.zeros((len(pairs), M + E))
    S = np.zeros((M, len(pairs)))
    for p, (mi, v) in enumerate(pairs):
        scale = delta / m.h[mi]
        A[p, M + v] = m.C[v] * scale
        A[p, :M] -= m.F[v] * scale
        S[mi, p] = 1.0
    x = A @ z
    g = S @ _psi(x) - log_eta
    # psi' and psi'' in their expm1(x) forms, switched to the exp(-x)
    # asymptote above x = 30 where expm1(x) would overflow
    e = np.exp(-x)
    w1, w2 = e.copy(), -e
    small = x <= 30.0
    em = np.expm1(x[small])
    w1[small] = 1.0 / em
    w2[small] = -(em + 1.0) / em**2
    Jg = S @ (w1[:, None] * A)
    Js = Jg / g[:, None]
    pair_ue = np.array([mi for mi, _ in pairs])
    H = Js.T @ Js - A.T @ ((w2 / g[pair_ue])[:, None] * A)
    return g, -Js.sum(axis=0), H, Jg


class TestLatencyGeometry:
    @pytest.mark.parametrize("mode", [HD, FD])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_pair_oracle(self, mode, seed):
        rng = np.random.default_rng(300 + seed)
        _, m = random_instance(rng, mode)
        delta, z, log_eta = _geometry_point(rng, m)
        want_g, want_grad, want_H, want_Jg = _dense_oracle(m, delta, z, log_eta)
        geom = _LatencyGeometry(m, delta)
        with np.errstate(over="raise", invalid="raise"):
            g, x = geom.eval(z, log_eta)
            grad, H, Jg = geom.grad_hess_barrier(z, g, x)
        assert x.min() <= 1.0001e-3 and x.max() >= 0.9999e3
        np.testing.assert_allclose(g, want_g, rtol=1e-10)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-10)
        np.testing.assert_allclose(H, want_H, rtol=1e-10)
        np.testing.assert_allclose(Jg, want_Jg, rtol=1e-10)

    @pytest.mark.parametrize("mode", [HD, FD])
    @pytest.mark.parametrize("seed", range(6))
    def test_constraint_values_equal_route_law(self, mode, seed):
        # the solver's z-space constraint and the queueing law in gap space
        # agree at interior points: route arguments x = gap * delta / h_m in
        # [0.05, 3 * h_tilde / h_m], so no value is near 0 or cancels
        rng = np.random.default_rng(500 + seed)
        _, m = random_instance(rng, mode)
        delta, log_eta = 0.01, math.log(0.9)
        lam = rng.uniform(1.0, 100.0, m.num_ue)
        gap = 10.0 ** rng.uniform(math.log10(0.05), math.log10(3.0), m.num_edges) * m.h_tilde / delta
        mu = (m.F @ lam + gap) / m.C
        g, _ = _LatencyGeometry(m, delta).eval(np.concatenate((lam, mu)), log_eta)
        gap = m.C * mu - m.F @ lam
        law = route_log_cdf(m, gap, delta)
        np.testing.assert_allclose(g + log_eta, law, rtol=1e-12)
        # and bit for bit the per-UE sums the latency margin was computed from
        want = [np.sum(_psi(gap[list(r)] * (delta / m.h[i]))) for i, r in enumerate(m.routes)]
        assert np.array_equal(law, want)

    def test_nonpositive_gap_rejected(self):
        m = network_matrices(line_network(1, 1), HD, 1000.0)
        geom = _LatencyGeometry(m, 0.01)
        z = np.concatenate((np.full(m.num_ue, 100.0), np.full(m.num_edges, 0.05)))
        g, x = geom.eval(z, math.log(0.9))
        assert g is None and np.any(x <= 0)

    @pytest.mark.parametrize("mode", [HD, FD])
    @pytest.mark.parametrize("seed", range(3))
    def test_shifted_geometry_matches_finite_differences(self, mode, seed):
        rng = np.random.default_rng(400 + seed)
        _, m = random_instance(rng, mode)
        delta, z, log_eta = _geometry_point(rng, m, x_lo=0.05, x_hi=5.0)
        sg = _ShiftedGeometry(_LatencyGeometry(m, delta))
        ze = np.concatenate((z, [0.5]))  # margins u_m = g_m - s >= 0.5

        def phi(v):
            u, _ = sg.eval(v, log_eta)
            return -np.sum(np.log(u))

        def grad_hess(v):
            u, x = sg.eval(v, log_eta)
            ge, He, _ = sg.grad_hess_barrier(v, u, x)
            return ge, He

        with np.errstate(over="raise", invalid="raise"):
            ge, He = grad_hess(ze)
            for i in range(ze.size):
                h = 1e-6 * max(abs(ze[i]), 1e-3)
                up, dn = ze.copy(), ze.copy()
                up[i] += h
                dn[i] -= h
                fd_grad = (phi(up) - phi(dn)) / (2 * h)
                fd_col = (grad_hess(up)[0] - grad_hess(dn)[0]) / (2 * h)
                assert ge[i] == pytest.approx(fd_grad, rel=1e-5, abs=1e-8)
                # column i holds the cross term d^2 phi / dz_i ds in its last row
                np.testing.assert_allclose(He[:, i], fd_col, rtol=1e-4,
                                           atol=1e-6 * np.abs(He).max())
