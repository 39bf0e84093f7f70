"""Min-delay LP, closed-form cross-checks and the utility interior-point solver."""

import functools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from iabnet import optimizer
from iabnet.experiments import (
    ExperimentConfig,
    _capacities,
    _drop_links,
    base_tree,
    load_config,
)
from iabnet.optimizer import (
    LAMBDA_FLOOR,
    InfeasibleDelay,
    InfeasibleRate,
    NumericalFailure,
    ProblemInstance,
    _GeometryStack,
    _LatencyGeometry,
    _ShiftedGeometry,
    _psi,
    _solve_pd,
    closed_form_t_star,
    constraint_report,
    min_feasible_delay,
    solve_min_delay_lp,
    solve_utility_batch,
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


def _lp_oracle(m, lam_min, prune):
    """The min-delay LP built one row at a time: (t*, clipped mu, worst
    constraint violation).  Scheduling rows [0, G_k] <= 1, then rate-gap rows
    t*h - c_v mu_v <= -lam_min*(F 1)_v: one per edge with h = h~_v when
    pruned, else one per (UE, route edge) pair with h = h_m."""
    E, M = m.num_edges, m.num_ue
    load = m.F @ np.full(M, lam_min)
    rows, rhs = [], []
    for k in range(m.G.shape[0]):
        rows.append(np.concatenate(([0.0], m.G[k])))
        rhs.append(1.0)
    if prune:
        pairs = [(int(m.h_tilde[v]), v) for v in range(E)]
    else:
        pairs = [(int(m.h[mi]), v) for mi in range(M) for v in m.routes[mi]]
    for h, v in pairs:
        row = np.zeros(1 + E)
        row[0] = h
        row[1 + v] = -m.C[v]
        rows.append(row)
        rhs.append(-load[v])
    res = linprog(
        c=np.concatenate(([-1.0], np.zeros(E))),
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(None, None)] + [(0.0, 1.0)] * E,
        method="highs",
    )
    assert res.success
    residual = float(np.max(np.maximum(np.array(rows) @ res.x - np.array(rhs), 0.0)))
    return float(res.x[0]), np.clip(res.x[1:], 0.0, 1.0), residual


def _random_lp_instance(mode, seed):
    rng = np.random.default_rng(seed)
    _, m = random_instance(rng, mode)
    return m, rng.uniform(0, feasible_lambda_upper(m, 0.9))


@functools.cache
def _line_drop_matrices(K, w, rinr_db, mode):
    """Network matrices of drop 0 (seed 0) of a line K x w deployment."""
    cfg = ExperimentConfig.from_dict({"topology": {"kind": "line", "K": K, "w": w},
                                      "duplex": {"rinr_db_sweep": [rinr_db]}})
    tree, links = _drop_links(cfg, base_tree(cfg), 0)
    return network_matrices(tree, mode, _capacities(cfg, links, mode, rinr_db))


def _patch_highs(monkeypatch, status=None, perturb=None):
    """Make the LP's HiGHS solver report the given model status, or return
    its point after perturb(x) edits it in place."""
    real = optimizer._Highs

    class Patched:
        def __init__(self):
            self._highs = real()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def getModelStatus(self):
            return self._highs.getModelStatus() if status is None else status

        def getSolution(self):
            x = list(self._highs.getSolution().col_value)
            perturb(x)
            return SimpleNamespace(col_value=x)

    monkeypatch.setattr(optimizer, "_Highs", Patched)


class TestMinDelayLp:
    @pytest.mark.parametrize("mode", [HD, FD])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_lp_matches_closed_form(self, mode, seed):
        m, lam_min = _random_lp_instance(mode, seed)
        sol = solve_min_delay_lp(m, lam_min)
        t_cf, _ = closed_form_t_star(m, lam_min)
        assert sol.t_star == pytest.approx(t_cf, rel=1e-8)

    @pytest.mark.parametrize("mode", [HD, FD])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_lp_equals_row_by_row_oracle(self, mode, seed):
        # the block-built matrix is the oracle's, byte for byte, so HiGHS
        # returns the same point
        m, lam_min = _random_lp_instance(mode, seed)
        sol = solve_min_delay_lp(m, lam_min)
        t_star, mu, residual = _lp_oracle(m, lam_min, prune=True)
        assert sol.t_star == t_star
        assert sol.mu.tobytes() == mu.tobytes()
        assert sol.residual == residual

    @pytest.mark.parametrize("mode", [HD, FD])
    @pytest.mark.parametrize("K, w, rinr_db", [(3, 2, -15.0), (8, 20, -10.0)])
    @pytest.mark.parametrize("floor", ["zero", "lambda_floor", "supportable", "unsupportable"])
    def test_benchmark_drops_equal_linprog(self, mode, K, w, rinr_db, floor):
        # the direct HiGHS call must return linprog(method="highs")'s bytes on
        # the benchmark's line shapes, across the sign of t*
        m = _line_drop_matrices(K, w, rinr_db, mode)
        lam_min = {"zero": 0.0, "lambda_floor": LAMBDA_FLOOR,
                   "supportable": feasible_lambda_upper(m, 0.5),
                   "unsupportable": feasible_lambda_upper(m, 2.0)}[floor]
        sol = solve_min_delay_lp(m, lam_min)
        t_star, mu, residual = _lp_oracle(m, lam_min, prune=True)
        assert (sol.t_star > 0) is (floor != "unsupportable")
        assert np.float64(sol.t_star).tobytes() == np.float64(t_star).tobytes()
        assert sol.mu.tobytes() == mu.tobytes()
        assert np.float64(sol.residual).tobytes() == np.float64(residual).tobytes()

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_pruned_and_unpruned_agree(self, seed):
        rng = np.random.default_rng(seed)
        _, m = random_instance(rng, HD)
        a = solve_min_delay_lp(m, 5.0)
        t_star, _, _ = _lp_oracle(m, 5.0, prune=False)
        assert a.t_star == pytest.approx(t_star, rel=1e-8)

    def test_infeasible_rate_flagged(self):
        m = network_matrices(line_network(1, 1), HD, 100.0)
        lam_min = 2 * feasible_lambda_upper(m)
        sol = solve_min_delay_lp(m, lam_min)
        t_cf, _ = closed_form_t_star(m, lam_min)
        assert sol.t_star <= 0 and t_cf <= 0

    def test_non_optimal_model_status_is_a_numerical_failure(self, monkeypatch):
        m = network_matrices(line_network(1, 1), HD, 1000.0)
        _patch_highs(monkeypatch, status=optimizer.HighsModelStatus.kInfeasible)
        with pytest.raises(NumericalFailure, match="model status is Infeasible"):
            solve_min_delay_lp(m, 10.0)

    @pytest.mark.parametrize("shift, fails", [(1.0, True), (1e-5, False)])
    def test_row_violation_beyond_tolerance_is_a_numerical_failure(self, monkeypatch,
                                                                  shift, fails):
        # raising t by shift violates the rate-gap rows by up to 2 * shift
        # (h~ = 2 on this line); linprog tolerates up to sqrt(1e-9) * 10
        m = network_matrices(line_network(1, 1), HD, 1000.0)
        exact = solve_min_delay_lp(m, 10.0)

        def raise_t(x):
            x[0] += shift

        _patch_highs(monkeypatch, perturb=raise_t)
        if fails:
            with pytest.raises(NumericalFailure, match="violates a bound or row"):
                solve_min_delay_lp(m, 10.0)
        else:
            sol = solve_min_delay_lp(m, 10.0)
            assert sol.t_star == exact.t_star + shift
            assert sol.residual == pytest.approx(2 * shift, rel=1e-6)

    def test_nan_point_is_a_numerical_failure(self, monkeypatch):
        m = network_matrices(line_network(1, 1), HD, 1000.0)

        def nan_mu(x):
            x[1] = math.nan

        _patch_highs(monkeypatch, perturb=nan_mu)
        with pytest.raises(NumericalFailure, match="violates a bound or row"):
            solve_min_delay_lp(m, 10.0)

    def test_delta_star_reported(self):
        m = network_matrices(line_network(1, 1), HD, 1000.0)
        sol = solve_min_delay_lp(m, 10.0)
        t_cf, _ = closed_form_t_star(m, 10.0)
        assert min_feasible_delay(sol.t_star, 0.9) == pytest.approx(
            -math.log(0.1) / t_cf, rel=1e-8
        )


class TestUtilityMax:
    def test_single_ue_analytic_optimum(self):
        # donor -> one UE: schedule the whole slot, push lambda until the
        # delivery constraint binds: lambda* = c - zeta
        c = 2000.0
        m = network_matrices(line_network(0, 1), HD, c)
        delta = 0.01
        zeta = -math.log(0.1) / delta
        sol = solve_utility_max(ProblemInstance(matrices=m, eta=0.9, delta_s=delta))
        assert sol.lam[0] == pytest.approx(c - zeta, rel=1e-4)

    @pytest.mark.parametrize("mode,seed", [(HD, 50), (FD, 51), (HD, 52), (FD, 53)])
    def test_certificate_on_random_instances(self, mode, seed):
        rng = np.random.default_rng(seed)
        _, m = random_instance(rng, mode)
        inst = ProblemInstance(matrices=m, eta=0.9, delta_s=_feasible_delta(m))
        sol = solve_utility_max(inst)
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

    def test_phase_one_non_convergence_is_a_numerical_failure(self, monkeypatch):
        # a phase-one centering that stalls says nothing about feasibility
        inner = optimizer._newton_barrier

        def stalled(barrier, z0, t_bar, gtol=0.0):
            if barrier.phase_one:
                return z0.copy(), False
            return (yield from inner(barrier, z0, t_bar, gtol))

        monkeypatch.setattr(optimizer, "_newton_barrier", stalled)
        # this point needs phase one (TestPinnedSolves)
        with pytest.raises(NumericalFailure, match="phase-one Newton did not converge at t = 1"):
            solve_utility_max(_config_point("rate-sweep", 16, HD, -20.0))

    def test_uncertified_solve_is_a_numerical_failure(self, monkeypatch):
        m = network_matrices(line_network(1, 1), HD, 2000.0)
        inst = ProblemInstance(matrices=m, eta=0.9, delta_s=_feasible_delta(m))
        solve_utility_max(inst)  # certified without the patch
        monkeypatch.setattr(optimizer._BarrierStack, "kkt_residual",
                            lambda self, Z, X, S, T: np.ones(len(Z)))
        with pytest.raises(NumericalFailure, match="could not certify"):
            solve_utility_max(inst)


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


def _one(m, delta, log_eta):
    """The geometry of one problem, as a stack of one."""
    return _GeometryStack([_LatencyGeometry(m, delta, log_eta)])


class TestLatencyGeometry:
    @pytest.mark.parametrize("mode", [HD, FD])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_pair_oracle(self, mode, seed):
        rng = np.random.default_rng(300 + seed)
        _, m = random_instance(rng, mode)
        delta, z, log_eta = _geometry_point(rng, m)
        want_g, want_grad, want_H, want_Jg = _dense_oracle(m, delta, z, log_eta)
        geom = _one(m, delta, log_eta)
        with np.errstate(over="raise", invalid="raise"):
            (g,), (x,), (ok,) = geom.eval(z[None])
            (grad,), (H,), (Jg,) = geom.grad_hess_barrier(z[None], g[None], x[None])
        assert ok and x.min() <= 1.0001e-3 and x.max() >= 0.9999e3
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
        (g,), _, _ = _one(m, delta, log_eta).eval(np.concatenate((lam, mu))[None])
        gap = m.C * mu - m.F @ lam
        law = route_log_cdf(m, gap, delta)
        np.testing.assert_allclose(g + log_eta, law, rtol=1e-12)
        # and bit for bit the per-UE sums the latency margin was computed from
        want = [np.sum(_psi(gap[list(r)] * (delta / m.h[i]))) for i, r in enumerate(m.routes)]
        assert np.array_equal(law, want)

    def test_nonpositive_gap_rejected(self):
        m = network_matrices(line_network(1, 1), HD, 1000.0)
        geom = _one(m, 0.01, math.log(0.9))
        z = np.concatenate((np.full(m.num_ue, 100.0), np.full(m.num_edges, 0.05)))
        _, (x,), (ok,) = geom.eval(z[None])
        assert not ok and np.any(x <= 0)
        assert optimizer._margins(geom, z[None]) == [None]

    def test_stacked_rows_equal_single_rows(self):
        # one stacked evaluation of several problems of one layout gives
        # each problem the bytes it gets alone
        rng = np.random.default_rng(450)
        tree = line_network(3, 2)
        probs = []
        for _ in range(5):
            m = network_matrices(tree, FD, 10.0 ** rng.uniform(2.0, 4.0, tree.num_edges))
            probs.append((m, *_geometry_point(rng, m)))
        stack = _GeometryStack([_LatencyGeometry(m, d, le) for m, d, _, le in probs])
        Z = np.stack([z for _, _, z, _ in probs])
        G, X, ok = stack.eval(Z)
        grad, H, Jg = stack.grad_hess_barrier(Z, G, X)
        for i, (m, delta, z, log_eta) in enumerate(probs):
            one = _one(m, delta, log_eta)
            g1, x1, _ = one.eval(z[None])
            for got, want in zip((G[i], X[i], grad[i], H[i], Jg[i]),
                                 (g1, x1, *one.grad_hess_barrier(z[None], g1, x1))):
                assert got.tobytes() == want.tobytes()
        assert ok.all()

    @pytest.mark.parametrize("mode", [HD, FD])
    @pytest.mark.parametrize("seed", range(3))
    def test_shifted_geometry_matches_finite_differences(self, mode, seed):
        rng = np.random.default_rng(400 + seed)
        _, m = random_instance(rng, mode)
        delta, z, log_eta = _geometry_point(rng, m, x_lo=0.05, x_hi=5.0)
        sg = _ShiftedGeometry(_one(m, delta, log_eta))
        ze = np.concatenate((z, [0.5]))  # margins u_m = g_m - s >= 0.5

        def phi(v):
            (u,), _, _ = sg.eval(v[None])
            return -np.sum(np.log(u))

        def grad_hess(v):
            u, x, _ = sg.eval(v[None])
            (ge,), (He,), _ = sg.grad_hess_barrier(v[None], u, x)
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

    @pytest.mark.parametrize("mode", [HD, FD])
    @pytest.mark.parametrize("seed", range(4))
    def test_grad_barrier_equals_full_assembly_gradient(self, mode, seed):
        rng = np.random.default_rng(600 + seed)
        _, m = random_instance(rng, mode)
        delta, z, log_eta = _geometry_point(rng, m)
        geom = _one(m, delta, log_eta)
        g, x, _ = geom.eval(z[None])
        assert np.array_equal(geom.grad_barrier(z[None], g, x),
                              geom.grad_hess_barrier(z[None], g, x)[0])
        sg = _ShiftedGeometry(geom)
        ze = np.concatenate((z, [0.5]))[None]
        u, x, _ = sg.eval(ze)
        assert np.array_equal(sg.grad_barrier(ze, u, x), sg.grad_hess_barrier(ze, u, x)[0])


def _solve_pd_cho(H, rhs):
    """Oracle: _solve_pd as written on scipy's cho_factor/cho_solve wrappers,
    which call the same LAPACK routines with the same arguments."""
    from scipy.linalg import cho_factor, cho_solve

    jitter = 0.0
    scale = np.abs(H.diagonal()).max()
    for _ in range(12):
        try:
            factor = cho_factor(H + jitter * np.eye(H.shape[0]) if jitter else H)
            return cho_solve(factor, rhs)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14 * scale)
    raise NumericalFailure("Hessian factorization failed")


class TestSolvePd:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_cho_oracle_on_random_spd(self, seed):
        rng = np.random.default_rng(700 + seed)
        d = int(rng.integers(1, 60))
        X = rng.standard_normal((d, d))
        # barrier Hessians are symmetric only up to round-off
        H = X @ X.T + rng.uniform(1e-3, 1.0) * np.eye(d) + 1e-15 * rng.standard_normal((d, d))
        rhs = rng.standard_normal(d)
        assert np.array_equal(_solve_pd(H, rhs), _solve_pd_cho(H, rhs))

    def test_equals_cho_oracle_when_jitter_is_needed(self):
        rng = np.random.default_rng(710)
        X = rng.standard_normal((20, 17))
        H = X @ X.T - 1e-10 * np.eye(20)  # three eigenvalues at -1e-10
        rhs = rng.standard_normal(20)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(H)
        assert np.array_equal(_solve_pd(H, rhs), _solve_pd_cho(H, rhs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_system_is_a_numerical_failure(self, bad):
        H, rhs = np.eye(4), np.ones(4)
        H_bad = H.copy()
        H_bad[1, 2] = bad
        with pytest.raises(NumericalFailure):
            _solve_pd(H_bad, rhs)
        rhs_bad = rhs.copy()
        rhs_bad[3] = bad
        with pytest.raises(NumericalFailure):
            _solve_pd(H, rhs_bad)


def _config_point(name, drop, mode, value):
    """The utility problem of one point of configs/<name>.json, where value
    is the swept RINR (dB) of rate-sweep or the swept delta (s) of
    delay-sweep; the other sweeps at its config's first value."""
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"))
    rinr_db, delta = ((value, cfg.qos.delta_s) if name == "rate-sweep"
                      else (cfg.duplex.rinr_db_sweep[0], value))
    tree, links = _drop_links(cfg, base_tree(cfg), drop)
    caps = _capacities(cfg, links, mode, rinr_db)
    return ProblemInstance(matrices=network_matrices(tree, mode, caps), eta=cfg.qos.eta,
                           delta_s=delta)


@pytest.fixture
def linear_solves(monkeypatch):
    """Counts the Newton linear solves of the solver."""
    count = [0]
    inner = optimizer._solve_pd

    def counted(H, rhs):
        count[0] += 1
        return inner(H, rhs)

    monkeypatch.setattr(optimizer, "_solve_pd", counted)
    return count


class TestPinnedSolves:
    """Floats and Newton linear-solve counts of full utility solves, pinned
    bit for bit.  Recorded with numpy 2.4.6 and OpenBLAS 0.3.31 (scipy 1.17.1)
    on the solver before its Newton loop was rewritten for speed; the rewrite
    must keep every float operation, so these must not move.  Another BLAS
    build may round differently and fail them without a solver fault.
    """

    @pytest.mark.parametrize(
        "drop, mode, rinr_db, objective, kkt, solves",
        [
            # phase one runs before the barrier loop
            (16, HD, -20.0, 25.402695682574425, 2.4905147455456245e-07, 99),
            (4, FD, 10.0, 22.667472506939514, 4.77891816075271e-06, 111),
            # interior start found directly
            (0, FD, -20.0, 29.2352549659211, 1.198070540553431e-07, 46),
        ],
    )
    def test_optimal_solve_floats_and_steps(self, linear_solves, drop, mode, rinr_db,
                                            objective, kkt, solves):
        sol = solve_utility_max(_config_point("rate-sweep", drop, mode, rinr_db))
        assert sol.objective == objective
        assert sol.kkt_residual == kkt
        assert linear_solves[0] == solves

    @pytest.mark.parametrize(
        "config, drop, mode, value, objective, kkt, solves",
        [
            # after phase one, center fails at t = 3.2e6 at bisection depths
            # 0 to 2, then recovers: the only configs/ solve that bisects
            ("delay-sweep", 3, HD, 2.5e-3, 19.328792529091096, 4.647459121542852e-06, 145),
            # no start candidate reaches a margin of 1e-3, so the solve starts
            # from the best one: the only configs/ solve that does
            ("rate-sweep", 1, FD, 10.0, 24.154115921761907, 4.72052557043412e-07, 66),
        ],
    )
    def test_config_solve_floats_and_steps(self, linear_solves, config, drop, mode, value,
                                           objective, kkt, solves):
        sol = solve_utility_max(_config_point(config, drop, mode, value))
        assert sol.objective == objective
        assert sol.kkt_residual == kkt
        assert linear_solves[0] == solves

    @pytest.mark.parametrize("drop, solves, budget_solves", [(12, 77, 106), (14, 64, 96)])
    def test_phase_one_exit_rejects_early(self, linear_solves, drop, solves, budget_solves):
        # budget_solves: linear solves when phase one ran until its barrier
        # weight cap, before the duality-gap exit existed
        with pytest.raises(InfeasibleDelay, match="best margin at most"):
            solve_utility_max(_config_point("rate-sweep", drop, HD, -20.0))
        assert linear_solves[0] == solves < budget_solves


def _line_point(seed, mode, rinr_db, delta=3.5e-3):
    """The utility problem of drop 0 of a line K=3 w=2 rate sweep (the
    benchmark's rate-sweep shape: delta = 3.5 ms, eta = 0.9) with mc.seed."""
    cfg = ExperimentConfig.from_dict({"topology": {"kind": "line", "K": 3, "w": 2},
                                      "qos": {"delta_s": delta},
                                      "duplex": {"rinr_db_sweep": [rinr_db]},
                                      "mc": {"seed": seed}})
    tree, links = _drop_links(cfg, base_tree(cfg), 0)
    caps = _capacities(cfg, links, mode, rinr_db)
    return ProblemInstance(matrices=network_matrices(tree, mode, caps), eta=0.9, delta_s=delta)


def _outcome(result):
    """The bytes of a Solution, or the type and message of an exception."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return (result.lam.tobytes(), result.mu.tobytes(),
            np.float64(result.objective).tobytes(), np.float64(result.kkt_residual).tobytes())


def _solo(inst):
    try:
        return solve_utility_max(inst)
    except (InfeasibleDelay, NumericalFailure) as exc:
        return exc


class TestFirstCentering:
    def test_stalled_first_centering_goes_on_to_a_certified_optimum(self, monkeypatch):
        # the first centering (t = 1) meets a gradient floor above gtol and
        # used to raise "inner Newton did not converge at t = 1"; its iterate
        # is strictly feasible, and the later centerings certify the optimum
        inst = _line_point(1000062, FD, 10.0)
        first = []
        inner = optimizer._newton_barrier

        def recorded(barrier, z0, t_bar, gtol=0.0):
            z, ok = yield from inner(barrier, z0, t_bar, gtol)
            if not barrier.phase_one and not first:
                first.append((t_bar, ok))
            return z, ok

        monkeypatch.setattr(optimizer, "_newton_barrier", recorded)
        sol = solve_utility_max(inst)
        assert first == [(1.0, False)]
        # criterion 9's certificate thresholds
        rep = constraint_report(inst, sol)
        assert rep["scheduling"] <= 1e-8
        assert rep["mu_upper"] <= 1e-8
        assert rep["mu_lower"] >= -1e-8
        assert rep["stability_gap"] > 0
        assert rep["latency_margin"] >= -1e-8
        assert sol.kkt_residual <= 1e-6 * max(abs(sol.objective), 1e-3)
        assert sol.objective == pytest.approx(41.755, abs=1e-3)


class TestBatch:
    def test_mixed_batch_equals_solo_solves(self):
        # a problem solved inside a mixed batch, in either order, keeps the
        # bytes and the exception it gets alone
        direct = _config_point("rate-sweep", 0, FD, -20.0)
        insts = [
            direct,
            _config_point("rate-sweep", 16, HD, -20.0),  # phase one, then optimal
            _config_point("rate-sweep", 12, HD, -20.0),  # phase one rejects
            ProblemInstance(matrices=direct.matrices, eta=0.9, delta_s=1e-4),  # LP rejects
            # a delay-axis pair: the capacities of direct at a second delta
            ProblemInstance(matrices=direct.matrices, eta=0.9, delta_s=1.5 * direct.delta_s),
            _line_point(1000062, FD, 10.0),  # first centering stalls
            _line_point(8000373, FD, 10.0),  # uncertified
        ]
        solo = [_outcome(_solo(inst)) for inst in insts]
        kinds = [s[0] if isinstance(s[0], str) else "optimal" for s in solo]
        assert kinds == ["optimal", "optimal", "InfeasibleDelay", "InfeasibleDelay",
                         "optimal", "optimal", "NumericalFailure"]
        assert "best margin at most" in solo[2][1]
        assert "below minimum feasible delay" in solo[3][1]
        assert solo[6][1].startswith("could not certify stationarity")
        assert [_outcome(r) for r in solve_utility_batch(insts)] == solo
        assert [_outcome(r) for r in solve_utility_batch(insts[::-1])] == solo[::-1]

    def test_batch_makes_the_pinned_linear_solves(self, linear_solves):
        # _solve_pd stays a per-problem call, so a batch of the pinned points
        # of TestPinnedSolves makes the sum of their counts
        insts = [_config_point("rate-sweep", drop, mode, rinr_db)
                 for drop, mode, rinr_db in ((16, HD, -20.0), (4, FD, 10.0), (0, FD, -20.0))]
        solve_utility_batch(insts)
        assert linear_solves[0] == 99 + 111 + 46

    def test_empty_batch(self):
        assert solve_utility_batch([]) == []

    def test_split_groups_equal_solo_solves(self, monkeypatch):
        # with room for two points of width d and one of phase one's d + 1,
        # full groups close and line searches ask for at most two candidates
        insts = [_config_point("rate-sweep", drop, mode, -20.0)
                 for drop, mode in ((0, FD), (16, HD), (12, HD))]
        d = insts[0].matrices.num_ue + insts[0].matrices.num_edges
        monkeypatch.setattr(optimizer, "_STACK_CELLS", 2 * d * d)
        solo = [_outcome(_solo(inst)) for inst in insts]
        assert [_outcome(r) for r in solve_utility_batch(insts)] == solo

    def test_problems_too_large_to_stack_are_solved_one_at_a_time(self, monkeypatch):
        # with room for one point per stacked evaluation, the batch solves
        # each problem through solve_utility_max, with the bytes of a solo solve
        insts = [_config_point("rate-sweep", drop, mode, -20.0)
                 for drop, mode in ((0, FD), (16, HD), (12, HD))]
        solo = [_outcome(_solo(inst)) for inst in insts]
        monkeypatch.setattr(optimizer, "_STACK_CELLS", 1)
        calls = []
        single = optimizer.solve_utility_max
        monkeypatch.setattr(optimizer, "solve_utility_max",
                            lambda inst: calls.append(inst) or single(inst))
        assert [_outcome(r) for r in solve_utility_batch(insts)] == solo
        assert calls == insts
