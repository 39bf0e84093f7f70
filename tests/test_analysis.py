"""Closed-form line-deployment results against the matrix row-minimum oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iabnet.analysis import (
    BothInfeasible,
    InfeasibleTarget,
    LineNetworkParams,
    bottleneck_profile,
    break_points,
    k_max,
    latency_gain,
    latency_gain_line,
    t_star_line,
    write_line_sweep_csv,
)
from iabnet.optimizer import closed_form_t_star
from iabnet.topology import DuplexMode

from conftest import line_matrices

HD, FD = DuplexMode.HALF_DUPLEX, DuplexMode.FULL_DUPLEX

params_st = st.builds(
    LineNetworkParams,
    K=st.integers(1, 6),
    w=st.integers(1, 5),
    R_b=st.floats(1100.0, 20000.0),
    R_a=st.floats(100.0, 1000.0),
    lambda_min=st.floats(0.0, 50.0),
)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LineNetworkParams(K=0, w=1, R_b=200.0, R_a=100.0, lambda_min=0.0)
        with pytest.raises(ValueError):
            LineNetworkParams(K=1, w=0, R_b=200.0, R_a=100.0, lambda_min=0.0)
        with pytest.raises(ValueError):
            LineNetworkParams(K=1, w=1, R_b=100.0, R_a=200.0, lambda_min=0.0)
        with pytest.raises(ValueError):
            LineNetworkParams(K=1, w=1, R_b=200.0, R_a=100.0, lambda_min=-1.0)


class TestBottleneckProfile:
    @settings(max_examples=60, deadline=None)
    @given(params_st, st.sampled_from([HD, FD]))
    def test_rows_match_matrix_rows(self, params, mode):
        """Each f(k) equals BS k's row of the matrix expression."""
        m = line_matrices(params, mode)
        prof = bottleneck_profile(params, mode)
        traffic = m.F.sum(axis=1) / m.C
        weight = m.h_tilde / m.C
        for k in range(params.K + 1):
            num = 1.0 - params.lambda_min * float(m.G[k] @ traffic)
            den = float(m.G[k] @ weight)
            assert prof[k] == pytest.approx(num / den, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(params_st, st.sampled_from([HD, FD]))
    def test_min_is_t_star(self, params, mode):
        t_cf, _ = closed_form_t_star(line_matrices(params, mode), params.lambda_min)
        t = t_star_line(params, mode)
        assert t == pytest.approx(t_cf, rel=1e-9, abs=1e-12)
        assert t == float(np.min(bottleneck_profile(params, mode)))


class TestLatencyGain:
    def test_matrix_and_line_forms_agree(self):
        p = LineNetworkParams(K=3, w=2, R_b=5000.0, R_a=900.0, lambda_min=30.0)
        g_line = latency_gain_line(p)
        g_mat = latency_gain(line_matrices(p, HD), line_matrices(p, FD), p.lambda_min)
        assert g_line == pytest.approx(g_mat, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(params_st)
    def test_gain_at_least_one(self, params):
        try:
            g = latency_gain_line(params)
        except BothInfeasible:
            return
        assert g >= 1.0 - 1e-12

    def test_infinite_gain_when_only_hd_fails(self):
        # drive lambda up until HD is infeasible but FD still works
        p = LineNetworkParams(K=3, w=1, R_b=3000.0, R_a=1000.0, lambda_min=0.0)
        lam = 0.0
        g = 1.0
        for lam in np.linspace(1.0, 999.0, 400):
            q = replace(p, lambda_min=float(lam))
            if t_star_line(q, FD) <= 0:
                break
            if t_star_line(q, HD) <= 0:
                g = latency_gain_line(q)
                break
        assert math.isinf(g)

    def test_both_infeasible_raises(self):
        p = LineNetworkParams(K=3, w=1, R_b=3000.0, R_a=1000.0, lambda_min=999.0)
        with pytest.raises(BothInfeasible):
            latency_gain_line(p)


class TestBreakPoints:
    def test_interior_crossing_matches_kappa(self):
        """kappa solves f(1) = f(K-1) treated as continuous in K."""
        from scipy.optimize import brentq

        p = LineNetworkParams(K=2, w=2, R_b=4000.0, R_a=800.0, lambda_min=15.0)
        kappa_hd, kappa_fd = break_points(p)
        w, Rb, Ra, lam = p.w, p.R_b, p.R_a, p.lambda_min

        def gap_hd(K):
            f1 = (1 - w * lam * (1 / Ra + (2 * (K - 1) + 1) / Rb)) / (
                2 * (K + 1) / Rb + 2 * w / Ra
            )
            fKm1 = (1 - w * lam * (1 / Ra + 3 / Rb)) / (2 * (K + 1) / Rb + w * K / Ra)
            return f1 - fKm1

        def gap_fd(K):
            f1 = (1 - w * lam * (1 / Ra + (K - 1) / Rb)) / ((K + 1) / Rb + 2 * w / Ra)
            fKm1 = (1 - w * lam * (1 / Ra + 1 / Rb)) / ((K + 1) / Rb + w * K / Ra)
            return f1 - fKm1

        # bracket away from K = 2 where f(1) and f(K-1) coincide trivially
        assert brentq(gap_hd, 3.0, 500.0) == pytest.approx(kappa_hd, rel=1e-9)
        assert brentq(gap_fd, 3.0, 500.0) == pytest.approx(kappa_fd, rel=1e-9)

    def test_zero_rate_gives_infinite_kappa(self):
        p = LineNetworkParams(K=2, w=1, R_b=2000.0, R_a=500.0, lambda_min=0.0)
        assert break_points(p) == (math.inf, math.inf)


class TestKMax:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.floats(1500.0, 20000.0),
        st.floats(100.0, 1400.0),
        st.floats(0.0, 20.0),
        st.floats(5e-3, 0.2),
        st.floats(0.5, 0.99),
        st.sampled_from([HD, FD]),
    )
    def test_scan_consistency(self, w, Rb, Ra, lam, delta, eta, mode):
        p = LineNetworkParams(K=1, w=w, R_b=Rb, R_a=Ra, lambda_min=lam)
        zeta = -math.log1p(-eta) / delta
        try:
            K = k_max(p, delta, eta, mode)
        except InfeasibleTarget:
            assert t_star_line(replace(p, K=1), mode) < zeta
            return
        assert t_star_line(replace(p, K=K), mode) >= zeta
        assert t_star_line(replace(p, K=K + 1), mode) < zeta

    def test_monotone_in_delay_target(self):
        p = LineNetworkParams(K=1, w=1, R_b=5000.0, R_a=1200.0, lambda_min=10.0)
        prev = 0
        for delta in (5e-3, 10e-3, 20e-3, 50e-3):
            k = k_max(p, delta, 0.9, FD)
            assert k >= prev
            prev = k

    def test_bad_inputs(self):
        p = LineNetworkParams(K=1, w=1, R_b=5000.0, R_a=1200.0, lambda_min=10.0)
        with pytest.raises(ValueError):
            k_max(p, -1.0, 0.9, HD)
        with pytest.raises(ValueError):
            k_max(p, 1e-2, 1.5, HD)


class TestSweepCsv:
    def test_header_and_inf_encoding(self, tmp_path):
        p = LineNetworkParams(K=3, w=1, R_b=3000.0, R_a=1000.0, lambda_min=0.0)
        path = tmp_path / "sweep.csv"
        # 450 pps sits between the HD and FD feasibility limits (375 and 500)
        write_line_sweep_csv(path, p, [0.0, 450.0, 990.0], 10e-3, 0.9)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda_min_pps,mode,t_star,delta_star_s,gain,k_max,bottleneck_k"
        assert len(lines) == 1 + 3 * 2
        gains = [ln.split(",")[4] for ln in lines[1:]]
        assert "inf" in gains  # HD-infeasible rows spell infinity explicitly
