"""End-to-end acceptance suite.

Each test covers one numbered criterion, records a single PASS/FAIL line in
the terminal summary, and asserts the criterion with its stated tolerance.
"""

import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from iabnet.analysis import (
    InfeasibleTarget,
    LineNetworkParams,
    k_max,
    latency_gain,
    latency_gain_line,
    t_star_line,
)
from iabnet.channel import capacity_pps
from iabnet.experiments import (
    DuplexConfig,
    ExperimentConfig,
    McConfig,
    QosConfig,
    TopologyConfig,
    run_min_delay_sweep,
    run_queue_validation,
    run_rate_sweep,
)
from iabnet.optimizer import (
    InfeasibleDelay,
    ProblemInstance,
    closed_form_t_star,
    constraint_report,
    solve_min_delay_lp,
    solve_utility_max,
)
from iabnet.queueing import simulate
from iabnet.topology import DuplexMode, line_network, network_matrices

from conftest import feasible_lambda_upper, line_matrices, random_instance, record_acceptance

HD, FD = DuplexMode.HALF_DUPLEX, DuplexMode.FULL_DUPLEX
ETA = 0.9
LOG_BARRIER_SLACK = 4.0  # delta at 4x the per-hop minimum keeps the
#                          product-form delivery constraint satisfiable


def _verdict(n, ok, details):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} -- {details}"
    record_acceptance(line)
    return line


def _rate_cfg(K, rinrs, n_drops=20, seed=0, delta=3.5e-3):
    return ExperimentConfig(
        topology=TopologyConfig(kind="line", K=K, w=1),
        qos=QosConfig(eta=ETA, delta_s=delta),
        duplex=DuplexConfig(modes=("hd", "fd"), rinr_db_sweep=tuple(rinrs)),
        mc=McConfig(n_drops=n_drops, seed=seed),
    )


def _mean_last_hop_gain(results, hop, rinr_db):
    """Mean last-hop rate gain over drops where both modes are feasible,
    plus the count of drops with infinite gain (feasible only under FD).
    The infeasible-drop set does not depend on the self-interference level,
    so the finite-drop population is identical across RINR values."""
    gains, n_inf = [], 0
    for res in results:
        for row in res.rows:
            if row["hop"] == hop and row["rinr_db"] == rinr_db:
                if row["rate_gain"] == "":
                    continue
                g = float(row["rate_gain"])
                if math.isinf(g):
                    n_inf += 1
                else:
                    gains.append(g)
    return (statistics.fmean(gains) if gains else math.nan), n_inf


def test_criterion_1_lp_matches_closed_form():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(100):
        _, m = random_instance(rng, HD if i % 2 else FD)
        lam = rng.uniform(0.0, 0.95 * feasible_lambda_upper(m))
        sol = solve_min_delay_lp(m, lam)
        t_cf, _ = closed_form_t_star(m, lam)
        worst = max(worst, abs(sol.t_star - t_cf) / abs(t_cf))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _verdict(1, ok, f"LP vs closed form on 100 trees: worst rel err "
                    f"{worst:.3g} (tol 1e-6), {elapsed:.1f}s (limit 30s)")
    assert ok


def test_criterion_2_line_closed_form_matches_matrix_form():
    start = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(1002)
    for K in range(1, 7):
        for w in range(1, 6):
            Ra, Rb = 800.0, 3000.0
            lams = np.concatenate(
                [np.linspace(0.0, Ra / w, 40), rng.uniform(0, Ra / w, 10)]
            )
            for lam in lams:
                p = LineNetworkParams(K=K, w=w, R_b=Rb, R_a=Ra, lambda_min=float(lam))
                for mode in (HD, FD):
                    m = line_matrices(p, mode)
                    t_cf, _ = closed_form_t_star(m, float(lam))
                    t_ln = t_star_line(p, mode)
                    # at the exact feasibility zero both values are ~0;
                    # anchor the relative scale at the unloaded t*
                    scale = max(abs(t_cf), 1e-3 * closed_form_t_star(m, 0.0)[0])
                    worst = max(worst, abs(t_ln - t_cf) / scale)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _verdict(2, ok, f"line closed form vs matrix row-minimum on "
                    f"K1-6 x w1-5 x 50 rates x 2 modes: worst rel err "
                    f"{worst:.3g} (tol 1e-9), {elapsed:.1f}s (limit 5s)")
    assert ok


def test_criterion_3_gain_ratio_and_depth_scan():
    start = time.monotonic()
    worst = 0.0
    for K in range(1, 7):
        for w in range(1, 6):
            Ra, Rb = 800.0, 3000.0
            for lam in np.linspace(0.0, 0.9 * Ra / w, 50):
                p = LineNetworkParams(K=K, w=w, R_b=Rb, R_a=Ra, lambda_min=float(lam))
                t_hd = t_star_line(p, HD)
                t_fd = t_star_line(p, FD)
                if t_hd <= 0:
                    continue
                g = latency_gain_line(p)
                worst = max(worst, abs(g - t_fd / t_hd) / (t_fd / t_hd))

    rng = np.random.default_rng(1003)
    bad_scans = 0
    for _ in range(200):
        p = LineNetworkParams(
            K=1,
            w=int(rng.integers(1, 6)),
            R_b=float(10 ** rng.uniform(3.2, 4.3)),
            R_a=float(10 ** rng.uniform(2.0, 3.1)),
            lambda_min=float(rng.uniform(0.0, 30.0)),
        )
        delta = float(rng.uniform(5e-3, 0.2))
        eta = float(rng.uniform(0.5, 0.99))
        zeta = -math.log1p(-eta) / delta
        mode = HD if rng.uniform() < 0.5 else FD
        try:
            K = k_max(p, delta, eta, mode)
        except InfeasibleTarget:
            if t_star_line(replace(p, K=1), mode) >= zeta:
                bad_scans += 1
            continue
        if not (
            t_star_line(replace(p, K=K), mode) >= zeta
            > t_star_line(replace(p, K=K + 1), mode)
        ):
            bad_scans += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and bad_scans == 0 and elapsed < 10.0
    _verdict(3, ok, f"gain ratio worst rel err {worst:.3g} (tol 1e-9); "
                    f"depth scan mismatches {bad_scans}/200; "
                    f"{elapsed:.1f}s (limit 10s)")
    assert ok


def test_criterion_4_worked_example():
    C = 1000.0
    tree = line_network(2, 1)
    m_hd = network_matrices(tree, HD, C)
    m_fd = network_matrices(tree, FD, C)

    worst = 0.0
    for lam in np.linspace(0.0, 0.24 * C, 25):
        t_hd, _ = closed_form_t_star(m_hd, float(lam))
        t_fd, _ = closed_form_t_star(m_fd, float(lam))
        worst = max(worst, abs(t_hd - (C - 4 * lam) / 8))
        worst = max(worst, abs(t_fd - min((C - 2 * lam) / 5, (C - 3 * lam) / 4)))
    displays_exact = worst <= 1e-9

    gain_zero = latency_gain(m_hd, m_fd, 0.0)
    gain_tenth = latency_gain(m_hd, m_fd, 0.1 * C)
    hd_infeasible = closed_form_t_star(m_hd, 0.25 * C)[0] <= 0
    fd_still_ok = closed_form_t_star(m_fd, 0.30 * C)[0] > 0
    fd_limit = closed_form_t_star(m_fd, C / 3)[0] <= 0
    gain_blows_up = math.isinf(latency_gain(m_hd, m_fd, 0.26 * C))

    ok = (
        displays_exact
        and gain_zero == pytest.approx(1.6, abs=1e-12)
        and hd_infeasible
        and fd_still_ok
        and fd_limit
        and gain_blows_up
        and gain_tenth == pytest.approx(32.0 / 15.0, rel=1e-12)
    )
    _verdict(4, ok, f"three-hop example: displays exact to {worst:.2g}; "
                    f"gain(0)={gain_zero:.6g} (expect 1.6); gain at 0.1C "
                    f"computed {gain_tenth:.6g} vs narrative 2.5 "
                    f"(known discrepancy, formulas win); HD dies at C/4, "
                    f"FD at C/3, gain -> inf between")
    assert ok


def test_criterion_5_depth_ratio_across_backhaul_snr():
    start = time.monotonic()
    W, bits = 100e6, 80000.0
    Ra = capacity_pps(W, 10 ** 0.5, bits)  # access SNR 5 dB
    ratios = {}
    for snr_db in [float(s) for s in np.arange(8.4, 18.5, 1.0)]:
        Rb = capacity_pps(W, 10 ** (snr_db / 10), bits)
        p = LineNetworkParams(K=1, w=5, R_b=Rb, R_a=Ra, lambda_min=1e-6)
        depth = {}
        for mode in (HD, FD):
            try:
                depth[mode] = k_max(p, 10e-3, ETA, mode)
            except InfeasibleTarget:
                depth[mode] = 0
        if depth[FD] == 0:
            ratios[round(snr_db, 1)] = math.nan
        elif depth[HD] == 0:
            ratios[round(snr_db, 1)] = math.inf
        else:
            ratios[round(snr_db, 1)] = depth[FD] / depth[HD]
    elapsed = time.monotonic() - start
    ok = all(r >= 2.0 for r in ratios.values()) and elapsed < 5.0
    _verdict(5, ok, f"depth ratio FD/HD per backhaul SNR: "
                    f"{ {k: ('inf' if math.isinf(v) else round(v, 2)) for k, v in ratios.items()} } "
                    f"(need >= 2 everywhere); {elapsed:.1f}s (limit 5s). "
                    f"Ratio 1 at high SNR is the faithful result: the last "
                    f"relay must schedule all w access links whose users sit "
                    f"at maximum hop count, capping depth at R_a/(w*zeta) "
                    f"in both modes -- a binding row the published "
                    f"interior-only depth formulas drop")
    assert ok


def test_criterion_6_monte_carlo_rate_gain_trends():
    start = time.monotonic()
    rinrs = [-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0]
    results = run_rate_sweep(_rate_cfg(3, rinrs))

    mean_gain_15, n_inf_15 = _mean_last_hop_gain(results, 4, -15.0)
    check_a = mean_gain_15 >= 4.0

    violations = 0
    for res in results:
        per_rinr = {
            row["rinr_db"]: float(row["rate_gain"])
            for row in res.rows
            if row["hop"] == 4 and row["rate_gain"] != ""
        }
        seq = [per_rinr[r] for r in rinrs if r in per_rinr]
        for a, b in zip(seq, seq[1:]):
            if b > a * (1 + 1e-6) + 1e-9:
                violations += 1
    check_b = violations == 0

    mean_gain_5, n_inf_5 = _mean_last_hop_gain(results, 4, -5.0)
    rel_change = abs(mean_gain_15 - mean_gain_5) / mean_gain_15
    check_c = rel_change <= 0.20 and n_inf_5 == n_inf_15

    depth_means = {4: mean_gain_15}
    depth_inf = {4: n_inf_15}
    for K in (1, 2):
        res_k = run_rate_sweep(_rate_cfg(K, [-15.0]))
        depth_means[K + 1], depth_inf[K + 1] = _mean_last_hop_gain(
            res_k, K + 1, -15.0
        )
    check_d = (depth_means[2] < depth_means[3] < depth_means[4]
               and depth_inf[2] <= depth_inf[3] <= depth_inf[4])

    elapsed = time.monotonic() - start
    ok = check_a and check_b and check_c and check_d and elapsed < 600.0
    _verdict(6, ok, f"last-hop gain at -15 dB: mean {mean_gain_15:.2f} over "
                    f"both-feasible drops, {n_inf_15}/20 drops feasible only "
                    f"under FD (need >= 4); per-drop monotonicity violations "
                    f"{violations}; saturation -15 vs -5 dB: {rel_change:.1%} "
                    f"(limit 20%); depth means 2/3/4 hops: "
                    f"{depth_means[2]:.2f}/{depth_means[3]:.2f}/"
                    f"{depth_means[4]:.2f} (need increasing); "
                    f"{elapsed:.0f}s (limit 600s)")
    assert ok


def test_criterion_7_feasibility_frontier():
    cfg = ExperimentConfig(
        topology=TopologyConfig(kind="line", K=3, w=5),
        qos=QosConfig(eta=ETA, lambda_min_pps=(50.0, 150.0, 300.0)),
        duplex=DuplexConfig(modes=("hd", "fd"), rinr_db_sweep=(-math.inf,)),
        mc=McConfig(n_drops=20, seed=0),
    )
    nesting_bad = 0
    for res in run_min_delay_sweep(cfg):
        by_key = {}
        for row in res.rows:
            if row["mode"] in ("hd", "fd"):
                by_key.setdefault(row["lambda_min_pps"], {})[row["mode"]] = row
        for lam, pair in by_key.items():
            hd, fd = pair["hd"], pair["fd"]
            if hd["feasible"] and not fd["feasible"]:
                nesting_bad += 1
            elif hd["feasible"] and fd["feasible"]:
                # delta* = -log(1-eta)/t*, so FD's smaller delta* means larger t*
                if fd["t_star"] < hd["t_star"] * (1 - 1e-9):
                    nesting_bad += 1

    cfg2 = replace(
        cfg,
        topology=TopologyConfig(kind="line", K=1, w=5),
        qos=QosConfig(eta=ETA, lambda_min_pps=50.0),
    )
    gains = []
    for res in run_min_delay_sweep(cfg2):
        for row in res.rows:
            if row["mode"] == "gain" and row["feasible"]:
                gains.append(float(row["gain"]))
    med = statistics.median(gains)
    ok = nesting_bad == 0 and med <= 1.1
    _verdict(7, ok, f"min-delay nesting violations {nesting_bad} over 20 "
                    f"drops x 3 rate floors; two-hop median latency gain "
                    f"{med:.3f} (limit 1.1)")
    assert ok


def test_criterion_8_queueing_validation():
    start = time.monotonic()
    cfg = ExperimentConfig(
        topology=TopologyConfig(kind="line", K=1, w=1),
        qos=QosConfig(eta=ETA, delta_s=1.0e-3),
        mc=McConfig(n_drops=1, seed=0),
    )
    rep = run_queue_validation(cfg, n_packets=100_000)
    ks_worst = max(rep["ks_distance_per_edge"].values())
    delivery_worst = min(rep["delivery_probability"])

    m = network_matrices(line_network(0, 1), HD, 1000.0)
    deliveries = simulate(m, np.array([500.0]), np.array([1.0]), 100_000,
                          np.random.default_rng(42))
    mean = float(np.mean(deliveries.total_s))
    mm1_err = abs(mean - 1.0 / 500.0) * 500.0

    elapsed = time.monotonic() - start
    ok = (
        rep["status"] == "optimal"
        and ks_worst < 0.02
        and delivery_worst >= ETA - 0.02
        and mm1_err <= 0.02
        and elapsed < 120.0
    )
    _verdict(8, ok, f"per-queue KS worst {ks_worst:.4f} (limit 0.02); "
                    f"worst delivery prob {delivery_worst:.4f} "
                    f"(need >= {ETA - 0.02}); M/M/1 mean sojourn off by "
                    f"{mm1_err:.2%} (limit 2%); {elapsed:.0f}s (limit 120s)")
    assert ok


def test_criterion_9_solver_certificates_and_mode_nesting():
    rng = np.random.default_rng(1009)
    cert_bad = 0
    nest_bad = 0
    solved = 0
    attempts = 0
    while solved < 50 and attempts < 80:
        attempts += 1
        tree, m_hd = random_instance(rng, HD)
        t0, _ = closed_form_t_star(m_hd, 0.0)
        delta = LOG_BARRIER_SLACK * (-math.log1p(-ETA)) / t0
        inst_hd = ProblemInstance(matrices=m_hd, eta=ETA, delta_s=delta)
        try:
            sol = solve_utility_max(inst_hd)
        except InfeasibleDelay:
            continue
        solved += 1

        rep = constraint_report(inst_hd, sol)
        if not (
            rep["scheduling"] <= 1e-8
            and rep["mu_upper"] <= 1e-8
            and rep["mu_lower"] >= -1e-8
            and rep["stability_gap"] > 0
            and rep["latency_margin"] >= -1e-8
        ):
            cert_bad += 1
        if sol.kkt_residual > 1e-6 * max(abs(sol.objective), 1e-3):
            cert_bad += 1

        m_fd = network_matrices(tree, FD, m_hd.C)
        rep_fd = constraint_report(
            ProblemInstance(matrices=m_fd, eta=ETA, delta_s=delta), sol
        )
        if not (
            rep_fd["scheduling"] <= 1e-8
            and rep_fd["stability_gap"] > 0
            and rep_fd["latency_margin"] >= -1e-8
        ):
            nest_bad += 1

    ok = solved == 50 and cert_bad == 0 and nest_bad == 0
    _verdict(9, ok, f"{solved}/50 instances solved ({attempts} attempts); "
                    f"certificate failures {cert_bad}; HD points violating "
                    f"FD feasibility {nest_bad}")
    assert ok
