"""Closed-form results for line deployments and latency-gain comparisons.

A line deployment is a donor -> IAB_1 -> ... -> IAB_K backhaul chain where
every BS (donor included) serves w UEs, every backhaul edge has capacity R_b
and every access edge R_a, with R_b > R_a.  For such networks the row-minimum
expression for t* specializes to per-BS bottleneck functions f(k) with simple
rational forms, which in turn yield the latency gain of full duplex over half
duplex and the maximum supportable chain depth for a delay target.

The implementation evaluates f(k) for every BS row and minimizes, rather than
relying on the interior-row monotonicity shortcut: the first and last rows can
be the bottleneck when the access side dominates (w/R_a large against
(K+1)/R_b), and the shortcut's two-branch form is wrong there.  The matrix
row-minimum in the optimizer module is the independent oracle for all of this.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .topology import DuplexMode, NetworkMatrices
from .optimizer import closed_form_t_star


class BothInfeasible(ValueError):
    """Neither duplex mode supports the requested minimum rate."""


class InfeasibleTarget(ValueError):
    """Even a single-IAB chain cannot meet the delay target."""


@dataclass(frozen=True)
class LineNetworkParams:
    """Line deployment parameters; rates in packets/s."""

    K: int
    w: int
    R_b: float
    R_a: float
    lambda_min: float

    def __post_init__(self):
        if self.K < 1 or self.w < 1:
            raise ValueError("need K >= 1 and w >= 1")
        if not self.R_b > self.R_a > 0:
            raise ValueError("need R_b > R_a > 0")
        if self.lambda_min < 0:
            raise ValueError("lambda_min must be nonnegative")


def bottleneck_profile(params: LineNetworkParams, mode: DuplexMode) -> np.ndarray:
    """Per-BS bottleneck values f(k), k = 0..K.

    f(k) is BS k's row of the t* row-minimum: the time-fraction headroom of
    its schedule divided by its weighted hop load.  The minimum over k is t*.
    """
    K, w = params.K, params.w
    Rb, Ra = params.R_b, params.R_a
    lam = params.lambda_min
    f = np.empty(K + 1)
    # donor: same in both modes (the donor never self-interferes)
    f[0] = (1 - w * lam * (1 / Ra + K / Rb)) / ((K + 1) / Rb + w / Ra)
    if mode is DuplexMode.HALF_DUPLEX:
        for k in range(1, K):
            f[k] = (1 - w * lam * (1 / Ra + (2 * (K - k) + 1) / Rb)) / (
                2 * (K + 1) / Rb + w * (k + 1) / Ra
            )
        f[K] = (1 - w * lam * (1 / Ra + 1 / Rb)) / ((K + 1) / Rb + w * (K + 1) / Ra)
    else:
        for k in range(1, K):
            f[k] = (1 - w * lam * (1 / Ra + (K - k) / Rb)) / (
                (K + 1) / Rb + w * (k + 1) / Ra
            )
        f[K] = (1 - w * lam / Ra) / (w * (K + 1) / Ra)
    return f


def t_star_line(params: LineNetworkParams, mode: DuplexMode) -> float:
    """Closed-form t* for the line deployment; t* <= 0 means lambda_min is
    unsupportable (never clamped)."""
    return float(np.min(bottleneck_profile(params, mode)))


def latency_gain(
    matrices_hd: NetworkMatrices, matrices_fd: NetworkMatrices, lambda_min: float
) -> float:
    """t*_FD / t*_HD (equivalently delta*_HD / delta*_FD) for one deployment.

    Returns +inf when only half duplex is infeasible; raises BothInfeasible
    when neither mode supports lambda_min.
    """
    t_hd, _ = closed_form_t_star(matrices_hd, lambda_min)
    t_fd, _ = closed_form_t_star(matrices_fd, lambda_min)
    if t_fd <= 0:
        raise BothInfeasible(
            f"lambda_min = {lambda_min} infeasible in both modes "
            f"(t*_HD = {t_hd:.6g}, t*_FD = {t_fd:.6g})"
        )
    if t_hd <= 0:
        return math.inf
    return t_fd / t_hd


def latency_gain_line(params: LineNetworkParams) -> float:
    """Closed-form latency gain on the line deployment.

    Ratio of the closed-form t* values; +inf when only half duplex is
    infeasible, BothInfeasible when full duplex fails too.
    """
    t_hd = t_star_line(params, DuplexMode.HALF_DUPLEX)
    t_fd = t_star_line(params, DuplexMode.FULL_DUPLEX)
    if t_fd <= 0:
        raise BothInfeasible(
            f"lambda_min = {params.lambda_min} infeasible in both modes"
        )
    if t_hd <= 0:
        return math.inf
    return t_fd / t_hd


def break_points(params: LineNetworkParams) -> tuple[float, float]:
    """Chain depths at which the interior bottleneck switches ends.

    Scanning K upward, the binding interior BS jumps from the next-to-last
    relay to the first relay at ceil(kappa); returns (kappa_hd, kappa_fd).
    """
    w, Rb, Ra, lam = params.w, params.R_b, params.R_a, params.lambda_min
    if lam <= 0:
        return math.inf, math.inf
    r = Ra / Rb
    kappa_hd = (Ra / lam - w - r * (4 * r + 3 * w)) / (2 * r * (2 * r + w))
    kappa_fd = (Ra / lam - w) / (r * (r + w)) - 1
    return kappa_hd, kappa_fd


def _depth_bounds(params: LineNetworkParams, zeta: float, mode: DuplexMode) -> float:
    """Largest real K with every bottleneck family value >= zeta.

    Each f-family value is a decreasing rational (a - bK)/(c + dK) in the
    chain depth, so f >= zeta inverts to K <= (a - zeta*c)/(b + zeta*d).
    The end rows (donor, last relay) hold for every K; the interior families
    (first relay, next-to-last relay) only exist for K >= 2 and are applied
    only when they still allow K >= 2.
    """
    w, Rb, Ra, lam = params.w, params.R_b, params.R_a, params.lambda_min
    hd = mode is DuplexMode.HALF_DUPLEX

    # donor row: (1 - w*lam/Ra - w*lam*K/Rb) / ((K+1)/Rb + w/Ra)
    k0 = (1 - w * lam / Ra - zeta * (1 / Rb + w / Ra)) / ((w * lam + zeta) / Rb)
    # last relay
    if hd:
        kK = (1 - w * lam * (1 / Ra + 1 / Rb)) / (zeta * (1 / Rb + w / Ra)) - 1
    else:
        kK = (1 - w * lam / Ra) / (zeta * w / Ra) - 1
    bound = min(k0, kK)

    if bound >= 2:
        if hd:
            k1 = (1 - w * lam / Ra + w * lam / Rb - 2 * zeta * (1 / Rb + w / Ra)) / (
                2 * (w * lam + zeta) / Rb
            )
            kKm1 = (1 - w * lam / Ra - 3 * w * lam / Rb - 2 * zeta / Rb) / (
                zeta * (2 / Rb + w / Ra)
            )
        else:
            k1 = (1 - w * lam / Ra + w * lam / Rb - zeta * (1 / Rb + 2 * w / Ra)) / (
                (w * lam + zeta) / Rb
            )
            kKm1 = (1 - w * lam / Ra - w * lam / Rb - zeta / Rb) / (
                zeta * (1 / Rb + w / Ra)
            )
        interior = min(k1, kKm1)
        if interior < 2:
            # interior families stop binding only by forcing K below 2;
            # the true depth is then decided by the end rows at K = 1
            bound = min(bound, max(interior, 1.0))
        else:
            bound = min(bound, interior)
    return bound


def k_max(
    params: LineNetworkParams, delta_target_s: float, eta: float, mode: DuplexMode
) -> int:
    """Maximum chain depth K with t*(K) >= zeta = -log(1-eta)/delta_target.

    Closed-form family inversion, then a local exactness check against the
    bottleneck profile (t* is a min of decreasing functions of K, hence
    decreasing, so the check moves at most a step or two).  params.K is
    ignored; the depth is the quantity being solved for.
    """
    if delta_target_s <= 0 or not 0 < eta < 1:
        raise ValueError("need delta_target > 0 and eta in (0, 1)")
    zeta = -math.log1p(-eta) / delta_target_s

    def t_at(K: int) -> float:
        return t_star_line(replace(params, K=K), mode)

    bound = _depth_bounds(params, zeta, mode)
    k = max(int(math.floor(bound + 1e-12)), 1)
    while k >= 1 and t_at(k) < zeta:
        k -= 1
    if k < 1:
        raise InfeasibleTarget(
            f"delta = {delta_target_s} s, eta = {eta}: even K = 1 has "
            f"t* = {t_at(1):.6g} < zeta = {zeta:.6g}"
        )
    while t_at(k + 1) >= zeta:
        k += 1
    return k


def write_line_sweep_csv(
    path,
    params: LineNetworkParams,
    lambda_values,
    delta_target_s: float,
    eta: float,
) -> None:
    """Sweep lambda_min on the line deployment and export one row per
    (lambda, mode): lambda_min_pps, mode, t_star, delta_star_s, gain, k_max,
    bottleneck_k.  Infinite gain is spelled "inf"; infeasible entries leave
    t_star <= 0 and blank delta/k_max.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["lambda_min_pps", "mode", "t_star", "delta_star_s", "gain", "k_max", "bottleneck_k"]
        )
        for lam in lambda_values:
            p = replace(params, lambda_min=float(lam))
            gains = {}
            try:
                g = latency_gain_line(p)
                gains = {m: g for m in DuplexMode}
            except BothInfeasible:
                gains = {m: math.nan for m in DuplexMode}
            for mode in DuplexMode:
                prof = bottleneck_profile(p, mode)
                t = float(np.min(prof))
                feasible = t > 0
                delta_star = -math.log1p(-eta) / t if feasible else None
                try:
                    kmx = k_max(p, delta_target_s, eta, mode)
                except InfeasibleTarget:
                    kmx = None
                writer.writerow(
                    [
                        f"{lam:.9g}",
                        mode.value,
                        f"{t:.9g}",
                        "" if delta_star is None else f"{delta_star:.9g}",
                        "inf" if math.isinf(gains[mode]) else (
                            "" if math.isnan(gains[mode]) else f"{gains[mode]:.9g}"
                        ),
                        "" if kmx is None else kmx,
                        int(np.argmin(prof)),
                    ]
                )
