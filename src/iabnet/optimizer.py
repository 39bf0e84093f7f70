"""Solvers for the network design problems.

Two problems over arrival rates lambda (per UE, packets/s) and time fractions
mu (per edge):

* minimum feasible delay: after the change of variable t = -log(1-eta)/delta
  this is a linear program maximizing t with per-(edge, UE) rate-gap
  constraints; solved with an LP solver and cross-checked against the
  closed-form row-minimum expression (implemented here independently).

* utility maximization of one objective, the sum-log (proportional-fair)
  utility sum log(lambda_m), under scheduling and the per-route delivery
  probability constraint sum log(1 - exp(-gap*delta/h_m)) >= log(eta);
  solved with a log-barrier interior-point method with damped Newton steps,
  returning KKT-certified solutions.  Each route constraint sees (lambda, mu)
  only through the |E| edge gaps C mu - F lambda, so the barrier gradient and
  Hessian are assembled in edge space (_LatencyGeometry) from per-pair
  vectors: O(M d^2) flops per Newton step for d = M + |E| variables, where a
  per-(UE, edge) pair matrix would cost O(n_pairs d^2).

The interior-point method's tuning values are module constants:

* LAMBDA_FLOOR: lower bound on every UE rate, which keeps log(lambda) finite;
  also the rate floor of the LP pre-check.
* BARRIER_MULT: factor by which each outer step raises the barrier weight;
  Boyd & Vandenberghe (ch. 11) report that 10 to 20 works well.
* MAX_OUTER: a safety cap on outer steps; the barrier weight cap of 1e14
  ends the loop first (after 12 steps at BARRIER_MULT = 20).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linprog

from .queueing import route_log_cdf
from .topology import NetworkMatrices


LAMBDA_FLOOR = 1e-6
BARRIER_MULT = 20.0
MAX_OUTER = 60
# Newton steps per centering, and outer steps of the phase-one search
_MAX_NEWTON = 200
_PHASE_ONE_MAX_OUTER = 40


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class InfeasibleRate(ValueError):
    """The network cannot support the requested per-UE arrival rate."""


class InfeasibleDelay(ValueError):
    """The delay threshold is below the network's minimum feasible delay."""


class NumericalFailure(RuntimeError):
    """Solver did not converge within its iteration budget."""


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable solver input.

    delta_s drives the utility problem; lambda_min_pps drives the min-delay
    problem.  eta is the delivery probability target.
    """

    matrices: NetworkMatrices
    eta: float
    delta_s: float | None = None
    lambda_min_pps: float | None = None

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if self.delta_s is not None and self.delta_s <= 0:
            raise ValueError("delta must be positive")
        if self.lambda_min_pps is not None and self.lambda_min_pps < 0:
            raise ValueError("lambda_min must be nonnegative")


@dataclass
class Solution:
    status: SolveStatus
    lam: np.ndarray | None = None
    mu: np.ndarray | None = None
    objective: float | None = None
    t_star: float | None = None
    delta_star_s: float | None = None
    kkt_residual: float | None = None
    bottleneck_bs: int | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status.value,
                "t_star": self.t_star,
                "delta_star_s": self.delta_star_s,
                "lambda": None if self.lam is None else [float(v) for v in self.lam],
                "mu": None if self.mu is None else [float(v) for v in self.mu],
                "objective": self.objective,
                "kkt_residual": self.kkt_residual,
                "bottleneck_bs": self.bottleneck_bs,
            }
        )


def min_feasible_delay(t_star: float, eta: float) -> float:
    """delta* = -log(1-eta)/t*; the tightest supportable delay threshold."""
    if t_star <= 0:
        raise InfeasibleRate(f"t* = {t_star} <= 0: requested rate unsupportable")
    return -math.log1p(-eta) / t_star


def closed_form_t_star(matrices: NetworkMatrices, lambda_min: float) -> tuple[float, int]:
    """Row-minimum closed form for the reformulated min-delay LP.

    t* = min over BS rows k of (1 - lambda_min * G_k C^-1 F 1) / (G_k C^-1 h~).
    Returns (t*, minimizing BS index, smallest on ties).  All-zero scheduling
    rows (a full-duplex IAB node with no children) impose no constraint and
    are skipped.  A nonpositive t* means the rate lambda_min is unsupportable.
    """
    G, C, F, ht = matrices.G, matrices.C, matrices.F, matrices.h_tilde
    load = (F @ np.ones(matrices.num_ue)) / C
    num = 1.0 - lambda_min * (G @ load)
    den = G @ (ht / C)
    active = den > 0
    if not np.any(active):
        raise ValueError("no scheduling constraints; tree has no scheduled edges")
    ratios = np.where(active, num / np.where(active, den, 1.0), np.inf)
    k = int(np.argmin(ratios))
    return float(ratios[k]), k


def solve_min_delay_lp(instance: ProblemInstance, prune: bool = True) -> Solution:
    """Maximize t over (t, mu) with lambda pinned to lambda_min (its optimum).

    Constraints: 0 <= mu <= 1, G mu <= 1, and c_v mu_v - (F lambda)_v >= t*h_m
    for every edge/UE pair on a route.  With prune=True the pairs on a common
    edge collapse to the binding one (largest h_m, i.e. h~); the unpruned form
    is kept for equivalence testing.  t is left free: a nonpositive optimum
    signals that lambda_min itself is infeasible.
    """
    if instance.lambda_min_pps is None:
        raise ValueError("min-delay problem needs lambda_min_pps")
    m = instance.matrices
    lam_min = instance.lambda_min_pps
    E, M = m.num_edges, m.num_ue
    load = m.F @ np.full(M, lam_min)

    rows = []
    rhs = []
    # scheduling: G mu <= 1
    for k in range(m.G.shape[0]):
        rows.append(np.concatenate(([0.0], m.G[k])))
        rhs.append(1.0)
    # rate-gap: t*h + lam_min*(F 1)_v - c_v mu_v <= 0
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
    if not res.success:
        raise NumericalFailure(f"LP solver failed: {res.message}")

    t_star = float(res.x[0])
    mu = np.clip(res.x[1:], 0.0, 1.0)
    slack = 1.0 - m.G @ mu
    scheduled = m.G.sum(axis=1) > 0
    bottleneck = int(np.argmin(np.where(scheduled, slack, np.inf)))
    feasible = t_star > 0
    delta_star = None
    if feasible:
        delta_star = min_feasible_delay(t_star, instance.eta)
    return Solution(
        status=SolveStatus.OPTIMAL if feasible else SolveStatus.INFEASIBLE,
        lam=np.full(M, lam_min),
        mu=mu,
        objective=t_star,
        t_star=t_star,
        delta_star_s=delta_star,
        kkt_residual=float(np.max(np.maximum(np.array(rows) @ res.x - np.array(rhs), 0.0))),
        bottleneck_bs=bottleneck,
    )


# ---------------------------------------------------------------------------
# utility maximization via log-barrier interior point


def _psi(x: np.ndarray) -> np.ndarray:
    """log(1 - exp(-x)) for x > 0, overflow-safe."""
    return np.log(-np.expm1(-x))


def _dpsi_d2psi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of psi(x) = log(1 - exp(-x)) for x > 0:
    psi' = 1/(exp(x) - 1) and psi'' = -exp(x)/(exp(x) - 1)^2 < 0, written in
    e = exp(-x) as e/(-expm1(-x)) and -e/expm1(-x)^2 = psi'/expm1(-x), so
    that large x underflows to 0 instead of overflowing."""
    e = np.exp(-x)
    em = np.expm1(-x)
    d1 = e / -em
    return d1, d1 / em


class _LatencyGeometry:
    """Edge-space structure of the per-route delivery constraints.

    A latency pair p = (m, v), v on UE m's route, sees z = [lambda; mu] only
    through the edge gap (J z)_v = C_v mu_v - (F lambda)_v, with the |E| x d
    map J = [-F, diag(C)]:  x_p = scale_p (J z)_v, scale_p = delta / h_m, and
    g_m = sum of psi(x_p) over the route - log(eta).  Per-pair quantities stay
    vectors of length n_pairs; the barrier gradient and Hessian are assembled
    through J (Boyd & Vandenberghe, Convex Optimization, 11.3), so no
    per-(UE, edge) matrix of width d is formed.
    """

    def __init__(self, m: NetworkMatrices, delta: float):
        M, E = m.num_ue, m.num_edges
        self.pair_ue, self.pair_edge = np.nonzero(m.F.T)
        self.pair_flat = self.pair_ue * E + self.pair_edge  # index into M x E
        self.num_ue, self.num_edges = M, E
        self.scale = delta / m.h[self.pair_ue]
        self.scale2 = self.scale**2
        self.F, self.C = m.F, m.C
        self.J = np.hstack((-m.F, np.diag(m.C)))

    def eval(self, z: np.ndarray, log_eta: float):
        """Return (g, x); g_m = sum psi(x) over route m - log(eta)."""
        x = self.scale * (self.J @ z)[self.pair_edge]
        if np.any(x <= 0):
            return None, x
        return np.bincount(self.pair_ue, _psi(x), self.num_ue) - log_eta, x

    def grad_hess_barrier(self, z, g, x):
        """Gradient and Hessian of -sum log(g_m) at a strictly feasible z.

        The constraint Jacobian is Jg = R J, where R (M x |E|) holds
        psi'(x_p) scale_p at (m, v).  With Js = Jg / g and
        c_v = sum over the pairs on edge v of psi''(x_p) scale_p^2 / g_m,
        H = Js^T Js - J^T diag(c) J.  The rows of J^T are -F^T and diag(C),
        so the second term costs one M x |E| x d product.
        """
        M, E = self.num_ue, self.num_edges
        d1, d2 = _dpsi_d2psi(x)
        R = np.zeros(M * E)
        R[self.pair_flat] = d1 * self.scale
        Jg = R.reshape(M, E) @ self.J
        Js = Jg / g[:, None]
        grad = -Js.sum(axis=0)
        c = np.bincount(self.pair_edge, d2 * self.scale2 / g[self.pair_ue], E)
        cJ = c[:, None] * self.J
        H = Js.T @ Js
        H[:M] += self.F.T @ cJ
        H[M:] -= self.C[:, None] * cJ
        return grad, H, Jg


def _solve_pd(H, rhs):
    """Solve H x = rhs for symmetric positive-definite H, escalating a
    diagonal jitter when near-boundary barrier terms destroy definiteness."""
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


def _newton_barrier(z0, f_obj, t_bar, geom, g_floor, box_lo, box_hi, Gmat, M, gtol=0.0):
    """Minimize t_bar * f_obj(z) - sum log(slacks).  Returns (z, converged).

    f_obj returns (value, grad, hess_diag_lambda_part_or_full).  Slacks:
    z - box_lo, box_hi - z (finite entries only), 1 - G mu, and the latency
    margins g_m via geom.
    """
    z = z0.copy()
    d = z.size
    lo_idx = np.isfinite(box_lo)
    hi_idx = np.isfinite(box_hi)

    def slacks(zz):
        g, x = geom.eval(zz, g_floor)
        s_lo = zz[lo_idx] - box_lo[lo_idx]
        s_hi = box_hi[hi_idx] - zz[hi_idx]
        s_g = 1.0 - Gmat @ zz[M:]
        ok = (
            g is not None
            and np.all(g > 0)
            and np.all(s_lo > 0)
            and np.all(s_hi > 0)
            and np.all(s_g > 0)
        )
        return ok, g, x, s_lo, s_hi, s_g

    # work with f + phi/t rather than t*f + phi: same minimizer, but the
    # value stays O(|f|) at large t, so line-search progress is resolvable
    def barrier_value(zz):
        ok, g, x, s_lo, s_hi, s_g = slacks(zz)
        if not ok:
            return np.inf, None
        val, _, _ = f_obj(zz)
        b = val - (
            np.sum(np.log(g))
            + np.sum(np.log(s_lo))
            + np.sum(np.log(s_hi))
            + np.sum(np.log(s_g))
        ) / t_bar
        return b, (g, x, s_lo, s_hi, s_g)

    B = np.zeros((Gmat.shape[0], d))
    B[:, M:] = Gmat

    def assemble(zz, st):
        g, x, s_lo, s_hi, s_g = st
        _, fgrad, fhess = f_obj(zz)
        grad = fgrad.copy()
        H = np.zeros((d, d))
        H[np.diag_indices(d)] += fhess

        gl, Hl, _ = geom.grad_hess_barrier(zz, g, x)
        grad += gl / t_bar
        H += Hl / t_bar

        gb = np.zeros(d)
        gb[lo_idx] -= 1.0 / s_lo
        gb[hi_idx] += 1.0 / s_hi
        grad += gb / t_bar
        hb = np.zeros(d)
        hb[lo_idx] += 1.0 / s_lo**2
        hb[hi_idx] += 1.0 / s_hi**2
        H[np.diag_indices(d)] += hb / t_bar

        grad += B.T @ (1.0 / s_g) / t_bar
        H += B.T @ ((1.0 / s_g**2)[:, None] * B) / t_bar
        return grad, H

    bval, state = barrier_value(z)
    if state is None:
        raise NumericalFailure("barrier start point not strictly feasible")

    grad_phase = False  # value progress exhausted; descend on gradient norm
    for _ in range(_MAX_NEWTON):
        grad, H = assemble(z, state)
        gnorm = float(np.abs(grad).max())

        # the rescaled gradient is the KKT stationarity residual with the
        # barrier dual estimates, so gtol targets the certificate directly
        if gtol > 0.0 and gnorm <= gtol:
            return z, True

        step = _solve_pd(H, -grad)
        decrement = -float(grad @ step)
        scale = max(1.0, abs(bval))
        if not grad_phase and decrement / 2.0 <= 1e-13 * scale:
            if gtol <= 0.0:
                return z, True
            grad_phase = True

        accepted = False
        if not grad_phase:
            # backtracking on the barrier value, staying strictly feasible
            t_step = 1.0
            for _ in range(60):
                cand = z + t_step * step
                bc, st = barrier_value(cand)
                if st is not None and bc <= bval - 0.25 * t_step * decrement + 4e-16 * scale:
                    z, bval, state = cand, bc, st
                    accepted = True
                    break
                t_step *= 0.5
            if not accepted:
                grad_phase = True
        if grad_phase:
            # near the center the value decrements drown in float noise, but
            # Newton still contracts the gradient; accept on gradient norm
            t_step = 1.0
            for _ in range(30):
                cand = z + t_step * step
                ok_c, *st = slacks(cand)
                if ok_c:
                    gc, _ = assemble(cand, tuple(st))
                    if float(np.abs(gc).max()) < 0.9 * gnorm:
                        z, state = cand, tuple(st)
                        bval = barrier_value(z)[0]
                        accepted = True
                        break
                t_step *= 0.5
            if not accepted:
                # gradient is at its float-precision floor for this t_bar
                return z, gnorm <= max(gtol, 1e-9 * scale)
    return z, False


def _sum_log(lam: np.ndarray) -> float:
    """The sum-log utility sum log(lambda_m)."""
    return float(np.sum(np.log(lam)))


def solve_utility_max(instance: ProblemInstance) -> Solution:
    """Maximize the sum-log utility subject to scheduling and
    delivery-probability constraints.  Raises InfeasibleDelay when no
    strictly feasible point exists for the given delta (phase I fails).
    """
    if instance.delta_s is None:
        raise ValueError("utility problem needs delta_s")
    m = instance.matrices
    delta, eta = instance.delta_s, instance.eta
    E, M = m.num_edges, m.num_ue
    d = M + E
    log_eta = math.log(eta)

    # quick necessary check via the per-hop LP relaxation
    lp = solve_min_delay_lp(ProblemInstance(matrices=m, eta=eta, lambda_min_pps=LAMBDA_FLOOR))
    zeta = -math.log1p(-eta) / delta
    if lp.t_star <= zeta:
        raise InfeasibleDelay(
            f"delta = {delta} below minimum feasible delay for lambda_floor "
            f"(t* = {lp.t_star:.6g} <= zeta = {zeta:.6g})"
        )

    geom = _LatencyGeometry(m, delta)
    Gmat = m.G

    box_lo = np.concatenate((np.full(M, LAMBDA_FLOOR), np.zeros(E)))
    box_hi = np.concatenate((np.full(M, np.inf), np.ones(E)))

    # Interior start: back the LP schedule off the boundaries as far as the
    # delivery constraints allow, and give the rates a share of the resulting
    # service headroom.  Near-minimal delta leaves no backoff room; then the
    # phase-one auxiliary problem locates a strictly feasible point.
    users_per_edge = m.F.sum(axis=1)
    z = None
    best, best_margin = None, -np.inf
    for sigma in (0.2, 0.1, 0.05, 0.02, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8):
        mu0 = np.clip(lp.mu, sigma, 1.0 - sigma)
        row = Gmat @ mu0
        if row.max() >= 1.0 - sigma / 2:
            mu0 *= (1.0 - sigma) / row.max()
        headroom = float(np.min(m.C * mu0 / users_per_edge))
        for alpha in (0.05, 0.01, 1e-3, 1e-4, 0.0):
            lam0 = max(alpha * headroom, 2.0 * LAMBDA_FLOOR)
            cand = np.concatenate((np.full(M, lam0), mu0))
            g, _ = geom.eval(cand, log_eta)
            if g is None:
                continue
            margin = float(np.min(g))
            if margin > best_margin:
                best, best_margin = cand, margin
            if margin > 1e-3:
                z = cand
                break
        if z is not None:
            break
    if z is None:
        if best is not None and best_margin > 1e-8:
            z = best
        else:
            start = best if best is not None else np.concatenate(
                (np.full(M, 2.0 * LAMBDA_FLOOR), np.clip(lp.mu, 1e-3, 1 - 1e-3))
            )
            z = _phase_one(start, geom, log_eta, box_lo, box_hi, Gmat, M)

    def f_obj(zz):
        lam = zz[:M]
        grad = np.zeros(d)
        hd = np.zeros(d)
        grad[:M] = -1.0 / lam
        hd[:M] = 1.0 / lam**2
        return -_sum_log(lam), grad, hd

    n_con = (
        int(np.isfinite(box_lo).sum() + np.isfinite(box_hi).sum())
        + Gmat.shape[0]
        + M
    )

    def gtol_for(zz):
        return 0.4e-6 * max(abs(_sum_log(zz[:M])), 1e-3)

    def center(zz, t_from, t_to, depth=0):
        """Re-center at barrier weight t_to, bisecting the jump on failure."""
        z2, ok = _newton_barrier(
            zz, f_obj, t_to, geom, log_eta, box_lo, box_hi, Gmat, M,
            gtol=gtol_for(zz),
        )
        if ok:
            return z2
        if depth >= 6 or t_to / t_from < 1.3:
            raise NumericalFailure(f"inner Newton did not converge at t = {t_to:.3g}")
        mid = math.sqrt(t_from * t_to)
        return center(center(zz, t_from, mid, depth + 1), mid, t_to, depth + 1)

    t_bar = 1.0
    z = center(z, 1.0, t_bar)
    for _ in range(MAX_OUTER):
        obj = _sum_log(z[:M])
        gap = n_con / t_bar
        if gap <= 1e-6 * max(abs(obj), 1e-3) or t_bar > 1e14:
            break
        try:
            z = center(z, t_bar, t_bar * BARRIER_MULT)
        except NumericalFailure:
            break  # gradient floor reached; the polish pass keeps the best
        t_bar *= BARRIER_MULT
    else:
        raise NumericalFailure("barrier iteration budget exhausted")

    # polish: the certificate target is tighter than the duality gap alone.
    # The residual is minimized at a moderate barrier weight: beyond it, the
    # boundary curvature amplifies float-level displacements of z, so keep
    # the best iterate and stop once the residual degrades.
    kkt = _kkt_residual(z, f_obj, t_bar, geom, log_eta, box_lo, box_hi, Gmat, M)
    best_z, best_t, best_kkt = z, t_bar, kkt
    obj = _sum_log(z[:M])
    while kkt > 0.5e-6 * max(abs(obj), 1e-3) and t_bar < 1e15:
        try:
            z = center(z, t_bar, t_bar * BARRIER_MULT)
        except NumericalFailure:
            break
        t_bar *= BARRIER_MULT
        obj = _sum_log(z[:M])
        prev = kkt
        kkt = _kkt_residual(z, f_obj, t_bar, geom, log_eta, box_lo, box_hi, Gmat, M)
        if kkt < best_kkt:
            best_z, best_t, best_kkt = z, t_bar, kkt
        if kkt >= prev:
            break
    z, t_bar, kkt = best_z, best_t, best_kkt
    obj = _sum_log(z[:M])
    if kkt > 1e-6 * max(abs(obj), 1e-3):
        raise NumericalFailure(
            f"could not certify stationarity: residual {kkt:.3g} "
            f"exceeds 1e-6 * |objective| = {1e-6 * abs(obj):.3g}"
        )

    lam, mu = z[:M], z[M:]
    return Solution(
        status=SolveStatus.OPTIMAL,
        lam=lam,
        mu=mu,
        objective=_sum_log(lam),
        kkt_residual=kkt,
    )


class _ShiftedGeometry:
    """Phase-one view of a geometry over the extended variable ze = (z, s):
    the margins become u_m = g_m(z) - s."""

    def __init__(self, geom: _LatencyGeometry):
        self.geom = geom

    def eval(self, ze, le):
        g, x = self.geom.eval(ze[:-1], le)
        if g is None:
            return None, x
        return g - ze[-1], x

    def grad_hess_barrier(self, ze, g, x):
        # g here is the shifted margin u_m = g_m(z) - s
        d = ze.size - 1
        gl, Hl, Jg = self.geom.grad_hess_barrier(ze[:-1], g, x)
        ge = np.concatenate((gl, [float(np.sum(1.0 / g))]))
        He = np.zeros((d + 1, d + 1))
        He[:d, :d] = Hl
        cross = -(Jg / (g**2)[:, None]).sum(axis=0)
        He[:d, -1] = cross
        He[-1, :d] = cross
        He[-1, -1] = float(np.sum(1.0 / g**2))
        return ge, He, None


def _phase_one(z0, geom, log_eta, box_lo, box_hi, Gmat, M):
    """Maximize the worst delivery-constraint margin until it is positive.

    Augments z with a scalar s, maximizing s subject to g_m(z) >= s and the
    original box/scheduling constraints.  Returns a strictly feasible z or
    raises InfeasibleDelay.
    """
    d = z0.size
    g0, _ = geom.eval(z0, log_eta)
    if g0 is None:
        raise NumericalFailure("phase-one start has nonpositive rate gaps")
    s0 = float(np.min(g0)) - 1.0

    sg = _ShiftedGeometry(geom)
    ze = np.concatenate((z0, [s0]))
    lo = np.concatenate((box_lo, [-np.inf]))
    hi = np.concatenate((box_hi, [np.inf]))
    Gext = np.hstack((Gmat, np.zeros((Gmat.shape[0], 1))))

    def f_obj(zz):
        grad = np.zeros(d + 1)
        grad[-1] = -1.0  # maximize s
        return -zz[-1], grad, np.zeros(d + 1)

    t_bar = 1.0
    for _ in range(_PHASE_ONE_MAX_OUTER):
        ze, ok = _newton_barrier(ze, f_obj, t_bar, sg, log_eta, lo, hi, Gext, M)
        g, _ = geom.eval(ze[:-1], log_eta)
        if g is not None and np.min(g) > 1e-8:
            return ze[:-1]
        if not ok:
            break
        t_bar *= 20.0
        if t_bar > 1e12:
            break
    if g is not None and np.min(g) > 0:
        return ze[:-1]
    raise InfeasibleDelay(
        "no strictly feasible point for the delivery-probability constraints "
        f"(best margin {float(np.min(g)) if g is not None else float('nan'):.3g})"
    )


def _kkt_residual(z, f_obj, t_bar, geom, log_eta, box_lo, box_hi, Gmat, M):
    """Stationarity residual with the barrier dual estimates nu_i = 1/(t h_i)."""
    d = z.size
    g, x = geom.eval(z, log_eta)
    _, fgrad, _ = f_obj(z)
    r = fgrad.copy()  # gradient of the minimized objective (-utility)

    gl_grad, _, _ = geom.grad_hess_barrier(z, g, x)
    r += gl_grad / t_bar

    lo_idx = np.isfinite(box_lo)
    hi_idx = np.isfinite(box_hi)
    r[lo_idx] -= 1.0 / (t_bar * (z[lo_idx] - box_lo[lo_idx]))
    r[hi_idx] += 1.0 / (t_bar * (box_hi[hi_idx] - z[hi_idx]))
    s_g = 1.0 - Gmat @ z[M:]
    B = np.zeros((Gmat.shape[0], d))
    B[:, M:] = Gmat
    r += B.T @ (1.0 / (t_bar * s_g))
    return float(np.max(np.abs(r)))


def constraint_report(instance: ProblemInstance, sol: Solution) -> dict:
    """Worst-case residuals of every constraint family at a solution."""
    m = instance.matrices
    lam, mu = sol.lam, sol.mu
    arrivals = m.F @ lam
    service = m.C * mu
    report = {
        "mu_lower": float(np.min(mu)),
        "mu_upper": float(np.max(mu) - 1.0),
        "scheduling": float(np.max(m.G @ mu - 1.0)),
        "stability_gap": float(np.min(service - arrivals)),
    }
    if instance.delta_s is not None:
        lhs = route_log_cdf(m, service - arrivals, instance.delta_s)
        report["latency_margin"] = float(np.min(lhs - math.log(instance.eta)))
    return report
