"""Solvers for the network design problems.

Two problems over arrival rates lambda (per UE, packets/s) and time fractions
mu (per edge), each with its own input and result type:

* minimum feasible delay, solve_min_delay_lp(matrices, lambda_min) ->
  MinDelay: after the change of variable t = -log(1-eta)/delta this is a
  linear program maximizing t with per-(edge, UE) rate-gap constraints;
  cross-checked against the closed-form row-minimum expression (implemented
  here independently).  t* <= 0 means the rate floor cannot be supported;
  min_feasible_delay(t*, eta) turns a positive t* into the delay delta*.
  The LP goes straight to HiGHS (scipy's bundled binding) with the model and
  options scipy's linprog(method="highs") would pass it, and linprog's
  success rule, without linprog's per-call parsing and option checks;
  linprog stays in tests/test_optimizer.py as the oracle that pins the
  returned bytes.

* utility maximization, solve_utility_max(ProblemInstance) -> Solution, of
  one objective, the sum-log (proportional-fair) utility sum log(lambda_m),
  under scheduling and the per-route delivery probability constraint
  sum log(1 - exp(-gap*delta/h_m)) >= log(eta); solved with a log-barrier
  interior-point method with damped Newton steps.  It returns only
  KKT-certified solutions and raises otherwise: InfeasibleDelay when no
  strictly feasible point exists, NumericalFailure when the solver fails.
  Each route constraint sees (lambda, mu)
  only through the |E| edge gaps C mu - F lambda, so the barrier gradient and
  Hessian are assembled in edge space (_LatencyGeometry) from per-pair
  vectors: O(M d^2) flops per Newton step for d = M + |E| variables, where a
  per-(UE, edge) pair matrix would cost O(n_pairs d^2).

The interior-point method's tuning values are module constants:

* LAMBDA_FLOOR: lower bound on every UE rate, which keeps log(lambda) finite;
  also the rate floor of the LP pre-check.
* BARRIER_MULT: factor by which each outer step raises the barrier weight;
  Boyd & Vandenberghe (ch. 11) report that 10 to 20 works well.

The outer loop raises the barrier weight until the duality gap n_con/t meets
its target or the weight passes 1e14 (12 steps at BARRIER_MULT = 20).
Certification rests on one mechanism: each centering runs until the KKT
stationarity residual at its barrier weight is at most 0.4e-6 *
max(|objective|, 1e-3), and a returned solution must pass a gate of 1e-6 on
the same scale, checked once on the final iterate; a solve that fails the
gate raises NumericalFailure.

The Newton loop (_newton_barrier, _Barrier with its kkt_residual, the
geometries, _solve_pd) must keep its float operations: the same matmul
operands and layouts, the same summation orders, and the same sequence of
additions into the gradient and Hessian, so that every solve repeats its
iterates bit for bit.  Speed-ups there cut only interpreter and wrapper
overhead; tests/test_optimizer.py holds the oracles (the scipy
cho_factor/cho_solve solve, the full-assembly gradient, and pinned solver
floats) that check this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize._highspy._core import (
    HighsDebugLevel,
    HighsLp,
    HighsModelStatus,
    HighsOptions,
    MatrixFormat,
    _Highs,
    kHighsInf,
    simplex_constants,
)

from .queueing import route_log_cdf
from .topology import NetworkMatrices


LAMBDA_FLOOR = 1e-6
BARRIER_MULT = 20.0
# Newton steps per centering.  Converged centerings took at most 46 over 162
# rate-sweep and large-tree benchmark batches; only a centering that fails
# (the point that raises "did not converge at t = 1") runs into this cap.
_MAX_NEWTON = 200

# The options linprog(method="highs") sets (scipy's _linprog_highs); HiGHS
# copies them in passOptions, so one object serves every LP.
_HIGHS_OPTIONS = HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
# linprog's feasibility tolerance on bounds and rows: sqrt(tol) * 10 at its
# default tol = 1e-9 (scipy's _check_result)
_LP_TOL = math.sqrt(1e-9) * 10


class InfeasibleRate(ValueError):
    """The network cannot support the requested per-UE arrival rate."""


class InfeasibleDelay(ValueError):
    """The delay threshold is below the network's minimum feasible delay."""


class NumericalFailure(RuntimeError):
    """Solver did not converge within its iteration budget."""


@dataclass(frozen=True)
class ProblemInstance:
    """Input of the utility problem: the network, the delivery probability
    target eta and the delay threshold delta_s."""

    matrices: NetworkMatrices
    eta: float
    delta_s: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if self.delta_s <= 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class Solution:
    """A KKT-certified utility optimum."""

    lam: np.ndarray
    mu: np.ndarray
    objective: float
    kkt_residual: float


@dataclass(frozen=True)
class MinDelay:
    """The min-delay LP optimum: t*, its schedule mu and residual, the
    largest constraint violation at the LP solver's point.  t* <= 0 means
    the rate floor cannot be supported."""

    t_star: float
    mu: np.ndarray
    residual: float


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


def solve_min_delay_lp(matrices: NetworkMatrices, lambda_min: float) -> MinDelay:
    """Maximize t over (t, mu) with lambda pinned to lambda_min (its optimum).

    Constraints: 0 <= mu <= 1, G mu <= 1, and c_v mu_v - (F lambda)_v >= t*h_m
    for every edge/UE pair on a route.  The pairs on a common edge collapse to
    the binding one (largest h_m, i.e. h~), so there is one rate-gap row per
    edge.  t is left free: a nonpositive optimum signals that lambda_min
    itself is infeasible.
    """
    m = matrices
    E, M = m.num_edges, m.num_ue
    load = m.F @ np.full(M, lambda_min)

    # rows over (t, mu): scheduling G mu <= 1, then the rate gaps
    # t*h~_v - c_v mu_v <= -lambda_min*(F 1)_v; diag(-C) keeps every zero +0.0
    A_ub = np.block([[np.zeros((m.G.shape[0], 1)), m.G],
                     [m.h_tilde[:, None].astype(float), np.diag(-m.C)]])
    b_ub = np.concatenate((np.ones(m.G.shape[0]), -load))

    c = np.concatenate(([-1.0], np.zeros(E)))
    lb = np.concatenate(([-kHighsInf], np.zeros(E)))
    ub = np.concatenate(([kHighsInf], np.ones(E)))
    x = _highs_solve(c, A_ub, b_ub, lb, ub)
    residual = float(np.max(np.maximum(A_ub @ x - b_ub, 0.0)))
    # linprog's success rule, with rows checked on this residual rather than
    # on HiGHS's row activities (equal to round-off); a NaN fails every test
    if not (np.all(x >= lb - _LP_TOL) and np.all(x <= ub + _LP_TOL)
            and residual <= _LP_TOL):
        raise NumericalFailure(
            f"LP solver failed: its point violates a bound or row by more "
            f"than {_LP_TOL:.2e} (row residual {residual:.3g})"
        )
    return MinDelay(t_star=float(x[0]), mu=np.clip(x[1:], 0.0, 1.0), residual=residual)


def _highs_solve(c, A_ub, b_ub, lb, ub) -> np.ndarray:
    """min c x s.t. A_ub x <= b_ub, lb <= x <= ub, by HiGHS with the model
    linprog(method="highs") builds: the nonzeros of A_ub in column-major
    (CSC) order and -inf row lower bounds.  A fresh solver per call, so no
    basis carries over.  Returns x; raises NumericalFailure unless HiGHS
    reports the model optimal."""
    n_row, n_col = A_ub.shape
    nz = A_ub.T != 0
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_col
    lp.num_row_ = lp.a_matrix_.num_row_ = n_row
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(nz.sum(axis=1))))
    lp.a_matrix_.index_ = np.nonzero(nz)[1]
    lp.a_matrix_.value_ = A_ub.T[nz]
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = np.full(n_row, -kHighsInf)
    lp.row_upper_ = b_ub
    highs = _Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise NumericalFailure(
            f"LP solver failed: model status is {highs.modelStatusToString(status)}"
        )
    return np.array(highs.getSolution().col_value)


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
        if x.min() <= 0:
            return None, x
        return np.bincount(self.pair_ue, _psi(x), self.num_ue) - log_eta, x

    def _jacobian(self, d1):
        """Jg = R J, R (M x |E|) holding psi'(x_p) scale_p at (m, v)."""
        R = np.zeros(self.num_ue * self.num_edges)
        R[self.pair_flat] = d1 * self.scale
        return R.reshape(self.num_ue, self.num_edges) @ self.J

    def grad_barrier(self, z, g, x):
        """The gradient of grad_hess_barrier, by the same operations."""
        d1, _ = _dpsi_d2psi(x)
        return -(self._jacobian(d1) / g[:, None]).sum(axis=0)

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
        Jg = self._jacobian(d1)
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
    diagonal jitter when near-boundary barrier terms destroy definiteness.

    Calls LAPACK's Cholesky routines with the arguments scipy's cho_factor
    and cho_solve pass them, without those wrappers' per-call overhead.  A
    non-finite system raises NumericalFailure.
    """
    if not (np.isfinite(H).all() and np.isfinite(rhs).all()):
        raise NumericalFailure("non-finite Newton system")
    jitter = 0.0
    scale = np.abs(H.diagonal()).max()
    for _ in range(12):
        c, info = dpotrf(H + jitter * np.eye(H.shape[0]) if jitter else H,
                         lower=False, clean=False)
        if info == 0:
            return dpotrs(c, rhs, lower=False)[0]
        jitter = max(jitter * 100.0, 1e-14 * scale)
    raise NumericalFailure("Hessian factorization failed")


class _Barrier:
    """One barrier problem, min f(z) - sum log(slacks) / t, built once per
    solve (and per phase-one run) with its slack layout and constraint count
    n_con.  f_val(z) returns the objective value; f_grad_hess(z) its gradient
    and the diagonal of its Hessian.  Slacks: z - box_lo, box_hi - z (finite
    entries only), 1 - G mu with mu = z[M:], and the margins g_m via geom.
    """

    def __init__(self, f_val, f_grad_hess, geom, log_eta, box_lo, box_hi, Gmat, M):
        self.f_val, self.f_grad_hess = f_val, f_grad_hess
        self.geom, self.log_eta = geom, log_eta
        self.Gmat, self.M = Gmat, M
        self.d = d = box_lo.size
        self.lo_idx = np.flatnonzero(np.isfinite(box_lo))
        self.hi_idx = np.flatnonzero(np.isfinite(box_hi))
        self.lo_val, self.hi_val = box_lo[self.lo_idx], box_hi[self.hi_idx]
        self.diag = np.diag_indices(d)
        self.B = np.zeros((Gmat.shape[0], d))
        self.B[:, M:] = Gmat
        self.n_con = self.lo_idx.size + self.hi_idx.size + Gmat.shape[0] + M

    def slacks(self, z):
        """(g, x, s_lo, s_hi, s_g) at a strictly feasible z, else None."""
        g, x = self.geom.eval(z, self.log_eta)
        if g is None or not g.min() > 0:
            return None
        s_lo = z[self.lo_idx] - self.lo_val
        s_hi = self.hi_val - z[self.hi_idx]
        s_g = 1.0 - self.Gmat @ z[self.M:]
        if s_lo.min() > 0 and s_hi.min() > 0 and s_g.min() > 0:
            return g, x, s_lo, s_hi, s_g
        return None

    # work with f + phi/t rather than t*f + phi: same minimizer, but the
    # value stays O(|f|) at large t, so line-search progress is resolvable
    def value(self, z, st, t_bar):
        g, _, s_lo, s_hi, s_g = st
        return self.f_val(z) - (
            np.log(g).sum()
            + np.log(s_lo).sum()
            + np.log(s_hi).sum()
            + np.log(s_g).sum()
        ) / t_bar

    def assemble(self, z, st, t_bar, hess=True):
        """The barrier gradient at z, and its Hessian if hess (else None)."""
        g, x, s_lo, s_hi, s_g = st
        d, lo_idx, hi_idx, B = self.d, self.lo_idx, self.hi_idx, self.B
        fgrad, fhess = self.f_grad_hess(z)
        grad = fgrad.copy()
        if hess:
            gl, Hl, _ = self.geom.grad_hess_barrier(z, g, x)
        else:
            gl = self.geom.grad_barrier(z, g, x)
        grad += gl / t_bar
        gb = np.zeros(d)
        gb[lo_idx] -= 1.0 / s_lo
        gb[hi_idx] += 1.0 / s_hi
        grad += gb / t_bar
        grad += B.T @ (1.0 / s_g) / t_bar
        if not hess:
            return grad, None

        H = np.zeros((d, d))
        H[self.diag] += fhess
        H += Hl / t_bar
        hb = np.zeros(d)
        hb[lo_idx] += 1.0 / s_lo**2
        hb[hi_idx] += 1.0 / s_hi**2
        H[self.diag] += hb / t_bar
        H += B.T @ ((1.0 / s_g**2)[:, None] * B) / t_bar
        return grad, H

    def kkt_residual(self, z, t_bar):
        """Stationarity residual with the barrier dual estimates nu_i = 1/(t h_i)."""
        g, x, s_lo, s_hi, s_g = self.slacks(z)
        fgrad, _ = self.f_grad_hess(z)
        r = fgrad.copy()  # gradient of the minimized objective (-utility)

        r += self.geom.grad_barrier(z, g, x) / t_bar

        r[self.lo_idx] -= 1.0 / (t_bar * s_lo)
        r[self.hi_idx] += 1.0 / (t_bar * s_hi)
        r += self.B.T @ (1.0 / (t_bar * s_g))
        return float(np.abs(r).max())


def _newton_barrier(barrier, z0, t_bar, gtol=0.0):
    """Minimize the barrier problem at weight t_bar from z0.  Returns (z, converged)."""
    slacks, value, assemble = barrier.slacks, barrier.value, barrier.assemble
    z = z0.copy()
    state = slacks(z)
    if state is None:
        raise NumericalFailure("barrier start point not strictly feasible")
    bval = value(z, state, t_bar)

    grad_phase = False  # value progress exhausted; descend on gradient norm
    for _ in range(_MAX_NEWTON):
        grad, H = assemble(z, state, t_bar)
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
                st = slacks(cand)
                if st is not None:
                    bc = value(cand, st, t_bar)
                    if bc <= bval - 0.25 * t_step * decrement + 4e-16 * scale:
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
                st = slacks(cand)
                if st is not None:
                    gc, _ = assemble(cand, st, t_bar, hess=False)
                    if float(np.abs(gc).max()) < 0.9 * gnorm:
                        z, bval, state = cand, value(cand, st, t_bar), st
                        accepted = True
                        break
                t_step *= 0.5
            if not accepted:
                # gradient is at its float-precision floor for this t_bar
                return z, gnorm <= max(gtol, 1e-9 * scale)
    return z, False


def _sum_log(lam: np.ndarray) -> float:
    """The sum-log utility sum log(lambda_m)."""
    return float(np.log(lam).sum())


def solve_utility_max(instance: ProblemInstance) -> Solution:
    """Maximize the sum-log utility subject to scheduling and
    delivery-probability constraints.  Raises InfeasibleDelay when no
    strictly feasible point exists for the given delta (phase I fails).
    """
    m = instance.matrices
    delta, eta = instance.delta_s, instance.eta
    E, M = m.num_edges, m.num_ue
    d = M + E
    log_eta = math.log(eta)

    # quick necessary check via the per-hop LP relaxation
    lp = solve_min_delay_lp(m, LAMBDA_FLOOR)
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
        if best is None:
            raise NumericalFailure("no start candidate has positive rate gaps")
        z = best if best_margin > 1e-8 else _phase_one(best, geom, log_eta, box_lo,
                                                       box_hi, Gmat, M)

    def f_val(zz):
        return -_sum_log(zz[:M])

    def f_grad_hess(zz):
        lam = zz[:M]
        grad = np.zeros(d)
        hd = np.zeros(d)
        grad[:M] = -1.0 / lam
        hd[:M] = 1.0 / lam**2
        return grad, hd

    barrier = _Barrier(f_val, f_grad_hess, geom, log_eta, box_lo, box_hi, Gmat, M)

    def gtol_for(zz):
        return 0.4e-6 * max(abs(_sum_log(zz[:M])), 1e-3)

    def center(zz, t_from, t_to, depth=0):
        """Re-center at barrier weight t_to, bisecting the jump on failure."""
        z2, ok = _newton_barrier(barrier, zz, t_to, gtol_for(zz))
        if ok:
            return z2
        if depth >= 6 or t_to / t_from < 1.3:
            raise NumericalFailure(f"inner Newton did not converge at t = {t_to:.3g}")
        mid = math.sqrt(t_from * t_to)
        return center(center(zz, t_from, mid, depth + 1), mid, t_to, depth + 1)

    t_bar = 1.0
    z = center(z, 1.0, t_bar)
    while t_bar <= 1e14:
        gap = barrier.n_con / t_bar
        if gap <= 1e-6 * max(abs(_sum_log(z[:M])), 1e-3):
            break
        try:
            z = center(z, t_bar, t_bar * BARRIER_MULT)
        except NumericalFailure:
            break  # gradient floor reached; z is centered at t_bar
        t_bar *= BARRIER_MULT

    # every centering returns a gradient norm within gtol_for, and that
    # gradient is the KKT residual at its barrier weight: the 1e-6 gate
    # below sits 2.5x above the 0.4e-6 inner tolerance
    kkt = barrier.kkt_residual(z, t_bar)
    obj = _sum_log(z[:M])
    if kkt > 1e-6 * max(abs(obj), 1e-3):
        raise NumericalFailure(
            f"could not certify stationarity: residual {kkt:.3g} "
            f"exceeds 1e-6 * |objective| = {1e-6 * abs(obj):.3g}"
        )

    return Solution(lam=z[:M], mu=z[M:], objective=obj, kkt_residual=kkt)


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

    # g below is the shifted margin u_m = g_m(z) - s
    def grad_barrier(self, ze, g, x):
        gl = self.geom.grad_barrier(ze[:-1], g, x)
        return np.concatenate((gl, [float((1.0 / g).sum())]))

    def grad_hess_barrier(self, ze, g, x):
        d = ze.size - 1
        gl, Hl, Jg = self.geom.grad_hess_barrier(ze[:-1], g, x)
        ge = np.concatenate((gl, [float((1.0 / g).sum())]))
        He = np.zeros((d + 1, d + 1))
        He[:d, :d] = Hl
        cross = -(Jg / (g**2)[:, None]).sum(axis=0)
        He[:d, -1] = cross
        He[-1, :d] = cross
        He[-1, -1] = float((1.0 / g**2).sum())
        return ge, He, None


def _phase_one(z0, geom, log_eta, box_lo, box_hi, Gmat, M):
    """Maximize the worst delivery-constraint margin until it is positive.

    Augments z with a scalar s, maximizing s subject to g_m(z) >= s and the
    original box/scheduling constraints, from a z0 with positive rate gaps.
    Returns a strictly feasible z, raises InfeasibleDelay when none exists,
    and NumericalFailure when a centering does not converge.
    """
    d = z0.size
    g0, _ = geom.eval(z0, log_eta)
    s0 = float(np.min(g0)) - 1.0

    sg = _ShiftedGeometry(geom)
    ze = np.concatenate((z0, [s0]))
    lo = np.concatenate((box_lo, [-np.inf]))
    hi = np.concatenate((box_hi, [np.inf]))
    Gext = np.hstack((Gmat, np.zeros((Gmat.shape[0], 1))))

    def f_val(zz):
        return -zz[-1]  # maximize s

    grad_s = np.zeros(d + 1)
    grad_s[-1] = -1.0

    def f_grad_hess(zz):
        return grad_s, np.zeros(d + 1)

    barrier = _Barrier(f_val, f_grad_hess, sg, log_eta, lo, hi, Gext, M)
    t_bar = 1.0
    while t_bar <= 1e12:
        ze, ok = _newton_barrier(barrier, ze, t_bar)
        g, _ = geom.eval(ze[:-1], log_eta)
        if g is not None and g.min() > 1e-8:
            return ze[:-1]
        if not ok:
            raise NumericalFailure(f"phase-one Newton did not converge at t = {t_bar:.3g}")
        # at a centered point the duality gap n_con/t bounds how far s is
        # below the best achievable margin (Boyd & Vandenberghe 11.4.1)
        s = float(ze[-1])
        s_bound = s + barrier.n_con / t_bar
        if s_bound < -1e-9 * max(1.0, abs(s)):
            raise InfeasibleDelay(
                "no strictly feasible point for the delivery-probability "
                f"constraints (best margin at most {s_bound:.3g})"
            )
        t_bar *= BARRIER_MULT
    if g is not None and g.min() > 0:
        return ze[:-1]
    raise InfeasibleDelay(
        "no strictly feasible point for the delivery-probability constraints "
        f"(best margin {float(g.min()) if g is not None else float('nan'):.3g})"
    )


def constraint_report(instance: ProblemInstance, sol: Solution) -> dict:
    """Worst-case residuals of every constraint family at a solution."""
    m = instance.matrices
    lam, mu = sol.lam, sol.mu
    arrivals = m.F @ lam
    service = m.C * mu
    lhs = route_log_cdf(m, service - arrivals, instance.delta_s)
    return {
        "mu_lower": float(np.min(mu)),
        "mu_upper": float(np.max(mu) - 1.0),
        "scheduling": float(np.max(m.G @ mu - 1.0)),
        "stability_gap": float(np.min(service - arrivals)),
        "latency_margin": float(np.min(lhs - math.log(instance.eta))),
    }
