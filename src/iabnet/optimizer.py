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
  solve_utility_batch(instances) solves many problems at once and returns,
  per problem, its Solution or the exception its solve raised.

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

Batched evaluation.  The control flow of a solve (_utility_steps, its
centerings, _newton_barrier, _phase_one) is written once, as generators
that yield evaluation requests instead of calling numpy: the barrier value
of line-search candidates (with the Newton system of the first one that
passes), the gradient norm of gradient-phase candidates, or the KKT
residual.  A driver (_drive) advances every live problem, groups the
pending requests by kind and layout (the routing matrix, the box and the
width: d, or d + 1 in phase one), evaluates each group once with the
stacked _BarrierStack and _GeometryStack code, whose arrays carry a leading
batch axis, and sends each problem its replies.  solve_utility_max is that
driver on a batch of one, so there is one code path.  The LP pre-check, the
start search and the Cholesky solves (_solve_pd) stay per problem, and
problems too large to stack (_STACK_CELLS) run one after another through
solve_utility_max.

Bit-exact rules.  Each problem keeps its control flow and its float
operations, so every iterate, every artifact byte, and every exception type
and message are what the problem gives when solved alone; tests in
tests/test_optimizer.py check this, with pinned solver floats and linear
solve counts.  The stacked code keeps to operations whose per-row results
equal the one-problem calls (numpy 2.4, OpenBLAS 0.3.31):

* stacked matmuls, which numpy runs as one BLAS call per row with the
  operands and layouts of the 2-D call: swapaxes(Js, 1, 2) @ Js (syrk),
  R @ J, swapaxes(B, 1, 2) @ (D * B), and a stacked matrix-vector product
  written J @ z[..., None] (einsum does not match);
* elementwise ufuncs, including log, exp and expm1 on contiguous arrays,
  and reductions along the last or middle axis (.sum(axis=1), .min), which
  add in the per-problem order;
* bincount over the offset indices pair + i * M, which keeps each bin's
  additions in order;
* a stack of one problem broadcasting its arrays over many rows.

The Cholesky factorization stays per problem (dpotrf/dpotrs through
_solve_pd): a stacked np.linalg.solve does not match.  Rows that leave the
domain are masked before any log or psi is taken.
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
# rate-sweep and large-tree benchmark batches; a centering runs into this cap
# only when it stalls on a gradient floor above its tolerance.  At the first
# weight (t = 1) the solve then goes on from the stalled iterate, which is
# strictly feasible; a later centering bisects its weight step instead.
_MAX_NEWTON = 200
# One stacked evaluation holds at most _STACK_CELLS // d^2 points of width d,
# and never fewer than one: stacking saves per-call overhead, which small
# problems are made of, while the d x d arrays of large ones would outgrow
# the cache (line K=8 w=20, d = 368, ran about 10% slower two at a time).
# solve_utility_batch solves a problem with room for one point on its own.
_STACK_CELLS = 1 << 17

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
    nx = -x
    e = np.exp(nx)
    em = np.expm1(nx)
    d1 = e / -em
    return d1, d1 / em


class _LatencyGeometry:
    """Edge-space structure of one problem's per-route delivery constraints.

    A latency pair p = (m, v), v on UE m's route, sees z = [lambda; mu] only
    through the edge gap (J z)_v = C_v mu_v - (F lambda)_v, with the |E| x d
    map J = [-F, diag(C)]:  x_p = scale_p (J z)_v, scale_p = delta / h_m, and
    g_m = sum of psi(x_p) over the route - log(eta).  Per-pair quantities stay
    vectors of length n_pairs; the barrier gradient and Hessian are assembled
    through J (Boyd & Vandenberghe, Convex Optimization, 11.3), so no
    per-(UE, edge) matrix of width d is formed.  The arithmetic lives in
    _GeometryStack; problems with equal layout (the routing matrix F) stack.
    """

    def __init__(self, m: NetworkMatrices, delta: float, log_eta: float):
        M, E = m.num_ue, m.num_edges
        self.pair_ue, self.pair_edge = np.nonzero(m.F.T)
        self.pair_flat = self.pair_ue * E + self.pair_edge  # index into M x E
        self.num_ue, self.num_edges = M, E
        scale = delta / m.h[self.pair_ue]
        self.F = m.F
        # scale, scale**2, C, J and log(eta), flattened into one row
        self.packed = _pack((scale, scale**2, m.C, np.hstack((-m.F, np.diag(m.C))), log_eta))
        self.layout = ("geometry", m.F.shape, m.F.tobytes())


def _pack(arrays):
    """One problem's arrays, flattened side by side into one row."""
    return np.concatenate([np.ravel(a) for a in arrays])


def _stack_rows(rows):
    """The packed rows stacked; one row is viewed, not copied."""
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


def _blocks(shapes):
    """(column slice, shape) of each array in a packed row."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append((slice(start, start + size), shape))
        start += size
    return out


def _unpack(P, blocks):
    """Views of the column blocks of the rows P, each reshaped to
    (rows, *shape)."""
    n = P.shape[0]
    return [P[:, cols].reshape(n, *shape) for cols, shape in blocks]


def _take(stack, rows):
    """A shallow copy of stack cut to rows (with repeats, in that order)."""
    out = object.__new__(type(stack))
    out.__dict__.update(stack.__dict__)
    out.unpack(stack.P[rows])
    return out


class _GeometryStack:
    """Latency geometries of one layout, their per-problem arrays (scale,
    C, J, log eta) stacked on a leading axis as views of one packed row per
    problem.  Every method takes points Z (k x d), one row per geometry (a
    stack of one broadcasts over any k), and applies the per-problem
    operations of _LatencyGeometry to each row; a bincount over the offset
    indices pair + i*M keeps each bin's additions in the per-problem order."""

    def __init__(self, geoms: list[_LatencyGeometry]):
        g = geoms[0]
        self.num_ue, self.num_edges = g.num_ue, g.num_edges
        self.pair_ue, self.pair_edge, self.pair_flat = g.pair_ue, g.pair_edge, g.pair_flat
        self.F = g.F
        P, E = g.pair_ue.size, g.num_edges
        self.columns = _blocks(((P,), (P,), (E,), (E, g.num_ue + E), (1,)))
        self.unpack(_stack_rows([x.packed for x in geoms]))
        self._bins: dict = {}  # shared with every take of this stack

    def unpack(self, P):
        self.P = P
        self.scale, self.scale2, self.C, self.J, self.log_eta = _unpack(P, self.columns)

    def bins(self, n):
        """For n rows, the offset indices of the pairs: their UE and edge
        bins, and their flat places in n stacked M x |E| matrices."""
        if n not in self._bins:
            rows = np.arange(n)[:, None]
            M, E = self.num_ue, self.num_edges
            self._bins[n] = ((self.pair_ue + M * rows).ravel(),
                             (self.pair_edge + E * rows).ravel(),
                             (self.pair_flat + M * E * rows).ravel())
        return self._bins[n]

    def take(self, rows: np.ndarray) -> "_GeometryStack":
        return _take(self, rows)

    def eval(self, Z):
        """(G, X, ok): the pair arguments X of every row, ok marking the rows
        whose arguments are all positive, and the margins G, meaningful in
        those rows only (the others are evaluated at x = 1)."""
        X = self.scale * (self.J @ Z[:, :, None])[:, self.pair_edge, 0]
        positive = X > 0
        ok = positive.all(axis=1)
        psi = _psi(np.where(positive, X, 1.0))
        n, M = X.shape[0], self.num_ue
        G = np.bincount(self.bins(n)[0], psi.ravel(), n * M).reshape(n, M) - self.log_eta
        return G, X, ok

    def _jacobian(self, d1):
        """Jg = R J per row, R (M x |E|) holding psi'(x_p) scale_p at (m, v)."""
        n = d1.shape[0]
        R = np.zeros(n * self.num_ue * self.num_edges)
        R[self.bins(n)[2]] = (d1 * self.scale).ravel()
        return R.reshape(n, self.num_ue, self.num_edges) @ self.J

    def grad_barrier(self, Z, G, X):
        """The gradient of grad_hess_barrier, by the same operations."""
        d1, _ = _dpsi_d2psi(X)
        return -(self._jacobian(d1) / G[:, :, None]).sum(axis=1)

    def grad_hess_barrier(self, Z, G, X):
        """Gradient and Hessian of -sum log(g_m) at strictly feasible rows.

        The constraint Jacobian is Jg = R J, where R (M x |E|) holds
        psi'(x_p) scale_p at (m, v).  With Js = Jg / g and
        c_v = sum over the pairs on edge v of psi''(x_p) scale_p^2 / g_m,
        H = Js^T Js - J^T diag(c) J.  The rows of J^T are -F^T and diag(C),
        so the second term costs one M x |E| x d product.
        """
        M, E = self.num_ue, self.num_edges
        n = X.shape[0]
        d1, d2 = _dpsi_d2psi(X)
        Jg = self._jacobian(d1)
        Js = Jg / G[:, :, None]
        grad = -Js.sum(axis=1)
        c = np.bincount(self.bins(n)[1], (d2 * self.scale2 / G[:, self.pair_ue]).ravel(),
                        n * E).reshape(n, E)
        cJ = c[:, :, None] * self.J
        H = Js.swapaxes(1, 2) @ Js
        H[:, :M] += self.F.T @ cJ
        H[:, M:] -= self.C[:, :, None] * cJ
        return grad, H, Jg


class _ShiftedGeometry:
    """Phase-one view of a geometry stack over extended points ze = (z, s):
    the margins become u_m = g_m(z) - s."""

    def __init__(self, geom: _GeometryStack):
        self.geom = geom

    def take(self, rows: np.ndarray) -> "_ShiftedGeometry":
        return _ShiftedGeometry(self.geom.take(rows))

    def eval(self, Ze):
        G, X, ok = self.geom.eval(Ze[:, :-1])
        return G - Ze[:, -1:], X, ok

    # G below holds the shifted margins u_m = g_m(z) - s
    def grad_barrier(self, Ze, G, X):
        gl = self.geom.grad_barrier(Ze[:, :-1], G, X)
        return np.concatenate((gl, (1.0 / G).sum(axis=1)[:, None]), axis=1)

    def grad_hess_barrier(self, Ze, G, X):
        gl, Hl, Jg = self.geom.grad_hess_barrier(Ze[:, :-1], G, X)
        n, d = Hl.shape[:2]
        ge = np.concatenate((gl, (1.0 / G).sum(axis=1)[:, None]), axis=1)
        He = np.zeros((n, d + 1, d + 1))
        He[:, :d, :d] = Hl
        cross = -(Jg / (G**2)[:, :, None]).sum(axis=1)
        He[:, :d, -1] = cross
        He[:, -1, :d] = cross
        He[:, -1, -1] = (1.0 / G**2).sum(axis=1)
        return ge, He, None


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
    n_con.  f is the negated sum-log utility of the rates z[:M], or, in phase
    one (phase_one=True, z = (lambda, mu, s)), -s.  Slacks: the margins g_m
    via geom (shifted by s in phase one), z - box_lo and box_hi - z (finite
    entries only), and 1 - G mu with mu = z[M:].  The arithmetic lives in
    _BarrierStack; barriers with equal layout stack.
    """

    def __init__(self, geom, box_lo, box_hi, Gmat, M, phase_one=False):
        self.geom, self.Gmat, self.M, self.phase_one = geom, Gmat, M, phase_one
        self.d = d = box_lo.size
        self.lo_idx = np.flatnonzero(np.isfinite(box_lo))
        self.hi_idx = np.flatnonzero(np.isfinite(box_hi))
        self.lo_val, self.hi_val = box_lo[self.lo_idx], box_hi[self.hi_idx]
        self.B = np.zeros((Gmat.shape[0], d))
        self.B[:, M:] = Gmat
        self.n_con = self.lo_idx.size + self.hi_idx.size + Gmat.shape[0] + M
        self.layout = ("barrier", phase_one, geom.layout, box_lo.tobytes(),
                       box_hi.tobytes(), Gmat.shape)
        self.packed = _pack((Gmat, self.B))


def _as_slice(idx):
    """idx as a slice if it is one contiguous run, so that indexing with it
    gives views; else idx itself."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class _BarrierStack:
    """Barriers of one layout, their per-problem arrays (G, B and the
    geometry's) stacked on a leading axis.  Every method takes points Z
    (k x d), one row per barrier (a stack of one broadcasts over any k), and
    applies the per-problem barrier operations to each row; T holds each
    row's barrier weight t.  The slacks of a row sit side by side in one row
    of S, in blocks: the margins g, s_lo = z - box_lo, s_hi = box_hi - z and
    s_g = 1 - G mu; each block's log is summed on its own."""

    def __init__(self, barriers: list[_Barrier]):
        b = barriers[0]
        geom = _GeometryStack([x.geom for x in barriers])
        self.geom = _ShiftedGeometry(geom) if b.phase_one else geom
        self.phase_one, self.M, self.d = b.phase_one, b.M, b.d
        self.lo_idx, self.hi_idx = _as_slice(b.lo_idx), _as_slice(b.hi_idx)
        self.lo_val, self.hi_val = b.lo_val, b.hi_val
        ends = np.cumsum([b.M, b.lo_idx.size, b.hi_idx.size, b.Gmat.shape[0]])
        self.blocks = [slice(i, j) for i, j in zip((0, *ends[:-1]), ends)]
        self.columns = _blocks((b.Gmat.shape, b.B.shape))
        self.unpack(_stack_rows([x.packed for x in barriers]))

    def unpack(self, P):
        self.P = P
        self.Gmat, self.B = _unpack(P, self.columns)

    def take(self, rows) -> "_BarrierStack":
        out = _take(self, rows)
        out.geom = self.geom.take(rows)
        return out

    def repeat(self, sizes, n):
        """This stack with row r repeated sizes[r] times (n rows in all).  A
        stack of one problem is its own repeat: its arrays broadcast."""
        if n == len(sizes) or len(sizes) == 1:
            return self
        return self.take([r for r, k in enumerate(sizes) for _ in range(k)])

    def slacks(self, Z):
        """(ok, X, S): ok marks the strictly feasible rows of Z; the pair
        arguments X and the slacks S are meaningful in those rows."""
        G, X, ok = self.geom.eval(Z)
        S = np.concatenate((G, Z[:, self.lo_idx] - self.lo_val, self.hi_val - Z[:, self.hi_idx],
                            1.0 - (self.Gmat @ Z[:, self.M:, None])[:, :, 0]), axis=1)
        ok &= S.min(axis=1) > 0
        return ok, X, S

    # work with f + phi/t rather than t*f + phi: same minimizer, but the
    # value stays O(|f|) at large t, so line-search progress is resolvable
    def value(self, Z, S, T):
        L = np.log(S)
        g, lo, hi, sg = (L[:, b].sum(axis=1) for b in self.blocks)
        f = -Z[:, -1] if self.phase_one else -np.log(Z[:, :self.M].copy()).sum(axis=1)
        return f - (g + lo + hi + sg) / T

    def _f_grad(self, Z, hess):
        """f's gradient at each row, and its Hessian diagonal if hess."""
        n, M = Z.shape[0], self.M
        grad = np.zeros((n, self.d))
        hd = np.zeros((n, self.d)) if hess else None
        if self.phase_one:
            grad[:, -1] = -1.0
        else:
            lam = Z[:, :M].copy()
            grad[:, :M] = -1.0 / lam
            if hess:
                hd[:, :M] = 1.0 / lam**2
        return grad, hd

    def assemble(self, Z, X, S, T, hess=True):
        """The barrier gradient at each row, and its Hessian if hess (else None)."""
        inv = 1.0 / S
        g, lo, hi, sg = self.blocks
        lo_idx, hi_idx, B = self.lo_idx, self.hi_idx, self.B
        n, d = Z.shape
        grad, fhess = self._f_grad(Z, hess)
        t = T[:, None]
        if hess:
            gl, Hl, _ = self.geom.grad_hess_barrier(Z, S[:, g], X)
        else:
            gl = self.geom.grad_barrier(Z, S[:, g], X)
        grad += gl / t
        gb = np.zeros((n, d))
        gb[:, lo_idx] -= inv[:, lo]
        gb[:, hi_idx] += inv[:, hi]
        grad += gb / t
        grad += (B.swapaxes(1, 2) @ inv[:, sg, None])[:, :, 0] / t
        if not hess:
            return grad, None

        inv2 = 1.0 / S**2
        H = np.zeros((n, d, d))
        diag = H.reshape(n, d * d)[:, :: d + 1]  # a view of each row's diagonal
        diag += fhess
        Hl /= T[:, None, None]  # in place, as are the divisions below
        H += Hl
        del Hl
        hb = np.zeros((n, d))
        hb[:, lo_idx] += inv2[:, lo]
        hb[:, hi_idx] += inv2[:, hi]
        diag += hb / t
        Hg = B.swapaxes(1, 2) @ (inv2[:, sg, None] * B)
        Hg /= T[:, None, None]
        H += Hg
        return grad, H

    def kkt_residual(self, Z, X, S, T):
        """Stationarity residual with the barrier dual estimates nu_i = 1/(t h_i)."""
        g, s_lo, s_hi, s_g = (S[:, b] for b in self.blocks)
        r, _ = self._f_grad(Z, False)  # gradient of the minimized objective (-utility)
        t = T[:, None]
        r += self.geom.grad_barrier(Z, g, X) / t

        r[:, self.lo_idx] -= 1.0 / (t * s_lo)
        r[:, self.hi_idx] += 1.0 / (t * s_hi)
        r += (self.B.swapaxes(1, 2) @ (1.0 / (t * s_g))[:, :, None])[:, :, 0]
        return np.abs(r).max(axis=1)


# Evaluation requests a solve yields: (kind, barrier, Z, t, bounds), with
# one point per row of Z and one bound per point; the reply is None where a
# point is not strictly feasible.
# * KKT: the stationarity residual at weight t of the one point.
# * VALUE: (values, newton), the barrier value at weight t of each point,
#   and newton = (value, gradient, Hessian, gradient max-norm) at the first
#   point whose value is at most its bound, or None if there is none.
# * DESCENT: (norms, newton), the max-norm of the barrier gradient at each
#   point, and newton at the first point whose norm is below its bound.
# So a point a line search accepts comes with its Newton system.
_VALUE, _DESCENT, _KKT = range(3)


def _evaluate(kind, stack, Z, T, bounds, sizes):
    """Answer one group of requests, whose points are the rows of Z,
    sizes[r] of them for request r in order; stack holds each request's
    barrier once.  Returns one reply per request."""
    n = Z.shape[0]
    rep = stack.repeat(sizes, n)
    ok, X, S = rep.slacks(Z)
    tests = [None] * n
    rows = np.flatnonzero(ok).tolist()
    if rows:
        f = slice(None) if len(rows) == n else rows
        if kind == _VALUE:
            out = rep.value(Z[f], S[f], T[f])
        else:
            sub = rep if len(rows) == n or len(sizes) == 1 else rep.take(rows)
            if kind == _KKT:
                out = sub.kkt_residual(Z[f], X[f], S[f], T[f])
            else:
                out = np.abs(sub.assemble(Z[f], X[f], S[f], T[f], hess=False)[0]).max(axis=1)
        for i, v in zip(rows, out.tolist()):
            tests[i] = v
    if kind == _KKT:  # one point per request
        return tests

    # the first point of each request that passes its test
    firsts, start = [], 0
    for size in sizes:
        first = None
        for i in range(start, start + size):
            v = tests[i]
            if v is not None and (v <= bounds[i] if kind == _VALUE else v < bounds[i]):
                first = i
                break
        firsts.append(first)
        start += size
    need = [r for r, j in enumerate(firsts) if j is not None]
    if need:
        at = [firsts[r] for r in need]
        sub = stack if len(need) == len(sizes) else stack.take(need)
        a = slice(None) if len(at) == n else at
        Za, Sa, Ta = Z[a], S[a], T[a]
        grad, H = sub.assemble(Za, X[a], Sa, Ta)
        vals = [tests[j] for j in at] if kind == _VALUE else sub.value(Za, Sa, Ta).tolist()
        newton = iter(zip(vals, grad, H, np.abs(grad).max(axis=1).tolist()))
    replies, start = [], 0
    for size, j in zip(sizes, firsts):
        replies.append((tests[start:start + size], None if j is None else next(newton)))
        start += size
    return replies


def _max_rows(d):
    """How many points of width d one stacked evaluation holds."""
    return max(1, _STACK_CELLS // (d * d))


def _drive(steps):
    """Run solve generators to completion: advance every live one, group
    their pending requests by kind and layout, answer each group with one
    stacked evaluation and send the replies back.  Returns what each
    generator returned, or the exception it raised."""
    out = [None] * len(steps)
    replies = [None] * len(steps)
    live = list(range(len(steps)))
    stacks: dict = {}  # a group's barriers -> their stack, kept for the batch
    while live:
        groups: dict = {}
        for i in live:
            reply, replies[i] = replies[i], None
            try:
                kind, barrier, Z, t, bounds = steps[i].send(reply)
            except StopIteration as stop:
                out[i] = stop.value
                continue
            except Exception as exc:  # this problem's verdict; the rest go on
                # without this frame in its traceback, which would tie a
                # reference cycle through out and keep the batch alive
                out[i] = exc.with_traceback(exc.__traceback__.tb_next)
                continue
            # a full group is closed and a new one opened under a new key
            key = (kind, barrier.layout)
            group = groups.get(key)
            if group is not None and len(group[3]) + len(bounds) > _max_rows(barrier.d):
                groups[key + (len(groups),)] = group
                group = None
            if group is None:
                group = groups[key] = ([], [], [], [], [], [])
            ids, barriers, Zs, ts, all_bounds, sizes = group
            ids.append(i)
            barriers.append(barrier)
            Zs.append(Z)
            ts += [t] * len(bounds)
            all_bounds += bounds
            sizes.append(len(bounds))
        live = []
        for (kind, *_), (ids, barriers, Zs, ts, bounds, sizes) in groups.items():
            key = tuple(barriers)
            stack = stacks.get(key)
            if stack is None:
                stack = stacks[key] = _BarrierStack(barriers)
            Z = Zs[0] if len(Zs) == 1 else np.concatenate(Zs)
            for i, reply in zip(ids, _evaluate(kind, stack, Z, np.array(ts), bounds, sizes)):
                replies[i] = reply
            live += ids
        live.sort()
    return out


def _margins(geoms, Z):
    """The margins g(z) of each row of Z, or None where a pair argument is
    not positive; geoms stacks one geometry per row, or one for all rows."""
    G, _, ok = geoms.eval(Z)
    return [g if k else None for g, k in zip(G, ok)]


def _newton_barrier(barrier, z0, t_bar, gtol=0.0):
    """Minimize the barrier problem at weight t_bar from z0.  A generator of
    requests; returns (z, converged).

    The line searches ask for their candidates in blocks, as many as the
    previous step needed (one at first), and take the first one that
    passes, so that a solve needs fewer rounds of evaluation; the candidates
    and the tests are those of a one-at-a-time search.
    """
    z = z0.copy()
    _, newton = yield (_VALUE, barrier, z[None], t_bar, [math.inf])
    if newton is None:
        raise NumericalFailure("barrier start point not strictly feasible")
    bval, grad, H, gnorm = newton

    grad_phase = False  # value progress exhausted; descend on gradient norm
    width, max_width = 1, _max_rows(barrier.d)
    for _ in range(_MAX_NEWTON):
        # the rescaled gradient is the KKT stationarity residual with the
        # barrier dual estimates, so gtol targets the certificate directly
        if gtol > 0.0 and gnorm <= gtol:
            return z, True

        step = _solve_pd(H, -grad)
        decrement = -float(grad @ step)
        grad = H = newton = None  # let the evaluation's stacked arrays go
        scale = max(1.0, abs(bval))
        if not grad_phase and decrement / 2.0 <= 1e-13 * scale:
            if gtol <= 0.0:
                return z, True
            grad_phase = True

        accepted = False
        if not grad_phase:
            # backtracking on the barrier value, staying strictly feasible
            t_step, tried = 1.0, 0
            while tried < 60 and not accepted:
                ts, bounds = [], []
                for _ in range(min(width, 60 - tried)):
                    ts.append(t_step)
                    bounds.append(bval - 0.25 * t_step * decrement + 4e-16 * scale)
                    t_step *= 0.5
                cands = z + np.multiply.outer(ts, step)
                values, newton = yield (_VALUE, barrier, cands, t_bar, bounds)
                for i, bc in enumerate(values):
                    tried += 1
                    if bc is not None and bc <= bounds[i]:
                        z, (bval, grad, H, gnorm) = cands[i], newton
                        accepted = True
                        width = min(tried, max_width)
                        break
            if not accepted:
                grad_phase = True
        if grad_phase:
            # near the center the value decrements drown in float noise, but
            # Newton still contracts the gradient; accept on gradient norm
            t_step, tried = 1.0, 0
            bound = 0.9 * gnorm
            while tried < 30 and not accepted:
                ts = []
                for _ in range(min(width, 30 - tried)):
                    ts.append(t_step)
                    t_step *= 0.5
                cands = z + np.multiply.outer(ts, step)
                norms, newton = yield (_DESCENT, barrier, cands, t_bar, [bound] * len(ts))
                for i, gc in enumerate(norms):
                    tried += 1
                    if gc is not None and gc < bound:
                        z, (bval, grad, H, gnorm) = cands[i], newton
                        accepted = True
                        width = min(tried, max_width)
                        break
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
    This is the batch driver on a batch of one.
    """
    (result,) = _drive([_utility_steps(instance)])
    if isinstance(result, Exception):
        raise result
    return result


def solve_utility_batch(instances: list[ProblemInstance]) -> list[Solution | Exception]:
    """Solve every instance, each with its own control flow and float
    operations, so that each result has the bytes its solve alone gives;
    the problems' barrier evaluations run stacked.  Returns, per instance,
    its Solution or the exception its solve raised (InfeasibleDelay,
    NumericalFailure, ...).

    A problem too large to stack (one point of its width d fills a stacked
    evaluation) gains nothing from running beside the others, so those are
    solved one after another through solve_utility_max, one alive at a time.
    """
    out: list = [None] * len(instances)
    stacked = []
    for i, inst in enumerate(instances):
        m = inst.matrices
        if _max_rows(m.num_ue + m.num_edges) > 1:
            stacked.append(i)
            continue
        try:
            out[i] = solve_utility_max(inst)
        except Exception as exc:  # without this frame, as in _drive
            out[i] = exc.with_traceback(exc.__traceback__.tb_next)
    for i, result in zip(stacked, _drive([_utility_steps(instances[i]) for i in stacked])):
        out[i] = result
    return out


def _utility_steps(instance: ProblemInstance):
    """The solve of one instance, as a generator of evaluation requests."""
    m = instance.matrices
    delta, eta = instance.delta_s, instance.eta
    E, M = m.num_edges, m.num_ue
    log_eta = math.log(eta)

    # quick necessary check via the per-hop LP relaxation
    lp = solve_min_delay_lp(m, LAMBDA_FLOOR)
    zeta = -math.log1p(-eta) / delta
    if lp.t_star <= zeta:
        raise InfeasibleDelay(
            f"delta = {delta} below minimum feasible delay for lambda_floor "
            f"(t* = {lp.t_star:.6g} <= zeta = {zeta:.6g})"
        )

    geom = _LatencyGeometry(m, delta, log_eta)
    Gmat = m.G

    box_lo = np.concatenate((np.full(M, LAMBDA_FLOOR), np.zeros(E)))
    box_hi = np.concatenate((np.full(M, np.inf), np.ones(E)))

    z, best, best_margin = _interior_start(m, lp.mu, geom)
    if z is None:
        if best is None:
            raise NumericalFailure("no start candidate has positive rate gaps")
        if best_margin > 1e-8:
            z = best
        else:
            z = yield from _phase_one(best, geom, box_lo, box_hi, Gmat, M)

    barrier = _Barrier(geom, box_lo, box_hi, Gmat, M)

    def gtol_for(zz):
        return 0.4e-6 * max(abs(_sum_log(zz[:M])), 1e-3)

    def center(zz, t_from, t_to, depth=0):
        """Re-center at barrier weight t_to, bisecting the jump on failure."""
        z2, ok = yield from _newton_barrier(barrier, zz, t_to, gtol_for(zz))
        if ok:
            return z2
        if depth >= 6 or t_to / t_from < 1.3:
            raise NumericalFailure(f"inner Newton did not converge at t = {t_to:.3g}")
        mid = math.sqrt(t_from * t_to)
        z_mid = yield from center(zz, t_from, mid, depth + 1)
        return (yield from center(z_mid, mid, t_to, depth + 1))

    # The first centering has no smaller weight to bisect from.  Its iterate
    # is strictly feasible whether or not it met gtol, so the outer loop
    # continues from it; later centerings and the final gate decide.
    t_bar = 1.0
    z, _ = yield from _newton_barrier(barrier, z, t_bar, gtol_for(z))
    while t_bar <= 1e14:
        gap = barrier.n_con / t_bar
        if gap <= 1e-6 * max(abs(_sum_log(z[:M])), 1e-3):
            break
        try:
            z = yield from center(z, t_bar, t_bar * BARRIER_MULT)
        except NumericalFailure:
            break  # gradient floor reached; z is centered at t_bar
        t_bar *= BARRIER_MULT

    # every centering returns a gradient norm within gtol_for, and that
    # gradient is the KKT residual at its barrier weight: the 1e-6 gate
    # below sits 2.5x above the 0.4e-6 inner tolerance
    kkt = yield (_KKT, barrier, z[None], t_bar, [math.inf])
    obj = _sum_log(z[:M])
    if kkt > 1e-6 * max(abs(obj), 1e-3):
        raise NumericalFailure(
            f"could not certify stationarity: residual {kkt:.3g} "
            f"exceeds 1e-6 * |objective| = {1e-6 * abs(obj):.3g}"
        )

    return Solution(lam=z[:M], mu=z[M:], objective=obj, kkt_residual=kkt)


def _interior_start(m: NetworkMatrices, lp_mu: np.ndarray, geom: _LatencyGeometry):
    """(z, best, best_margin): a start point with margins above 1e-3, else
    None, with the candidate of largest margin and that margin.

    Backs the LP schedule off the boundaries as far as the delivery
    constraints allow, and gives the rates a share of the resulting service
    headroom.  Near-minimal delta leaves no backoff room; then the phase-one
    auxiliary problem locates a strictly feasible point.  The margins of one
    sigma's candidates come from one evaluation.
    """
    M = m.num_ue
    users_per_edge = m.F.sum(axis=1)
    alphas = (0.05, 0.01, 1e-3, 1e-4, 0.0)
    starts = _GeometryStack([geom])  # its arrays broadcast over the candidates
    best, best_margin = None, -np.inf
    for sigma in (0.2, 0.1, 0.05, 0.02, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8):
        mu0 = np.clip(lp_mu, sigma, 1.0 - sigma)
        row = m.G @ mu0
        if row.max() >= 1.0 - sigma / 2:
            mu0 *= (1.0 - sigma) / row.max()
        headroom = float(np.min(m.C * mu0 / users_per_edge))
        cands = [np.concatenate((np.full(M, max(alpha * headroom, 2.0 * LAMBDA_FLOOR)), mu0))
                 for alpha in alphas]
        for cand, g in zip(cands, _margins(starts, np.stack(cands))):
            if g is None:
                continue
            margin = float(np.min(g))
            if margin > best_margin:
                best, best_margin = cand, margin
            if margin > 1e-3:
                return cand, best, best_margin
    return None, best, best_margin


def _phase_one(z0, geom, box_lo, box_hi, Gmat, M):
    """Maximize the worst delivery-constraint margin until it is positive.

    Augments z with a scalar s, maximizing s subject to g_m(z) >= s and the
    original box/scheduling constraints, from a z0 with positive rate gaps.
    A generator of requests; returns a strictly feasible z, raises
    InfeasibleDelay when none exists, and NumericalFailure when a centering
    does not converge.
    """
    one = _GeometryStack([geom])
    (g0,) = _margins(one, z0[None])
    s0 = float(np.min(g0)) - 1.0

    ze = np.concatenate((z0, [s0]))
    lo = np.concatenate((box_lo, [-np.inf]))
    hi = np.concatenate((box_hi, [np.inf]))
    Gext = np.hstack((Gmat, np.zeros((Gmat.shape[0], 1))))

    barrier = _Barrier(geom, lo, hi, Gext, M, phase_one=True)
    t_bar = 1.0
    while t_bar <= 1e12:
        ze, ok = yield from _newton_barrier(barrier, ze, t_bar)
        (g,) = _margins(one, ze[None, :-1])
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
