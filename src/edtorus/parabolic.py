"""Solver and verifier for the nonlocal linear parabolic model problem

    du/dt - A(x,t) * Laplacian(u) + L[u] = f(x,t),   u(.,0) = u0,

with A uniformly positive and L a time-fibered (fiber-preserving) linear
operator: the value of L[u] at time t depends only on u(.,t).  Operators are
assembled from multiplication and rank-one integral primitives plus a
general fiber-linear escape hatch; all providers are pure functions of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceFailure, NonFiniteState, NonPositiveDiffusivity, ParameterTooSmall
from .fields import (
    ScalarField,
    TorusGrid,
    _freeze,
    _integer_modes,
    grid_ifft,
    grid_irfft,
    grid_rfft,
    integrate_values,
    scalar_symbols,
)

Provider = Callable[[float], np.ndarray]

#: grid axes of a stack of scalar fields, (P, n, n, n)
_BATCH_AXES = (1, 2, 3)

#: process-local counts of implicit-step work, in report order (`solver_stats`)
_STATS = dict.fromkeys(("step_solves", "gmres_iterations", "lockstep_iterations",
                        "residual_checks"), 0)


def solver_stats() -> dict:
    """Implicit-step work in this process since `reset_solver_stats`: step
    solves, GMRES iterations summed over rows, lockstep iterations (one batched
    preconditioned application each) and true-residual checks; counts only."""
    return dict(_STATS)


def reset_solver_stats() -> None:
    _STATS.update(dict.fromkeys(_STATS, 0))


def constant_provider(values: np.ndarray) -> Provider:
    frozen = np.asarray(values, dtype=np.float64)
    return lambda _t: frozen


# ---------------------------------------------------------------------------
# Nonlocal operator primitives.  The operator is the sum of its terms; each
# term acts on the current fiber only, which makes the time-locality axiom
# hold by construction.
# ---------------------------------------------------------------------------

@dataclass
class Multiply:
    """w -> a(.,t) * w"""

    coefficient: Provider

    def apply(self, grid: TorusGrid, w: np.ndarray, t: float) -> np.ndarray:
        return self.coefficient(t) * w

    def bound_hint(self, grid: TorusGrid, t: float) -> float:
        return float(np.abs(self.coefficient(t)).max())


@dataclass
class RankOne:
    """w -> (int w K dvol) * h"""

    kernel: Provider
    emitter: Provider

    def apply(self, grid: TorusGrid, w: np.ndarray, t: float) -> np.ndarray:
        return integrate_values(grid, w * self.kernel(t)) * self.emitter(t)

    def bound_hint(self, grid: TorusGrid, t: float) -> float:
        knorm = np.sqrt(integrate_values(grid, self.kernel(t) ** 2))
        hnorm = np.sqrt(integrate_values(grid, self.emitter(t) ** 2))
        return float(knorm * hnorm)  # Cauchy-Schwarz


@dataclass
class FiberLinear:
    """General linear fiber map w -> F(w, t); hosts the eigenspinor-response
    term of the linearized flow operator, which is not expressible by the
    two algebraic primitives."""

    fn: Callable[[np.ndarray, float], np.ndarray]
    bound: float = np.inf

    def apply(self, grid: TorusGrid, w: np.ndarray, t: float) -> np.ndarray:
        return self.fn(w, t)

    def bound_hint(self, grid: TorusGrid, t: float) -> float:
        return self.bound


@dataclass
class NonlocalOperator:
    """Sum of time-fibered primitives; output at t depends only on input at t."""

    grid: TorusGrid
    terms: list = field(default_factory=list)

    def apply(self, w: np.ndarray, t: float) -> np.ndarray:
        return sum((term.apply(self.grid, w, t) for term in self.terms),
                   np.zeros_like(w, dtype=np.float64))

    def bound_hint(self, t: float) -> float:
        return sum(term.bound_hint(self.grid, t) for term in self.terms)


def zero_operator(grid: TorusGrid) -> NonlocalOperator:
    return NonlocalOperator(grid, [])


def mean_operator(grid: TorusGrid) -> NonlocalOperator:
    """L[w] = (int w dvol / vol) * 1, the simplest rank-one example."""
    vol = grid.length ** 3
    one = np.ones(grid.shape)
    return NonlocalOperator(grid, [RankOne(constant_provider(one / vol),
                                           constant_provider(one))])


# ---------------------------------------------------------------------------
# Axioms (A1) bound and (A2) time-locality.
# ---------------------------------------------------------------------------

def _band_limited_batch(grid: TorusGrid, rng: np.random.Generator, max_modes) -> np.ndarray:
    """Random real fields, one per entry of max_modes (None: n // 4, at least
    1), each with modes supported below its max_mode per axis and scaled to
    sup norm 1, shape (len(max_modes), n, n, n).  The draws are those of one
    field after another; one batched transform inverts them all."""
    kmax = np.array([m if m is not None else max(1, grid.n // 4) for m in max_modes])
    mask = np.all([np.abs(k) <= kmax[:, None, None, None] for k in _integer_modes(grid.n)], axis=0)
    draws = rng.standard_normal((len(max_modes), 2) + grid.shape)
    coeffs = np.where(mask, draws[:, 0] + 1j * draws[:, 1], 0.0)
    out = grid_ifft(coeffs * grid.num_points, axes=_BATCH_AXES).real
    return out / np.maximum(np.abs(out).max(axis=_BATCH_AXES), 1e-300)[:, None, None, None]


def random_band_limited(grid: TorusGrid, rng: np.random.Generator,
                        max_mode: Optional[int] = None) -> np.ndarray:
    """Random real field with modes supported below max_mode per axis."""
    return _band_limited_batch(grid, rng, [max_mode])[0]


def _gradients(grid: TorusGrid, w: np.ndarray) -> np.ndarray:
    """Spectral gradients (P, 3, n, n, n) of a stack of fields (P, n, n, n),
    `conformal.gradient` of each, from one batched real transform pair."""
    ik = scalar_symbols(grid.n, grid.length).ik
    return grid_irfft(ik * grid_rfft(w, axes=_BATCH_AXES)[:, None], axes=(2, 3, 4))


def _integrals(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """`integrate_values` of each field of a stack (P, n, n, n)."""
    return grid.cell_volume * np.sum(values.reshape(len(values), -1), axis=1)


def _h1_norms_sq(grid: TorusGrid, w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """||w||_H1^2 of each field of a stack, given its `_gradients` dw."""
    return _integrals(grid, w ** 2 + dw[:, 0] ** 2 + dw[:, 1] ** 2 + dw[:, 2] ** 2)


@dataclass
class AxiomReport:
    a1_constant: float
    a2_violation: float


def check_axioms(op: NonlocalOperator, trials: int = 100) -> AxiomReport:
    """Probe (A1) |L[w](.,t)|_2 <= C ||w||_H1 and (A2) L[alpha w] = alpha(t) L[w],
    the probes taken at t = 0, 0.37 and 1 in turn."""
    rng, grid = np.random.default_rng(515), op.grid
    # the constant and single-mode fields saturate rank-one and multiplication bounds
    x1, x2, _x3 = grid.coords()
    scale = 2.0 * np.pi / grid.length
    fixed = np.stack([np.ones(grid.shape), np.cos(scale * x1), np.sin(scale * x2)])
    probes = np.concatenate([fixed, _band_limited_batch(grid, rng, [None] * max(trials - 3, 0))])
    h1_series = np.sqrt(_h1_norms_sq(grid, probes, _gradients(grid, probes)))
    a1 = a2 = 0.0
    for k, (w, h1) in enumerate(zip(probes, h1_series)):
        t = (0.0, 0.37, 1.0)[k % 3]
        lw = op.apply(w, t)
        l2 = np.sqrt(integrate_values(grid, lw ** 2))
        a1 = max(a1, l2 / max(h1, 1e-300))
        alpha = float(rng.uniform(-2.0, 2.0))
        diff = op.apply(alpha * w, t) - alpha * lw
        scale = max(np.abs(lw).max() * abs(alpha), 1.0)
        a2 = max(a2, float(np.abs(diff).max() / scale))
    return AxiomReport(a1, a2)


# ---------------------------------------------------------------------------
# The parabolic problem and its implicit-step solver.
# ---------------------------------------------------------------------------

@dataclass
class ParabolicProblem:
    grid: TorusGrid
    diffusivity: Provider                  # A(.,t), uniformly >= delta > 0
    operator: NonlocalOperator
    forcing: Optional[Provider]            # f(.,t); None means 0
    initial: ScalarField
    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1 or self.horizon <= 0:
            raise ValueError("need steps >= 1 and horizon > 0")
        if self.initial.grid != self.grid:
            raise ValueError("initial datum lives on the wrong grid")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def force(self, t: float) -> np.ndarray:
        return np.zeros(self.grid.shape) if self.forcing is None else self.forcing(t)

    def min_diffusivity(self) -> float:
        """min A over the sampled times; NaN if any sampled A holds a NaN."""
        return float(np.min([self.diffusivity(t).min() for t in self.times()]))


def _pick(stack: np.ndarray, rows: Optional[np.ndarray]) -> np.ndarray:
    """The rows `rows` of a stack (None: all), without a copy for all rows."""
    return stack if rows is None or len(rows) == len(stack) else stack[rows]


class _StackedOperator:
    """The spatial operators G^p_t of a batch's problems at one time t,
    evaluated once and stacked: the diffusivities a (P, n, n, n), each row's
    summed Multiply coefficients (P, n^3) and RankOne kernels and emitters (P,
    R, n^3), zero-padded to the largest count R, so that one multiply and two
    batched matmuls apply them to any rows; other terms act through `apply`."""

    def __init__(self, problems: list, t: float):
        self.grid, self.t = problems[0].grid, t
        self.a = np.stack([problem.diffusivity(t) for problem in problems])
        terms = [problem.operator.terms for problem in problems]
        rank_one = [[term for term in row if isinstance(term, RankOne)] for row in terms]
        shape = (len(terms), max(map(len, rank_one)), self.grid.num_points)
        self.kernels, self.emitters = np.zeros((2,) + shape)
        self.multiply = np.zeros((len(terms), self.grid.num_points))
        for p, row in enumerate(terms):
            self.multiply[p] = sum(np.ravel(term.coefficient(t)) for term in row
                                   if isinstance(term, Multiply))
            for j, term in enumerate(rank_one[p]):  # kernels weighted for quadrature
                self.kernels[p, j] = self.grid.cell_volume * np.ravel(term.kernel(t))
                self.emitters[p, j] = np.ravel(term.emitter(t))
        self.others = [[term for term in row if not isinstance(term, (Multiply, RankOne))]
                       for row in terms]

    def nonlocal_apply(self, w: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """L_p[w_i](., t) of each field w_i of a stack w (len(rows), ...), p =
        rows[i] (rows None: every problem of the batch, in order)."""
        flat = w.reshape(len(w), -1)
        out = _pick(self.multiply, rows) * flat
        if self.kernels.shape[1]:
            integrals = np.matmul(_pick(self.kernels, rows), flat[:, :, None])
            out += np.matmul(integrals.swapaxes(1, 2), _pick(self.emitters, rows))[:, 0]
        for i, p in enumerate(range(len(w)) if rows is None else rows.tolist()):
            for term in self.others[p]:
                out[i] += term.apply(self.grid, w[i].reshape(self.grid.shape), self.t).reshape(-1)
        return out.reshape(w.shape)


def _spatial_operator(op: _StackedOperator, w: np.ndarray,
                      rows: Optional[np.ndarray] = None) -> np.ndarray:
    """G^p_t[w_i] = -A_p(.,t) Lap w_i + L_p[w_i](.,t) of each field of a stack
    w (len(rows), n, n, n), p = rows[i] of the batch `op` stacks (rows None:
    all), the flat Laplacian -|kappa|^2 by one batched real transform pair."""
    k_sq = scalar_symbols(op.grid.n, op.grid.length).k_sq
    lap = grid_irfft(-k_sq * grid_rfft(w, axes=_BATCH_AXES), axes=_BATCH_AXES)
    return -_pick(op.a, rows) * lap + op.nonlocal_apply(w, rows)


#: GMRES settings of the implicit step, and the relative true residual
#: |(I + theta dt G) w - rhs| / |rhs| a step must reach
STEP_GMRES_RTOL = 1e-13
STEP_GMRES_RESTART = 60
STEP_GMRES_MAXITER = 40
#: the Krylov buffers of a GMRES cycle grow by this many columns: a sweep
#: step takes about 8 iterations, a constant-coefficient step 1 or 2
STEP_GMRES_CHUNK = 8


def _norms(v: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of v (P, n), one BLAS dot product each."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


@dataclass
class _Arnoldi:
    """One row's least-squares state in a GMRES cycle, on Python floats: the
    Givens rotations (c, s), the columns of the triangular factor and g,
    whose last entry is the row's least-squares residual."""

    g: list
    rotations: list = field(default_factory=list)
    columns: list = field(default_factory=list)

    def add_column(self, col: list) -> float:
        """Rotate the new Hessenberg column col (length j + 2) into the
        factor; returns the least-squares residual |g_{j+1}|."""
        j = len(self.rotations)
        for i, (c, s) in enumerate(self.rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = math.hypot(col[j], col[j + 1])
        c, s = col[j] / rho, col[j + 1] / rho
        self.rotations.append((c, s))
        self.columns.append(col[:j] + [rho])
        self.g.append(-s * self.g[j])
        self.g[j] *= c
        return abs(self.g[j + 1])

    def coefficients(self) -> list:
        """y of the cycle's solution x + sum_j y_j z_j, by back substitution."""
        k = len(self.columns)
        y = [0.0] * k
        for i in reversed(range(k)):
            total = sum(self.columns[q][i] * y[q] for q in range(i + 1, k))
            y[i] = (self.g[i] - total) / self.columns[i][i]
        return y


def _gmres(precondition_apply: Callable, residual: Callable, x: np.ndarray,
           r: np.ndarray, tol: np.ndarray):
    """Restarted right-preconditioned GMRES (Saad & Schultz 1986) for the
    independent systems A_p x_p = b_p of a stack x (P, n), in lockstep:
    precondition_apply(rows, v) returns (z = M v, A z) and residual(rows, x)
    b - A x for the rows `rows`; r = b - A x on entry.  Each row runs the
    one-system method against its own tol.  A cycle of at most
    STEP_GMRES_RESTART iterations orthogonalizes A z against the row's basis
    by classical Gram-Schmidt, twice, through BLAS, in buffers grown by
    STEP_GMRES_CHUNK columns; Givens rotations on Python floats (`_Arnoldi`)
    give its least-squares residual, and the row leaves the cycle once that is
    <= tol, with x + sum_j y_j z_j.  Once a cycle's rows have all left, their
    true residuals are recomputed in one call; a row stops once that is <= tol
    or not finite, or after STEP_GMRES_MAXITER cycles.  Returns (x, |r|,
    iterations), one per row."""
    n = x.shape[1]
    beta = _norms(r)
    tols = tol.tolist()
    iterations = np.zeros(len(x), dtype=np.int64)
    for _cycle in range(STEP_GMRES_MAXITER):
        rows = np.flatnonzero((tol < beta) & (beta < math.inf))
        if not rows.size:
            break
        live = rows  # the cycle's rows still iterating
        arnoldi = {p: _Arnoldi([float(beta[p])]) for p in rows.tolist()}
        basis = np.empty((rows.size, STEP_GMRES_CHUNK + 1, n))
        zs = np.empty((rows.size, STEP_GMRES_CHUNK, n))
        np.multiply(r[rows], (1.0 / beta[rows])[:, None], out=basis[:, 0])
        for j in range(STEP_GMRES_RESTART):
            if j == zs.shape[1]:
                basis, zs = (np.concatenate([v, np.empty((live.size, STEP_GMRES_CHUNK, n))],
                                            axis=1) for v in (basis, zs))
            zs[:, j], w = precondition_apply(live, basis[:, j])
            prev = basis[:, :j + 1]
            h = np.matmul(prev, w[:, :, None])
            w -= np.matmul(h.swapaxes(1, 2), prev)[:, 0]
            h2 = np.matmul(prev, w[:, :, None])
            w -= np.matmul(h2.swapaxes(1, 2), prev)[:, 0]
            h_next = _norms(w)
            hessenberg = zip(live.tolist(), (h + h2)[:, :, 0].tolist(), h_next.tolist())
            done = [arnoldi[p].add_column(col + [hn]) <= tols[p] or j + 1 == STEP_GMRES_RESTART
                    for p, col, hn in hessenberg]
            if any(done):
                done = np.array(done)
                y = np.array([arnoldi[p].coefficients() for p in live[done].tolist()])
                x[live[done]] += np.matmul(y[:, None], zs[done, :j + 1])[:, 0]
                live, basis, zs, w, h_next = (v[~done] for v in (live, basis, zs, w, h_next))
                if not live.size:
                    break
            np.multiply(w, (1.0 / h_next)[:, None], out=basis[:, j + 1])
        iterations[rows] += [len(arnoldi[p].columns) for p in rows.tolist()]
        r[rows] = residual(rows, x[rows])
        beta[rows] = _norms(r[rows])
    return x, beta, iterations


def _step_solve(problems: list, theta_dt: float, t: float, rhs: np.ndarray,
                x0: Optional[np.ndarray]) -> tuple:
    """Solve (I + theta_dt G^p_t) w_p = rhs_p for every problem p of a batch,
    rhs of shape (P, n, n, n), by `_gmres` (x0 None: zero start, else one
    start vector per row), each row right-preconditioned by M = 1 / (1 + c_p
    |kappa|^2), c_p = theta_dt abar_p, abar_p its mean diffusivity.  As
    |kappa|^2 M = (1 - M) / c_p, z = M v has Lap z = (z - v) / c_p, so A z =
    z - (a_p / abar_p)(z - v) + theta_dt L_p z: a lockstep iteration is one
    batched real forward transform, one inverse, and the `_StackedOperator`
    built once a step.  Returns the stacks (w, G_t w) once every row's
    recomputed true residual is <= STEP_GMRES_RTOL |rhs_p|, G_t w being the
    application that check made on the returned w (a zero rhs gives zeros);
    else raises ConvergenceFailure with the iterations and residual of the
    first row that missed.  A non-finite rhs or result raises NonFiniteState."""
    if not np.all(np.isfinite(rhs)):
        raise NonFiniteState(f"non-finite implicit step right-hand side at t = {t:.6g}")
    _STATS["step_solves"] += 1
    grid = problems[0].grid
    b = rhs.reshape(len(problems), -1)
    bnorm = _norms(b)
    op = _StackedOperator(problems, t)
    a = op.a.reshape(len(problems), -1)
    abar = a.mean(axis=1)
    symbol = 1.0 / (1.0 + theta_dt * abar[:, None, None, None]
                    * scalar_symbols(grid.n, grid.length).k_sq)
    ratio = a / abar[:, None]

    def precondition_apply(rows, v):
        _STATS["lockstep_iterations"] += 1
        spectra = grid_rfft(v.reshape((len(rows),) + grid.shape), axes=_BATCH_AXES)
        z = grid_irfft(_pick(symbol, rows) * spectra, axes=_BATCH_AXES).reshape(len(rows), -1)
        return z, z - _pick(ratio, rows) * (z - v) + theta_dt * op.nonlocal_apply(z, rows)

    gw = np.zeros(rhs.shape)  # G_t w of each row's last residual check, on the w _gmres returns

    def residual(rows, x):
        _STATS["residual_checks"] += 1
        w = x.reshape((len(rows),) + grid.shape)
        gw[rows] = _spatial_operator(op, w, rows)
        return _pick(b, rows) - (w + theta_dt * gw[rows]).reshape(len(rows), -1)

    x, r = np.zeros(b.shape), b.copy()
    if x0 is not None:
        rows = np.flatnonzero(bnorm > 0.0)
        x[rows] = np.asarray(x0, dtype=np.float64).reshape(b.shape)[rows]
        r[rows] = residual(rows, x[rows])
    x, resid, iterations = _gmres(precondition_apply, residual, x, r, STEP_GMRES_RTOL * bnorm)
    _STATS["gmres_iterations"] += int(iterations.sum())
    if not np.all(np.isfinite(x)):
        raise NonFiniteState(f"non-finite implicit step solution at t = {t:.6g}")
    missed = np.flatnonzero(~(resid <= STEP_GMRES_RTOL * bnorm))  # NaN misses too
    if missed.size:
        p = missed[0]
        raise ConvergenceFailure("implicit step solve failed", iterations=int(iterations[p]),
                                 residual=float(resid[p] / bnorm[p]))
    return x.reshape(rhs.shape), gw


@dataclass
class SolutionRecord:
    times: np.ndarray
    states: np.ndarray  # shape (steps+1, n, n, n)


def solve_batch(problems: list, scheme: str = "crank_nicolson",
                x0_mode: str = "zero") -> list:
    """March the implicit scheme over the uniform time grid for every problem
    of a batch at once, one SolutionRecord each; the problems share grid,
    horizon and steps, and each step solves all of them in one `_step_solve`.
    Each step's GMRES starts from zero, or (x0_mode = "random") from one
    seeded random vector per problem, row p of that step's draw.

    backward_euler:  (I + dt G_{t+}) w+ = w + dt f(t+)
    crank_nicolson:  (I + dt/2 G_{t+}) w+ = w - dt/2 G_t w + dt/2 (f_t + f_{t+})

    Only step 0 applies G on its own: every later G_t w is the one the
    previous step's last residual check applied to w."""
    if scheme not in ("backward_euler", "crank_nicolson"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if x0_mode not in ("zero", "random"):
        raise ValueError(f"unknown x0_mode {x0_mode!r}")
    first = problems[0]
    if any((p.grid, p.horizon, p.steps) != (first.grid, first.horizon, first.steps)
           for p in problems):
        raise ValueError("the problems of a batch must share grid, horizon and steps")
    delta = float(np.min([problem.min_diffusivity() for problem in problems]))
    if not delta > 0:  # NaN fails too
        raise NonPositiveDiffusivity(f"min A = {delta:.3e}")

    grid, dt, times = first.grid, first.horizon / first.steps, first.times()
    states = np.empty((len(problems), first.steps + 1) + grid.shape)
    states[:, 0] = [problem.initial.values for problem in problems]
    theta = 1.0 if scheme == "backward_euler" else 0.5

    rng = np.random.default_rng(99) if x0_mode == "random" else None
    f1 = np.stack([problem.force(times[0]) for problem in problems])
    for k in range(first.steps):
        t0, t1 = times[k], times[k + 1]
        w, f0, f1 = states[:, k], f1, np.stack([problem.force(t1) for problem in problems])
        if scheme == "backward_euler":
            rhs = w + dt * f1
        else:
            if k == 0:
                gw = _spatial_operator(_StackedOperator(problems, t0), w)
            rhs = w - 0.5 * dt * gw + 0.5 * dt * (f0 + f1)
        x0 = None if rng is None else rng.standard_normal((len(problems), grid.num_points))
        states[:, k + 1], gw = _step_solve(problems, theta * dt, t1, rhs, x0)
    return [SolutionRecord(times, s) for s in states]


def solve(problem: ParabolicProblem, scheme: str = "crank_nicolson",
          x0_mode: str = "zero") -> SolutionRecord:
    """`solve_batch` of the one problem."""
    return solve_batch([problem], scheme, x0_mode)[0]


# ---------------------------------------------------------------------------
# Garding constants and the discrete energy estimate.
# ---------------------------------------------------------------------------

@dataclass
class GardingReport:
    delta: float
    kappa: float
    probes: int


def _targeted_probes(problem: ParabolicProblem, t: float):
    """Adversarial probe fields aimed at the operator's own primitives: rank-one
    terms reach their worst deficit only on fields aligned with both the
    kernel and the emitter, which random probes essentially never hit."""
    out = [np.ones(problem.grid.shape)]
    for term in problem.operator.terms:
        if isinstance(term, RankOne):
            k, h = term.kernel(t), term.emitter(t)
            out.extend([k, h, k + h, k - h])
        elif isinstance(term, Multiply):
            out.append(term.coefficient(t))
    return [w for w in out if np.abs(w).max() > 1e-14]


@lru_cache(maxsize=None)
def _garding_draw(n: int, length: float, probes: int, seed: int) -> tuple:
    """The seeded random probes of `garding_constants` on one grid,
    alternately smooth and full-band, with their `_gradients`, ||w||_H1^2 and
    |w|_2^2: (w, dw, h1_sq, l2_sq), built once and read-only."""
    grid = TorusGrid(n, length)
    # gradient cross terms make the deficit grow with frequency, and
    # solutions populate the whole band
    w = _band_limited_batch(grid, np.random.default_rng(seed),
                            [n // 4 if k % 2 == 0 else n // 2 for k in range(probes)])
    dw = _gradients(grid, w)
    return tuple(_freeze(v) for v in (w, dw, _h1_norms_sq(grid, w, dw), _integrals(grid, w ** 2)))


def garding_constants(problem: ParabolicProblem, probes: int = 60,
                      seed: int = 1199) -> GardingReport:
    """Sampled constants for A_t(w,w) >= (delta/2) ||w||_H1^2 - kappa |w|_2^2.

    delta is fixed to twice the uniform lower bound of the diffusivity; kappa
    is the maximal deficit over probe fields and sampled times (a lower-bound
    style estimate, reported with the probe count).  Probes mix the random
    ones of `_garding_draw` with primitive-targeted adversarial fields.  The
    bilinear form is A_t(w, w) = int A |grad w|^2 + w grad A . grad w + w L[w]
    dvol.  The targeted probes and the diffusivity at each sampled time are
    differentiated together, in one batched real forward and one inverse
    transform; each probe's gradient serves both it and ||w||_H1."""
    delta = 2.0 * problem.min_diffusivity()
    if not delta > 0:  # NaN fails too
        raise NonPositiveDiffusivity("diffusivity lower bound is not positive")
    grid, times = problem.grid, problem.times()
    targeted = [(w, float(t)) for t in times[:: max(1, len(times) // 4)]
                for w in _targeted_probes(problem, float(t))]
    drawn, d_drawn, h1_drawn, l2_drawn = _garding_draw(grid.n, grid.length, probes, seed)
    w_targeted = np.stack([v for v, _t in targeted])
    w = np.concatenate([w_targeted, drawn])
    at = [t for _v, t in targeted] + [float(times[k % len(times)]) for k in range(probes)]
    sampled, rows = np.unique(at, return_inverse=True)  # A once per sampled time
    a = np.stack([problem.diffusivity(float(t)) for t in sampled])
    grads = _gradients(grid, np.concatenate([w_targeted, a]))
    dw_targeted = grads[:len(targeted)]
    dw, da, a = np.concatenate([dw_targeted, d_drawn]), grads[len(targeted):][rows], a[rows]
    quad = a * (dw[:, 0] ** 2 + dw[:, 1] ** 2 + dw[:, 2] ** 2)
    cross = w * (da[:, 0] * dw[:, 0] + da[:, 1] * dw[:, 1] + da[:, 2] * dw[:, 2])
    nonlocal_term = w * np.stack([problem.operator.apply(v, t) for v, t in zip(w, at)])
    h1 = np.concatenate([_h1_norms_sq(grid, w_targeted, dw_targeted), h1_drawn])
    l2 = np.concatenate([_integrals(grid, w_targeted ** 2), l2_drawn])
    deficit = 0.5 * delta * h1 - _integrals(grid, quad + cross + nonlocal_term)
    ratios = deficit / np.maximum(l2, 1e-300)
    kappa = max([1e-12, *ratios.tolist()])
    return GardingReport(delta, kappa, len(at))


@dataclass
class EnergyReport:
    ok: bool
    lhs: float
    rhs: float


def energy_estimate_check(problem: ParabolicProblem, solution: SolutionRecord,
                          a: float, garding: Optional[GardingReport] = None) -> EnergyReport:
    """Discrete analog of ||u||_{LH_a^1}^2 <= (1/delta) (|u0|_2^2 + ||f||_{LH_a^0}^2):
    time integrals over [0, T] are trapezoidal sums with weight e^{-2 a t};
    requires a >= kappa + 1/2."""
    garding = garding or garding_constants(problem)
    if a < garding.kappa + 0.5 - 1e-9 * (1.0 + abs(garding.kappa)):
        raise ParameterTooSmall(
            f"need a >= kappa + 1/2 = {garding.kappa + 0.5:.4f}, got {a}")
    grid, times = problem.grid, solution.times
    wgt = np.exp(-2.0 * a * times)
    h1_series = _h1_norms_sq(grid, solution.states, _gradients(grid, solution.states))
    lhs = float(np.trapezoid(wgt * h1_series, times))
    f_series = np.array([integrate_values(grid, problem.force(t) ** 2) for t in times])
    f_term = float(np.trapezoid(wgt * f_series, times))
    u0_sq = integrate_values(grid, problem.initial.values ** 2)
    rhs = (u0_sq + f_term) / garding.delta
    ok = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return EnergyReport(bool(ok), lhs, rhs)


def uniqueness_check(problem: ParabolicProblem) -> float:
    """Solve by Crank-Nicolson twice, from different Krylov starting vectors;
    sup-norm difference."""
    s1, s2 = (solve(problem, "crank_nicolson", x0_mode=mode) for mode in ("zero", "random"))
    return float(np.abs(s1.states - s2.states).max())
