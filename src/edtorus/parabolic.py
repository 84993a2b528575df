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
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceFailure, NonFiniteState, NonPositiveDiffusivity, ParameterTooSmall
from .fields import (
    ScalarField,
    TorusGrid,
    _integer_modes,
    grid_fft,
    grid_ifft,
    integrate_values,
    scalar_field,
    scalar_symbols,
)

Provider = Callable[[float], np.ndarray]

#: grid axes of a stack of scalar fields, (P, n, n, n)
_BATCH_AXES = (1, 2, 3)


def constant_provider(values: np.ndarray) -> Provider:
    frozen = np.asarray(values, dtype=np.float64)

    def provide(_t: float) -> np.ndarray:
        return frozen

    return provide


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
        out = np.zeros_like(w, dtype=np.float64)
        for term in self.terms:
            out = out + term.apply(self.grid, w, t)
        return out

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
    k1, k2, k3 = _integer_modes(grid.n)
    kmax = np.array([m if m is not None else max(1, grid.n // 4) for m in max_modes])
    kmax = kmax[:, None, None, None]
    mask = (np.abs(k1) <= kmax) & (np.abs(k2) <= kmax) & (np.abs(k3) <= kmax)
    draws = rng.standard_normal((len(max_modes), 2) + grid.shape)
    coeffs = np.where(mask, draws[:, 0] + 1j * draws[:, 1], 0.0)
    out = grid_ifft(coeffs * grid.num_points, axes=_BATCH_AXES).real
    return out / np.maximum(np.abs(out).max(axis=_BATCH_AXES), 1e-300)[:, None, None, None]


def random_band_limited(grid: TorusGrid, rng: np.random.Generator,
                        max_mode: Optional[int] = None) -> np.ndarray:
    """Random real field with modes supported below max_mode per axis."""
    return _band_limited_batch(grid, rng, [max_mode])[0]


def _gradients(grid: TorusGrid, w: np.ndarray) -> np.ndarray:
    """Spectral gradients of a stack of fields (P, n, n, n), shape (P, 3, n,
    n, n): `conformal.gradient` of each field, from one batched forward and
    one batched inverse transform."""
    ik = scalar_symbols(grid.n, grid.length).ik
    return grid_ifft(ik * grid_fft(w, axes=_BATCH_AXES)[:, None], axes=(2, 3, 4)).real


def _integrals(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """`integrate_values` of each field of a stack (P, n, n, n)."""
    return grid.cell_volume * np.sum(values.reshape(len(values), -1), axis=1)


def _h1_norms_sq(grid: TorusGrid, w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """||w||_H1^2 of each field of a stack, given its `_gradients` dw."""
    return _integrals(grid, w ** 2 + dw[:, 0] ** 2 + dw[:, 1] ** 2 + dw[:, 2] ** 2)


def h1_norm_sq(grid: TorusGrid, w: np.ndarray) -> float:
    stack = w[None]
    return float(_h1_norms_sq(grid, stack, _gradients(grid, stack))[0])


@dataclass
class AxiomReport:
    a1_constant: float
    a2_violation: float
    trials: int


def _probe_fields(grid: TorusGrid, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Random band-limited probes plus the constant and single-mode fields
    that saturate rank-one and multiplication bounds, stacked."""
    x1, x2, x3 = grid.coords()
    scale = 2.0 * np.pi / grid.length
    fixed = np.stack([np.ones(grid.shape), np.cos(scale * x1), np.sin(scale * x2)])
    random = _band_limited_batch(grid, rng, [None] * max(trials - len(fixed), 0))
    return np.concatenate([fixed, random])


def check_axioms(op: NonlocalOperator, trials: int = 100) -> AxiomReport:
    """Probe (A1) |L[w](.,t)|_2 <= C ||w||_H1 and (A2) L[alpha w] = alpha(t) L[w],
    the probes taken at t = 0, 0.37 and 1 in turn."""
    rng = np.random.default_rng(515)
    grid = op.grid
    probes = _probe_fields(grid, rng, trials)
    h1_series = np.sqrt(_h1_norms_sq(grid, probes, _gradients(grid, probes)))
    a1 = 0.0
    a2 = 0.0
    for k, (w, h1) in enumerate(zip(probes, h1_series)):
        t = (0.0, 0.37, 1.0)[k % 3]
        lw = op.apply(w, t)
        l2 = np.sqrt(integrate_values(grid, lw ** 2))
        a1 = max(a1, l2 / max(h1, 1e-300))
        alpha = float(rng.uniform(-2.0, 2.0))
        diff = op.apply(alpha * w, t) - alpha * lw
        scale = max(np.abs(lw).max() * abs(alpha), 1.0)
        a2 = max(a2, float(np.abs(diff).max() / scale))
    return AxiomReport(a1, a2, trials)


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

    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def force(self, t: float) -> np.ndarray:
        if self.forcing is None:
            return np.zeros(self.grid.shape)
        return self.forcing(t)

    def min_diffusivity(self) -> float:
        """min A over the sampled times; NaN if any sampled A holds a NaN."""
        return float(np.min([self.diffusivity(t).min() for t in self.times()]))


def _spatial_operator(problem: ParabolicProblem, a: np.ndarray, w: np.ndarray,
                      t: float) -> np.ndarray:
    """G_t[w] = -A(.,t) Lap w + L[w](.,t), given a = A(.,t), on raw values:
    the flat Laplacian is the multiplier -|kappa|^2."""
    k_sq = scalar_symbols(problem.grid.n, problem.grid.length).k_sq
    lap = grid_ifft(-k_sq * grid_fft(w)).real
    return -a * lap + problem.operator.apply(w, t)


#: GMRES settings of the implicit step, and the relative true residual
#: |(I + theta dt G) w - rhs| / |rhs| a step must reach
STEP_GMRES_RTOL = 1e-13
STEP_GMRES_RESTART = 60
STEP_GMRES_MAXITER = 40
STEP_RESIDUAL_TOL = 1e-10


def _gmres(precondition_apply: Callable, residual: Callable, x: np.ndarray,
           r: np.ndarray, tol: float):
    """Restarted right-preconditioned GMRES (Saad & Schultz 1986) for A x = b.

    precondition_apply(v) returns (z, A z) with z = M v; residual(x) returns
    b - A x, and r = residual(x) on entry.  A cycle of at most
    STEP_GMRES_RESTART iterations orthogonalizes A z against the stacked
    Arnoldi basis by classical Gram-Schmidt, twice, through BLAS; Givens
    rotations on Python floats give the least-squares residual |g|, which a
    cycle stops on at tol.  The cycle's solution is x + sum_j y_j z_j, and its
    true residual is recomputed from that x.  Stops once that residual is <=
    tol or not finite, or after STEP_GMRES_MAXITER cycles.  Returns (x, |r|,
    iterations)."""
    n, m = x.size, STEP_GMRES_RESTART
    basis = np.empty((m + 1, n))
    preconditioned = np.empty((m, n))  # the z_j
    beta = float(np.linalg.norm(r))
    iterations = 0
    for _cycle in range(STEP_GMRES_MAXITER):
        if not tol < beta < math.inf:
            break
        np.multiply(r, 1.0 / beta, out=basis[0])
        g = [beta]
        rotations = []
        columns = []  # of the triangular factor
        for j in range(m):
            preconditioned[j], w = precondition_apply(basis[j])
            prev = basis[:j + 1]
            h = prev @ w
            w -= h @ prev
            h2 = prev @ w
            w -= h2 @ prev
            h_next = float(np.linalg.norm(w))
            col = (h + h2).tolist() + [h_next]
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], col[j + 1])
            c, s = col[j] / rho, col[j + 1] / rho
            rotations.append((c, s))
            col[j] = rho
            columns.append(col[:j + 1])
            g.append(-s * g[j])
            g[j] *= c
            iterations += 1
            if abs(g[j + 1]) <= tol:
                break
            np.multiply(w, 1.0 / h_next, out=basis[j + 1])
        k = len(columns)
        y = [0.0] * k
        for i in reversed(range(k)):
            y[i] = (g[i] - sum(columns[q][i] * y[q] for q in range(i + 1, k))) / columns[i][i]
        x = x + np.array(y) @ preconditioned[:k]
        r = residual(x)
        beta = float(np.linalg.norm(r))
    return x, beta, iterations


def _step_solve(problem: ParabolicProblem, theta_dt: float, t: float,
                rhs: np.ndarray, x0: Optional[np.ndarray]) -> tuple:
    """Solve (I + theta_dt G_t) w = rhs by `_gmres` (x0 None: zero start),
    right-preconditioned by M = 1 / (1 + theta_dt abar |kappa|^2), abar the
    mean diffusivity.  An iteration transforms v forward once and (M v,
    Lap M v) back in one batched inverse.  Returns (w, G_t w) once the
    recomputed true residual is <= STEP_GMRES_RTOL |rhs|, G_t w being the
    application that residual check made on the returned w; else raises
    ConvergenceFailure.  A non-finite rhs or result raises NonFiniteState."""
    if not np.all(np.isfinite(rhs)):
        raise NonFiniteState(f"non-finite implicit step right-hand side at t = {t:.6g}")
    grid = problem.grid
    shape = grid.shape
    b = rhs.reshape(-1)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(shape), np.zeros(shape)
    k_sq = scalar_symbols(grid.n, grid.length).k_sq
    a = problem.diffusivity(t)
    symbol = 1.0 / (1.0 + theta_dt * float(np.mean(a)) * k_sq)
    multipliers = np.stack([symbol, -k_sq * symbol])

    def precondition_apply(v):
        z, lap = grid_ifft(multipliers * grid_fft(v.reshape(shape)), axes=_BATCH_AXES).real
        az = z + theta_dt * (-a * lap + problem.operator.apply(z, t))
        return z.reshape(-1), az.reshape(-1)

    gw = None  # G_t w of the last residual check; its w is the one _gmres returns

    def residual(x):
        nonlocal gw
        w = x.reshape(shape)
        gw = _spatial_operator(problem, a, w, t)
        return b - (w + theta_dt * gw).reshape(-1)

    if x0 is None:
        x, r = np.zeros(b.size), b
    else:
        x = np.asarray(x0, dtype=np.float64).reshape(-1)
        r = residual(x)
    x, resid, iterations = _gmres(precondition_apply, residual, x, r, STEP_GMRES_RTOL * bnorm)
    if not np.all(np.isfinite(x)):
        raise NonFiniteState(f"non-finite implicit step solution at t = {t:.6g}")
    converged = resid <= STEP_GMRES_RTOL * bnorm  # NaN fails too
    if not (converged and resid <= STEP_RESIDUAL_TOL * bnorm):
        raise ConvergenceFailure("implicit step solve failed", iterations=iterations,
                                 residual=resid / bnorm)
    return x.reshape(shape), gw


@dataclass
class SolutionRecord:
    problem: ParabolicProblem
    scheme: str
    times: np.ndarray
    states: np.ndarray  # shape (steps+1, n, n, n)

    def final(self) -> ScalarField:
        return scalar_field(self.problem.grid, self.states[-1])


def solve(problem: ParabolicProblem, scheme: str = "crank_nicolson",
          x0_mode: str = "zero") -> SolutionRecord:
    """March the implicit scheme over the uniform time grid; each step's
    GMRES starts from zero, or (x0_mode = "random") from a seeded random
    vector.

    backward_euler:  (I + dt G_{t+}) w+ = w + dt f(t+)
    crank_nicolson:  (I + dt/2 G_{t+}) w+ = w - dt/2 G_t w + dt/2 (f_t + f_{t+})

    Only step 0 applies G on its own: every later G_t w is the one the
    previous step's last residual check applied to w."""
    if scheme not in ("backward_euler", "crank_nicolson"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if x0_mode not in ("zero", "random"):
        raise ValueError(f"unknown x0_mode {x0_mode!r}")
    delta = problem.min_diffusivity()
    if not delta > 0:  # NaN fails too
        raise NonPositiveDiffusivity(f"min A = {delta:.3e}")

    dt = problem.dt()
    times = problem.times()
    states = np.empty((problem.steps + 1,) + problem.grid.shape)
    states[0] = problem.initial.values
    theta = 1.0 if scheme == "backward_euler" else 0.5

    rng = np.random.default_rng(99)
    for k in range(problem.steps):
        t0, t1 = times[k], times[k + 1]
        w = states[k]
        if scheme == "backward_euler":
            rhs = w + dt * problem.force(t1)
        else:
            if k == 0:
                gw = _spatial_operator(problem, problem.diffusivity(t0), w, t0)
            rhs = w - 0.5 * dt * gw + 0.5 * dt * (problem.force(t0) + problem.force(t1))
        x0 = rng.standard_normal(problem.grid.num_points) if x0_mode == "random" else None
        states[k + 1], gw = _step_solve(problem, theta * dt, t1, rhs, x0)
    return SolutionRecord(problem, scheme, times, states)


# ---------------------------------------------------------------------------
# Garding constants and the discrete energy estimate.
# ---------------------------------------------------------------------------

@dataclass
class GardingReport:
    delta: float
    kappa: float
    probes: int


def _targeted_probes(problem: ParabolicProblem, t: float):
    """Adversarial probe fields aimed at the operator's own primitives.

    Rank-one terms reach their worst deficit only on fields aligned with both
    the kernel and the emitter, which random probes essentially never hit."""
    out = [np.ones(problem.grid.shape)]
    for term in problem.operator.terms:
        if isinstance(term, RankOne):
            k = term.kernel(t)
            h = term.emitter(t)
            out.extend([k, h, k + h, k - h])
        elif isinstance(term, Multiply):
            out.append(term.coefficient(t))
    return [w for w in out if np.abs(w).max() > 1e-14]


def garding_constants(problem: ParabolicProblem, probes: int = 60,
                      seed: int = 1199) -> GardingReport:
    """Sampled constants for A_t(w,w) >= (delta/2) ||w||_H1^2 - kappa |w|_2^2.

    delta is fixed to twice the uniform lower bound of the diffusivity; kappa
    is the maximal deficit over probe fields and sampled times (a lower-bound
    style estimate, reported with the probe count).  Probes mix smooth and
    full-band random fields with primitive-targeted adversarial fields.

    The bilinear form is A_t(w, w) = int A |grad w|^2 + w grad A . grad w
    + w L[w] dvol.  The probes and the diffusivity at each sampled time are
    differentiated together, in one batched forward and one batched inverse
    transform; each probe's gradient serves both it and ||w||_H1.
    """
    delta = 2.0 * problem.min_diffusivity()
    if not delta > 0:  # NaN fails too
        raise NonPositiveDiffusivity("diffusivity lower bound is not positive")
    rng = np.random.default_rng(seed)
    grid = problem.grid
    times = problem.times()
    samples = [(w, float(t)) for t in times[:: max(1, len(times) // 4)]
               for w in _targeted_probes(problem, float(t))]
    # alternate smooth and full-band probes: gradient cross terms make the
    # deficit grow with frequency, and solutions populate the whole band
    drawn = _band_limited_batch(grid, rng, [grid.n // 4 if k % 2 == 0 else grid.n // 2
                                            for k in range(probes)])
    samples += [(w, float(times[k % len(times)])) for k, w in enumerate(drawn)]
    w = np.stack([v for v, _t in samples])
    at = [t for _v, t in samples]
    slot = {}  # sampled time -> its row in the diffusivity stack
    rows = [slot.setdefault(t, len(slot)) for t in at]
    a = np.stack([problem.diffusivity(t) for t in slot])
    grads = _gradients(grid, np.concatenate([w, a]))
    dw, da = grads[:len(w)], grads[len(w):][rows]
    a = a[rows]
    quad = a * (dw[:, 0] ** 2 + dw[:, 1] ** 2 + dw[:, 2] ** 2)
    cross = w * (da[:, 0] * dw[:, 0] + da[:, 1] * dw[:, 1] + da[:, 2] * dw[:, 2])
    nonlocal_term = w * np.stack([problem.operator.apply(v, t) for v, t in zip(w, at)])
    deficit = 0.5 * delta * _h1_norms_sq(grid, w, dw) - _integrals(grid, quad + cross + nonlocal_term)
    ratios = deficit / np.maximum(_integrals(grid, w ** 2), 1e-300)
    kappa = max([1e-12, *ratios.tolist()])
    return GardingReport(delta, kappa, len(samples))


@dataclass
class EnergyReport:
    ok: bool
    lhs: float
    rhs: float
    margin: float
    a: float
    kappa: float


def energy_estimate_check(problem: ParabolicProblem, solution: SolutionRecord,
                          a: float, garding: Optional[GardingReport] = None) -> EnergyReport:
    """Discrete analog of ||u||_{LH_a^1}^2 <= (1/delta) (|u0|_2^2 + ||f||_{LH_a^0}^2).

    Time integrals over [0, T] are weighted trapezoidal sums with weight
    e^{-2 a t}; requires a >= kappa + 1/2.
    """
    garding = garding or garding_constants(problem)
    if a < garding.kappa + 0.5 - 1e-9 * (1.0 + abs(garding.kappa)):
        raise ParameterTooSmall(
            f"need a >= kappa + 1/2 = {garding.kappa + 0.5:.4f}, got {a}")
    grid = problem.grid
    times = solution.times
    wgt = np.exp(-2.0 * a * times)
    h1_series = _h1_norms_sq(grid, solution.states, _gradients(grid, solution.states))
    lhs = float(np.trapezoid(wgt * h1_series, times))
    f_series = np.array([integrate_values(grid, problem.force(t) ** 2) for t in times])
    f_term = float(np.trapezoid(wgt * f_series, times))
    u0_sq = integrate_values(grid, problem.initial.values ** 2)
    rhs = (u0_sq + f_term) / garding.delta
    margin = rhs - lhs
    ok = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return EnergyReport(bool(ok), lhs, rhs, margin, a, garding.kappa)


def uniqueness_check(problem: ParabolicProblem) -> float:
    """Solve by Crank-Nicolson twice, from different Krylov starting vectors;
    sup-norm difference."""
    s1 = solve(problem, "crank_nicolson", x0_mode="zero")
    s2 = solve(problem, "crank_nicolson", x0_mode="random")
    return float(np.abs(s1.states - s2.states).max())
