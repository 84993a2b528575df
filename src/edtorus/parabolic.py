"""Solver and verifier for the nonlocal linear parabolic model problem

    du/dt - A(x,t) * Laplacian(u) + L[u] = f(x,t),   u(.,0) = u0,

with A uniformly positive and L a time-fibered (fiber-preserving) linear
operator: the value of L[u] at time t depends only on u(.,t).  Operators are
assembled from multiplication, gradient-contraction and rank-one integral
primitives plus a general fiber-linear escape hatch; all providers are pure
functions of t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .conformal import gradient
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
class GradContract:
    """w -> b(.,t) . grad w  (b is a 3-tuple provider)"""

    vector: Callable[[float], tuple]

    def apply(self, grid: TorusGrid, w: np.ndarray, t: float) -> np.ndarray:
        b = self.vector(t)
        dw = gradient(ScalarField(grid, w))
        return b[0] * dw[0] + b[1] * dw[1] + b[2] * dw[2]

    def bound_hint(self, grid: TorusGrid, t: float) -> float:
        b = self.vector(t)
        return float(np.sqrt(b[0] ** 2 + b[1] ** 2 + b[2] ** 2).max())


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
    three algebraic primitives."""

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

def random_band_limited(grid: TorusGrid, rng: np.random.Generator,
                        max_mode: Optional[int] = None) -> np.ndarray:
    """Random real field with modes supported below max_mode per axis."""
    kmax = max_mode if max_mode is not None else max(1, grid.n // 4)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    k1, k2, k3 = _integer_modes(grid.n)
    mask = (np.abs(k1) <= kmax) & (np.abs(k2) <= kmax) & (np.abs(k3) <= kmax)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    coeffs[mask] = vals[mask]
    out = grid_ifft(coeffs * grid.num_points).real
    return out / max(np.abs(out).max(), 1e-300)


def h1_norm_sq(grid: TorusGrid, w: np.ndarray) -> float:
    dw = gradient(ScalarField(grid, w))
    return integrate_values(grid, w ** 2 + dw[0] ** 2 + dw[1] ** 2 + dw[2] ** 2)


@dataclass
class AxiomReport:
    a1_constant: float
    a2_violation: float
    trials: int


def _probe_fields(grid: TorusGrid, rng: np.random.Generator, trials: int):
    """Random band-limited probes plus the constant and single-mode fields
    that saturate rank-one and multiplication bounds."""
    x1, x2, x3 = grid.coords()
    scale = 2.0 * np.pi / grid.length
    probes = [np.ones(grid.shape), np.cos(scale * x1), np.sin(scale * x2)]
    for _ in range(max(trials - len(probes), 0)):
        probes.append(random_band_limited(grid, rng))
    return probes


def check_axioms(op: NonlocalOperator, trials: int = 100, seed: int = 515,
                 times=(0.0, 0.37, 1.0)) -> AxiomReport:
    """Probe (A1) |L[w](.,t)|_2 <= C ||w||_H1 and (A2) L[alpha w] = alpha(t) L[w]."""
    rng = np.random.default_rng(seed)
    grid = op.grid
    a1 = 0.0
    a2 = 0.0
    for k, w in enumerate(_probe_fields(grid, rng, trials)):
        t = times[k % len(times)]
        lw = op.apply(w, t)
        l2 = np.sqrt(integrate_values(grid, lw ** 2))
        h1 = np.sqrt(h1_norm_sq(grid, w))
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


def _step_solve(problem: ParabolicProblem, theta_dt: float, t: float,
                rhs: np.ndarray, x0: Optional[np.ndarray]) -> np.ndarray:
    """GMRES solve of (I + theta_dt G_t) w = rhs (x0 None: zero start),
    preconditioned by 1 / (1 + theta_dt abar |kappa|^2), abar the mean
    diffusivity.  A non-finite rhs or result raises NonFiniteState."""
    if not np.all(np.isfinite(rhs)):
        raise NonFiniteState(f"non-finite implicit step right-hand side at t = {t:.6g}")
    shape = problem.grid.shape
    k_sq = scalar_symbols(problem.grid.n, problem.grid.length).k_sq
    a = problem.diffusivity(t)
    abar = float(np.mean(a))
    symbol = 1.0 / (1.0 + theta_dt * abar * k_sq)

    def matvec(x):
        w = x.reshape(shape)
        return (w + theta_dt * _spatial_operator(problem, a, w, t)).reshape(-1)

    def precond(x):
        return grid_ifft(symbol * grid_fft(x.reshape(shape))).real.reshape(-1)

    n = rhs.size
    A = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    M = LinearOperator((n, n), matvec=precond, dtype=np.float64)
    b = rhs.reshape(-1)
    x, info = gmres(A, b, x0=x0, rtol=STEP_GMRES_RTOL, atol=0.0, restart=STEP_GMRES_RESTART,
                    maxiter=STEP_GMRES_MAXITER, M=M)
    if not np.all(np.isfinite(x)):
        raise NonFiniteState(f"non-finite implicit step solution at t = {t:.6g}")
    resid = np.linalg.norm(matvec(x) - b)
    scale = max(np.linalg.norm(b), 1e-300)
    if info != 0 or not resid <= STEP_RESIDUAL_TOL * scale:  # NaN fails too
        raise ConvergenceFailure("implicit step solve failed", residual=float(resid / scale))
    return x.reshape(shape)


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
    """
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
            rhs = w - 0.5 * dt * _spatial_operator(problem, problem.diffusivity(t0), w, t0) \
                + 0.5 * dt * (problem.force(t0) + problem.force(t1))
        x0 = rng.standard_normal(problem.grid.num_points) if x0_mode == "random" else None
        states[k + 1] = _step_solve(problem, theta * dt, t1, rhs, x0)
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
    + w L[w] dvol.  Each probe's gradient serves both it and ||w||_H1, and
    A and grad A are computed once per sampled time.
    """
    delta = 2.0 * problem.min_diffusivity()
    if not delta > 0:  # NaN fails too
        raise NonPositiveDiffusivity("diffusivity lower bound is not positive")
    rng = np.random.default_rng(seed)
    grid = problem.grid
    times = problem.times()
    kappa = 1e-12
    total = 0
    diffusivity_at = {}  # t -> (A(.,t), grad A(.,t))

    def account(w, t):
        nonlocal kappa, total
        if t not in diffusivity_at:
            a = problem.diffusivity(t)
            diffusivity_at[t] = a, gradient(ScalarField(grid, a))
        a, da = diffusivity_at[t]
        dw = gradient(ScalarField(grid, w))
        h1 = integrate_values(grid, w ** 2 + dw[0] ** 2 + dw[1] ** 2 + dw[2] ** 2)
        quad = a * (dw[0] ** 2 + dw[1] ** 2 + dw[2] ** 2)
        cross = w * (da[0] * dw[0] + da[1] * dw[1] + da[2] * dw[2])
        nonlocal_term = w * problem.operator.apply(w, t)
        deficit = 0.5 * delta * h1 - integrate_values(grid, quad + cross + nonlocal_term)
        l2 = integrate_values(grid, w ** 2)
        kappa = max(kappa, deficit / max(l2, 1e-300))
        total += 1

    for t in times[:: max(1, len(times) // 4)]:
        for w in _targeted_probes(problem, float(t)):
            account(w, float(t))
    for k in range(probes):
        # alternate smooth and full-band probes: gradient cross terms make the
        # deficit grow with frequency, and solutions populate the whole band
        kmax = grid.n // 4 if k % 2 == 0 else grid.n // 2
        w = random_band_limited(grid, rng, max_mode=kmax)
        account(w, float(times[k % len(times)]))
    return GardingReport(delta, kappa, total)


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
    h1_series = np.array([h1_norm_sq(grid, s) for s in solution.states])
    lhs = float(np.trapezoid(wgt * h1_series, times))
    f_series = np.array([integrate_values(grid, problem.force(t) ** 2) for t in times])
    f_term = float(np.trapezoid(wgt * f_series, times))
    u0_sq = integrate_values(grid, problem.initial.values ** 2)
    rhs = (u0_sq + f_term) / garding.delta
    margin = rhs - lhs
    ok = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return EnergyReport(bool(ok), lhs, rhs, margin, a, garding.kappa)


def uniqueness_check(problem: ParabolicProblem, scheme: str = "crank_nicolson") -> float:
    """Solve twice from different Krylov starting vectors; sup-norm difference."""
    s1 = solve(problem, scheme, x0_mode="zero")
    s2 = solve(problem, scheme, x0_mode="random")
    return float(np.abs(s1.states - s2.states).max())
