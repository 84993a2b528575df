"""Constrained conformal flow integrator on the flat spin 3-torus.

The conformal factor evolves by (u-form, m = 3)

    du/dt = -[ L_g u - (int u L_g u / int u^2 |psi|^2) |psi|^2 u ] u^{-4}

with psi the tracked eigenspinor of the generalized Dirac pencil at u.  The
state is u alone: the eigenpair is a function of u, refined at every stage by
a Jacobi-Davidson-style correction (`pencil.refine_pair`).  The nonlocal
coefficient is kept in ratio form, which makes the conformal volume
int u^6 dvol an exact invariant of the continuous flow and keeps the right
side independent of the normalization of psi.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .conformal import (
    background_scalar_curvature,
    conformal_laplacian,
    laplacian,
    scal_conformal,
)
from .dirac import apply_dirac
from .errors import (
    ConvergenceFailure,
    EdtorusError,
    NonFiniteState,
    NoSimpleEigenvalue,
    PositivityLoss,
    SmallGap,
    StepTooLarge,
    WindowTooNarrow,
)
from .fields import (
    ExponentTable,
    ScalarField,
    SpinorField,
    SpinStructure,
    integrate_values,
    pointwise_norm_sq,
    quadrature,
    scalar_field,
)
from .parabolic import (
    FiberLinear,
    Multiply,
    NonlocalOperator,
    ParabolicProblem,
    RankOne,
    constant_provider,
    solve as parabolic_solve,
    zero_operator,
)
from .pencil import (
    EigenPair,
    refine_pair,
    simplicity_gap,
    solve_window,
    spectrum_near,
)
from .perturb import (
    default_gap_tol,
    projected_resolvent,
    quaternion_align,
    renormalize,
    tracked_pair,
)

#: the flow aborts with PositivityLoss when min u falls below this floor
POSITIVITY_FLOOR = 1e-6

#: identifiers of the formula variants exercised, for machine-readable audit
FORMULA_VERSIONS = {
    "flow_rhs": "u-form-ratio-v1",
    "volume_invariant": "ratio-form-exact-v1",
    "eigen_tracking": "per-stage-refine-predicted-v1",
}


def volume(u: ScalarField, exps: ExponentTable) -> float:
    """Conformal volume Vol(g^u) = int u^{2m/(m-2)} dvol."""
    return quadrature(scalar_field(u.grid, u.values ** exps.p5))


def _require_finite(what: str, *parts) -> None:
    """Raise NonFiniteState unless every part (array or number) is finite."""
    if not all(np.all(np.isfinite(part)) for part in parts):
        raise NonFiniteState(f"non-finite {what}")


def rhs_u(u: ScalarField, pair: EigenPair, exps: ExponentTable) -> ScalarField:
    """Time derivative of the conformal factor, coefficient in ratio form."""
    if u.min() <= 0.0:
        raise PositivityLoss(f"conformal factor min {u.min():.3e}")
    lu = conformal_laplacian(u, exps).values
    dens = pointwise_norm_sq(pair.psi)
    energy = integrate_values(u.grid, u.values * lu)
    weight = integrate_values(u.grid, u.values ** exps.p1 * dens)
    bracket = lu - (energy / weight) * dens * u.values ** exps.p2
    rate = -(u.values ** (1.0 - exps.p3)) * bracket
    _require_finite("rate of u", rate)
    return scalar_field(u.grid, rate)


def eta_u(u: ScalarField, pair: EigenPair, exps: ExponentTable) -> ScalarField:
    """Conformal-speed field: du/dt = ((m-2)/4) eta_u u for a normalized pair."""
    if u.min() <= 0.0:
        raise PositivityLoss(f"conformal factor min {u.min():.3e}")
    scal_u = scal_conformal(u, exps).values
    dens = pointwise_norm_sq(pair.psi)
    energy = integrate_values(u.grid, u.values * conformal_laplacian(u, exps).values)
    vals = -(4.0 / (exps.m - 2)) * (scal_u - energy * dens * u.values ** (-exps.p7))
    return scalar_field(u.grid, vals)


def action_value(u: ScalarField, pair: EigenPair,
                 exps: Optional[ExponentTable] = None) -> float:
    """int [u L_g u + (D psi, psi) - lambda u^{p1} |psi|^2] dvol."""
    exps = exps or ExponentTable(3)
    lu = conformal_laplacian(u, exps).values
    dpsi = apply_dirac(pair.psi).values
    dirac_dens = (np.conjugate(pair.psi.values) * dpsi).sum(axis=-1).real
    dens = pointwise_norm_sq(pair.psi)
    integrand = u.values * lu + dirac_dens - pair.lam * u.values ** exps.p1 * dens
    return integrate_values(u.grid, integrand)


def stationarity_residual(u: ScalarField, pair: EigenPair,
                          exps: ExponentTable) -> tuple:
    """L^2 residuals of the coupled stationary system (scalar, constraint)."""
    lu = conformal_laplacian(u, exps).values
    dens = pointwise_norm_sq(pair.psi)
    energy = integrate_values(u.grid, u.values * lu)
    weight = integrate_values(u.grid, u.values ** exps.p1 * dens)
    scalar_resid = lu - (energy / weight) * dens * u.values ** exps.p2
    r1 = float(np.sqrt(integrate_values(u.grid, scalar_resid ** 2)))
    dpsi = apply_dirac(pair.psi).values
    spin_resid = dpsi - pair.lam * (u.values ** exps.p1)[..., None] * pair.psi.values
    r2 = float(np.sqrt(u.grid.cell_volume * np.sum(np.abs(spin_resid) ** 2)))
    return r1, r2


# ---------------------------------------------------------------------------
# Flow state, configuration, stepping.
# ---------------------------------------------------------------------------

@dataclass
class FlowState:
    t: float
    u: ScalarField
    pair: EigenPair
    gap: float
    energy: float = 0.0
    vol: float = 0.0
    constraint_residual: float = 0.0
    stationarity: float = 0.0
    min_u: float = 0.0
    stage_pairs: tuple = ()             # RK4 stage pairs of the step that made it

    def with_diagnostics(self, exps: ExponentTable) -> "FlowState":
        r1, r2 = stationarity_residual(self.u, self.pair, exps)
        return replace(
            self,
            energy=integrate_values(self.u.grid, self.u.values *
                                    conformal_laplacian(self.u, exps).values),
            vol=volume(self.u, exps),
            constraint_residual=self.pair.constraint_residual(self.u, exps),
            stationarity=r1,
            min_u=self.u.min(),
        )


@dataclass
class FlowConfig:
    horizon: float = 0.1
    dt: Optional[float] = None          # None: adaptive from the spectral bound
    cfl: float = 0.2                    # precondition coefficient (h^2 form)
    stability_factor: float = 0.05      # adaptive coefficient, below RK4 limit
    projection_period: int = 50         # steps between window gap re-measurements
    gap_tol: float = 1e-3               # relative: gap >= gap_tol * (1 + |lam|)
    scheme: str = "rk4_explicit"        # rk4_explicit | imex
    eigen_count: int = 12
    resolvent_tol: float = 1e-10        # stage eigenpair tolerance
    seed: int = 1234

    def __post_init__(self):
        if self.projection_period < 1:
            raise ValueError("projection period must be >= 1")
        if self.scheme not in ("rk4_explicit", "imex"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def cfl_bound(u: ScalarField, exps: ExponentTable, cfl: float) -> float:
    """Stated precondition bound cfl * h^2 * min(u^{p4}) / c_m."""
    return cfl * u.grid.h ** 2 * float((u.values ** exps.p4).min()) / exps.c_m


def _check_positivity(u: ScalarField) -> None:
    if u.min() < POSITIVITY_FLOOR:
        raise PositivityLoss(f"min u = {u.min():.3e} below floor {POSITIVITY_FLOOR:.1e}")


def _pair_at(u: ScalarField, guess: EigenPair, exps: ExponentTable,
             config: FlowConfig) -> EigenPair:
    """The tracked eigenpair at u: `refine_pair` started from guess, to the
    stage tolerance `resolvent_tol`, and gauge-aligned to guess."""
    fresh = refine_pair(u, guess, exps, tol=config.resolvent_tol)
    return EigenPair(fresh.lam, quaternion_align(fresh.psi, guess.psi, u, exps))


def rk4_step(rate, t: float, dt: float, y: np.ndarray) -> np.ndarray:
    """One classical RK4 step of y' = rate(t, y)."""
    k1 = rate(t, y)
    k2 = rate(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rate(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rate(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_step(state: FlowState, dt: float, exps: ExponentTable,
              config: FlowConfig) -> FlowState:
    """Classical RK4 in u alone.  Stage 1 uses the pair of the state; stage k
    refines the stage k-1 pair plus the previous step's increment from its
    stage k-1 to its stage k, which halves the refinement sweeps of stages 2
    and 4; the pair at the new u is refined from the stage-4 pair."""
    grid, spin = state.u.grid, state.pair.psi.spin
    previous, pairs = state.stage_pairs, []

    def rate(t: float, u_vals: np.ndarray) -> np.ndarray:
        _require_finite(f"RK4 stage state at t = {t!r}", u_vals)
        u = scalar_field(grid, u_vals)
        _check_positivity(u)
        if not pairs:
            pair = state.pair
        else:
            guess = pairs[-1]
            if previous:
                lo, hi = previous[len(pairs) - 1], previous[len(pairs)]
                guess = EigenPair(guess.lam + (hi.lam - lo.lam), SpinorField(
                    grid, spin, guess.psi.values + (hi.psi.values - lo.psi.values)))
            pair = _pair_at(u, guess, exps, config)
        pairs.append(pair)
        return rhs_u(u, pair, exps).values

    u1 = rk4_step(rate, state.t, dt, state.u.values)
    _require_finite(f"RK4 step to t = {state.t + dt!r}", u1)
    u_new = scalar_field(grid, u1)
    _check_positivity(u_new)
    return FlowState(state.t + dt, u_new, _pair_at(u_new, pairs[-1], exps, config),
                     state.gap, stage_pairs=tuple(pairs))


def _imex_step(state: FlowState, dt: float, exps: ExponentTable,
               config: FlowConfig) -> FlowState:
    """First-order IMEX: stiff diffusion c_m u^{-p4} Lap implicit with frozen
    coefficient, nonlocal bracket explicit; the pair at the new u is refined
    from the incoming one."""
    grid = state.u.grid
    u0 = state.u
    diffusivity = exps.c_m * u0.values ** (-exps.p4)
    explicit = rhs_u(u0, state.pair, exps).values - diffusivity * laplacian(u0).values
    problem = ParabolicProblem(grid, constant_provider(diffusivity),
                               zero_operator(grid), constant_provider(explicit),
                               u0, dt, 1)
    u1_vals = parabolic_solve(problem, "backward_euler").states[-1]
    _require_finite(f"IMEX step to t = {state.t + dt!r}", u1_vals)
    u_new = scalar_field(grid, u1_vals)
    _check_positivity(u_new)
    return FlowState(state.t + dt, u_new, _pair_at(u_new, state.pair, exps, config),
                     state.gap)


def step(state: FlowState, dt: float, exps: ExponentTable,
         config: FlowConfig) -> FlowState:
    """Advance one time step (no gap re-measurement; `run` owns that cadence)."""
    if config.scheme == "rk4_explicit":
        bound = cfl_bound(state.u, exps, config.cfl)
        if dt > bound * (1.0 + 1e-12):
            raise StepTooLarge(f"dt = {dt:.3e} violates the CFL precondition {bound:.3e}")
        return _rk4_step(state, dt, exps, config)
    return _imex_step(state, dt, exps, config)


def _classify_cluster(u: ScalarField, center: float, exps: ExponentTable,
                      config: FlowConfig, spin: SpinStructure) -> tuple:
    """Window solves near center with eigen_count, +6 and +14 pairs, widened
    until the window brackets the cluster nearest center.  Returns the last
    window, its eigenvalue nearest center and that cluster's SimplicityReport
    (None when every window held a single cluster)."""
    report = None
    for count in (config.eigen_count, config.eigen_count + 6, config.eigen_count + 14):
        window = solve_window(u, center, count, spin, exps, seed=config.seed)
        lams = window.eigenvalues
        lam_near = float(lams[np.argmin(np.abs(lams - center))])
        try:
            report = simplicity_gap(window, lam_near,
                                    gap_tol=config.gap_tol * (1.0 + abs(lam_near)))
        except WindowTooNarrow:
            continue  # whole window is one cluster: widen
        if report.kind != "indeterminate" or report.gap_certified:
            break
        # uncertified gap (cluster at the window edge): widen and retry
    return window, lam_near, report


def project_state(state: FlowState, exps: ExponentTable, config: FlowConfig) -> FlowState:
    """Re-measure the exterior gap of the tracked cluster by window solves at
    u; the tracked pair is kept.

    Raises SmallGap when the cluster is no longer quaternionic-simple.
    """
    _window, _lam, report = _classify_cluster(state.u, state.pair.lam, exps, config,
                                              state.pair.psi.spin)
    if report is None or report.kind != "quaternionic_simple":
        detail = ("no window brackets it" if report is None
                  else f"{report.kind}, gap {report.exterior_gap:.3e}")
        raise SmallGap(f"tracked cluster no longer simple: {detail}")
    return replace(state, gap=report.exterior_gap)


# ---------------------------------------------------------------------------
# Trajectories.
# ---------------------------------------------------------------------------

TRAJECTORY_COLUMNS = ("t", "lambda", "energy", "volume", "constraint_residual",
                      "stationarity_residual", "min_u", "gap", "dt")


@dataclass
class Trajectory:
    rows: list = field(default_factory=list)
    final_state: Optional[FlowState] = None
    abort_error: Optional[EdtorusError] = None

    @property
    def abort_reason(self) -> Optional[str]:
        exc = self.abort_error
        return None if exc is None else f"{type(exc).__name__}: {exc}"

    def record(self, state: FlowState, dt: float) -> None:
        self.rows.append((state.t, state.pair.lam, state.energy, state.vol,
                          state.constraint_residual, state.stationarity,
                          state.min_u, state.gap, dt))
        self.final_state = state

    def column(self, name: str) -> np.ndarray:
        idx = TRAJECTORY_COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])


def prepare_initial_state(u0: ScalarField, target: float, exps: ExponentTable,
                          config: FlowConfig,
                          spin: Optional[SpinStructure] = None) -> FlowState:
    """Solve the pencil at u0 and build the tracked state.

    Rejects initial data whose cluster nearest the target is not
    quaternionic-simple (constants on the flat torus are the canonical
    rejection: the flat cluster has complex multiplicity 8).
    """
    spin = spin or SpinStructure()
    _check_positivity(u0)
    window, lam_near, report = _classify_cluster(u0, target, exps, config, spin)
    if abs(lam_near) < 1e-8:
        raise NoSimpleEigenvalue("nearest eigenvalue is zero")
    if report is None:
        raise NoSimpleEigenvalue("window never covered the cluster's neighbors")
    if report.kind != "quaternionic_simple":
        raise NoSimpleEigenvalue(
            f"cluster at {lam_near:.6f} is {report.kind} "
            f"(size {report.cluster_size}, gap {report.exterior_gap:.3e})")
    state = FlowState(0.0, u0, tracked_pair(window, lam_near), report.exterior_gap)
    return state.with_diagnostics(exps)


def run(u0: ScalarField, target: float, config: FlowConfig,
        exps: Optional[ExponentTable] = None,
        spin: Optional[SpinStructure] = None,
        snapshot_hook=None) -> Trajectory:
    """Integrate the flow from u0 until the horizon or a typed abort.

    Finite-time aborts (positivity loss, gap collapse, solver failure) are
    recorded as the trajectory's abort reason, not raised: only short-time
    existence is guaranteed.  Only package errors (EdtorusError) abort this
    way; a LinAlgError from a dense factorization is recorded as a
    ConvergenceFailure, a non-finite state or rate as NonFiniteState, and
    any other exception propagates.
    """
    exps = exps or ExponentTable(3)
    state = prepare_initial_state(u0, target, exps, config, spin)

    traj = Trajectory()
    traj.record(state, 0.0)
    if snapshot_hook is not None:
        snapshot_hook(0, state)

    steps_done = 0
    while state.t < config.horizon - 1e-14:
        if config.dt is not None:
            dt = config.dt
        else:
            dt = cfl_bound(state.u, exps, config.stability_factor)
        dt = min(dt, config.horizon - state.t)
        try:
            state = step(state, dt, exps, config)
            steps_done += 1
            if steps_done % config.projection_period == 0:
                state = project_state(state, exps, config)
        except np.linalg.LinAlgError as exc:
            traj.abort_error = ConvergenceFailure(f"LinAlgError: {exc}")
            break
        except EdtorusError as exc:
            traj.abort_error = exc
            break
        state = state.with_diagnostics(exps)
        traj.record(state, dt)
        if snapshot_hook is not None:
            snapshot_hook(steps_done, state)
    return traj


# ---------------------------------------------------------------------------
# Linearized flow operator cl_v.
# ---------------------------------------------------------------------------

def linearized_flow_operator(v: ScalarField, pair: EigenPair,
                             exps: ExponentTable,
                             gap: Optional[float] = None) -> NonlocalOperator:
    """Linearization remainder of the flow right side at the path point v.

    Defined by the directional-derivative identity
        d/dtau Q[v + tau w] |_{tau=0} = c_m v^{-p4} Lap w + cl_v[w],
    where Q is the flow right side with the eigenpair sliding along the
    perturbation.  Assembled as multiplication terms, two rank-one integral
    terms sharing the emitter |psi|^2 v^{-p6}, and the eigenspinor-response
    term built from the projected resolvent (the time cut-off of the
    extension construction is identically 1 here).
    """
    m = exps.m
    grid = v.grid
    pair = renormalize(v, pair, exps)
    psi = pair.psi
    lam = pair.lam
    if gap is not None and gap < default_gap_tol(lam):
        raise SmallGap(f"linearization gap {gap:.3e} below tolerance")
    lv = conformal_laplacian(v, exps).values
    lap_v = laplacian(v).values
    scal = background_scalar_curvature(grid).values
    dens = pointwise_norm_sq(psi)
    energy = integrate_values(grid, v.values * lv)
    emitter = dens * v.values ** (-exps.p6)

    mult_diffusion = -(4.0 * exps.c_m / (m - 2)) * v.values ** (-exps.p3) * lap_v
    mult_curvature = -((m - 6.0) / (m - 2)) * scal * v.values ** (-exps.p4)
    mult_weight = -exps.p6 * energy * dens * v.values ** (-(2.0 * m - 2) / (m - 2))

    kernel_energy = 2.0 * lv
    kernel_norm = -(2.0 / (m - 2)) * energy * v.values ** exps.p2 * dens

    prefactor = 4.0 * lam * energy / (m - 2)

    def response(w: np.ndarray, _t: float) -> np.ndarray:
        # vanishing prefactor (flat fixed points: E(v) = 0) short-circuits the
        # resolvent, which need not exist there (flat clusters are multiple)
        if abs(prefactor) < 1e-12 * (1.0 + abs(lam)):
            return np.zeros_like(w)
        drive = SpinorField(grid, psi.spin, (w / v.values)[..., None] * psi.values)
        x = projected_resolvent(v, lam, pair, drive, exps, tol=1e-12)
        overlap = (np.conjugate(psi.values) * x.values).sum(axis=-1).real
        return prefactor * overlap * v.values ** (-exps.p6)

    response_bound = (4.0 * abs(lam) * abs(energy) / (m - 2)) \
        * float(np.abs(emitter).max()) * float(np.abs(dens / v.values).max() + 1.0)

    return NonlocalOperator(grid, [
        Multiply(constant_provider(mult_diffusion)),
        Multiply(constant_provider(mult_curvature)),
        Multiply(constant_provider(mult_weight)),
        RankOne(constant_provider(kernel_energy), constant_provider(emitter)),
        RankOne(constant_provider(kernel_norm), constant_provider(emitter)),
        FiberLinear(response, bound=response_bound),
    ])


def flow_rhs_at(v: ScalarField, lam_ref: float, exps: ExponentTable,
                spin: Optional[SpinStructure] = None) -> ScalarField:
    """The flow right side at v with the eigenpair re-solved near lam_ref.

    Well defined as a function of v alone: within a quaternionic-simple
    cluster the pointwise norm |psi_v|^2 is gauge independent.
    """
    pair = tracked_pair(spectrum_near(v, lam_ref, 2, spin, exps), lam_ref)
    return rhs_u(v, pair, exps)
