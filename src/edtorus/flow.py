"""Constrained conformal flow integrator on the flat spin 3-torus.

The conformal factor evolves by (u-form, m = 3)

    du/dt = -[ L_g u - (int u L_g u / int u^2 |psi|^2) |psi|^2 u ] u^{-4}

coupled to the tracked generalized Dirac eigenpair (lambda, psi) through the
first-order continuation rates.  The nonlocal coefficient is kept in ratio
form, which makes the conformal volume int u^6 dvol an exact invariant of the
continuous flow and keeps the right side independent of normalization drift
between projections.
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
    DEFAULT_GAP_TOL,
    EigenPair,
    refine_pair,
    simplicity_gap,
    solve_window,
    spectrum_near,
)
from .perturb import (
    eigenpath_step,
    lambda_dot,
    projected_resolvent,
    psi_dot,
    quaternion_align,
    renormalize,
    rk4_step,
    tracked_pair,
)

#: identifiers of the formula variants exercised, for machine-readable audit
FORMULA_VERSIONS = {
    "flow_rhs": "u-form-ratio-v1",
    "eta_identity": "scalar-curvature-form-v1",
    "eigen_rate": "first-order-continuation-v1",
    "spinor_rate": "projected-resolvent-plus-v1",
    "linearized_operator": "multiply+rank-one+response-v1",
    "volume_invariant": "ratio-form-exact-v1",
}


def volume(u: ScalarField, exps: ExponentTable) -> float:
    """Conformal volume Vol(g^u) = int u^{2m/(m-2)} dvol."""
    return quadrature(scalar_field(u.grid, u.values ** exps.p5))


def rhs_u(u: ScalarField, pair: EigenPair, exps: ExponentTable) -> ScalarField:
    """Time derivative of the conformal factor, coefficient in ratio form."""
    if u.min() <= 0.0:
        raise PositivityLoss(f"conformal factor min {u.min():.3e}")
    lu = conformal_laplacian(u, exps).values
    dens = pointwise_norm_sq(pair.psi)
    energy = integrate_values(u.grid, u.values * lu)
    weight = integrate_values(u.grid, u.values ** exps.p1 * dens)
    bracket = lu - (energy / weight) * dens * u.values ** exps.p2
    return scalar_field(u.grid, -(u.values ** (1.0 - exps.p3)) * bracket)


def eta_u(u: ScalarField, pair: EigenPair, exps: ExponentTable) -> ScalarField:
    """Conformal-speed field: du/dt = ((m-2)/4) eta_u u for a normalized pair."""
    if u.min() <= 0.0:
        raise PositivityLoss(f"conformal factor min {u.min():.3e}")
    scal_u = scal_conformal(u, exps).values
    dens = pointwise_norm_sq(pair.psi)
    energy = integrate_values(u.grid, u.values * conformal_laplacian(u, exps).values)
    vals = -(4.0 / (exps.m - 2)) * (scal_u - energy * dens * u.values ** (-exps.p7))
    return scalar_field(u.grid, vals)


def action_value(u: ScalarField, pair: EigenPair, lam: Optional[float] = None,
                 exps: Optional[ExponentTable] = None) -> float:
    """int [u L_g u + (D psi, psi) - lambda u^{p1} |psi|^2] dvol."""
    exps = exps or ExponentTable(3)
    lam = pair.lam if lam is None else lam
    lu = conformal_laplacian(u, exps).values
    dpsi = apply_dirac(pair.psi).values
    dirac_dens = (np.conjugate(pair.psi.values) * dpsi).sum(axis=-1).real
    dens = pointwise_norm_sq(pair.psi)
    integrand = u.values * lu + dirac_dens - lam * u.values ** exps.p1 * dens
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
    action: float = 0.0

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
            action=action_value(self.u, self.pair, exps=exps),
        )


@dataclass
class FlowConfig:
    horizon: float = 0.1
    dt: Optional[float] = None          # None: adaptive from the spectral bound
    cfl: float = 0.2                    # precondition coefficient (h^2 form)
    stability_factor: float = 0.05      # adaptive coefficient, below RK4 limit
    projection_period: int = 5          # steps between eigenpair re-solves
    eps_pos: float = 1e-6
    gap_tol: float = 1e-3               # relative: gap >= gap_tol * (1 + |lam|)
    scheme: str = "rk4_explicit"        # rk4_explicit | imex
    eigen_count: int = 12
    resolvent_tol: float = 1e-10
    gap_refresh: int = 10               # projections between full gap re-solves
    seed: int = 1234

    def __post_init__(self):
        if self.projection_period < 1:
            raise ValueError("projection period must be >= 1")
        if self.eps_pos <= 0:
            raise ValueError("positivity floor must be positive")
        if self.scheme not in ("rk4_explicit", "imex"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def cfl_bound(u: ScalarField, exps: ExponentTable, cfl: float) -> float:
    """Stated precondition bound cfl * h^2 * min(u^{p4}) / c_m."""
    return cfl * u.grid.h ** 2 * float((u.values ** exps.p4).min()) / exps.c_m


def _check_positivity(u: ScalarField, eps_pos: float) -> None:
    if u.min() < eps_pos:
        raise PositivityLoss(f"min u = {u.min():.3e} below floor {eps_pos:.1e}")


def _rk4_step(state: FlowState, dt: float, exps: ExponentTable,
              config: FlowConfig) -> FlowState:
    grid, spin = state.u.grid, state.pair.psi.spin
    gap = state.gap

    def coupled_rate(_t: float, y: tuple) -> tuple:
        u_vals, lam, psi_vals = y
        u = scalar_field(grid, u_vals)
        _check_positivity(u, config.eps_pos)
        pair = EigenPair(lam, SpinorField(grid, spin, psi_vals))
        du = rhs_u(u, pair, exps)
        dlam = lambda_dot(u, du, pair, exps)
        dpsi = psi_dot(u, du, pair, dlam, exps, tol=config.resolvent_tol,
                       gap=gap, gap_tol=config.gap_tol * (1.0 + abs(lam)))
        return du.values, dlam, dpsi.values

    u1, lam1, psi1 = rk4_step(coupled_rate, state.t, dt,
                              (state.u.values, state.pair.lam, state.pair.psi.values))
    u_new = scalar_field(grid, u1)
    _check_positivity(u_new, config.eps_pos)
    return FlowState(state.t + dt, u_new,
                     EigenPair(lam1, SpinorField(grid, spin, psi1)), gap)


def _imex_step(state: FlowState, dt: float, exps: ExponentTable,
               config: FlowConfig) -> FlowState:
    """First-order IMEX: stiff diffusion c_m u^{-p4} Lap implicit with frozen
    coefficient, nonlocal bracket explicit; eigenpair advanced along the
    resulting linear-in-time path."""
    grid, spin = state.u.grid, state.pair.psi.spin
    u0 = state.u
    diffusivity = exps.c_m * u0.values ** (-exps.p4)
    explicit = rhs_u(u0, state.pair, exps).values - diffusivity * laplacian(u0).values
    problem = ParabolicProblem(grid, constant_provider(diffusivity),
                               zero_operator(grid), constant_provider(explicit),
                               u0, dt, 1)
    u1_vals = parabolic_solve(problem, "backward_euler").states[-1]
    u_new = scalar_field(grid, u1_vals)
    _check_positivity(u_new, config.eps_pos)

    udot_vals = (u1_vals - u0.values) / dt

    def u_of(tt: float) -> ScalarField:
        s = (tt - state.t) / dt
        return scalar_field(grid, (1.0 - s) * u0.values + s * u1_vals)

    def udot_of(_tt: float) -> ScalarField:
        return scalar_field(grid, udot_vals)

    pair1 = eigenpath_step(u_of, udot_of, state.t, dt, state.pair, exps,
                           resolvent_tol=config.resolvent_tol,
                           gap=state.gap,
                           gap_tol=config.gap_tol * (1.0 + abs(state.pair.lam)))
    return FlowState(state.t + dt, u_new, pair1, state.gap)


def step(state: FlowState, dt: float, exps: ExponentTable,
         config: FlowConfig) -> FlowState:
    """Advance one time step (no projection; `run` owns the projection cadence)."""
    if config.scheme == "rk4_explicit":
        bound = cfl_bound(state.u, exps, config.cfl)
        if dt > bound * (1.0 + 1e-12):
            raise StepTooLarge(f"dt = {dt:.3e} violates the CFL precondition {bound:.3e}")
        return _rk4_step(state, dt, exps, config)
    return _imex_step(state, dt, exps, config)


def project_state(state: FlowState, exps: ExponentTable, config: FlowConfig,
                  solver_tol: float = 1e-9, full: bool = False) -> FlowState:
    """Re-solve the eigenpair near the tracked eigenvalue, gauge-align and
    renormalize.

    The cheap path refreshes the pair by Rayleigh-quotient iteration and keeps
    the last certified gap; a full window re-solve re-measures the gap (run
    schedules those every `gap_refresh` projections).
    """
    u, pair = state.u, state.pair
    if not full:
        fresh, gap = refine_pair(u, pair, exps, tol=solver_tol), state.gap
    else:
        window = solve_window(u, pair.lam, config.eigen_count, pair.psi.spin, exps,
                              tol=solver_tol, seed=config.seed)
        report = simplicity_gap(window, pair.lam,
                                gap_tol=config.gap_tol * (1.0 + abs(pair.lam)))
        if report.kind != "quaternionic_simple":
            raise SmallGap(
                f"tracked cluster no longer simple: {report.kind}, gap {report.exterior_gap:.3e}")
        fresh, gap = tracked_pair(window, pair.lam), report.exterior_gap
    aligned = quaternion_align(fresh.psi, pair.psi, u, exps)
    new_pair = renormalize(u, EigenPair(fresh.lam, aligned), exps)
    return replace(state, pair=new_pair, gap=gap)


# ---------------------------------------------------------------------------
# Trajectories.
# ---------------------------------------------------------------------------

TRAJECTORY_COLUMNS = ("t", "lambda", "energy", "volume", "constraint_residual",
                      "stationarity_residual", "min_u", "gap", "dt")


@dataclass
class Trajectory:
    rows: list = field(default_factory=list)
    states: list = field(default_factory=list)
    final_state: Optional[FlowState] = None
    abort_error: Optional[EdtorusError] = None

    @property
    def abort_reason(self) -> Optional[str]:
        exc = self.abort_error
        return None if exc is None else f"{type(exc).__name__}: {exc}"

    def record(self, state: FlowState, dt: float, keep_state: bool) -> None:
        self.rows.append((state.t, state.pair.lam, state.energy, state.vol,
                          state.constraint_residual, state.stationarity,
                          state.min_u, state.gap, dt))
        if keep_state:
            self.states.append(state)
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
    _check_positivity(u0, config.eps_pos)
    report = None
    for count in (config.eigen_count, config.eigen_count + 6, config.eigen_count + 14):
        window = solve_window(u0, target, count, spin, exps, seed=config.seed)
        lams = window.eigenvalues
        lam_near = float(lams[np.argmin(np.abs(lams - target))])
        if abs(lam_near) < 1e-8:
            raise NoSimpleEigenvalue("nearest eigenvalue is zero")
        try:
            report = simplicity_gap(window, lam_near,
                                    gap_tol=config.gap_tol * (1.0 + abs(lam_near)))
        except WindowTooNarrow:
            continue  # whole window is one cluster: widen
        if report.kind != "indeterminate" or report.gap_certified:
            break
        # uncertified gap (cluster at the window edge): widen and retry
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
        keep_states: bool = False,
        snapshot_hook=None) -> Trajectory:
    """Integrate the flow from u0 until the horizon or a typed abort.

    Finite-time aborts (positivity loss, gap collapse, solver failure) are
    recorded as the trajectory's abort reason, not raised: only short-time
    existence is guaranteed.  Only package errors (EdtorusError) abort this
    way; a LinAlgError from a dense factorization is recorded as a
    ConvergenceFailure, and any other exception propagates.
    """
    exps = exps or ExponentTable(3)
    state = prepare_initial_state(u0, target, exps, config, spin)

    traj = Trajectory()
    traj.record(state, 0.0, True)
    if snapshot_hook is not None:
        snapshot_hook(0, state)

    steps_done = 0
    projections_done = 0
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
                projections_done += 1
                state = project_state(state, exps, config,
                                      full=projections_done % config.gap_refresh == 0)
        except np.linalg.LinAlgError as exc:
            traj.abort_error = ConvergenceFailure(f"LinAlgError: {exc}")
            break
        except EdtorusError as exc:
            traj.abort_error = exc
            break
        state = state.with_diagnostics(exps)
        traj.record(state, dt, keep_states)
        if snapshot_hook is not None:
            snapshot_hook(steps_done, state)
    return traj


# ---------------------------------------------------------------------------
# Linearized flow operator cl_v.
# ---------------------------------------------------------------------------

def linearized_flow_operator(v: ScalarField, pair: EigenPair,
                             exps: ExponentTable,
                             gap: Optional[float] = None,
                             resolvent_tol: float = 1e-12) -> NonlocalOperator:
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
    if gap is not None and gap < DEFAULT_GAP_TOL * (1.0 + abs(lam)):
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
        x = projected_resolvent(v, lam, pair, drive, exps, tol=resolvent_tol)
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
