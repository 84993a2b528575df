import numpy as np
import pytest

import edtorus.flow
import edtorus.pencil
from edtorus.conformal import conformal_laplacian, laplacian
from edtorus.dirac import apply_dirac, quaternionic_j
from edtorus.errors import ConvergenceFailure, NoSimpleEigenvalue, StepTooLarge
from edtorus.fields import (
    SpinorField,
    SpinStructure,
    TorusGrid,
    constant_field,
    field_from_function,
    grid_fft,
    integrate_values,
    pointwise_norm_sq,
    scalar_field,
)
from edtorus.flow import (
    FlowConfig,
    FlowState,
    cfl_bound,
    flow_rhs_at,
    linearized_flow_operator,
    prepare_initial_state,
    rhs_u,
    rk4_step,
    run,
    step,
    volume,
)
from edtorus.parabolic import check_axioms
from edtorus.pencil import EigenPair, dense_oracle
from edtorus.perturb import renormalize


def generic_u(grid, a=0.3, b=0.2):
    return field_from_function(
        grid, lambda x, y, z: 1 + a * np.cos(x) + b * np.cos(y + z))


def tracked_pair(u, lam_ref, spin, exps):
    dense = dense_oracle(u, spin, exps)
    sel = dense.nearest_indices(lam_ref, 2)
    lam = float(dense.eigenvalues[sel].mean())
    return renormalize(u, EigenPair(lam, dense.pair(int(sel[0])).psi), exps)


def conformal_speed(u, pair, exps):
    """eta = -(4/(m-2)) (u^{-p3} L_g u - E |psi|^2 u^{-p7}) for a u-normalized
    pair, E = int u L_g u: u^{-p3} L_g u is the scalar curvature of u^{p4} g."""
    lu = conformal_laplacian(u, exps).values
    energy = integrate_values(u.grid, u.values * lu)
    scal_u = u.values ** (-exps.p3) * lu
    dens = pointwise_norm_sq(pair.psi)
    return -(4.0 / (exps.m - 2)) * (scal_u - energy * dens * u.values ** (-exps.p7))


def dirac_einstein_action(u, pair, exps):
    """int [u L_g u + (D psi, psi) - lambda u^{p1} |psi|^2] dvol."""
    lu = conformal_laplacian(u, exps).values
    dirac_dens = (np.conjugate(pair.psi.values) * apply_dirac(pair.psi).values).sum(-1).real
    dens = pointwise_norm_sq(pair.psi)
    return integrate_values(u.grid, u.values * lu + dirac_dens
                            - pair.lam * u.values ** exps.p1 * dens)


def diagnosed(u, pair, exps):
    return FlowState(0.0, u, pair, gap=0.07).with_diagnostics(exps)


@pytest.fixture(scope="module")
def state6(exps, spin):
    grid = TorusGrid(6)
    u = generic_u(grid)
    return grid, u, tracked_pair(u, 0.88, spin, exps)


class TestRhs:
    def test_constants_are_fixed_points(self, exps, spin):
        grid = TorusGrid(6)
        u = constant_field(grid, 1.4)
        pair = tracked_pair(u, 0.5, spin, exps)
        assert np.abs(rhs_u(u, pair, exps).values).max() <= 1e-12

    def test_leading_order_mode_decay(self, exps, spin):
        grid = TorusGrid(6)
        eps = 1e-3
        u = field_from_function(grid, lambda x, y, z: 1 + eps * np.cos(x))
        pair = tracked_pair(u, 0.87, spin, exps)
        x1 = grid.coords()[0]
        err = np.abs(rhs_u(u, pair, exps).values + 8 * eps * np.cos(x1)).max()
        assert err <= 100 * eps ** 2

    def test_two_algebraic_forms_agree(self, state6, exps):
        # u-form of the flow versus the critical-power form divided through
        grid, u, pair = state6
        direct = rhs_u(u, pair, exps).values
        lu = conformal_laplacian(u, exps).values
        dens = (np.abs(pair.psi.values) ** 2).sum(axis=-1)
        energy = grid.cell_volume * np.sum(u.values * lu)
        weight = grid.cell_volume * np.sum(u.values ** exps.p1 * dens)
        critical_rate = -exps.p3 * (lu - (energy / weight) * dens * u.values ** exps.p2)
        via_chain_rule = critical_rate / (exps.p3 * u.values ** (exps.p3 - 1))
        assert np.abs(direct - via_chain_rule).max() <= 1e-12 * np.abs(direct).max()

    def test_gauge_robustness(self, state6, exps):
        grid, u, pair = state6
        a = 0.6 + 0.3j
        b = np.sqrt(1 - abs(a) ** 2)
        twisted = SpinorField(grid, pair.psi.spin,
                              a * pair.psi.values + b * quaternionic_j(pair.psi).values)
        r1 = rhs_u(u, pair, exps).values
        r2 = rhs_u(u, EigenPair(pair.lam, twisted), exps).values
        assert np.abs(r1 - r2).max() <= 1e-12 * max(1.0, np.abs(r1).max())


class TestEta:
    def test_constant_zero(self, exps, spin):
        grid = TorusGrid(6)
        u = constant_field(grid, 2.0)
        pair = tracked_pair(u, 0.25, spin, exps)
        assert np.abs(conformal_speed(u, pair, exps)).max() <= 1e-12

    def test_rate_identity(self, state6, exps):
        # the ratio-form rate of u is the conformal speed: du/dt = ((m-2)/4) eta u
        grid, u, pair = state6
        lhs = rhs_u(u, pair, exps).values
        rhs = 0.25 * (exps.m - 2) * conformal_speed(u, pair, exps) * u.values
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_metric_chain_rule(self, state6, exps):
        # d/dt g = eta g in conformal-factor form: p4 u^{p4-1} du/dt = eta u^{p4}
        grid, u, pair = state6
        du = rhs_u(u, pair, exps).values
        eta = conformal_speed(u, pair, exps)
        lhs = exps.p4 * u.values ** (exps.p4 - 1) * du
        rhs = eta * u.values ** exps.p4
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


class TestActionAndStationarity:
    def test_action_equals_energy_on_eigenpairs(self, state6, exps):
        grid, u, pair = state6
        assert dirac_einstein_action(u, pair, exps) == pytest.approx(
            diagnosed(u, pair, exps).energy, abs=1e-10)

    def test_action_constant_zero(self, exps, spin):
        grid = TorusGrid(6)
        u = constant_field(grid, 1.3)
        pair = tracked_pair(u, 0.5, spin, exps)
        assert abs(dirac_einstein_action(u, pair, exps)) <= 1e-10

    def test_action_rayleigh_defect(self, state6, exps, rng):
        # off an eigenpair the action exceeds the energy by the Rayleigh defect
        # Re int (psi, D psi - lambda u^{p1} psi)
        grid, u, pair = state6
        noise = 0.1 * (rng.standard_normal(grid.shape + (2,))
                       + 1j * rng.standard_normal(grid.shape + (2,)))
        psi = SpinorField(grid, pair.psi.spin, pair.psi.values + noise)
        got = dirac_einstein_action(u, EigenPair(pair.lam, psi), exps)
        resid = apply_dirac(psi).values - pair.lam * (u.values ** exps.p1)[..., None] * psi.values
        defect = integrate_values(grid, (np.conjugate(psi.values) * resid).sum(-1).real)
        assert got == pytest.approx(diagnosed(u, pair, exps).energy + defect, rel=1e-10)

    def test_stationarity_at_constant(self, exps, spin):
        grid = TorusGrid(6)
        u = constant_field(grid, 1.0)
        pair = tracked_pair(u, 0.87, spin, exps)
        resid = apply_dirac(pair.psi).values - pair.lam * (u.values ** exps.p1)[..., None] \
            * pair.psi.values
        assert diagnosed(u, pair, exps).stationarity <= 1e-10
        assert np.sqrt(grid.cell_volume * np.sum(np.abs(resid) ** 2)) <= 1e-9

    def test_positive_midflow(self, state6, exps):
        grid, u, pair = state6
        assert diagnosed(u, pair, exps).stationarity > 1e-2

    def test_diagnostics_transform_once(self, state6, exps, monkeypatch):
        """One diagnostics call applies the conformal Laplacian once (for the
        stationarity residual and the energy) and the Dirac operator once
        (for the constraint residual), with the values computed apart."""
        grid, u, pair = state6
        lu = conformal_laplacian(u, exps).values
        dens = pointwise_norm_sq(pair.psi)
        energy = integrate_values(grid, u.values * lu)
        weight = integrate_values(grid, u.values ** exps.p1 * dens)
        bracket = lu - (energy / weight) * dens * u.values ** exps.p2
        expected = (float(np.sqrt(integrate_values(grid, bracket ** 2))),
                    pair.constraint_residual(u, exps), energy)
        counts = {"laplacian": 0, "dirac": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(edtorus.flow, "conformal_laplacian",
                            counting("laplacian", edtorus.flow.conformal_laplacian))
        monkeypatch.setattr(edtorus.pencil, "apply_dirac",
                            counting("dirac", edtorus.pencil.apply_dirac))
        state = FlowState(0.0, u, pair, gap=0.07).with_diagnostics(exps)
        assert counts == {"laplacian": 1, "dirac": 1}
        assert state.stationarity == expected[0]
        assert state.constraint_residual == expected[1]
        assert state.energy == expected[2]


class TestRk4Step:
    def test_exact_for_cubic_rate_and_linear_growth(self):
        # y[0]' = 3 t^2 is integrated exactly; y[1:]' = y[1:] gains the
        # degree-4 Taylor polynomial of exp(dt)
        def rate(t, y):
            return np.concatenate([[3.0 * t ** 2], y[1:]])

        t, dt = 0.5, 0.25
        y = rk4_step(rate, t, dt, np.array([1.0, 1.0, -2.0]))
        assert y[0] == pytest.approx(1.0 + (t + dt) ** 3 - t ** 3, abs=1e-15)
        growth = 1 + dt + dt ** 2 / 2 + dt ** 3 / 6 + dt ** 4 / 24
        assert np.abs(y[1:] - growth * np.array([1.0, -2.0])).max() <= 1e-15


class TestStep:
    def test_flat_state_is_fixed(self, exps, spin):
        grid = TorusGrid(6)
        u = constant_field(grid, 1.0)
        pair = tracked_pair(u, 0.87, spin, exps)
        state = FlowState(0.0, u, pair, gap=1.0)
        cfg = FlowConfig(horizon=1.0)
        dt = 0.5 * cfl_bound(u, exps, cfg.cfl)
        for _ in range(5):
            state = step(state, dt, exps, cfg)
        assert np.abs(state.u.values - 1.0).max() <= 1e-12
        assert abs(state.pair.lam - pair.lam) <= 1e-12

    def test_cfl_precondition_enforced(self, state6, exps):
        grid, u, pair = state6
        state = FlowState(0.0, u, pair, gap=0.07)
        cfg = FlowConfig()
        bound = cfl_bound(u, exps, cfg.cfl)
        with pytest.raises(StepTooLarge):
            step(state, 2.0 * bound, exps, cfg)


class TestRun:
    def test_constant_rejected(self, exps):
        grid = TorusGrid(6)
        with pytest.raises(NoSimpleEigenvalue):
            prepare_initial_state(constant_field(grid, 1.0), 0.87, exps,
                                  FlowConfig(eigen_count=8))

    @pytest.fixture
    def prepared(self, monkeypatch, state6, exps):
        # skip the window solve: start the run from the dense tracked pair
        grid, u, pair = state6
        state = FlowState(0.0, u, pair, gap=0.02).with_diagnostics(exps)
        monkeypatch.setattr(edtorus.flow, "prepare_initial_state",
                            lambda *_args, **_kwargs: state)
        return u

    def test_programming_error_propagates(self, monkeypatch, prepared):
        def broken_step(*_args, **_kwargs):
            raise TypeError("injected programming error")

        monkeypatch.setattr(edtorus.flow, "step", broken_step)
        with pytest.raises(TypeError, match="injected programming error"):
            run(prepared, 0.88, FlowConfig(horizon=0.01))

    def test_linalg_error_aborts_as_convergence_failure(self, monkeypatch, prepared):
        def singular_step(*_args, **_kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(edtorus.flow, "step", singular_step)
        traj = run(prepared, 0.88, FlowConfig(horizon=0.01))
        assert isinstance(traj.abort_error, ConvergenceFailure)
        assert traj.abort_reason == "ConvergenceFailure: LinAlgError: Singular matrix"
        assert len(traj.rows) == 1

    def test_short_generic_run_conserves(self, exps):
        grid = TorusGrid(6)
        cfg = FlowConfig(horizon=0.01, projection_period=3, eigen_count=8,
                         resolvent_tol=1e-9, stability_factor=0.03)
        traj = run(generic_u(grid), 0.88, cfg)
        assert traj.abort_reason is None
        # the N=6 grid resolves the pair at its Nyquist limit, which
        # front-loads a small aliasing transient; the binding contract is
        # the acceptance-scale 1e-6 (met with wide margin at N=8)
        vols = traj.column("volume")
        assert np.abs(vols - vols[0]).max() / vols[0] <= 1e-6
        assert traj.column("constraint_residual").max() <= 1e-6
        # the pair is refined at every stage, so it stays an eigenpair
        assert traj.column("constraint_residual").max() <= 1e-9
        ts = traj.column("t")
        assert np.all(np.diff(ts) > 0)

    @pytest.mark.parametrize("shift", [(a, b, c) for a in (0.0, 0.5) for b in (0.0, 0.5)
                                       for c in (0.0, 0.5)])
    def test_runs_at_every_spin_structure(self, exps, shift):
        # J commutes with the pencil at every spin structure, so the cluster
        # nearest the target is a Kramers pair the flow can track
        cfg = FlowConfig(horizon=0.003)
        traj = run(generic_u(TorusGrid(6)), 0.87, cfg, exps, SpinStructure(shift))
        assert traj.abort_reason is None
        assert traj.final_state.t >= cfg.horizon - 1e-14

    def test_near_constant_linearized_decay(self, exps):
        # initial data 1 + eps*(modes): the cos(x1) amplitude decays like
        # eps * e^{-8t} to leading order
        grid = TorusGrid(6)
        eps = 0.02
        u0 = field_from_function(
            grid, lambda x, y, z: 1 + eps * (np.cos(x) + 0.8 * np.cos(y + z)))
        horizon = 0.05
        cfg = FlowConfig(horizon=horizon, projection_period=5, eigen_count=8,
                         gap_tol=2e-4, resolvent_tol=1e-9)
        traj = run(u0, 0.87, cfg)
        assert traj.abort_reason is None
        u_end = traj.final_state.u
        assert np.abs(u_end.values - 1.0).max() <= 2 * eps
        coeff = grid_fft(u_end.values)[1, 0, 0].real * 2 / grid.num_points
        assert coeff == pytest.approx(eps * np.exp(-8 * horizon), rel=0.05)


class TestLinearizedOperator:
    def test_vanishes_at_flat(self, exps, spin, rng):
        grid = TorusGrid(6)
        u = constant_field(grid, 1.0)
        pair = tracked_pair(u, 0.87, spin, exps)
        op = linearized_flow_operator(u, pair, exps)
        w = rng.standard_normal(grid.shape)
        assert np.abs(op.apply(w, 0.0)).max() <= 1e-12

    def test_directional_derivative(self, state6, exps):
        grid, u, pair = state6
        op = linearized_flow_operator(u, pair, exps)
        w = field_from_function(grid, lambda x, y, z: 0.6 * np.cos(y) + 0.4 * np.cos(x + z))
        analytic = (exps.c_m * u.values ** (-exps.p4) * laplacian(w).values
                    + op.apply(w.values, 0.0))
        q0 = flow_rhs_at(u, pair.lam, exps).values
        taus = (2e-2, 1e-2, 5e-3)
        rems = []
        for tau in taus:
            q1 = flow_rhs_at(scalar_field(grid, u.values + tau * w.values),
                             pair.lam, exps).values
            fd = (q1 - q0) / tau
            rems.append(np.sqrt(grid.cell_volume * np.sum((fd - analytic) ** 2)))
        ratios = np.array(rems[:-1]) / np.array(rems[1:])
        # first-order remainder: halving tau halves the defect
        assert np.all(np.abs(ratios - 2.0) <= 0.4)

    def test_axioms(self, state6, exps):
        grid, u, pair = state6
        op = linearized_flow_operator(u, pair, exps)
        rep = check_axioms(op, trials=25)
        assert np.isfinite(rep.a1_constant)
        assert rep.a1_constant <= op.bound_hint(0.0) + 1e-6
        assert rep.a2_violation <= 1e-12

    def test_time_scaling_exact(self, state6, exps, rng):
        grid, u, pair = state6
        op = linearized_flow_operator(u, pair, exps)
        w = rng.standard_normal(grid.shape)
        for t in (0.0, 0.5, 1.0):
            alpha = 1.0 + t
            diff = op.apply(alpha * w, t) - alpha * op.apply(w, t)
            assert np.abs(diff).max() <= 1e-12


class TestSchemes:
    def test_rk4_richardson_and_imex(self, exps, spin):
        grid = TorusGrid(6)
        u0 = generic_u(grid, a=0.1, b=0.08)
        pair = tracked_pair(u0, 0.87, spin, exps)
        state0 = FlowState(0.0, u0, pair, gap=0.02).with_diagnostics(exps)
        horizon = 0.032
        endpoints = {}
        for dt in (2e-3, 1e-3, 5e-4):
            cfg = FlowConfig(horizon=horizon, dt=dt, projection_period=10 ** 9,
                             resolvent_tol=1e-11, scheme="rk4_explicit")
            s = state0
            while s.t < horizon - 1e-12:
                s = step(s, dt, exps, cfg)
            endpoints[dt] = s.u.values
        d1 = np.sqrt(np.mean((endpoints[2e-3] - endpoints[1e-3]) ** 2))
        d2 = np.sqrt(np.mean((endpoints[1e-3] - endpoints[5e-4]) ** 2))
        order = np.log2(d1 / d2)
        assert abs(order - 4.0) <= 0.2

        # IMEX endpoint agrees with RK4 to the dominant (first-order) error
        imex_end = {}
        for dt in (1e-3, 5e-4):
            cfg = FlowConfig(horizon=horizon, dt=dt, projection_period=10 ** 9,
                             resolvent_tol=1e-11, scheme="imex")
            s = state0
            while s.t < horizon - 1e-12:
                s = step(s, dt, exps, cfg)
            imex_end[dt] = s.u.values
        imex_err_est = np.sqrt(np.mean((imex_end[1e-3] - imex_end[5e-4]) ** 2))
        cross = np.sqrt(np.mean((imex_end[1e-3] - endpoints[1e-3]) ** 2))
        assert cross <= 4.0 * imex_err_est + 1e-9


class TestVolume:
    def test_volume_is_u6_integral(self, exps):
        grid = TorusGrid(6)
        u = constant_field(grid, 1.1)
        assert volume(u, exps) == pytest.approx(1.1 ** 6 * (2 * np.pi) ** 3)
