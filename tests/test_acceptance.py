"""Acceptance suite: every criterion at its stated tolerance, one line each.

Desk scale (N = 6..16); the long flow-conservation run is the only item that
takes minutes.  Each test prints `[criterion NN] name: PASS/FAIL` so the
suite output doubles as the acceptance report.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from edtorus.conformal import laplacian, yamabe_covariance_residual
from edtorus.dirac import apply_dirac, quaternionic_j
from edtorus.fields import (
    ExponentTable,
    SpinorField,
    SpinStructure,
    TorusGrid,
    constant_field,
    field_from_function,
    scalar_field,
    weighted_spinor_inner_c,
)
from edtorus.flow import (
    FlowConfig,
    FlowState,
    cfl_bound,
    flow_rhs_at,
    linearized_flow_operator,
    run,
    step,
)
from edtorus.parabolic import (
    Multiply,
    NonlocalOperator,
    ParabolicProblem,
    RankOne,
    check_axioms,
    constant_provider,
    energy_estimate_check,
    garding_constants,
    mean_operator,
    random_band_limited,
    solve,
    solve_batch,
    uniqueness_check,
    zero_operator,
)
from edtorus.pencil import EigenPair, Pencil, dense_oracle, rigidity_probe, solve_window
from edtorus.perturb import fd_study, lambda_dot, projected_resolvent, renormalize

SQRT3_2 = np.sqrt(3.0) / 2.0
EXPS = ExponentTable(3)
SPIN = SpinStructure()
FD_STEPS = (1e-2, 5e-3, 2.5e-3)


def emit(num, name, ok):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num:02d} ({name}) failed"


def generic_u(grid, a=0.3, b=0.2):
    return field_from_function(
        grid, lambda x, y, z: 1 + a * np.cos(x) + b * np.cos(y + z))


@pytest.fixture(scope="module")
def flat_window8():
    return solve_window(constant_field(TorusGrid(8), 1.0), 0.0, 16)


def test_criterion_01_flat_spectrum_oracle(flat_window8):
    u = constant_field(TorusGrid(8), 1.0)
    lams = flat_window8.eigenvalues
    eig_err = np.abs(np.abs(lams) - SQRT3_2).max()
    resid = max(p.constraint_residual(u, EXPS) for p in flat_window8.pairs)
    ok = (eig_err <= 1e-10 and resid <= 1e-9
          and (lams > 0).sum() == 8 and (lams < 0).sum() == 8)
    emit(1, "flat-spectrum-oracle", ok)


def test_criterion_02_constant_scaling_law(flat_window8):
    flat = flat_window8.eigenvalues
    ok = True
    for c in (0.5, 2.0, 3.0):
        win = solve_window(constant_field(TorusGrid(8), c), 0.0, 16)
        rel = np.abs(win.eigenvalues - flat / c ** 2) / np.abs(flat / c ** 2)
        ok = ok and rel.max() <= 1e-10
    emit(2, "constant-scaling-law", ok)


def test_criterion_03_dense_oracle_equivalence():
    rng = np.random.default_rng(90210)
    grid = TorusGrid(6)
    h3 = grid.cell_volume
    worst_eig, worst_angle = 0.0, 0.0
    for _ in range(10):
        u = scalar_field(grid, 1.0 + 0.35 * random_band_limited(grid, rng, max_mode=1))
        assert u.min() > 0
        dense = dense_oracle(u)
        target = 0.8
        order = np.argsort(np.abs(dense.eigenvalues - target), kind="stable")
        dists = np.abs(dense.eigenvalues[order] - target)
        count = 6
        while count < 12 and dists[count] - dists[count - 1] < 1e-6:
            count += 1  # never split a tied cluster across the window edge
        sel = np.sort(order[:count])
        win = solve_window(u, target, count, tol=1e-9)
        worst_eig = max(worst_eig, float(
            np.abs(win.eigenvalues - np.sort(dense.eigenvalues[sel])).max()))
        pencil = Pencil(u, SPIN, EXPS)
        s_mf = np.column_stack([
            pencil.from_spinor(p.psi) * np.sqrt(h3) for p in win.pairs])
        s_dn = dense.eigenvectors[:, sel]
        sv = np.linalg.svd(s_mf.conj().T @ s_dn, compute_uv=False)
        worst_angle = max(worst_angle, float(np.arccos(np.clip(sv.min(), 0.0, 1.0))))
    ok = worst_eig <= 1e-8 and worst_angle <= 1e-6
    emit(3, f"dense-oracle-equivalence (eig {worst_eig:.1e}, angle {worst_angle:.1e})", ok)


def test_criterion_04_lambda_rate_formula():
    grid = TorusGrid(6)
    u = generic_u(grid)
    udot = field_from_function(
        grid, lambda x, y, z: np.cos(x) + 0.4 * np.cos(y) + 0.3 * np.cos(x + z))
    rep = fd_study(u, udot, 0.88, EXPS, steps=FD_STEPS).lam

    dense = dense_oracle(u)
    sel = dense.nearest_indices(0.88, 2)
    lam0 = float(dense.eigenvalues[sel].mean())
    pair = EigenPair(lam0, dense.pair(int(sel[0])).psi)
    s = 0.37
    scaling_err = abs(lambda_dot(u, scalar_field(grid, s * u.values), pair, EXPS)
                      + 2.0 * s * lam0)
    ok = abs(rep.slope - 2.0) <= 0.1 and scaling_err <= 1e-12
    emit(4, f"eigenvalue-rate-formula (slope {rep.slope:.3f})", ok)


def test_criterion_05_spinor_rate_formula():
    grid = TorusGrid(6)
    u = generic_u(grid)
    udot = field_from_function(
        grid, lambda x, y, z: np.cos(x) + 0.4 * np.cos(y) + 0.3 * np.cos(x + z))
    rep = fd_study(u, udot, 0.88, EXPS, steps=FD_STEPS).psi
    ok = abs(rep.slope - 2.0) <= 0.1 and abs(rep.extras["norm_rate"]) <= 1e-9
    emit(5, f"eigenspinor-rate-formula (slope {rep.slope:.3f})", ok)


def test_criterion_06_projected_resolvent():
    grid = TorusGrid(6)
    u = generic_u(grid)
    dense = dense_oracle(u)
    sel = dense.nearest_indices(0.88, 2)
    pair = EigenPair(float(dense.eigenvalues[sel].mean()), dense.pair(int(sel[0])).psi)
    rng = np.random.default_rng(31)
    r = SpinorField(grid, SPIN, rng.standard_normal(grid.shape + (2,))
                    + 1j * rng.standard_normal(grid.shape + (2,)))
    x = projected_resolvent(u, pair.lam, pair, r, EXPS, tol=1e-9)

    w = u.values ** EXPS.p1
    forward = apply_dirac(x).values / w[..., None] - pair.lam * x.values
    jpsi = quaternionic_j(pair.psi)
    pr = (weighted_spinor_inner_c(u, pair.psi, r, EXPS) * pair.psi.values
          + weighted_spinor_inner_c(u, jpsi, r, EXPS) * jpsi.values)
    resid = np.sqrt(grid.cell_volume * np.sum(np.abs(forward - (r.values - pr)) ** 2))
    scale = np.sqrt(grid.cell_volume * np.sum(np.abs(r.values) ** 2))
    orth = max(abs(weighted_spinor_inner_c(u, pair.psi, x, EXPS)),
               abs(weighted_spinor_inner_c(u, jpsi, x, EXPS)))
    ok = resid <= 1e-9 * scale and orth <= 1e-10
    emit(6, f"projected-resolvent (round-trip {resid / scale:.1e}, orth {orth:.1e})", ok)


def test_criterion_07_quaternionic_structure():
    grid = TorusGrid(8)
    rng = np.random.default_rng(7)
    j_sq, commute, pointwise = 0.0, 0.0, 0.0
    for _ in range(20):
        psi = SpinorField(grid, SPIN, rng.standard_normal(grid.shape + (2,))
                          + 1j * rng.standard_normal(grid.shape + (2,)))
        jpsi = quaternionic_j(psi)
        j_sq = max(j_sq, float(np.abs(quaternionic_j(jpsi).values + psi.values).max()))
        norm = np.sqrt((np.abs(psi.values) ** 2).sum())
        dj = apply_dirac(jpsi).values - quaternionic_j(apply_dirac(psi)).values
        commute = max(commute, float(np.sqrt((np.abs(dj) ** 2).sum()) / norm))
        pw = np.abs((np.conjugate(psi.values) * jpsi.values).sum(-1)).max()
        pointwise = max(pointwise, float(pw / (np.abs(psi.values).max() ** 2)))

    dense = dense_oracle(generic_u(TorusGrid(6)))
    win = dense.window(0.88, 4)
    lam = win.eigenvalues[np.argmin(np.abs(win.eigenvalues - 0.88))]
    spread = rigidity_probe(win, float(lam))
    ok = (j_sq <= 1e-13 and commute <= 1e-12 and pointwise <= 1e-12
          and spread <= 1e-10)
    emit(7, f"quaternionic-structure (DJ-JD {commute:.1e}, spread {spread:.1e})", ok)


def test_criterion_08_yamabe_covariance():
    grid = TorusGrid(16)
    u = field_from_function(grid, lambda x, y, z: 1 + 0.3 * np.cos(y))
    r0 = yamabe_covariance_residual(constant_field(grid, 0.0), u, EXPS)
    rc = yamabe_covariance_residual(constant_field(grid, 0.4), u, EXPS)
    f = field_from_function(grid, lambda x, y, z: 0.2 * np.cos(x))
    rb = yamabe_covariance_residual(f, u, EXPS)
    ok = r0 == 0.0 and rc <= 1e-10 and rb <= 1e-8
    emit(8, f"yamabe-covariance (0, {rc:.1e}, {rb:.1e})", ok)


def test_criterion_09_nonlocal_parabolic():
    grid = TorusGrid(8)
    ones = np.ones(grid.shape)
    u0 = field_from_function(grid, lambda x, y, z: np.cos(x))
    heat = ParabolicProblem(grid, constant_provider(ones), zero_operator(grid),
                            None, u0, 1.0, 64)
    cn = solve(heat, "crank_nicolson")
    heat_err = np.abs(cn.states[-1] - np.exp(-1) * u0.values).max()
    be_err = np.abs(solve(heat, "backward_euler").states[-1]
                    - np.exp(-1) * u0.values).max()

    x2 = grid.coords()[1]
    mop = mean_operator(grid)

    def wstar(t):
        return np.exp(-t) * (1 + 0.2 * np.cos(x2))

    def forcing(t):
        return -wstar(t) - np.exp(-t) * (-0.2 * np.cos(x2)) + mop.apply(wstar(t), t)

    errs = []
    for steps in (8, 16, 32):
        prob = ParabolicProblem(grid, constant_provider(ones), mop, forcing,
                                scalar_field(grid, wstar(0.0)), 1.0, steps)
        errs.append(np.sqrt(grid.cell_volume * np.sum(
            (solve(prob).states[-1] - wstar(1.0)) ** 2)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))

    rng = np.random.default_rng(4242)
    problems = []
    for _ in range(20):
        base = random_band_limited(grid, rng)
        amp = 0.3 * rng.uniform(0.3, 1.0)
        op = NonlocalOperator(grid, [
            RankOne(constant_provider(random_band_limited(grid, rng)),
                    constant_provider(random_band_limited(grid, rng))),
            Multiply(constant_provider(0.5 * random_band_limited(grid, rng))),
        ])
        f_field = random_band_limited(grid, rng)
        problems.append(ParabolicProblem(grid,
                                         lambda t, b=base, a=amp: 1.0 + a * b * np.cos(t), op,
                                         lambda t, ff=f_field: np.cos(2 * t) * ff,
                                         scalar_field(grid, 0.5 * random_band_limited(grid, rng)),
                                         1.0, 32))
    sweep = 0
    for prob, sol in zip(problems, solve_batch(problems)):
        gr = garding_constants(prob, probes=40)
        rep = energy_estimate_check(prob, sol, gr.kappa + 0.75, garding=gr)
        sweep += rep.ok

    a2 = check_axioms(mop, trials=60).a2_violation
    uniq = uniqueness_check(ParabolicProblem(grid, constant_provider(ones), mop,
                                             None, constant_field(grid, 1.0), 1.0, 32))
    ok = (heat_err <= 2e-5 and be_err <= 5e-3
          and np.all(np.abs(orders - 2.0) <= 0.1)
          and sweep == 20 and a2 <= 1e-12 and uniq <= 1e-9)
    emit(9, f"nonlocal-parabolic (CN order {orders.mean():.3f}, sweep {sweep}/20)", ok)


def test_criterion_10_linearized_operator():
    grid = TorusGrid(6)

    # v = 1 on the flat torus: every term carries a vanishing factor
    u1 = constant_field(grid, 1.0)
    d1 = dense_oracle(u1)
    sel = d1.nearest_indices(SQRT3_2, 2)
    pair1 = renormalize(u1, EigenPair(float(d1.eigenvalues[sel].mean()),
                                      d1.pair(int(sel[0])).psi), EXPS)
    rng = np.random.default_rng(55)
    flat_val = np.abs(linearized_flow_operator(u1, pair1, EXPS)
                      .apply(rng.standard_normal(grid.shape), 0.0)).max()

    # directional finite difference of the nonlinear right side
    u = generic_u(grid)
    d = dense_oracle(u)
    sel = d.nearest_indices(0.88, 2)
    pair = renormalize(u, EigenPair(float(d.eigenvalues[sel].mean()),
                                    d.pair(int(sel[0])).psi), EXPS)
    op = linearized_flow_operator(u, pair, EXPS)
    w = field_from_function(grid, lambda x, y, z: 0.6 * np.cos(y) + 0.4 * np.cos(x + z))
    analytic = (EXPS.c_m * u.values ** (-EXPS.p4) * laplacian(w).values
                + op.apply(w.values, 0.0))
    q0 = flow_rhs_at(u, pair.lam, EXPS).values
    rems = []
    for tau in (2e-2, 1e-2, 5e-3):
        q1 = flow_rhs_at(scalar_field(grid, u.values + tau * w.values), pair.lam, EXPS).values
        rems.append(np.sqrt(grid.cell_volume * np.sum(((q1 - q0) / tau - analytic) ** 2)))
    ratios = np.array(rems[:-1]) / np.array(rems[1:])

    axioms = check_axioms(op, trials=25)
    ok = (flat_val <= 1e-12
          and np.all(np.abs(ratios - 2.0) <= 0.4)
          and np.isfinite(axioms.a1_constant)
          and axioms.a1_constant <= op.bound_hint(0.0) + 1e-6
          and axioms.a2_violation <= 1e-12)
    emit(10, f"linearized-operator (flat {flat_val:.1e}, remainder ratios "
             f"{ratios[0]:.2f}/{ratios[1]:.2f})", ok)


def test_criterion_11_flow_conservation():
    start = time.monotonic()
    grid = TorusGrid(8)
    cfg = FlowConfig(horizon=0.1, projection_period=5, resolvent_tol=1e-9)
    traj = run(generic_u(grid), 0.87, cfg)
    elapsed = time.monotonic() - start

    vols = traj.column("volume")
    drift = float(np.abs(vols - vols[0]).max() / vols[0])
    constraint = float(traj.column("constraint_residual").max())

    # constants are exact fixed points
    uc = constant_field(TorusGrid(6), 1.0)
    dc = dense_oracle(uc)
    sel = dc.nearest_indices(0.87, 2)
    pairc = renormalize(uc, EigenPair(float(dc.eigenvalues[sel].mean()),
                                      dc.pair(int(sel[0])).psi), EXPS)
    state = FlowState(0.0, uc, pairc, gap=1.0)
    ccfg = FlowConfig(horizon=1.0)
    dt = 0.5 * cfl_bound(uc, EXPS, ccfg.cfl)
    fixed_drift = 0.0
    for _ in range(10):
        prev = state.u.values
        state = step(state, dt, EXPS, ccfg)
        fixed_drift = max(fixed_drift, float(np.abs(state.u.values - prev).max()))

    ok = (traj.abort_reason is None and drift <= 1e-6 and constraint <= 1e-6
          and fixed_drift <= 1e-12 and elapsed <= 600.0)
    emit(11, f"flow-conservation (drift {drift:.1e}, constraint {constraint:.1e}, "
             f"{elapsed:.0f}s)", ok)


def test_criterion_12_flow_convergence_order():
    grid = TorusGrid(6)
    u0 = generic_u(grid, a=0.1, b=0.08)
    d = dense_oracle(u0)
    sel = d.nearest_indices(0.87, 2)
    pair = renormalize(u0, EigenPair(float(d.eigenvalues[sel].mean()),
                                     d.pair(int(sel[0])).psi), EXPS)
    state0 = FlowState(0.0, u0, pair, gap=0.02).with_diagnostics(EXPS)
    horizon = 0.032

    def integrate(scheme, dt):
        cfg = FlowConfig(horizon=horizon, dt=dt, projection_period=10 ** 9,
                         resolvent_tol=1e-11, scheme=scheme)
        s = state0
        while s.t < horizon - 1e-12:
            s = step(s, dt, EXPS, cfg)
        return s.u.values

    rk = {dt: integrate("rk4_explicit", dt) for dt in (2e-3, 1e-3, 5e-4)}
    d1 = np.sqrt(np.mean((rk[2e-3] - rk[1e-3]) ** 2))
    d2 = np.sqrt(np.mean((rk[1e-3] - rk[5e-4]) ** 2))
    order = float(np.log2(d1 / d2))

    imex = {dt: integrate("imex", dt) for dt in (1e-3, 5e-4)}
    imex_err = np.sqrt(np.mean((imex[1e-3] - imex[5e-4]) ** 2))
    cross = np.sqrt(np.mean((imex[1e-3] - rk[1e-3]) ** 2))
    ok = abs(order - 4.0) <= 0.2 and cross <= 4.0 * imex_err + 1e-9
    emit(12, f"flow-convergence-order (RK4 {order:.2f}, IMEX cross "
             f"{cross:.1e} vs {imex_err:.1e})", ok)


def test_criterion_13_determinism(tmp_path):
    cfg_text = ("grid.n = 6\ninitial.kind = trig\n"
                "initial.terms = 0.3:1,0,0;0.2:0,1,1\n"
                "eigen.target = 0.88\nflow.horizon = 0.003\n"
                "flow.projection_period = 3\noutput.stride = 4\n"
                "seed = 5\noutput.dir = {out}\n")
    outputs = []
    for out in ("run_a", "run_b"):
        cfg = tmp_path / f"{out}.cfg"
        cfg.write_text(cfg_text.format(out=out))
        r = subprocess.run([sys.executable, "-m", "edtorus.cli", "flow",
                            "--config", str(cfg)], capture_output=True,
                           text=True, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        outputs.append({
            "csv": (tmp_path / out / "trajectory.csv").read_bytes(),
            "snap": (tmp_path / out / "u_000000.edf").read_bytes(),
        })
    ok = (outputs[0]["csv"] == outputs[1]["csv"]
          and outputs[0]["snap"] == outputs[1]["snap"])
    emit(13, "determinism (byte-identical rerun)", ok)
