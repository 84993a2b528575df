"""First-order eigenpair derivatives along curves of conformal factors.

The tracked pair (lambda(t), psi(t)) of the pencil at u(t) obeys

  lambda' = -(2 lambda/(m-2)) int u^{(4-m)/(m-2)} u_t |psi|^2 dvol
  psi'    = (lambda'/(2 lambda)) psi
            + (2 lambda/(m-2)) (u^{-2/(m-2)} D - lambda)^{-1} (I - P) (u^{-1} u_t psi)

with P the weighted projection onto the quaternionic eigenspace span{psi, J psi}.
Both rates are implemented in ratio form (no unit-norm assumption) and are
validated against centered finite differences of re-solved eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import quaternionic_j
from .errors import ConvergenceFailure, SmallGap, ZeroEigenvalue
from .fields import (
    ExponentTable,
    ScalarField,
    SpinorField,
    SpinStructure,
    integrate_values,
    scalar_field,
    weighted_spinor_inner,
    weighted_spinor_inner_c,
)
from .pencil import (
    DEFAULT_GAP_TOL,
    EigenPair,
    Pencil,
    SpectrumWindow,
    deflated_solve,
    dense_oracle,
    kramers_deflation,
)


def default_gap_tol(lam: float) -> float:
    return DEFAULT_GAP_TOL * (1.0 + abs(lam))


def pair_weight(u: ScalarField, pair: EigenPair, exps: ExponentTable) -> float:
    """(psi, psi)_u, kept explicit so no unit-normalization is assumed."""
    return weighted_spinor_inner(u, pair.psi, pair.psi, exps)


def lambda_dot(u: ScalarField, udot: ScalarField, pair: EigenPair,
               exps: ExponentTable) -> float:
    """First-order eigenvalue rate for the pencil along u_t = udot."""
    dens = (pair.psi.values.real ** 2 + pair.psi.values.imag ** 2).sum(axis=-1)
    num = integrate_values(u.grid, u.values ** exps.p2 * udot.values * dens)
    den = integrate_values(u.grid, u.values ** exps.p1 * dens)
    return -(2.0 * pair.lam / (exps.m - 2)) * num / den


def projected_resolvent(u: ScalarField, lam: float, pair: EigenPair,
                        r: SpinorField, exps: ExponentTable,
                        tol: float = 1e-9, gap: float | None = None) -> SpinorField:
    """Apply (u^{-2/(m-2)} D - lambda)^{-1} (I - P) to r.

    Solved as a deflated MINRES system on the symmetrized operator restricted
    to the weighted-orthogonal complement of span{psi, J psi}.  The output is
    weighted-orthogonal to the eigenspace and satisfies the stated residual
    contract relative to |r|.
    """
    if gap is not None and gap < default_gap_tol(lam):
        raise SmallGap(f"resolvent gap {gap:.3e} below tolerance")
    pencil = Pencil(u, pair.psi.spin, exps)
    deflate = kramers_deflation(pencil, pencil.from_spinor(pair.psi))
    rhs = pencil.from_spinor(r)
    b = deflate(rhs)
    # zero test in the quadrature norm sqrt(h^3) |.|: r = 0 or r in span{psi, J psi}
    scale = float(np.linalg.norm(rhs))
    if scale == 0.0 or np.linalg.norm(b) <= 1e-15 * max(scale, u.grid.cell_volume ** -0.5):
        return SpinorField(u.grid, pair.psi.spin, np.zeros_like(r.values))

    bnorm = float(np.linalg.norm(b))
    y, _cy, _info, iterations, rel_resid = deflated_solve(pencil, deflate, lam, b,
                                                          0.05 * tol * scale / bnorm, 1200)

    # the deflated-system residual is what the solve controls; for a pair
    # satisfying its constraint residual it equals the raw round-trip defect
    # up to (pair residual) * |y| / |r|, so exact pairs meet the raw contract
    resid = rel_resid * bnorm
    if resid > 0.5 * tol * max(scale, 1e-300):
        raise ConvergenceFailure("projected resolvent residual above contract",
                                 iterations=iterations,
                                 residual=float(resid / max(scale, 1e-300)))
    return SpinorField(u.grid, pair.psi.spin, pencil.unpack(y) / pencil.b_half[..., None])


def psi_dot(u: ScalarField, udot: ScalarField, pair: EigenPair, lamdot: float,
            exps: ExponentTable, tol: float = 1e-9) -> SpinorField:
    """First-order eigenspinor rate; requires a quaternionic-simple pair.

    The resolvent term carries a plus sign: differentiating the constraint
    (u^{-p1} D - lambda) psi = 0 gives
    (u^{-p1} D - lambda) psi' = lambda' psi + p1 lambda (u_t/u) psi, and
    projecting off the eigenspace leaves
    psi'_perp = + (2 lambda/(m-2)) R (I-P) (u_t/u) psi.
    Both the stationarity of the constraint map and the gauge-aligned finite
    differences pin this sign.
    """
    lam = pair.lam
    if abs(lam) < 1e-12:
        raise ZeroEigenvalue("eigenspinor rate undefined at lambda = 0")
    drive = SpinorField(u.grid, pair.psi.spin,
                        (udot.values / u.values)[..., None] * pair.psi.values)
    x = projected_resolvent(u, lam, pair, drive, exps, tol=tol)
    vals = (lamdot / (2.0 * lam)) * pair.psi.values + (2.0 * lam / (exps.m - 2)) * x.values
    return SpinorField(u.grid, pair.psi.spin, vals)


def quaternion_align(candidate: SpinorField, reference: SpinorField,
                     u: ScalarField, exps: ExponentTable) -> SpinorField:
    """Unit quaternionic multiple of `candidate` closest to `reference`.

    Least squares over span{psi, J psi}: the aligned spinor is the normalized
    weighted projection of the reference onto the candidate's quaternionic
    line, which maximizes Re (aligned, reference)_u over unit coefficients.
    """
    jcand = quaternionic_j(candidate)
    n2 = weighted_spinor_inner(u, candidate, candidate, exps)
    c1 = weighted_spinor_inner_c(u, candidate, reference, exps)
    c2 = weighted_spinor_inner_c(u, jcand, reference, exps)
    norm = np.sqrt((abs(c1) ** 2 + abs(c2) ** 2) / n2)
    if norm == 0.0:
        return candidate
    vals = (c1 * candidate.values + c2 * jcand.values) / (norm * n2)
    out = SpinorField(candidate.grid, candidate.spin, vals)
    scale = weighted_spinor_inner(u, out, out, exps)
    return SpinorField(candidate.grid, candidate.spin, out.values / np.sqrt(scale))


def renormalize(u: ScalarField, pair: EigenPair, exps: ExponentTable) -> EigenPair:
    n = np.sqrt(pair_weight(u, pair, exps))
    return EigenPair(pair.lam, SpinorField(pair.psi.grid, pair.psi.spin, pair.psi.values / n))


def tracked_pair(window: SpectrumWindow, lam_ref: float) -> EigenPair:
    """The tracked Kramers pair of a window: the cluster nearest lam_ref, its
    mean eigenvalue and its first member, normalized in the u-weighted inner
    product."""
    cluster = window.cluster_near(lam_ref)
    pair = EigenPair(cluster.mean, window.pairs[cluster.members[0]].psi)
    return renormalize(window.u, pair, window.exps)


def rk4_step(rate, t: float, dt: float, y: tuple) -> tuple:
    """One classical RK4 step of y' = rate(t, y) for a tuple of state parts."""
    def stage(k, c):
        return tuple(yi + c * dt * ki for yi, ki in zip(y, k))

    k1 = rate(t, y)
    k2 = rate(t + 0.5 * dt, stage(k1, 0.5))
    k3 = rate(t + 0.5 * dt, stage(k2, 0.5))
    k4 = rate(t + dt, stage(k3, 1.0))
    return tuple(yi + dt / 6.0 * (a + 2 * b + 2 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def eigenpath_step(u_of, udot_of, t: float, dt: float, pair: EigenPair,
                   exps: ExponentTable, resolvent_tol: float = 1e-11) -> EigenPair:
    """Advance the tracked eigenpair by one classical RK4 step.

    `u_of` and `udot_of` are time-fibered providers of the conformal factor
    and its rate.  The advanced pair is renormalized and gauge-aligned to the
    incoming one over unit quaternionic coefficients.
    """
    grid, spin = pair.psi.grid, pair.psi.spin

    def rate(tt: float, y: tuple) -> tuple:
        u = u_of(tt)
        ud = udot_of(tt)
        pr = EigenPair(y[0], SpinorField(grid, spin, y[1]))
        ld = lambda_dot(u, ud, pr, exps)
        pd = psi_dot(u, ud, pr, ld, exps, tol=resolvent_tol * 100)
        return ld, pd.values

    lam1, psi1 = rk4_step(rate, t, dt, (pair.lam, pair.psi.values))
    u1 = u_of(t + dt)
    stepped = SpinorField(grid, spin, psi1)
    aligned = quaternion_align(stepped, pair.psi, u1, exps)
    return EigenPair(lam1, aligned)


@dataclass
class GrowthReport:
    ok: bool
    worst_margin: float
    growth_constant: float


def growth_bound_check(times, lams, n0: float, growth_c: float) -> GrowthReport:
    """Check |lambda(t) - lambda(0)| <= n0 (e^{C t} - 1) along a recorded trace."""
    times = np.asarray(times, dtype=float)
    lams = np.asarray(lams, dtype=float)
    drift = np.abs(lams - lams[0])
    bound = n0 * (np.exp(growth_c * (times - times[0])) - 1.0)
    margins = bound - drift
    worst = float(margins.min())
    return GrowthReport(worst >= -1e-12 * (1.0 + n0), worst, growth_c)


def growth_constant_from_trace(u_trace, udot_trace, exps: ExponentTable) -> float:
    """Sup-norm growth constant C = (2/(m-2)) max_t sup |u_t / u| along a path."""
    worst = 0.0
    for u, ud in zip(u_trace, udot_trace):
        worst = max(worst, float(np.abs(ud.values / u.values).max()))
    return (2.0 / (exps.m - 2)) * worst


# ---------------------------------------------------------------------------
# Finite-difference validation (dense-oracle based, n <= 6).
# ---------------------------------------------------------------------------

@dataclass
class FDReport:
    formula: float | None
    steps: np.ndarray
    errors: np.ndarray
    slope: float
    extras: dict

    @property
    def ok(self) -> bool:
        return bool(abs(self.slope - 2.0) <= 0.1)


def _fit_slope(steps, errors) -> float:
    logs = np.log(np.asarray(steps))
    loge = np.log(np.maximum(np.asarray(errors), 1e-300))
    return float(np.polyfit(logs, loge, 1)[0])


def _tracked_cluster_pair(u: ScalarField, lam_ref: float, spin, exps) -> EigenPair:
    """Weighted-normalized representative of the Kramers pair nearest lam_ref."""
    return tracked_pair(dense_oracle(u, spin, exps).window(lam_ref, 2), lam_ref)


@dataclass
class FDStudy:
    """Both finite-difference checks of one `fd_study`, and the base pair."""

    base: EigenPair
    lam: FDReport
    psi: FDReport


def fd_study(u: ScalarField, udot: ScalarField, lam_ref: float, exps: ExponentTable,
             spin=None, steps=(1e-2, 5e-3, 2.5e-3)) -> FDStudy:
    """Centered-difference checks of the eigenvalue rate and of the
    gauge-aligned eigenspinor rate on the dense path.

    Each perturbed factor u +- h udot is diagonalized once and its tracked
    pair serves both differences, so the study builds 1 + 2 len(steps) dense
    oracles.  The perturbed spinors are put in the continuation gauge: each
    is the quaternionic multiple of its eigenspace closest to the base spinor.
    """
    spin = spin or SpinStructure()
    base = _tracked_cluster_pair(u, lam_ref, spin, exps)
    ld = lambda_dot(u, udot, base, exps)
    pd = psi_dot(u, udot, base, ld, exps, tol=1e-10)

    h3 = u.grid.cell_volume
    fds, lam_errs, psi_errs = [], [], []
    for h in steps:
        up = scalar_field(u.grid, u.values + h * udot.values)
        um = scalar_field(u.grid, u.values - h * udot.values)
        pair_p = _tracked_cluster_pair(up, base.lam, spin, exps)
        pair_m = _tracked_cluster_pair(um, base.lam, spin, exps)
        fd = (pair_p.lam - pair_m.lam) / (2.0 * h)
        fds.append(fd)
        lam_errs.append(abs(fd - ld))
        phi_p = quaternion_align(pair_p.psi, base.psi, up, exps)
        phi_m = quaternion_align(pair_m.psi, base.psi, um, exps)
        fd_psi = (phi_p.values - phi_m.values) / (2.0 * h)
        psi_errs.append(float(np.sqrt(h3 * np.sum(np.abs(fd_psi - pd.values) ** 2))))

    # normalization identity: d/dt (psi,psi)_u = p1 int u^{p1-1} u_t |psi|^2 + 2 (psi', psi)_u
    dens = (base.psi.values.real ** 2 + base.psi.values.imag ** 2).sum(axis=-1)
    metric_term = exps.p1 * integrate_values(u.grid, u.values ** (exps.p1 - 1)
                                             * udot.values * dens)
    pair_term = 2.0 * weighted_spinor_inner(u, pd, base.psi, exps)
    norm_rate = metric_term + pair_term

    steps = np.asarray(steps)
    return FDStudy(
        base,
        FDReport(ld, steps, np.asarray(lam_errs), _fit_slope(steps, lam_errs),
                 {"fd_values": fds}),
        FDReport(None, steps, np.asarray(psi_errs), _fit_slope(steps, psi_errs),
                 {"norm_rate": norm_rate}))
