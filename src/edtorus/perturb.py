"""First-order eigenpair derivatives along curves of conformal factors.

The tracked pair (lambda(t), psi(t)) of the pencil at u(t) obeys

  lambda' = -(2 lambda/(m-2)) int u^{(4-m)/(m-2)} u_t |psi|^2 dvol
  psi'    = (lambda'/(2 lambda)) psi
            + (2 lambda/(m-2)) (u^{-2/(m-2)} D - lambda)^{-1} (I - P) (u^{-1} u_t psi)

with P the weighted projection onto the quaternionic eigenspace span{psi, J psi}.
Both rates are implemented in ratio form (no unit-norm assumption) and are
validated against centered finite differences: the base pair comes from the
dense oracle, each perturbed pair from `refine_pair` started at the base pair,
which returns it in the base pair's gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ZeroEigenvalue
from .fields import (
    ExponentTable,
    ScalarField,
    SpinorField,
    integrate_values,
    scalar_field,
    weighted_spinor_inner,
)
from .pencil import (
    EigenPair,
    Pencil,
    SpectrumWindow,
    deflated_solve,
    dense_oracle,
    kramers_deflation,
    refine_pair,
)

#: identifiers of the rate formulas `perturb-validate` checks, for audit
RATE_FORMULA_VERSIONS = {"eigen_rate": "first-order-continuation-v1",
                         "spinor_rate": "projected-resolvent-plus-v1"}


def lambda_dot(u: ScalarField, udot: ScalarField, pair: EigenPair,
               exps: ExponentTable) -> float:
    """First-order eigenvalue rate for the pencil along u_t = udot."""
    dens = (pair.psi.values.real ** 2 + pair.psi.values.imag ** 2).sum(axis=-1)
    num = integrate_values(u.grid, u.values ** exps.p2 * udot.values * dens)
    den = integrate_values(u.grid, u.values ** exps.p1 * dens)
    return -(2.0 * pair.lam / (exps.m - 2)) * num / den


def projected_resolvent(u: ScalarField, lam: float, pair: EigenPair,
                        r: SpinorField, exps: ExponentTable,
                        tol: float = 1e-9) -> SpinorField:
    """Apply (u^{-2/(m-2)} D - lambda)^{-1} (I - P) to r.

    Solved as a deflated MINRES system on the symmetrized operator restricted
    to the weighted-orthogonal complement of span{psi, J psi}.  The output is
    weighted-orthogonal to the eigenspace and satisfies the stated residual
    contract relative to |r|.  That contract is the only guard: no gap is
    checked here, and a solve that misses it raises ConvergenceFailure.
    """
    pencil = Pencil(u, pair.psi.spin, exps)
    deflate = kramers_deflation(pencil, pencil.from_spinor(pair.psi))
    rhs = pencil.from_spinor(r)
    b = deflate(rhs)
    # zero test in the quadrature norm sqrt(h^3) |.|: r = 0 or r in span{psi, J psi}
    scale = float(np.linalg.norm(rhs))
    if scale == 0.0 or np.linalg.norm(b) <= 1e-15 * max(scale, u.grid.cell_volume ** -0.5):
        return SpinorField(u.grid, pair.psi.spin, np.zeros_like(r.values))

    bnorm = float(np.linalg.norm(b))
    c_chi = pencil.apply(deflate.basis[:, 0])
    y, _cy, _info, iterations, rel_resid = deflated_solve(pencil, deflate, c_chi, lam, b,
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
    differences pin this sign.  The resolvent's residual contract is the only
    guard: a solve that misses it raises ConvergenceFailure.
    """
    lam = pair.lam
    if abs(lam) < 1e-12:
        raise ZeroEigenvalue("eigenspinor rate undefined at lambda = 0")
    drive = SpinorField(u.grid, pair.psi.spin,
                        (udot.values / u.values)[..., None] * pair.psi.values)
    x = projected_resolvent(u, lam, pair, drive, exps, tol=tol)
    vals = (lamdot / (2.0 * lam)) * pair.psi.values + (2.0 * lam / (exps.m - 2)) * x.values
    return SpinorField(u.grid, pair.psi.spin, vals)


def renormalize(u: ScalarField, pair: EigenPair, exps: ExponentTable) -> EigenPair:
    """The pair with psi scaled to unit (psi, psi)_u."""
    n = np.sqrt(weighted_spinor_inner(u, pair.psi, pair.psi, exps))
    return EigenPair(pair.lam, SpinorField(pair.psi.grid, pair.psi.spin, pair.psi.values / n))


def tracked_pair(window: SpectrumWindow, lam_ref: float) -> EigenPair:
    """The tracked Kramers pair of a window: that of the cluster nearest
    lam_ref (`SpectrumWindow.pair_of`)."""
    return window.pair_of(window.cluster_near(lam_ref))


# ---------------------------------------------------------------------------
# Finite-difference validation: a dense-oracle base pair (n <= 6) and
# perturbed pairs refined from it.
# ---------------------------------------------------------------------------

#: true-residual tolerance of the perturbed pairs `fd_study` refines; with the
#: tracked gap about 0.07 it puts each perturbed spinor within about 1.4e-10 of
#: the exact one, below 3e-8 in a difference quotient at 2h >= 5e-3
FD_PAIR_TOL = 1e-11


@dataclass
class FDReport:
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


@dataclass
class FDStudy:
    """Both finite-difference checks of one `fd_study`, and the base pair."""

    base: EigenPair
    lam: FDReport
    psi: FDReport


def fd_study(u: ScalarField, udot: ScalarField, lam_ref: float, exps: ExponentTable,
             steps=(1e-2, 5e-3, 2.5e-3)) -> FDStudy:
    """Centered-difference checks of the eigenvalue rate and of the
    gauge-aligned eigenspinor rate.

    The base pair at u is the tracked pair of one dense oracle's window of
    two (n <= 6) at the default spin structure.  The pair at each perturbed
    factor u +- h udot is `refine_pair` started from the base pair, to the
    true residual FD_PAIR_TOL, and serves both differences; a refinement that
    fails raises ConvergenceFailure.  The perturbed spinors are in the
    continuation gauge, which `refine_pair` returns: each is the quaternionic
    multiple of its eigenspace closest to the base spinor.
    """
    base = tracked_pair(dense_oracle(u, exps=exps).window(lam_ref, 2), lam_ref)
    ld = lambda_dot(u, udot, base, exps)
    pd = psi_dot(u, udot, base, ld, exps, tol=1e-10)

    h3 = u.grid.cell_volume
    lam_errs, psi_errs = [], []
    for h in steps:
        up = scalar_field(u.grid, u.values + h * udot.values)
        um = scalar_field(u.grid, u.values - h * udot.values)
        pair_p = refine_pair(up, base, exps, tol=FD_PAIR_TOL)
        pair_m = refine_pair(um, base, exps, tol=FD_PAIR_TOL)
        lam_errs.append(abs((pair_p.lam - pair_m.lam) / (2.0 * h) - ld))
        fd_psi = (pair_p.psi.values - pair_m.psi.values) / (2.0 * h)
        psi_errs.append(float(np.sqrt(h3 * np.sum(np.abs(fd_psi - pd.values) ** 2))))

    # normalization identity: d/dt (psi,psi)_u = p1 int u^{p1-1} u_t |psi|^2 + 2 (psi', psi)_u
    dens = (base.psi.values.real ** 2 + base.psi.values.imag ** 2).sum(axis=-1)
    metric_term = exps.p1 * integrate_values(u.grid, u.values ** (exps.p1 - 1)
                                             * udot.values * dens)
    pair_term = 2.0 * weighted_spinor_inner(u, pd, base.psi, exps)
    norm_rate = metric_term + pair_term

    return FDStudy(
        base,
        FDReport(np.asarray(lam_errs), _fit_slope(steps, lam_errs), {}),
        FDReport(np.asarray(psi_errs), _fit_slope(steps, psi_errs), {"norm_rate": norm_rate}))
