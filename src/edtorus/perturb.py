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

#: identifiers of the rate formulas `perturb-validate` checks, for audit
RATE_FORMULA_VERSIONS = {"eigen_rate": "first-order-continuation-v1",
                         "spinor_rate": "projected-resolvent-plus-v1"}


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
