"""Flat Laplacian, conformal (Yamabe) operator and conformal-change formulas.

The background torus is flat, so scal_g = 0; the conformal Laplacian keeps
the + scal_g * u term in code with a zero field so the operator shape matches
the general definition L_g = -c_m * Laplacian + scal_g.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    ExponentTable,
    ScalarField,
    TorusGrid,
    grid_irfft,
    grid_rfft,
    integrate_values,
    scalar_field,
    scalar_symbols,
)


def laplacian(f: ScalarField) -> ScalarField:
    """Flat Laplace-Beltrami operator, Fourier multiplier -|kappa|^2."""
    k_sq = scalar_symbols(f.grid.n, f.grid.length).k_sq
    return scalar_field(f.grid, grid_irfft(-k_sq * grid_rfft(f.values)))


def gradient(f: ScalarField) -> np.ndarray:
    """Spectral gradient, shape (3, n, n, n): the Nyquist-dropped multipliers
    `ScalarSymbols.ik`, inverted in one batched transform."""
    ik = scalar_symbols(f.grid.n, f.grid.length).ik
    return grid_irfft(ik * grid_rfft(f.values), axes=(1, 2, 3))


def grad_dot(f: ScalarField, g: ScalarField) -> np.ndarray:
    df, dg = gradient(f), gradient(g)
    return df[0] * dg[0] + df[1] * dg[1] + df[2] * dg[2]


def grad_norm_sq(f: ScalarField) -> np.ndarray:
    df = gradient(f)
    return df[0] ** 2 + df[1] ** 2 + df[2] ** 2


def background_scalar_curvature(grid: TorusGrid) -> ScalarField:
    """scal_g of the flat background: identically zero, kept as a field."""
    return scalar_field(grid, np.zeros(grid.shape))


def conformal_laplacian(u: ScalarField, exps: ExponentTable) -> ScalarField:
    """Yamabe operator L_g u = -c_m * Laplacian(u) + scal_g * u (scal_g = 0 here)."""
    scal = background_scalar_curvature(u.grid)
    return scalar_field(u.grid, -exps.c_m * laplacian(u).values + scal.values * u.values)


def laplace_beltrami_conformal(f: ScalarField, phi: ScalarField,
                               exps: ExponentTable) -> ScalarField:
    """Laplace-Beltrami operator of the metric e^{2f} g on the flat torus.

    Standard identity: Lap_{e^{2f}g} phi = e^{-2f} (Lap phi + (m-2) grad f . grad phi).
    """
    vals = np.exp(-2.0 * f.values) * (
        laplacian(phi).values + (exps.m - 2) * grad_dot(f, phi)
    )
    return scalar_field(f.grid, vals)


def scal_of_conformal_metric(f: ScalarField, exps: ExponentTable) -> ScalarField:
    """Scalar curvature of e^{2f} g over the flat torus.

    scal_{e^{2f}g} = e^{-2f} (-2(m-1) Lap f - (m-1)(m-2) |grad f|^2).
    """
    m = exps.m
    vals = np.exp(-2.0 * f.values) * (
        -2.0 * (m - 1) * laplacian(f).values - (m - 1) * (m - 2) * grad_norm_sq(f)
    )
    return scalar_field(f.grid, vals)


def yamabe_operator_conformal(f: ScalarField, phi: ScalarField,
                              exps: ExponentTable) -> ScalarField:
    """L_{e^{2f}g} phi assembled from the conformal Laplacian and curvature."""
    vals = (-exps.c_m * laplace_beltrami_conformal(f, phi, exps).values
            + scal_of_conformal_metric(f, exps).values * phi.values)
    return scalar_field(f.grid, vals)


def yamabe_covariance_residual(f: ScalarField, u: ScalarField,
                               exps: ExponentTable) -> float:
    """L^2 residual of L_g u = e^{(m+2)f/2} L_{e^{2f}g}(e^{-(m-2)f/2} u).

    Both sides are assembled independently; for band-limited inputs the
    residual is limited only by aliasing of the pointwise exponentials.
    """
    m = exps.m
    lhs = conformal_laplacian(u, exps).values
    inner = scalar_field(u.grid, np.exp(-0.5 * (m - 2) * f.values) * u.values)
    rhs = np.exp(0.5 * (m + 2) * f.values) * yamabe_operator_conformal(f, inner, exps).values
    diff = lhs - rhs
    return float(np.sqrt(integrate_values(u.grid, diff ** 2)))

