import numpy as np
import pytest

from edtorus.conformal import (
    conformal_laplacian,
    grad_dot,
    laplace_beltrami_conformal,
    laplacian,
    scal_of_conformal_metric,
    yamabe_covariance_residual,
    yamabe_operator_conformal,
)
from edtorus.fields import (
    TorusGrid,
    constant_field,
    field_from_function,
    integrate_values,
    quadrature,
    scalar_field,
)

VOL = (2 * np.pi) ** 3


def energy(u, exps):
    """E(u) = int u L_g u dvol, which is c_m int |grad u|^2 >= 0 on the flat torus."""
    return integrate_values(u.grid, u.values * conformal_laplacian(u, exps).values)


def scal_of_factor(u, exps):
    """Scalar curvature of g^u = u^{p4} g: u^{-p3} L_g u."""
    return u.values ** (-exps.p3) * conformal_laplacian(u, exps).values


class TestLaplacian:
    def test_single_modes(self, grid8):
        f = field_from_function(grid8, lambda x, y, z: np.cos(x))
        assert np.allclose(laplacian(f).values, -f.values, atol=1e-13)
        g = field_from_function(grid8, lambda x, y, z: np.cos(2 * y))
        assert np.allclose(laplacian(g).values, -4 * g.values, atol=1e-12)

    def test_constant_harmonic(self, grid8):
        assert np.abs(laplacian(constant_field(grid8, 3.7)).values).max() < 1e-13


class TestConformalLaplacian:
    def test_single_mode(self, grid8, exps):
        u = field_from_function(grid8, lambda x, y, z: np.cos(2 * y))
        assert np.allclose(conformal_laplacian(u, exps).values, 32 * u.values, atol=1e-11)

    def test_constant(self, grid8, exps):
        out = conformal_laplacian(constant_field(grid8, 2.2), exps)
        assert np.abs(out.values).max() < 1e-12

    def test_linearity(self, grid8, exps):
        u = field_from_function(grid8, lambda x, y, z: np.cos(x) + np.cos(z))
        expect = field_from_function(grid8, lambda x, y, z: 8 * np.cos(x) + 8 * np.cos(z))
        assert np.allclose(conformal_laplacian(u, exps).values, expect.values, atol=1e-12)


class TestScalConformal:
    def test_constant_stays_flat(self, grid8, exps):
        assert np.abs(scal_of_factor(constant_field(grid8, 1.7), exps)).max() < 1e-12

    def test_direct_substitution(self, grid8, exps):
        u = field_from_function(grid8, lambda x, y, z: 1 + 0.1 * np.cos(x))
        expect = 0.8 * np.cos(grid8.coords()[0]) * u.values ** (-5)
        assert np.allclose(scal_of_factor(u, exps), expect, atol=1e-12)


def _fd_derivative(vals, axis, h, order):
    """High-order centered first derivative with periodic wrap (np.roll)."""
    if order == 6:
        stencil = [(1, 3 / 4), (2, -3 / 20), (3, 1 / 60)]
    else:
        stencil = [(1, 2 / 3), (2, -1 / 12)]
    out = np.zeros_like(vals)
    for shift, w in stencil:
        out += w * (np.roll(vals, -shift, axis) - np.roll(vals, shift, axis))
    return out / h


class TestConformalMetricOperators:
    def test_identity_factor(self, grid8, exps):
        phi = field_from_function(grid8, lambda x, y, z: np.cos(y))
        zero = constant_field(grid8, 0.0)
        out = laplace_beltrami_conformal(zero, phi, exps)
        assert np.allclose(out.values, laplacian(phi).values, atol=1e-13)

    def test_constant_rescale(self, grid8, exps):
        phi = field_from_function(grid8, lambda x, y, z: np.cos(y))
        c = 0.31
        out = laplace_beltrami_conformal(constant_field(grid8, c), phi, exps)
        assert np.allclose(out.values, np.exp(-2 * c) * laplacian(phi).values, atol=1e-12)

    def test_against_divergence_form_stencil(self, exps):
        # independent oracle: Lap_{e^{2f}g} phi = e^{-3f} d_i (e^{f} d_i phi)
        # assembled with 6th-order periodic finite differences
        grid = TorusGrid(64)
        f = field_from_function(grid, lambda x, y, z: 0.1 * np.cos(x))
        phi = field_from_function(grid, lambda x, y, z: np.cos(y))
        spectral = laplace_beltrami_conformal(f, phi, exps).values

        h = grid.h
        ef = np.exp(f.values)
        acc = np.zeros(grid.shape)
        for axis in range(3):
            dphi = _fd_derivative(phi.values, axis, h, 6)
            acc += _fd_derivative(ef * dphi, axis, h, 6)
        oracle = np.exp(-3 * f.values) * acc
        assert np.abs(spectral - oracle).max() <= 1e-6

    def test_scal_flat_cases(self, grid8, exps):
        assert np.abs(scal_of_conformal_metric(constant_field(grid8, 0.0), exps).values).max() < 1e-12
        assert np.abs(scal_of_conformal_metric(constant_field(grid8, 0.9), exps).values).max() < 1e-12

    def test_scal_leading_order(self, grid8, exps):
        eps = 1e-4
        f = field_from_function(grid8, lambda x, y, z: eps * np.cos(x))
        out = scal_of_conformal_metric(f, exps).values
        # leading order +4 eps cos x1
        expect = 4 * eps * np.cos(grid8.coords()[0])
        assert np.abs(out - expect).max() <= 10 * eps ** 2


class TestYamabeCovariance:
    def test_zero_factor_exact(self, grid8, exps):
        u = field_from_function(grid8, lambda x, y, z: 1 + 0.3 * np.cos(y))
        assert yamabe_covariance_residual(constant_field(grid8, 0.0), u, exps) == 0.0

    def test_constant_factor(self, grid8, exps):
        u = field_from_function(grid8, lambda x, y, z: 1 + 0.3 * np.cos(y))
        assert yamabe_covariance_residual(constant_field(grid8, 0.4), u, exps) <= 1e-10

    def test_band_limited(self, exps):
        grid = TorusGrid(16)
        f = field_from_function(grid, lambda x, y, z: 0.2 * np.cos(x))
        u = field_from_function(grid, lambda x, y, z: 1 + 0.3 * np.cos(y))
        assert yamabe_covariance_residual(f, u, exps) <= 1e-8

    def test_composition_law(self, exps):
        # scal of the doubly-deformed metric via w = u*v equals the two-step
        # assembly through the intermediate metric, with the intermediate
        # Yamabe operator built from the e^{2f} machinery (f = p1 * ln u)
        grid = TorusGrid(16)
        u = field_from_function(grid, lambda x, y, z: 1 + 0.1 * np.cos(x))
        v = field_from_function(grid, lambda x, y, z: 1 + 0.08 * np.cos(y))
        w = scalar_field(grid, u.values * v.values)
        one_step = scal_of_factor(w, exps)

        f = scalar_field(grid, exps.p1 * np.log(u.values))
        lv = yamabe_operator_conformal(f, v, exps).values
        two_step = v.values ** (-exps.p3) * lv
        err = np.sqrt(quadrature(scalar_field(grid, (one_step - two_step) ** 2)))
        assert err <= 1e-8


class TestTotalEnergy:
    def test_constant_zero(self, grid8, exps):
        assert energy(constant_field(grid8, 2.4), exps) == pytest.approx(0.0, abs=1e-12)

    def test_single_mode_value(self, grid8, exps):
        u = field_from_function(grid8, lambda x, y, z: 1 + 0.1 * np.cos(x))
        assert energy(u, exps) == pytest.approx(0.04 * VOL, rel=1e-12)

    def test_orthogonal_modes(self, grid8, exps):
        a, b = 0.13, 0.07
        u = field_from_function(grid8, lambda x, y, z: 1 + a * np.cos(x) + b * np.cos(y))
        assert energy(u, exps) == pytest.approx(4 * (a ** 2 + b ** 2) * VOL, rel=1e-12)

    def test_nonnegative_random(self, grid8, rng, exps):
        for _ in range(10):
            u = scalar_field(grid8, rng.standard_normal(grid8.shape))
            assert energy(u, exps) >= -1e-12

    def test_gradient_identity(self, grid8, rng, exps):
        # band-limited u: the identity is an integration-by-parts statement
        # and the artifact's contracts are below-Nyquist
        u = field_from_function(
            grid8, lambda x, y, z: 1 + 0.3 * np.cos(x) + 0.2 * np.cos(y + 2 * z))
        grad_sq = quadrature(scalar_field(grid8, grad_dot(u, u)))
        assert energy(u, exps) == pytest.approx(exps.c_m * grad_sq, rel=1e-10)


class TestSelfAdjointness:
    def test_yamabe_self_adjoint(self, grid8, exps, rng):
        for _ in range(5):
            u = scalar_field(grid8, rng.standard_normal(grid8.shape))
            v = scalar_field(grid8, rng.standard_normal(grid8.shape))
            a = quadrature(scalar_field(grid8, v.values * conformal_laplacian(u, exps).values))
            b = quadrature(scalar_field(grid8, u.values * conformal_laplacian(v, exps).values))
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)
