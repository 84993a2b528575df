import numpy as np
import pytest

from edtorus.dirac import quaternionic_j
from edtorus.errors import SmallGap, ZeroEigenvalue
from edtorus.fields import (
    SpinorField,
    TorusGrid,
    constant_field,
    field_from_function,
    scalar_field,
    weighted_spinor_inner,
    weighted_spinor_inner_c,
)
from edtorus.pencil import EigenPair, dense_oracle
from edtorus.perturb import (
    fd_study,
    lambda_dot,
    projected_resolvent,
    psi_dot,
    tracked_pair,
)

LAM_REF = 0.88
FD_STEPS = (1e-2, 5e-3, 2.5e-3)


def generic_u(grid):
    return field_from_function(
        grid, lambda x, y, z: 1 + 0.3 * np.cos(x) + 0.2 * np.cos(y + z))


def generic_direction(grid):
    return field_from_function(
        grid, lambda x, y, z: np.cos(x) + 0.4 * np.cos(y) + 0.3 * np.cos(x + z))


@pytest.fixture(scope="module")
def tracked(exps, spin):
    grid = TorusGrid(6)
    u = generic_u(grid)
    dense = dense_oracle(u, spin, exps)
    sel = dense.nearest_indices(LAM_REF, 2)
    lam = float(dense.eigenvalues[sel].mean())
    return grid, u, EigenPair(lam, dense.pair(int(sel[0])).psi)


class TestTrackedPair:
    def test_matches_nearest_pair_selection(self, tracked, exps, spin):
        grid, u, ref = tracked
        got = tracked_pair(dense_oracle(u, spin, exps).window(LAM_REF, 2), LAM_REF)
        assert got.lam == ref.lam
        assert np.abs(got.psi.values - ref.psi.values).max() <= 1e-14
        assert got.normalization_error(u, exps) <= 1e-14


class TestLambdaDot:
    def test_uniform_scaling_closed_form(self, tracked, exps):
        grid, u, pair = tracked
        s = 0.37
        ld = lambda_dot(u, scalar_field(grid, s * u.values), pair, exps)
        assert abs(ld + 2.0 * s * pair.lam) <= 1e-12

    def test_orthogonal_direction_vanishes(self, tracked, exps):
        grid, u, pair = tracked
        # build udot with int u * udot * |psi|^2 = 0 by explicit correction
        dens = (np.abs(pair.psi.values) ** 2).sum(axis=-1)
        raw = generic_direction(grid).values
        coeff = np.sum(u.values * raw * dens) / np.sum(u.values * u.values * dens)
        udot = scalar_field(grid, raw - coeff * u.values)
        assert abs(lambda_dot(u, udot, pair, exps)) <= 1e-12

    def test_fd_slope(self, exps):
        grid = TorusGrid(6)
        rep = fd_study(generic_u(grid), generic_direction(grid),
                       LAM_REF, exps, steps=FD_STEPS).lam
        assert abs(rep.slope - 2.0) <= 0.1


class TestProjectedResolvent:
    def test_eigenspace_input_maps_to_zero(self, tracked, exps):
        grid, u, pair = tracked
        jpsi = quaternionic_j(pair.psi)
        r = SpinorField(grid, pair.psi.spin,
                        0.4 * pair.psi.values + (0.3 - 0.2j) * jpsi.values)
        x = projected_resolvent(u, pair.lam, pair, r, exps)
        assert np.abs(x.values).max() <= 1e-12

    def test_diagonal_action_on_other_eigenspinor(self, tracked, exps, spin):
        grid, u, pair = tracked
        dense = dense_oracle(u, spin, exps)
        sel = dense.nearest_indices(1.6, 2)
        mu = float(dense.eigenvalues[sel].mean())
        r = dense.pair(int(sel[0])).psi
        x = projected_resolvent(u, pair.lam, pair, r, exps)
        assert np.abs(x.values - r.values / (mu - pair.lam)).max() <= 1e-9

    def test_round_trip_and_orthogonality(self, tracked, exps, rng):
        from edtorus.dirac import apply_dirac

        grid, u, pair = tracked
        r = SpinorField(grid, pair.psi.spin,
                        rng.standard_normal(grid.shape + (2,))
                        + 1j * rng.standard_normal(grid.shape + (2,)))
        x = projected_resolvent(u, pair.lam, pair, r, exps, tol=1e-9)
        # raw round trip against (I - P) r
        w = u.values ** exps.p1
        forward = apply_dirac(x).values / w[..., None] - pair.lam * x.values
        jpsi = quaternionic_j(pair.psi)
        pr = (weighted_spinor_inner_c(u, pair.psi, r, exps) * pair.psi.values
              + weighted_spinor_inner_c(u, jpsi, r, exps) * jpsi.values)
        resid = np.sqrt(grid.cell_volume * np.sum(np.abs(forward - (r.values - pr)) ** 2))
        scale = np.sqrt(grid.cell_volume * np.sum(np.abs(r.values) ** 2))
        assert resid <= 1e-9 * scale
        assert abs(weighted_spinor_inner_c(u, pair.psi, x, exps)) <= 1e-10
        assert abs(weighted_spinor_inner_c(u, jpsi, x, exps)) <= 1e-10

    def test_small_gap_guard(self, tracked, exps):
        grid, u, pair = tracked
        with pytest.raises(SmallGap):
            projected_resolvent(u, pair.lam, pair, pair.psi, exps, gap=1e-6)


class TestPsiDot:
    def test_uniform_scaling_closed_form(self, tracked, exps):
        grid, u, pair = tracked
        s = 0.42
        udot = scalar_field(grid, s * u.values)
        ld = lambda_dot(u, udot, pair, exps)
        pd = psi_dot(u, udot, pair, ld, exps)
        assert np.abs(pd.values + s * pair.psi.values).max() <= 1e-10

    def test_normalization_rate_identity(self, tracked, exps):
        grid, u, pair = tracked
        udot = generic_direction(grid)
        ld = lambda_dot(u, udot, pair, exps)
        pd = psi_dot(u, udot, pair, ld, exps)
        dens = (np.abs(pair.psi.values) ** 2).sum(axis=-1)
        metric_term = exps.p1 * grid.cell_volume * np.sum(
            u.values ** (exps.p1 - 1) * udot.values * dens)
        rate = metric_term + 2.0 * weighted_spinor_inner(u, pd, pair.psi, exps)
        assert abs(rate) <= 1e-9

    def test_fd_slope(self, exps):
        grid = TorusGrid(6)
        rep = fd_study(generic_u(grid), generic_direction(grid),
                       LAM_REF, exps, steps=FD_STEPS).psi
        assert abs(rep.slope - 2.0) <= 0.1
        assert abs(rep.extras["norm_rate"]) <= 1e-9

    def test_zero_eigenvalue_guard(self, tracked, exps):
        grid, u, pair = tracked
        bad = EigenPair(0.0, pair.psi)
        with pytest.raises(ZeroEigenvalue):
            psi_dot(u, constant_field(grid, 1.0), bad, 0.0, exps)

    def test_normalization_preserved_over_single_step(self, tracked, exps):
        grid, u, pair = tracked
        direction = generic_direction(grid)

        def u_of(t):
            return scalar_field(grid, u.values + t * direction.values)

        def udot_of(_t):
            return direction

        # check the unrenormalized drift: integrate the raw rates one RK4 step
        from edtorus.perturb import lambda_dot as ld_fn, psi_dot as pd_fn

        dt = 0.01
        lam, psi_vals = pair.lam, pair.psi.values

        def rate(t, lam_c, psi_c):
            uu = u_of(t)
            pr = EigenPair(lam_c, SpinorField(grid, pair.psi.spin, psi_c))
            ld = ld_fn(uu, udot_of(t), pr, exps)
            pd = pd_fn(uu, udot_of(t), pr, ld, exps)
            return ld, pd.values

        k1 = rate(0.0, lam, psi_vals)
        k2 = rate(dt / 2, lam + dt / 2 * k1[0], psi_vals + dt / 2 * k1[1])
        k3 = rate(dt / 2, lam + dt / 2 * k2[0], psi_vals + dt / 2 * k2[1])
        k4 = rate(dt, lam + dt * k3[0], psi_vals + dt * k3[1])
        psi_new = psi_vals + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        norm = weighted_spinor_inner(
            u_of(dt), SpinorField(grid, pair.psi.spin, psi_new),
            SpinorField(grid, pair.psi.spin, psi_new), exps)
        assert abs(norm - 1.0) <= 1e-8


class TestFDStudy:
    def test_one_dense_oracle_per_field(self, exps, spin, monkeypatch):
        """u and u +- h udot for each step h are diagonalized once each, and
        both reports and the base pair come from those oracles."""
        built = []

        def counting_oracle(u, *args):
            built.append(u.values)
            return dense_oracle(u, *args)

        monkeypatch.setattr("edtorus.perturb.dense_oracle", counting_oracle)
        grid = TorusGrid(6)
        steps = (1e-2, 5e-3)
        study = fd_study(generic_u(grid), generic_direction(grid), LAM_REF, exps, spin,
                         steps=steps)
        assert len(built) == 1 + 2 * len(steps)
        assert np.array_equal(built[0], generic_u(grid).values)
        assert len(study.lam.errors) == len(study.psi.errors) == len(steps)
        expected = tracked_pair(dense_oracle(generic_u(grid), spin, exps).window(LAM_REF, 2),
                                LAM_REF)
        assert study.base.lam == expected.lam
