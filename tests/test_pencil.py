import numpy as np
import pytest

from edtorus.dirac import flat_spectrum_oracle, quaternionic_j
from edtorus.errors import GridTooLarge, NonPositiveConformalFactor
from edtorus.fields import (
    SpinorField,
    SpinStructure,
    TorusGrid,
    constant_field,
    field_from_function,
    weighted_spinor_inner_c,
)
from edtorus.pencil import (
    EigenPair,
    Pencil,
    ShiftedDiagonalPreconditioner,
    dense_oracle,
    minres_hermitian,
    refine_pair,
    rigidity_probe,
    simplicity_gap,
    solve_window,
    spectrum_near,
    splitting_probe,
)

SQRT3_2 = np.sqrt(3.0) / 2.0

SHIFTS = [(a, b, c) for a in (0.0, 0.5) for b in (0.0, 0.5) for c in (0.0, 0.5)]


def generic_u(grid):
    return field_from_function(
        grid, lambda x, y, z: 1 + 0.3 * np.cos(x) + 0.2 * np.cos(y + z))


def flat_list(grid, spin, window):
    return np.sort(np.concatenate(
        [[lam] * mult for lam, mult in flat_spectrum_oracle(grid, spin, window)]))


class TestDenseOracle:
    def test_flat_matches_closed_form(self, spin, exps):
        grid = TorusGrid(4)
        dense = dense_oracle(constant_field(grid, 1.0), spin, exps)
        expect = flat_list(grid, spin, (-100, 100))
        assert np.abs(dense.eigenvalues - expect).max() < 1e-12

    def test_constant_scaling(self, spin, exps):
        grid = TorusGrid(4)
        base = dense_oracle(constant_field(grid, 1.0), spin, exps)
        scaled = dense_oracle(constant_field(grid, 3.0), spin, exps)
        assert np.abs(scaled.eigenvalues - base.eigenvalues / 9.0).max() < 1e-12

    def test_grid_budget(self, spin, exps):
        with pytest.raises(GridTooLarge):
            dense_oracle(constant_field(TorusGrid(8), 1.0), spin, exps)

    def test_pairs_normalized(self, grid6, spin, exps):
        u = generic_u(grid6)
        dense = dense_oracle(u, spin, exps)
        pair = dense.pair(10)
        assert pair.normalization_error(u, exps) < 1e-12
        assert pair.constraint_residual(u, exps) < 1e-11


class TestMinres:
    """The block solver on the shifted pencil C - 0.87 (indefinite)."""

    @pytest.fixture
    def system(self, grid6, spin, exps, rng):
        pencil = Pencil(generic_u(grid6), spin, exps)
        prec = ShiftedDiagonalPreconditioner(pencil)

        def shifted(z):
            return pencil.apply(z) - 0.87 * z

        scales = np.logspace(-6, 3, 4)
        b = scales * (rng.standard_normal((pencil.dim, 4))
                      + 1j * rng.standard_normal((pencil.dim, 4)))
        b = np.column_stack([b[:, :2], np.zeros(pencil.dim), b[:, 2:]])
        return shifted, prec, b

    @pytest.mark.parametrize("rtol", [1e-8, 1e-11])
    def test_true_residual_meets_rtol(self, system, rtol):
        shifted, prec, b = system
        x, info = minres_hermitian(shifted, b, precond=prec, rtol=rtol)
        assert info == 0
        resid = np.linalg.norm(b - shifted(x), axis=0)
        assert np.all(resid <= rtol * np.linalg.norm(b, axis=0))
        assert np.all(x[:, 2] == 0)

    def test_vector_matches_block_of_one(self, system):
        shifted, prec, b = system
        x_vec, info_vec = minres_hermitian(shifted, b[:, 0], precond=prec, rtol=1e-10)
        x_blk, info_blk = minres_hermitian(shifted, b[:, :1], precond=prec, rtol=1e-10)
        assert info_vec == info_blk == 0
        assert np.array_equal(x_vec, x_blk[:, 0])

    def test_maxiter_counts_unconverged_columns(self, system):
        shifted, prec, b = system
        x, info = minres_hermitian(shifted, b, precond=prec, rtol=1e-11, maxiter=3)
        resid = np.linalg.norm(b - shifted(x), axis=0)
        unconverged = np.count_nonzero(resid > 1e-11 * np.linalg.norm(b, axis=0))
        assert info == unconverged == 4


class TestSolveWindow:
    def test_flat_cluster(self, grid8, exps):
        u = constant_field(grid8, 1.0)
        win = solve_window(u, 0.9, 8)
        assert np.abs(win.eigenvalues - SQRT3_2).max() <= 1e-10
        assert max(p.constraint_residual(u, exps) for p in win.pairs) <= 1e-9

    def test_constant_scaling_law(self, grid8, exps):
        win = solve_window(constant_field(grid8, 2.0), 0.25, 8)
        assert np.abs(win.eigenvalues - SQRT3_2 / 4).max() <= 1e-10 * SQRT3_2

    def test_two_sidedness(self, grid8):
        win = solve_window(constant_field(grid8, 1.0), 0.0, 16)
        lams = win.eigenvalues
        assert (lams > 0).sum() == 8 and (lams < 0).sum() == 8

    def test_matches_dense_oracle(self, grid6, exps):
        u = generic_u(grid6)
        dense = dense_oracle(u)
        sel = dense.nearest_indices(0.87, 8)
        win = solve_window(u, 0.87, 8)
        assert np.abs(win.eigenvalues - np.sort(dense.eigenvalues[sel])).max() <= 1e-8
        assert max(p.constraint_residual(u, exps) for p in win.pairs) <= 1e-9

    def test_window_orthogonality(self, grid6, exps):
        u = generic_u(grid6)
        win = solve_window(u, 0.87, 6)
        gram = np.array([[weighted_spinor_inner_c(u, a.psi, b.psi, exps)
                          for b in win.pairs] for a in win.pairs])
        assert np.abs(gram - np.eye(6)).max() <= 1e-8

    def test_near_resonant_shift(self, grid6):
        # (C - sigma)^{-2} amplifies the pair 1e-9 from sigma by about 1e18,
        # so the first sweep's block collapses to that pair's two columns
        u = generic_u(grid6)
        dense = dense_oracle(u)
        target = dense.window(0.87, 2).eigenvalues[0] + 1e-9
        win = solve_window(u, target, 12)
        assert np.abs(win.eigenvalues - dense.window(target, 12).eigenvalues).max() <= 1e-10

    @pytest.mark.parametrize("shift", SHIFTS)
    def test_shift_on_an_eigenvalue(self, grid6, exps, shift):
        # sigma exactly on an eigenvalue is a zero eigenvalue of (C - sigma)^2,
        # not a singular solve: the window is the one centred there
        spin = SpinStructure(shift)
        u = generic_u(grid6)
        dense = dense_oracle(u, spin, exps)
        sigma = float(dense.eigenvalues[np.argmin(np.abs(dense.eigenvalues - 0.87))])
        dist = np.sort(np.abs(dense.eigenvalues - sigma))
        if dist[12] - dist[11] <= 1e-6:
            pytest.skip("12th and 13th distances tie: the window is not unique")
        win = solve_window(u, sigma, 12, spin, exps)
        assert np.abs(win.eigenvalues - dense.window(sigma, 12).eigenvalues).max() <= 1e-10

    def test_rejects_nonpositive_u(self, grid6):
        with pytest.raises(NonPositiveConformalFactor):
            solve_window(constant_field(grid6, -1.0), 0.5, 2)

    def test_count_budget(self, grid6):
        with pytest.raises(ValueError):
            solve_window(constant_field(grid6, 1.0), 0.5, 10 ** 6)


class TestSpectrumNear:
    def test_dense_on_small_grids(self, grid6, spin, exps):
        u = generic_u(grid6)
        dense = dense_oracle(u, spin, exps)
        sel = dense.nearest_indices(0.87, 6)
        win = spectrum_near(u, 0.87, 6, spin, exps)
        assert np.array_equal(win.eigenvalues, np.sort(dense.eigenvalues[sel]))

    def test_matrix_free_above_dense_limit(self, grid8, spin, exps):
        u = generic_u(grid8)
        win = spectrum_near(u, 0.87, 2, spin, exps)
        assert abs(win.eigenvalues[1] - win.eigenvalues[0]) <= 1e-10
        assert max(p.constraint_residual(u, exps) for p in win.pairs) <= 1e-9


class TestSimplicity:
    def test_flat_cluster_multiple(self, grid8):
        win = solve_window(constant_field(grid8, 1.0), 0.9, 12)
        rep = simplicity_gap(win, SQRT3_2)
        assert rep.kind == "multiple"
        assert rep.cluster_size == 8

    def test_scaled_constant_multiple(self, grid8):
        win = solve_window(constant_field(grid8, 2.0), 0.25, 12)
        rep = simplicity_gap(win, SQRT3_2 / 4)
        assert rep.kind == "multiple"

    def test_generic_simple_cluster(self, grid6, spin, exps):
        # verified against dense-oracle gaps: the lowest positive cluster of
        # the generic factor is a single Kramers pair; the window must reach
        # the negative side for a certified exterior gap
        u = generic_u(grid6)
        dense = dense_oracle(u)
        win = dense.window(0.0, 8)
        rep = simplicity_gap(win, 0.611)
        assert rep.kind == "quaternionic_simple"
        assert rep.cluster_size == 2
        assert rep.exterior_gap > 5e-3
        assert rep.gap_certified

    def test_one_member_cluster_unpaired(self, grid6, exps):
        # shift (0, 0, 0) breaks DJ = JD at the Nyquist modes, so the
        # eigenvalue nearest 0.87 has no Kramers partner
        u = generic_u(grid6)
        win = dense_oracle(u, SpinStructure((0.0, 0.0, 0.0)), exps).window(0.87, 12)
        rep = simplicity_gap(win, 0.87)
        assert rep.cluster_size == 1
        assert rep.kind == "unpaired_simple"


class TestSplittingProbe:
    def test_zero_direction(self, grid6, spin, exps):
        u = constant_field(grid6, 1.0)
        v = constant_field(grid6, 0.0)
        rep = splitting_probe(u, SQRT3_2, v, (0.02, 0.04, 0.08), spin, exps,
                              cluster_size=8)
        assert np.abs(rep.branches - SQRT3_2).max() < 1e-10
        assert not rep.splits

    def test_constant_direction_scales_together(self, grid6, spin, exps):
        u = constant_field(grid6, 1.0)
        v = constant_field(grid6, 1.0)
        eps = (0.02, 0.04, 0.08)
        rep = splitting_probe(u, SQRT3_2, v, eps, spin, exps, cluster_size=8)
        for i, e in enumerate(eps):
            assert np.abs(rep.branches[i] - SQRT3_2 / (1 + e) ** 2).max() < 1e-10
        assert not rep.splits

    def test_single_mode_splits_flat_cluster(self, grid6, spin, exps):
        u = constant_field(grid6, 1.0)
        v = field_from_function(grid6, lambda x, y, z: np.cos(x))
        rep = splitting_probe(u, SQRT3_2, v, (0.02, 0.04, 0.08), spin, exps,
                              cluster_size=8)
        assert rep.splits
        assert np.all(np.diff(rep.separations) > 0)
        assert rep.separations[0] > 1e-4


class TestRigidityProbe:
    def test_quaternionic_pair_is_rigid(self, grid6, spin, exps):
        u = generic_u(grid6)
        dense = dense_oracle(u)
        win = dense.window(0.88, 4)
        lam = win.eigenvalues[np.argmin(np.abs(win.eigenvalues - 0.88))]
        spread = rigidity_probe(win, float(lam))
        assert spread <= 1e-10

    def test_random_pair_combination_preserves_norm(self, grid6, spin, exps, rng):
        u = generic_u(grid6)
        dense = dense_oracle(u)
        sel = dense.nearest_indices(0.88, 2)
        psi = dense.pair(int(sel[0])).psi
        jpsi = quaternionic_j(psi)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        combo = a[0] * psi.values + a[1] * jpsi.values
        n_orig = np.sqrt((np.abs(psi.values) ** 2).sum(axis=-1))
        n_combo = np.sqrt((np.abs(combo) ** 2).sum(axis=-1))
        assert np.abs(n_orig - n_combo).max() <= 1e-12

    def test_flat_cluster_not_rigid(self, grid6, spin, exps):
        u = constant_field(grid6, 1.0)
        dense = dense_oracle(u)
        win = dense.window(SQRT3_2, 8)
        spread = rigidity_probe(win, SQRT3_2)
        assert spread > 1e-3


class TestRefinePair:
    def test_refreshes_perturbed_pair(self, grid6, spin, exps):
        u = generic_u(grid6)
        dense = dense_oracle(u)
        sel = dense.nearest_indices(0.88, 2)
        lam = float(dense.eigenvalues[sel].mean())
        pair = dense.pair(int(sel[0]))
        rng = np.random.default_rng(3)
        noise = 1e-5 * (rng.standard_normal(pair.psi.values.shape)
                        + 1j * rng.standard_normal(pair.psi.values.shape))
        rough = EigenPair(lam + 1e-5, SpinorField(grid6, spin, pair.psi.values + noise))
        refined = refine_pair(u, rough, exps, tol=1e-10)
        assert abs(refined.lam - lam) < 1e-10
        assert refined.constraint_residual(u, exps) < 1e-10
