import numpy as np
import pytest

from edtorus.dirac import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    apply_dirac,
    flat_spectrum_oracle,
    quaternionic_j,
)
from edtorus.errors import ConvergenceFailure, GridTooLarge, NonPositiveConformalFactor
from edtorus.fields import (
    SpinorField,
    SpinStructure,
    TorusGrid,
    apply_spinor_symbol,
    constant_field,
    field_from_function,
    kappa_symbols,
    scalar_symbols,
    spinor_momentum,
    weighted_spinor_inner,
    weighted_spinor_inner_c,
)
from edtorus.pencil import (
    CLUSTER_REL_TOL,
    EigenPair,
    Pencil,
    _flat_guess,
    dense_oracle,
    deflated_solve,
    kramers_deflation,
    minres_hermitian,
    refine_pair,
    reset_solver_stats,
    rigidity_probe,
    simplicity_gap,
    solve_window,
    solver_stats,
    spectrum_near,
)

SQRT3_2 = np.sqrt(3.0) / 2.0

SHIFTS = [(a, b, c) for a in (0.0, 0.5) for b in (0.0, 0.5) for c in (0.0, 0.5)]


def generic_u(grid):
    return field_from_function(
        grid, lambda x, y, z: 1 + 0.3 * np.cos(x) + 0.2 * np.cos(y + z))


def nyquist_modes(grid, shift):
    """The modes with k = -n/2 on an axis whose shift is 0."""
    modes = np.meshgrid(*[np.fft.fftfreq(grid.n, 1 / grid.n)] * 3, indexing="ij")
    nyquist = np.zeros(grid.shape, dtype=bool)
    for m, d in zip(modes, shift):
        if d == 0.0:
            nyquist |= m == -grid.n // 2
    return nyquist


def expected_symbol(grid, shift):
    """Per-mode 2x2 Dirac symbols, shape (n, n, n, 2, 2): sigma.kappa, and
    |kappa| I on the `nyquist_modes`."""
    kappa = spinor_momentum(grid.n, grid.length, shift)
    symbol = sum(k[..., None, None] * s for k, s in zip(kappa, (SIGMA1, SIGMA2, SIGMA3)))
    kn = np.sqrt(sum(k ** 2 for k in kappa))
    nyquist = nyquist_modes(grid, shift)
    symbol[nyquist] = kn[nyquist, None, None] * np.eye(2)
    return symbol


def flat_list(grid, spin, window):
    return np.sort(np.concatenate(
        [[lam] * mult for lam, mult in flat_spectrum_oracle(grid, spin, window)]))


class TestDenseOracle:
    def test_flat_matches_closed_form(self, spin, exps):
        grid = TorusGrid(4)
        dense = dense_oracle(constant_field(grid, 1.0), spin, exps)
        expect = flat_list(grid, spin, (-100, 100))
        assert np.abs(dense.eigenvalues - expect).max() < 1e-12

    @pytest.mark.parametrize("shift", SHIFTS)
    def test_flat_matches_continuum_below_nyquist(self, grid6, exps, shift):
        # every eigenvalue of the flat N=6 pencil inside the Nyquist
        # momentum |lambda| < 3 is the continuum's, multiplicities included:
        # the Nyquist planes of unshifted axes add no doublers there, and the
        # kernel at shift (0, 0, 0) is the continuum's 2
        dense = dense_oracle(constant_field(grid6, 1.0), SpinStructure(shift), exps)
        lams = dense.eigenvalues[np.abs(dense.eigenvalues) < 2.9]
        expect = flat_list(grid6, SpinStructure(shift), (-2.9, 2.9))
        assert lams.shape == expect.shape
        assert np.abs(lams - expect).max() < 1e-12

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
        assert abs(weighted_spinor_inner(u, pair.psi, pair.psi, exps) - 1) < 1e-12
        assert pair.constraint_residual(u, exps) < 1e-11


class TestMinres:
    """The single-vector solver on the shifted pencil C - 0.87 (indefinite),
    unpreconditioned."""

    @pytest.fixture
    def system(self, grid6, spin, exps, rng):
        pencil = Pencil(generic_u(grid6), spin, exps)

        def shifted(z):
            return pencil.apply(z) - 0.87 * z

        scales = np.logspace(-6, 3, 4)
        b = scales * (rng.standard_normal((pencil.dim, 4))
                      + 1j * rng.standard_normal((pencil.dim, 4)))
        b = np.column_stack([b[:, :2], np.zeros(pencil.dim), b[:, 2:]])
        return shifted, b

    @pytest.mark.parametrize("rtol", [1e-8, 1e-11])
    def test_true_residual_meets_rtol(self, system, rtol):
        shifted, b = system
        for j in range(b.shape[1]):
            x, info, _iterations, resid = minres_hermitian(shifted, b[:, j], rtol=rtol)
            assert info == 0
            assert np.linalg.norm(b[:, j] - shifted(x)) <= rtol * np.linalg.norm(b[:, j])
            assert resid <= rtol
            if j == 2:
                assert np.all(x == 0)

    def test_maxiter_counts_unconverged_columns(self, system):
        shifted, b = system
        infos = unconverged = 0
        for j in range(b.shape[1]):
            x, info, iterations, reported = minres_hermitian(shifted, b[:, j], rtol=1e-11,
                                                             maxiter=3)
            resid = np.linalg.norm(b[:, j] - shifted(x))
            assert reported == pytest.approx(resid / max(np.linalg.norm(b[:, j]), 1e-300),
                                             rel=1e-12, abs=0.0)
            infos += info
            unconverged += int(resid > 1e-11 * np.linalg.norm(b[:, j]))
            assert iterations == (0 if j == 2 else 3)
        assert infos == unconverged == 4

    def test_leaves_b_and_operator_inputs_unmodified(self, system):
        # the recurrence works in place but never writes into b or into a
        # vector it has handed to apply_c (the residual checks included)
        shifted, b = system
        rhs = np.ascontiguousarray(b[:, 1])
        rhs_before = rhs.copy()
        seen = []

        def recording(v):
            seen.append((v, v.copy()))
            return shifted(v)

        _x, info, iterations, _resid = minres_hermitian(recording, rhs, rtol=1e-11)
        assert info == 0 and iterations > 2
        assert np.array_equal(rhs, rhs_before)
        assert len(seen) > iterations
        assert all(np.array_equal(v, before) for v, before in seen)


class TestKappaSymbols:
    def test_cached_read_only_and_shared(self, grid6, spin):
        sym = kappa_symbols(grid6.n, grid6.length, spin.shift)
        assert kappa_symbols(grid6.n, grid6.length, spin.shift) is sym
        scalar = scalar_symbols(grid6.n, grid6.length)
        assert scalar_symbols(grid6.n, grid6.length) is scalar
        for arr in (sym.kn, sym.diag, sym.off, sym.kih, sym.s_diag, sym.s_off,
                    scalar.k_sq, *scalar.ik):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0

    def test_split_symbol_is_scaled_sigma_kappa(self, grid6, spin, rng):
        sym = kappa_symbols(grid6.n, grid6.length, spin.shift)
        z = rng.standard_normal(grid6.shape + (2,)) + 1j * rng.standard_normal(grid6.shape + (2,))
        kappa = spinor_momentum(grid6.n, grid6.length, spin.shift)
        inv_kappa = 1.0 / np.maximum(sym.kn, sym.k_min)
        k1, k2, k3 = (k * inv_kappa for k in kappa)
        expect = np.stack([k3 * z[..., 0] + (k1 - 1j * k2) * z[..., 1],
                           (k1 + 1j * k2) * z[..., 0] - k3 * z[..., 1]], axis=-1)
        got = sym.s_diag * z + sym.s_off * z[..., ::-1]
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
        assert np.allclose(sym.kih ** 2, np.repeat(inv_kappa[..., None], 2, axis=-1),
                           rtol=1e-15, atol=0)


    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("shift", SHIFTS)
    def test_j_exact_where_d_commutes_with_j(self, exps, rng, n, shift):
        # |DJv - JDv| <= 1e-13 |v| on random spinors at every spin structure
        # (the symbol is |kappa| I on the Nyquist planes of unshifted axes),
        # so the dense spectrum of the generic datum comes in Kramers pairs
        grid = TorusGrid(n)
        spin = SpinStructure(shift)
        for _ in range(3):
            v = SpinorField(grid, spin, rng.standard_normal(grid.shape + (2,))
                            + 1j * rng.standard_normal(grid.shape + (2,)))
            defect = np.linalg.norm(apply_dirac(quaternionic_j(v)).values
                                    - quaternionic_j(apply_dirac(v)).values)
            assert defect <= 1e-13 * np.linalg.norm(v.values)
        lams = dense_oracle(generic_u(grid), spin, exps).eigenvalues
        assert np.abs(lams[0::2] - lams[1::2]).max() <= 1e-12

    @pytest.mark.parametrize("shift", SHIFTS)
    def test_kernel_applies_pauli_sigma_kappa(self, grid6, rng, shift):
        sym = kappa_symbols(grid6.n, grid6.length, shift)
        z = rng.standard_normal(grid6.shape + (2,)) + 1j * rng.standard_normal(grid6.shape + (2,))
        expect = np.einsum("...ij,...j->...i", expected_symbol(grid6, shift), z)
        got = apply_spinor_symbol(sym.diag, sym.off, z)
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


class TestDeflatedSolve:
    """The split-preconditioned correction equation against a dense solve on
    range(Q), at the dense eigenpair nearest 0.87 of each spin structure."""

    @pytest.mark.parametrize("shift", SHIFTS)
    def test_matches_dense_solve(self, grid6, exps, rng, shift):
        dense = dense_oracle(generic_u(grid6), SpinStructure(shift), exps)
        pencil = dense.pencil
        i = int(np.argmin(np.abs(dense.eigenvalues - 0.87)))
        lam = dense.eigenvalues[i]
        deflate = kramers_deflation(pencil, dense.eigenvectors[:, i])
        b = deflate(rng.standard_normal(pencil.dim) + 1j * rng.standard_normal(pencil.dim))
        c_chi = pencil.apply(deflate.basis[:, 0])
        y, cy, info, _iterations, reported = deflated_solve(pencil, deflate, c_chi, lam, b,
                                                            1e-11, 1200)
        assert info == 0
        assert np.array_equal(cy, pencil.apply(y))
        resid = np.linalg.norm(b - deflate(pencil.apply(y) - lam * y))
        assert resid <= 1e-11 * np.linalg.norm(b)
        assert reported == pytest.approx(resid / np.linalg.norm(b), rel=1e-12)

        evecs = dense.eigenvectors
        c_mat = (evecs * dense.eigenvalues) @ evecs.conj().T
        basis = np.linalg.qr(deflate.basis, mode="complete")[0][:, 2:]  # range(Q)
        reduced = basis.conj().T @ (c_mat - lam * np.eye(pencil.dim)) @ basis
        y_dense = basis @ np.linalg.solve(reduced, basis.conj().T @ b)
        assert np.linalg.norm(y - y_dense) <= 1e-9 * np.linalg.norm(y_dense)

    def test_repeat_is_bit_identical(self, grid6, spin, exps, rng):
        # a second solve on the same inputs sees the same cached symbols and
        # leaves b as it was
        dense = dense_oracle(generic_u(grid6), spin, exps)
        i = int(np.argmin(np.abs(dense.eigenvalues - 0.87)))
        lam = dense.eigenvalues[i]
        deflate = kramers_deflation(dense.pencil, dense.eigenvectors[:, i])
        dim = dense.pencil.dim
        b = deflate(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        b_before = b.copy()
        c_chi = dense.pencil.apply(deflate.basis[:, 0])
        y1, cy1, *rest1 = deflated_solve(dense.pencil, deflate, c_chi, lam, b, 1e-11, 1200)
        y2, cy2, *rest2 = deflated_solve(dense.pencil, deflate, c_chi, lam, b, 1e-11, 1200)
        assert np.array_equal(y1, y2) and np.array_equal(cy1, cy2) and rest1 == rest2
        assert np.array_equal(b, b_before)


class TestFlatGuess:
    @pytest.mark.parametrize("shift", SHIFTS)
    def test_equals_per_mode_loop(self, grid6, exps, shift):
        # reference: each mode's symbol eigenvector by its own eigh, one
        # plane wave at a time; sigma = 0 reaches the kappa = 0 mode of the
        # trivial shift on both branches, and sigma = 3 the Nyquist modes of
        # unshifted axes, whose two branches are both +|kappa|
        pencil = Pencil(generic_u(grid6), SpinStructure(shift), exps)
        symbols = expected_symbol(grid6, shift).reshape(-1, 2, 2)
        kn = kappa_symbols(grid6.n, grid6.length, shift).kn
        lower = np.where(nyquist_modes(grid6, shift), kn, -kn)
        wbar = float(np.mean(pencil.weight))
        x1, x2, x3 = grid6.coords()
        modes = [m.ravel() for m in np.meshgrid(*[np.fft.fftfreq(6, 1 / 6)] * 3, indexing="ij")]
        npts = grid6.num_points
        for sigma, count in ((0.0, 10), (0.87, 16), (-1.5, 24), (3.0, 40)):
            flat = np.concatenate([(kn / wbar).ravel(), (lower / wbar).ravel()])
            order = np.argsort(np.abs(flat - sigma), kind="stable")[:count]
            expect = np.empty((pencil.dim, count), dtype=np.complex128)
            for c, idx in enumerate(order):
                j = idx % npts
                if kn.ravel()[j] == 0:
                    vec = np.array([1.0, 0.0])
                else:
                    vec = np.linalg.eigh(symbols[j] / kn.ravel()[j])[1][:, 1 if idx < npts else 0]
                phase = np.exp(1j * (modes[0][j] * x1 + modes[1][j] * x2 + modes[2][j] * x3))
                expect[:, c] = (phase[..., None] * vec * pencil.b_half[..., None]).reshape(-1)
            got = _flat_guess(pencil, sigma, count)
            assert np.abs(got - expect).max() <= 1e-14


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

    def test_generic_window_off_the_first_shell(self, grid6, exps):
        # a window at 1.5, off the first shell: with a shift-free |C|^{-1}
        # preconditioner LOBPCG does not converge here within 400 iterations
        spin = SpinStructure((0.5, 0.5, 0.0))
        u = generic_u(grid6)
        win = solve_window(u, 1.5, 12, spin, exps)
        dense = dense_oracle(u, spin, exps)
        assert np.abs(win.eigenvalues - dense.window(1.5, 12).eigenvalues).max() <= 1e-10

    def test_acceptance_window_iteration_budget(self, grid8, exps):
        # the cold window of the acceptance run (N = 8, sigma = 0.87, 12 pairs,
        # seed 7) within 40 iterations; a shift-free |C|^{-1} preconditioner
        # needs 62
        u = generic_u(grid8)
        capped = solve_window(u, 0.87, 12, seed=7, max_iter=40)
        free = solve_window(u, 0.87, 12, seed=7)
        assert capped.iterations <= 40
        assert np.abs(capped.eigenvalues - free.eigenvalues).max() <= 1e-12

    def test_acceptance_window_operator_columns(self, grid8):
        # the Kramers half-block applies C to about half the columns of the
        # plain block (1,980); the count is deterministic
        u = generic_u(grid8)
        counts = []
        for _ in range(2):
            reset_solver_stats()
            solve_window(u, 0.87, 12, seed=7)
            stats = solver_stats()
            assert stats["window_solves"] == 1
            counts.append(stats["operator_columns"])
        assert counts[0] == counts[1] <= 1100

    def test_kramers_pairs_span_their_clusters(self, grid6, spin, exps):
        # at the default spin structure each window eigenspinor's J image lies
        # in the span of its cluster (u-weighted orthonormal)
        u = generic_u(grid6)
        win = solve_window(u, 0.87, 12, spin, exps)
        for cluster in win.clusters():
            basis = [win.pairs[i].psi for i in cluster.members]
            for psi in basis:
                jpsi = quaternionic_j(psi)
                rest = jpsi.values - sum(weighted_spinor_inner_c(u, b, jpsi, exps) * b.values
                                         for b in basis)
                assert np.linalg.norm(rest) <= 1e-12 * np.linalg.norm(jpsi.values)

    def test_odd_count(self, grid6, exps):
        # 7 of the pairs' members: the J-closed block holds 8, the window the
        # 7 nearest the target
        u = generic_u(grid6)
        win = solve_window(u, 0.87, 7)
        dense = dense_oracle(u)
        assert len(win.pairs) == 7
        assert np.abs(win.eigenvalues - dense.window(0.87, 7).eigenvalues).max() <= 1e-10

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
        assert win.iterations == 0

    def test_matrix_free_above_dense_limit(self, grid8, spin, exps):
        u = generic_u(grid8)
        win = spectrum_near(u, 0.87, 2, spin, exps)
        assert abs(win.eigenvalues[1] - win.eigenvalues[0]) <= 1e-10
        assert max(p.constraint_residual(u, exps) for p in win.pairs) <= 1e-9


class TestSimplicity:
    def test_flat_cluster_multiple(self, grid8):
        win = solve_window(constant_field(grid8, 1.0), 0.9, 12)
        kind, cluster = simplicity_gap(win, SQRT3_2)
        assert kind == "multiple"
        assert len(cluster.members) == 8

    def test_scaled_constant_multiple(self, grid8):
        win = solve_window(constant_field(grid8, 2.0), 0.25, 12)
        kind, _cluster = simplicity_gap(win, SQRT3_2 / 4)
        assert kind == "multiple"

    def test_generic_simple_cluster(self, grid6, spin, exps):
        # verified against dense-oracle gaps: the lowest positive cluster of
        # the generic factor is a single Kramers pair; the window must reach
        # the negative side for a certified exterior gap
        u = generic_u(grid6)
        dense = dense_oracle(u)
        win = dense.window(0.0, 8)
        kind, cluster = simplicity_gap(win, 0.611)
        assert kind == "quaternionic_simple"
        assert len(cluster.members) == 2
        assert cluster.gap > 5e-3
        assert cluster.certified

    def test_trivial_shift_cluster_is_a_pair(self, grid6, exps):
        # J commutes with D at shift (0, 0, 0) as well, so the eigenvalue
        # nearest 0.87 has its Kramers partner
        u = generic_u(grid6)
        win = dense_oracle(u, SpinStructure((0.0, 0.0, 0.0)), exps).window(0.87, 12)
        kind, cluster = simplicity_gap(win, 0.87)
        assert len(cluster.members) == 2
        assert kind == "quaternionic_simple"

    def test_one_member_cluster_indeterminate(self, grid6, spin, exps):
        # a window of odd count cuts its farthest pair in half: that
        # one-member cluster is indeterminate, not simple
        win = dense_oracle(generic_u(grid6), spin, exps).window(0.87, 3)
        assert [len(c.members) for c in win.clusters()] in ([1, 2], [2, 1])
        lone = next(c for c in win.clusters() if len(c.members) == 1)
        kind, cluster = simplicity_gap(win, lone.mean)
        assert len(cluster.members) == 1 and cluster.gap > 1e-3
        assert kind == "indeterminate"

    def test_one_cluster_window_indeterminate(self, grid6, spin, exps):
        # the dense flat N=6 window of 8 at sqrt(3)/2 is one 8-fold cluster:
        # it has no exterior gap, so it is indeterminate and uncertified
        win = dense_oracle(constant_field(grid6, 1.0), spin, exps).window(SQRT3_2, 8)
        kind, cluster = simplicity_gap(win, SQRT3_2)
        assert kind == "indeterminate"
        assert len(cluster.members) == 8
        assert cluster.gap is None and not cluster.certified


    @pytest.mark.parametrize("shift", [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.5, 0.5, 0.5)])
    def test_clusters_follow_the_grouping_rule(self, grid6, exps, shift):
        # reference: consecutive eigenvalues within CLUSTER_REL_TOL join, the
        # gap is the distance to the nearest eigenvalue outside
        win = dense_oracle(generic_u(grid6), SpinStructure(shift), exps).window(0.87, 12)
        lams = win.eigenvalues
        groups = []
        for i, lam in enumerate(lams):
            if groups and lam - lams[i - 1] <= CLUSTER_REL_TOL * (1.0 + abs(lam)):
                groups[-1].append(i)
            else:
                groups.append([i])
        clusters = win.clusters()
        assert [list(c.members) for c in clusters] == groups
        for c in clusters:
            inside, outside = lams[list(c.members)], np.delete(lams, list(c.members))
            assert c.mean == inside.mean()
            assert c.width == inside.max() - inside.min()
            assert c.gap == np.min(np.abs(outside[:, None] - inside))
            assert c.certified == (0 < c.members[0] and c.members[-1] < len(lams) - 1)
            assert win.cluster_near(c.mean) == c


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

    def test_returns_start_gauge(self, grid6, spin, exps):
        # start from a random unit quaternionic multiple of the dense pair plus
        # noise: the refined spinor is the start's normalized u-weighted
        # projection onto the eigenspace span{psi, J psi}
        u = generic_u(grid6)
        dense = dense_oracle(u)
        sel = dense.nearest_indices(0.88, 2)
        psi = dense.pair(int(sel[0])).psi
        jpsi = quaternionic_j(psi)
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a, b = np.array([a, b]) / np.hypot(abs(a), abs(b))
        noise = 1e-3 * (rng.standard_normal(psi.values.shape)
                        + 1j * rng.standard_normal(psi.values.shape))
        start = SpinorField(grid6, spin, a * psi.values + b * jpsi.values + noise)
        lam = float(dense.eigenvalues[sel].mean())
        refined = refine_pair(u, EigenPair(lam, start), exps, tol=1e-11).psi

        def inner(x, y):
            return weighted_spinor_inner_c(u, x, y, exps)

        assert abs(inner(quaternionic_j(refined), start)) < 1e-12
        assert abs(inner(refined, start).imag) < 1e-12
        assert inner(refined, start).real > 0
        proj = inner(psi, start) * psi.values + inner(jpsi, start) * jpsi.values
        proj = proj / np.sqrt(inner(SpinorField(grid6, spin, proj),
                                    SpinorField(grid6, spin, proj)).real)
        assert np.abs(refined.values - proj).max() < 1e-9

    def test_sweep_applies_c_to_no_deflation_basis(self, grid6, spin, exps, monkeypatch):
        # where J commutes with C, C J chi = J C chi: every application of C
        # is one column, C chi at the start and one per MINRES residual check
        u = generic_u(grid6)
        dense = dense_oracle(u)
        pair = dense.pair(int(dense.nearest_indices(0.88, 1)[0]))
        rng = np.random.default_rng(3)
        noise = 1e-5 * (rng.standard_normal(pair.psi.values.shape)
                        + 1j * rng.standard_normal(pair.psi.values.shape))
        rough = EigenPair(pair.lam, SpinorField(grid6, spin, pair.psi.values + noise))
        widths = []
        apply = Pencil.apply

        def recording(self, x):
            widths.append(1 if x.ndim == 1 else x.shape[1])
            return apply(self, x)

        monkeypatch.setattr(Pencil, "apply", recording)
        reset_solver_stats()
        refine_pair(u, rough, exps, tol=1e-10)
        assert widths and set(widths) == {1}
        assert solver_stats()["operator_columns"] == len(widths)

    def test_stall_carries_minres_iterations(self, grid6, spin, exps):
        # one sweep cannot reach 1e-14 from a pair perturbed at 1e-3: the
        # failure carries the MINRES iterations that sweep spent
        u = generic_u(grid6)
        dense = dense_oracle(u)
        pair = dense.pair(int(dense.nearest_indices(0.88, 1)[0]))
        rng = np.random.default_rng(5)
        noise = 1e-3 * rng.standard_normal(pair.psi.values.shape)
        rough = EigenPair(pair.lam, SpinorField(grid6, spin, pair.psi.values + noise))
        before = solver_stats()["minres_iterations"]
        with pytest.raises(ConvergenceFailure, match="stalled") as err:
            refine_pair(u, rough, exps, tol=1e-14, max_steps=1)
        spent = solver_stats()["minres_iterations"] - before
        assert err.value.iterations == spent > 0
        assert err.value.residual > 1e-14
