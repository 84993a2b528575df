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
from edtorus.fields import SpinorField, SpinStructure

SQRT3_2 = np.sqrt(3.0) / 2.0


def random_spinor(grid, spin, rng):
    v = rng.standard_normal(grid.shape + (2,)) + 1j * rng.standard_normal(grid.shape + (2,))
    return SpinorField(grid, spin, v)


def constant_spinor(grid, spin, fiber):
    return SpinorField(grid, spin, np.broadcast_to(np.asarray(fiber, dtype=complex),
                                                   grid.shape + (2,)))


def l2_inner(psi, phi):
    """Unweighted L^2 hermitian product, conjugate-linear in the first slot."""
    return psi.grid.cell_volume * np.vdot(psi.values, phi.values)


class TestClifford:
    def test_relations(self):
        # the Pauli matrices are hermitian and traceless, and
        # sigma_a sigma_b + sigma_b sigma_a = 2 delta_ab
        sigma = (SIGMA1, SIGMA2, SIGMA3)
        for a in range(3):
            assert np.abs(sigma[a] - sigma[a].conj().T).max() < 1e-15
            assert abs(np.trace(sigma[a])) < 1e-15
            for b in range(3):
                acom = sigma[a] @ sigma[b] + sigma[b] @ sigma[a]
                assert np.abs(acom - 2.0 * (a == b) * np.eye(2)).max() < 1e-15


class TestApplyDirac:
    def test_zero_mode_symbol_eigenvalue(self, grid8, spin):
        kappa = np.array([0.5, 0.5, 0.5])
        symbol = kappa[0] * SIGMA1 + kappa[1] * SIGMA2 + kappa[2] * SIGMA3
        w, v = np.linalg.eigh(symbol)
        psi = constant_spinor(grid8, spin, v[:, 1])
        out = apply_dirac(psi)
        assert w[1] == pytest.approx(SQRT3_2)
        assert np.abs(out.values - SQRT3_2 * psi.values).max() < 1e-12

    def test_trivial_shift_harmonic(self, grid8):
        sp = SpinStructure((0, 0, 0))
        psi = constant_spinor(grid8, sp, (0.3, 0.4 - 0.2j))
        assert np.abs(apply_dirac(psi).values).max() < 1e-13

    def test_hermitian(self, grid8, spin, rng):
        a, b = random_spinor(grid8, spin, rng), random_spinor(grid8, spin, rng)
        lhs = l2_inner(apply_dirac(a), b).real
        rhs = l2_inner(a, apply_dirac(b)).real
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_single_mode_reproduces_kappa(self, grid8, spin):
        # mode k = (1, 0, -1): kappa = (1.5, 0.5, -0.5), eigenvalues +-|kappa|
        x1, x2, x3 = grid8.coords()
        kappa = np.array([1.5, 0.5, -0.5])
        symbol = kappa[0] * SIGMA1 + kappa[1] * SIGMA2 + kappa[2] * SIGMA3
        w, v = np.linalg.eigh(symbol)
        phase = np.exp(1j * (x1 - x3))
        for which in (0, 1):
            vals = phase[..., None] * v[:, which]
            psi = SpinorField(grid8, spin, vals)
            out = apply_dirac(psi)
            assert np.abs(out.values - w[which] * psi.values).max() < 1e-12
            assert abs(abs(w[which]) - np.linalg.norm(kappa)) < 1e-14


class TestFlatSpectrumOracle:
    def test_default_shift_lowest_shells(self, grid8, spin):
        out = flat_spectrum_oracle(grid8, spin, (0.0, 2.0))
        assert out[0][0] == pytest.approx(SQRT3_2, abs=1e-12)
        assert out[0][1] == 8
        assert out[1][0] == pytest.approx(np.sqrt(11) / 2, abs=1e-12)
        assert out[1][1] == 24

    def test_half_shift_on_one_axis(self, grid8):
        out = flat_spectrum_oracle(grid8, SpinStructure((0.5, 0, 0)), (0.0, 1.0))
        assert out[0][0] == pytest.approx(0.5)
        assert out[0][1] == 2

    def test_symmetric_under_negation(self, grid8, spin):
        out = flat_spectrum_oracle(grid8, spin, (-3.0, 3.0))
        lams = {round(lam, 12): mult for lam, mult in out}
        for lam, mult in out:
            assert lams[round(-lam, 12)] == mult

    def test_trivial_shift_kernel(self, grid8):
        out = flat_spectrum_oracle(grid8, SpinStructure((0, 0, 0)), (-0.5, 0.5))
        zero = [m for lam, m in out if lam == 0.0]
        assert zero == [2]


class TestQuaternionicStructure:
    def test_j_squared_minus_one(self, grid8, spin, rng):
        psi = random_spinor(grid8, spin, rng)
        jj = quaternionic_j(quaternionic_j(psi))
        assert np.abs(jj.values + psi.values).max() < 1e-14

    def test_pointwise_orthogonality(self, grid8, spin, rng):
        psi = random_spinor(grid8, spin, rng)
        jpsi = quaternionic_j(psi)
        pointwise = (np.conjugate(psi.values) * jpsi.values).sum(axis=-1)
        assert np.abs(pointwise).max() < 1e-12

    def test_antilinear(self, grid8, spin, rng):
        psi = random_spinor(grid8, spin, rng)
        a = 0.7 - 1.3j
        lhs = quaternionic_j(SpinorField(grid8, spin, a * psi.values))
        rhs = np.conjugate(a) * quaternionic_j(psi).values
        assert np.abs(lhs.values - rhs).max() < 1e-13

    def test_commutes_with_dirac(self, grid8, spin, rng):
        for _ in range(5):
            psi = random_spinor(grid8, spin, rng)
            dj = apply_dirac(quaternionic_j(psi))
            jd = quaternionic_j(apply_dirac(psi))
            norm = np.sqrt(l2_inner(psi, psi).real)
            assert np.sqrt((np.abs(dj.values - jd.values) ** 2).sum()) / norm <= 1e-12

    def test_commutes_on_trivial_shift_too(self, grid8, rng):
        # on trivial-shift axes the Nyquist mode -n/2 is its own J-image,
        # and its symbol |kappa| I keeps DJ = JD there too
        sp = SpinStructure((0, 0.5, 0))
        x1, x2, x3 = grid8.coords()
        vals = np.zeros(grid8.shape + (2,), dtype=complex)
        rngc = np.random.default_rng(5)
        modes = [(-4, -4, -4), (-4, 1, 0), (2, 0, -4)]
        modes += [tuple(rngc.integers(-4, 4, size=3)) for _ in range(6)]
        for k in modes:
            amp = rngc.standard_normal(2) + 1j * rngc.standard_normal(2)
            vals += np.exp(1j * (k[0] * x1 + k[1] * x2 + k[2] * x3))[..., None] * amp
        psi = SpinorField(grid8, sp, vals)
        dj = apply_dirac(quaternionic_j(psi))
        jd = quaternionic_j(apply_dirac(psi))
        assert np.abs(dj.values - jd.values).max() <= 1e-12 * np.abs(psi.values).max()
