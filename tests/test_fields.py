import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edtorus.errors import NonPositiveConformalFactor
from edtorus.fields import (
    SPINOR_GRID_AXES,
    ExponentTable,
    ScalarField,
    SpinorField,
    SpinStructure,
    TorusGrid,
    constant_field,
    field_from_function,
    grid_fft,
    grid_ifft,
    grid_irfft,
    grid_rfft,
    quadrature,
    read_snapshot,
    scalar_field,
    scalar_symbols,
    weighted_spinor_inner,
    weighted_spinor_inner_c,
    write_snapshot,
)

VOL = (2 * np.pi) ** 3


def random_spinor(grid, spin, rng):
    v = rng.standard_normal(grid.shape + (2,)) + 1j * rng.standard_normal(grid.shape + (2,))
    return SpinorField(grid, spin, v)


def constant_spinor(grid, spin, fiber):
    return SpinorField(grid, spin, np.broadcast_to(np.asarray(fiber, dtype=complex),
                                                   grid.shape + (2,)))


class TestGridAndTypes:
    def test_grid_invariants(self):
        g = TorusGrid(8)
        assert g.h == pytest.approx(2 * np.pi / 8)
        assert g.cell_volume == pytest.approx(g.h ** 3)
        with pytest.raises(ValueError):
            TorusGrid(7)
        with pytest.raises(ValueError):
            TorusGrid(2)
        with pytest.raises(ValueError):
            TorusGrid(8, -1.0)

    def test_storage_order_third_axis_fastest(self):
        g = TorusGrid(4)
        f = field_from_function(g, lambda x, y, z: x + 10 * y + 100 * z)
        flat = f.values.reshape(-1)
        # lexicographic (i, j, k): consecutive entries step the third axis
        assert flat[1] - flat[0] == pytest.approx(100 * g.h)
        assert flat[g.n] - flat[0] == pytest.approx(10 * g.h)

    def test_spin_structure_validation(self):
        assert SpinStructure().shift == (0.5, 0.5, 0.5)
        assert SpinStructure((0, 0, 0)).shift == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SpinStructure((0.3, 0, 0))

    def test_field_validation(self):
        g = TorusGrid(4)
        with pytest.raises(ValueError):
            scalar_field(g, np.full(g.shape, np.nan))
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros((4, 4)))

    def test_fields_are_frozen(self):
        g = TorusGrid(4)
        f = constant_field(g, 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 2.0


class TestExponents:
    def test_values_at_m3(self):
        e = ExponentTable(3)
        assert (e.p1, e.p2, e.p3, e.p4, e.p5, e.p6, e.p7, e.c_m) == \
            (2, 1, 5, 4, 6, 3, 4, 8)

    @given(st.integers(min_value=3, max_value=14))
    @settings(max_examples=12, deadline=None)
    def test_exponent_identities(self, m):
        e = ExponentTable(m)
        assert e.p3 - e.p4 == pytest.approx(1.0)
        assert e.p5 == pytest.approx(e.p3 + 1.0)
        assert e.p1 + e.p2 == pytest.approx(e.p4 - 1.0)
        assert e.p6 == pytest.approx(e.p1 + 1.0)


class TestFourier:
    # grid_fft / n^3 holds the coefficients c(k) of f = sum_k c(k) exp(i k.x)
    def test_constant_mode(self, grid8):
        c = grid_fft(constant_field(grid8, 1.0).values) / grid8.num_points
        assert c[0, 0, 0] == pytest.approx(1.0)
        c[0, 0, 0] = 0
        assert np.abs(c).max() < 1e-14

    def test_cosine_coefficients(self, grid8):
        f = field_from_function(grid8, lambda x, y, z: np.cos(x))
        c = grid_fft(f.values) / grid8.num_points
        assert c[1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert c[-1, 0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_scalar_round_trip(self, grid8, rng):
        f = scalar_field(grid8, rng.standard_normal(grid8.shape))
        back = grid_ifft(grid_fft(f.values)).real
        assert np.abs(back - f.values).max() <= 1e-12 * np.abs(f.values).max()

    def test_spinor_round_trip(self, grid8, spin, rng):
        psi = random_spinor(grid8, spin, rng)
        back = grid_ifft(grid_fft(psi.values, axes=SPINOR_GRID_AXES), axes=SPINOR_GRID_AXES)
        assert np.abs(back - psi.values).max() <= 1e-12 * np.abs(psi.values).max()

    def test_default_axes_are_all_axes_of_a_scalar(self, grid8, rng):
        x = rng.standard_normal(grid8.shape)
        hat = grid_fft(x)
        assert np.array_equal(hat, grid_fft(x, axes=(0, 1, 2)))
        assert np.array_equal(grid_ifft(hat), grid_ifft(hat, axes=(0, 1, 2)))

    def test_leading_axis_batch_equals_per_field_transforms(self, grid8, rng):
        shape = (3,) + grid8.shape
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for transform in (grid_fft, grid_ifft):
            batched = transform(stack, axes=(1, 2, 3))
            for a in range(3):
                assert np.array_equal(batched[a], transform(stack[a]))

    def test_spinor_transforms_act_per_component(self, grid8, spin, rng):
        psi = random_spinor(grid8, spin, rng)
        coeffs = grid_fft(psi.values, axes=SPINOR_GRID_AXES)
        back = grid_ifft(coeffs, axes=SPINOR_GRID_AXES)
        for c in range(2):
            assert np.array_equal(coeffs[..., c], grid_fft(psi.values[..., c]))
            assert np.array_equal(back[..., c], grid_ifft(coeffs[..., c]))

    def test_real_pair_is_the_half_spectrum(self, grid8, rng):
        # grid_rfft keeps modes 0..n/2 of grid_fft's last axis, and
        # grid_irfft inverts it, field by field along a leading batch axis
        stack = rng.standard_normal((3,) + grid8.shape)
        half = grid_rfft(stack, axes=(1, 2, 3))
        assert half.shape == (3, 8, 8, 5)
        full = grid_fft(stack, axes=(1, 2, 3))
        assert np.abs(half - full[..., :5]).max() <= 1e-12 * np.abs(full).max()
        back = grid_irfft(half, axes=(1, 2, 3))
        assert np.abs(back - stack).max() <= 1e-14 * np.abs(stack).max()
        for a in range(3):
            assert np.array_equal(half[a], grid_rfft(stack[a]))
            assert np.array_equal(back[a], grid_irfft(half[a]))

    def test_scalar_symbols(self):
        # |kappa|^2 and i kappa on the half spectrum, with the Nyquist plane
        # of each axis zeroed, against the integer modes on a side other
        # than 2 pi
        n, length = 6, 3.0
        k = np.fft.fftfreq(n, d=1.0 / n)
        modes = np.meshgrid(k, k, np.arange(n // 2 + 1), indexing="ij")
        kappa = [(2 * np.pi / length) * m for m in modes]
        sym = scalar_symbols(n, length)
        assert sym.k_sq.shape == (n, n, n // 2 + 1)
        assert np.array_equal(sym.k_sq, kappa[0] ** 2 + kappa[1] ** 2 + kappa[2] ** 2)
        for ik, kap, m in zip(sym.ik, kappa, modes):
            nyquist = np.abs(m) == n // 2
            assert np.all(ik[nyquist] == 0)
            assert np.array_equal(ik[~nyquist], 1j * kap[~nyquist])

    def test_parseval(self, grid8, rng):
        # band-limited random field: h^3 sum f^2 = L^3 sum |fhat|^2
        coeffs = np.zeros(grid8.shape, dtype=complex)
        for _ in range(12):
            k = tuple(rng.integers(-2, 3, size=3))
            a = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[k] += a
            coeffs[tuple(-np.array(k))] += np.conj(a)
        f = scalar_field(grid8, grid_ifft(coeffs * grid8.num_points).real)
        lhs = quadrature(scalar_field(grid8, f.values ** 2))
        fh = grid_fft(f.values) / grid8.num_points
        rhs = grid8.length ** 3 * np.sum(np.abs(fh) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestQuadrature:
    def test_volume(self, grid8):
        assert quadrature(constant_field(grid8, 1.0)) == pytest.approx(VOL)

    def test_mean_zero_mode(self, grid8):
        f = field_from_function(grid8, lambda x, y, z: np.cos(x))
        assert quadrature(f) == pytest.approx(0.0, abs=1e-12)

    def test_half_power(self, grid8):
        f = field_from_function(grid8, lambda x, y, z: np.cos(x) ** 2)
        assert quadrature(f) == pytest.approx(VOL / 2)

    def test_bit_reproducible(self, grid8, rng):
        f = scalar_field(grid8, rng.standard_normal(grid8.shape))
        vals = {quadrature(f) for _ in range(5)}
        assert len(vals) == 1


class TestWeightedInner:
    def test_unit_weight(self, exps):
        g = TorusGrid(8)
        sp = SpinStructure((0, 0, 0))
        psi = constant_spinor(g, sp, (1.0, 0.0))
        u = constant_field(g, 1.0)
        assert weighted_spinor_inner(u, psi, psi, exps) == pytest.approx(VOL)

    def test_u_squared_weight(self, exps):
        g = TorusGrid(8)
        sp = SpinStructure((0, 0, 0))
        psi = constant_spinor(g, sp, (1.0, 0.0))
        u = constant_field(g, 2.0)
        assert weighted_spinor_inner(u, psi, psi, exps) == pytest.approx(4 * VOL)

    def test_mode_orthogonality(self, exps, grid8, spin):
        x1 = grid8.coords()[0]
        a = np.zeros(grid8.shape + (2,), dtype=complex)
        a[..., 0] = np.exp(1j * x1)
        b = np.zeros_like(a)
        b[..., 0] = np.exp(2j * x1)
        inner = weighted_spinor_inner_c(constant_field(grid8, 1.0),
                                        SpinorField(grid8, spin, a),
                                        SpinorField(grid8, spin, b), exps)
        assert abs(inner) < 1e-12 * VOL

    def test_positive_definite(self, exps, grid8, spin, rng):
        u = scalar_field(grid8, 1.0 + 0.4 * rng.uniform(-1, 1, grid8.shape))
        for _ in range(5):
            psi = random_spinor(grid8, spin, rng)
            assert weighted_spinor_inner(u, psi, psi, exps) > 0

    def test_symmetry(self, exps, grid8, spin, rng):
        u = scalar_field(grid8, 1.0 + 0.4 * rng.uniform(-1, 1, grid8.shape))
        a, b = random_spinor(grid8, spin, rng), random_spinor(grid8, spin, rng)
        assert weighted_spinor_inner(u, a, b, exps) == pytest.approx(
            weighted_spinor_inner(u, b, a, exps), rel=1e-12)

    def test_rejects_nonpositive_weight(self, exps, grid8, spin, rng):
        u = scalar_field(grid8, np.zeros(grid8.shape))
        psi = random_spinor(grid8, spin, rng)
        with pytest.raises(NonPositiveConformalFactor):
            weighted_spinor_inner(u, psi, psi, exps)


class TestSnapshotFormat:
    def test_scalar_round_trip(self, tmp_path, grid8, rng):
        f = scalar_field(grid8, rng.standard_normal(grid8.shape))
        path = tmp_path / "f.edf"
        write_snapshot(path, f)
        g = read_snapshot(path)
        assert g.grid.n == grid8.n
        assert np.array_equal(g.values, f.values)

    def test_spinor_round_trip(self, tmp_path, grid8, spin, rng):
        psi = random_spinor(grid8, spin, rng)
        path = tmp_path / "psi.edf"
        write_snapshot(path, psi)
        back = read_snapshot(path)
        assert np.array_equal(back.values, psi.values)

    @pytest.mark.parametrize("shift", [(a, b, c) for a in (0.0, 0.5) for b in (0.0, 0.5)
                                       for c in (0.0, 0.5)])
    def test_spinor_records_spin_structure(self, tmp_path, rng, shift):
        grid = TorusGrid(4)
        psi = random_spinor(grid, SpinStructure(shift), rng)
        path = tmp_path / "psi.edf"
        write_snapshot(path, psi)
        back = read_snapshot(path)
        assert back.spin == psi.spin
        assert np.array_equal(back.values, psi.values)
        assert read_snapshot(path, spin=SpinStructure(shift)).spin == psi.spin
        mask = sum(1 << i for i, d in enumerate(shift) if d)
        assert int.from_bytes(path.read_bytes()[12:16], "little") == 1 + mask

    def test_scalar_header_records_no_spin(self, tmp_path, grid8):
        path = tmp_path / "one.edf"
        write_snapshot(path, constant_field(grid8, 1.0))
        assert path.read_bytes()[12:16] == bytes(4)

    def test_spin_mismatch_rejected(self, tmp_path, rng):
        grid = TorusGrid(4)
        path = tmp_path / "psi.edf"
        write_snapshot(path, random_spinor(grid, SpinStructure((0.5, 0.0, 0.5)), rng))
        with pytest.raises(ValueError, match="spin"):
            read_snapshot(path, spin=SpinStructure())

    def test_header_layout(self, tmp_path, grid8):
        path = tmp_path / "one.edf"
        write_snapshot(path, constant_field(grid8, 1.0))
        raw = path.read_bytes()
        assert raw[:4] == b"EDF1"
        n = int.from_bytes(raw[4:8], "little")
        kind = int.from_bytes(raw[8:12], "little")
        assert (n, kind) == (grid8.n, 0)
        assert len(raw) == 16 + 8 * grid8.num_points

    def test_truncated_header_rejected(self, tmp_path, grid8):
        path = tmp_path / "short.edf"
        write_snapshot(path, constant_field(grid8, 1.0))
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError):
            read_snapshot(path)
