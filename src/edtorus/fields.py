"""Grid, fields and Fourier plumbing for the flat 3-torus [0, L)^3.

Scalar fields are real arrays of shape (n, n, n) in x-major storage (the
third axis fastest), spinor fields are complex arrays of shape (n, n, n, 2).
Spinors are stored in the trivialized periodic gauge: the physical section
psi(x) = exp(i*(2*pi/L)*delta.x) * stored(x), where delta is the spin-structure
shift, so every stored array is periodic and one FFT kernel serves both field
kinds.  All momenta below are angular: kappa = (2*pi/L)*(k + delta).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.fft

from .errors import NonPositiveConformalFactor

TWO_PI = 2.0 * np.pi

DEFAULT_SHIFT = (0.5, 0.5, 0.5)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [0, L)^3 with n points per axis (n even, >= 4)."""

    n: int
    length: float = TWO_PI

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be an even integer >= 4, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"side length must be positive, got {self.length}")

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        """Quadrature weight h^3 of one grid cell."""
        return self.h ** 3

    @property
    def shape(self):
        return (self.n, self.n, self.n)

    @property
    def num_points(self) -> int:
        return self.n ** 3

    def axis(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def coords(self):
        """Meshgrid coordinate arrays (x1, x2, x3), each of shape (n, n, n)."""
        return np.meshgrid(self.axis(), self.axis(), self.axis(), indexing="ij")


@dataclass(frozen=True)
class ExponentTable:
    """All conformal exponents of dimension m in one place.

    p1 = 2/(m-2) is the pencil weight exponent, p3 = (m+2)/(m-2) the critical
    Sobolev exponent, c_m = 4(m-1)/(m-2) the conformal-Laplacian coefficient.
    Values are exact rationals evaluated to float; all are integers at m = 3.
    """

    m: int = 3

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("dimension must be at least 3")

    def _q(self, num, den=None) -> float:
        return float(Fraction(num, self.m - 2 if den is None else den))

    @property
    def p1(self) -> float:
        return self._q(2)

    @property
    def p2(self) -> float:
        return self._q(4 - self.m)

    @property
    def p3(self) -> float:
        return self._q(self.m + 2)

    @property
    def p4(self) -> float:
        return self._q(4)

    @property
    def p5(self) -> float:
        return self._q(2 * self.m)

    @property
    def p6(self) -> float:
        return self._q(self.m)

    @property
    def p7(self) -> float:
        return self._q(2 * (self.m - 1))

    @property
    def c_m(self) -> float:
        return self._q(4 * (self.m - 1))


@dataclass(frozen=True)
class SpinStructure:
    """One of the 8 spin structures of T^3, encoded by a half-integer shift."""

    shift: tuple = DEFAULT_SHIFT

    def __post_init__(self):
        if len(self.shift) != 3 or any(s not in (0, 0.5) for s in self.shift):
            raise ValueError(f"spin shift components must be 0 or 0.5, got {self.shift}")
        object.__setattr__(self, "shift", tuple(float(s) for s in self.shift))

    @property
    def trivial(self) -> bool:
        return all(s == 0.0 for s in self.shift)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"scalar values must have shape {self.grid.shape}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field contains non-finite values")
        object.__setattr__(self, "values", _freeze(v))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class SpinorField:
    grid: TorusGrid
    spin: SpinStructure
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape + (2,):
            raise ValueError(f"spinor values must have shape {self.grid.shape + (2,)}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("spinor field contains non-finite values")
        object.__setattr__(self, "values", _freeze(v))


def scalar_field(grid: TorusGrid, values) -> ScalarField:
    return ScalarField(grid, np.broadcast_to(np.asarray(values, dtype=np.float64), grid.shape).copy())


def constant_field(grid: TorusGrid, value: float) -> ScalarField:
    return scalar_field(grid, np.full(grid.shape, float(value)))


def field_from_function(grid: TorusGrid, fn) -> ScalarField:
    x1, x2, x3 = grid.coords()
    return scalar_field(grid, fn(x1, x2, x3))


def constant_spinor(grid: TorusGrid, spin: SpinStructure, fiber) -> SpinorField:
    v = np.zeros(grid.shape + (2,), dtype=np.complex128)
    v[..., 0] = fiber[0]
    v[..., 1] = fiber[1]
    return SpinorField(grid, spin, v)


# ---------------------------------------------------------------------------
# Fourier plumbing.
#
# Convention: fourier_transform returns coefficients c(k) with
#   f(x) = sum_k c(k) exp(i*(2*pi/L)*k.x),   k integer modes in [-n/2, n/2)^3,
# i.e. the constant field has c(0) = 1.  grid_fft/(n^3) realizes this.
# ---------------------------------------------------------------------------

#: grid axes of an unpacked spinor array or a batch of them, (..., n, n, n, 2)
SPINOR_GRID_AXES = (-4, -3, -2)


def grid_fft(values: np.ndarray, axes=None) -> np.ndarray:
    """Unnormalized forward DFT (the one FFT kernel), over all axes unless
    `axes` names the grid axes of a spinor or batched array.

    scipy.fft transforms all axes in one compiled call; numpy's fftn loops
    over them in Python, which dominates at desk grid sizes.  axes=None
    skips scipy's per-call axis normalization and gives the same bits as
    axes=(0, 1, 2) on a scalar array.
    """
    return scipy.fft.fftn(values, axes=axes)


def grid_ifft(values: np.ndarray, axes=None) -> np.ndarray:
    """Inverse of grid_fft (carries the 1/n^3)."""
    return scipy.fft.ifftn(values, axes=axes)


@lru_cache(maxsize=None)
def _integer_modes(n: int):
    k = np.fft.fftfreq(n, d=1.0 / n)  # exact integers [0..n/2-1, -n/2..-1]
    kx, ky, kz = np.meshgrid(k, k, k, indexing="ij")
    return _freeze(kx), _freeze(ky), _freeze(kz)


@lru_cache(maxsize=None)
def spinor_momentum(n: int, length: float, shift: tuple):
    """Shifted angular wavevector components (2*pi/L)*(k + delta) for spinors."""
    scale = TWO_PI / length
    return tuple(
        _freeze(scale * (k + d)) for k, d in zip(_integer_modes(n), shift)
    )


# ---------------------------------------------------------------------------
# The u-independent Fourier multipliers, built once per grid (and spin
# structure) and read-only.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarSymbols:
    """Fourier multipliers of scalar fields, read-only.

    k_sq = |kappa|^2, so the flat Laplacian is -k_sq.  ik = (i kappa_1,
    i kappa_2, i kappa_3) stacked on a leading axis, shape (3, n, n, n), the
    gradient, with the unpaired Nyquist mode dropped: its exact derivative
    aliases to zero on the grid, and dropping it keeps the discrete
    integration-by-parts identity int u L_g u = c_m int |grad u|^2 exact for
    band-limited fields.
    """

    k_sq: np.ndarray
    ik: np.ndarray


@lru_cache(maxsize=None)
def scalar_symbols(n: int, length: float) -> ScalarSymbols:
    """The ScalarSymbols of one grid, built once."""
    modes = _integer_modes(n)
    k1, k2, k3 = ((TWO_PI / length) * m for m in modes)
    ik = np.stack([1j * np.where(m == -(n // 2), 0.0, k) for m, k in zip(modes, (k1, k2, k3))])
    return ScalarSymbols(_freeze(k1 ** 2 + k2 ** 2 + k3 ** 2), _freeze(ik))


@dataclass(frozen=True)
class KappaSymbols:
    """The Dirac symbol sigma.kappa of one grid and spin structure and the
    symbols derived from it, read-only.

    A pointwise 2x2 multiplier R is a pair (r_diag, r_off) of complex arrays
    of spinor shape (n, n, n, 2), (R z)_c = r_diag_c z_c + r_off_c z_{1-c}
    (`apply_spinor_symbol`).  sigma.kappa is (diag, off) = ((k3, -k3),
    (k1 - i k2, k1 + i k2)), built here only.  With K = max(|kappa|, k_min),
    k_min the smallest nonzero |kappa|, `pencil.deflated_solve` splits its
    operator with kih = K^{-1/2} and S = K^{-1} (sigma.kappa) = (s_diag, s_off).
    """

    kn: np.ndarray         # |kappa|, (n, n, n)
    k_min: float
    diag: np.ndarray
    off: np.ndarray
    kih: np.ndarray
    s_diag: np.ndarray
    s_off: np.ndarray


@lru_cache(maxsize=None)
def kappa_symbols(n: int, length: float, shift: tuple) -> KappaSymbols:
    """The KappaSymbols of one grid and spin structure, built once."""
    k1, k2, k3 = spinor_momentum(n, length, shift)
    kn = np.sqrt(k1 ** 2 + k2 ** 2 + k3 ** 2)
    k_min = float(kn[kn > 0].min())
    inv_k = 1.0 / np.maximum(kn, k_min)[..., None]
    diag = np.stack([k3, -k3], axis=-1).astype(np.complex128)
    off = np.stack([k1 - 1j * k2, k1 + 1j * k2], axis=-1)
    kih = np.repeat(np.sqrt(inv_k), 2, axis=-1).astype(np.complex128)
    return KappaSymbols(_freeze(kn), k_min, _freeze(diag), _freeze(off), _freeze(kih),
                        _freeze(diag * inv_k), _freeze(off * inv_k))


def apply_spinor_symbol(r_diag: np.ndarray, r_off: np.ndarray, hat: np.ndarray) -> np.ndarray:
    """Apply a 2x2 multiplier pair (see `KappaSymbols`) to spinor Fourier
    coefficients (..., n, n, n, 2); both products run on contiguous arrays."""
    swapped = hat[..., ::-1].copy()
    np.multiply(r_off, swapped, out=swapped)
    out = r_diag * hat
    out += swapped
    return out


def fourier_transform(f):
    """Normalized forward DFT of a ScalarField or SpinorField (per component)."""
    if isinstance(f, ScalarField):
        return grid_fft(f.values) / f.grid.num_points
    if isinstance(f, SpinorField):
        return grid_fft(f.values, axes=SPINOR_GRID_AXES) / f.grid.num_points
    raise TypeError(f"expected a field, got {type(f)!r}")


def inverse_fourier_scalar(grid: TorusGrid, coeffs: np.ndarray) -> ScalarField:
    return scalar_field(grid, grid_ifft(coeffs * grid.num_points).real)


def inverse_fourier_spinor(grid: TorusGrid, spin: SpinStructure, coeffs: np.ndarray) -> SpinorField:
    return SpinorField(grid, spin, grid_ifft(coeffs * grid.num_points, axes=SPINOR_GRID_AXES))


# ---------------------------------------------------------------------------
# Quadrature and inner products.  np.sum uses pairwise reduction on
# contiguous arrays, which keeps every reduction bit-reproducible.
# ---------------------------------------------------------------------------

def integrate_values(grid: TorusGrid, values: np.ndarray) -> float:
    return grid.cell_volume * float(np.sum(values))


def quadrature(f: ScalarField) -> float:
    """h^3 * sum of values: exact for band-limited integrands below Nyquist."""
    return integrate_values(f.grid, f.values)


def pointwise_norm_sq(psi: SpinorField) -> np.ndarray:
    """|psi(x)|^2, gauge independent (the trivializing phase cancels)."""
    v = psi.values
    return (v.real ** 2 + v.imag ** 2).sum(axis=-1)


def spinor_l2_inner(psi: SpinorField, phi: SpinorField) -> complex:
    """Unweighted L^2 hermitian product, conjugate-linear in the first slot."""
    return psi.grid.cell_volume * complex(np.vdot(psi.values, phi.values))


def spinor_l2_norm(psi: SpinorField) -> float:
    return float(np.sqrt(psi.grid.cell_volume * np.sum(np.abs(psi.values) ** 2)))


def require_positive(u: ScalarField) -> None:
    if u.min() <= 0.0:
        raise NonPositiveConformalFactor(f"conformal factor must be positive, min = {u.min():.3e}")


def weighted_spinor_inner_c(u: ScalarField, psi: SpinorField, phi: SpinorField,
                            exps: ExponentTable) -> complex:
    """Complex u-weighted pairing int u^p1 (psi, phi) dvol (no real part taken)."""
    require_positive(u)
    w = u.values ** exps.p1
    s = np.sum(w[..., None] * np.conjugate(psi.values) * phi.values)
    return u.grid.cell_volume * complex(s)


def weighted_spinor_inner(u: ScalarField, psi: SpinorField, phi: SpinorField,
                          exps: ExponentTable) -> float:
    """The weighted inner product Re int u^{2/(m-2)} (psi, phi) dvol."""
    return weighted_spinor_inner_c(u, psi, phi, exps).real


# ---------------------------------------------------------------------------
# Field snapshot binary format "EDF1":
#   magic "EDF1" | u32 n | u32 kind (0 scalar, 1 spinor) | u32 spin |
#   little-endian float64 payload in storage order; spinor payload is
#   interleaved re/im, component-major within each grid point.  A spinor's
#   spin word is 1 + mask, bit i of the mask set when shift[i] = 1/2; 0 (and
#   every scalar's word) means "not recorded".
# ---------------------------------------------------------------------------

_MAGIC = b"EDF1"


def write_snapshot(path, f) -> None:
    if isinstance(f, ScalarField):
        kind, spin_word, payload = 0, 0, np.ascontiguousarray(f.values, dtype="<f8")
    elif isinstance(f, SpinorField):
        kind, spin_word = 1, 1 + sum(1 << i for i, d in enumerate(f.spin.shift) if d)
        payload = np.ascontiguousarray(f.values).view(np.float64).astype("<f8", copy=False)
    else:
        raise TypeError(f"expected a field, got {type(f)!r}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", f.grid.n, kind, spin_word))
        fh.write(payload.tobytes())


def read_snapshot(path, length: float = TWO_PI, spin: SpinStructure | None = None):
    """Read an EDF1 field.  A spinor takes its recorded spin structure, which
    must equal `spin` when both are given; an unrecorded one takes `spin` (by
    default the default structure)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC or len(data) < 16:
        raise ValueError(f"bad or truncated snapshot header {data[:16]!r}")
    n, kind, spin_word = struct.unpack_from("<III", data, 4)
    raw = np.frombuffer(data, dtype="<f8", offset=16)
    grid = TorusGrid(n, length)
    if kind == 0:
        if raw.size != grid.num_points:
            raise ValueError("scalar snapshot payload has wrong size")
        return scalar_field(grid, raw.reshape(grid.shape))
    if kind == 1:
        if raw.size != 4 * grid.num_points:
            raise ValueError("spinor snapshot payload has wrong size")
        cplx = raw.astype(np.float64).view(np.complex128).reshape(grid.shape + (2,))
        if spin_word:
            if spin_word > 8:
                raise ValueError(f"bad spin record {spin_word} in spinor snapshot")
            recorded = SpinStructure(tuple(0.5 * (((spin_word - 1) >> i) & 1) for i in range(3)))
            if spin is not None and spin != recorded:
                raise ValueError(f"snapshot spin shift {recorded.shift} != {spin.shift}")
            spin = recorded
        return SpinorField(grid, spin or SpinStructure(), cplx)
    raise ValueError(f"unknown snapshot kind {kind}")
