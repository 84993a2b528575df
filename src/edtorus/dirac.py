"""Flat-torus Dirac operator, spin-shifted Fourier action, quaternionic structure.

Clifford convention: Pauli matrices, D = -i * sum_a sigma_a d_a, so the symbol
on the plane wave exp(i kappa.x) is sigma . kappa with kappa = (2*pi/L)(k + delta).
The binding contracts are self-adjointness and the symbol eigenvalues +-|kappa|,
not any external sign convention.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import (
    SPINOR_GRID_AXES,
    SpinorField,
    SpinStructure,
    TorusGrid,
    TWO_PI,
    _freeze,
    _integer_modes,
    apply_spinor_symbol,
    grid_fft,
    grid_ifft,
    kappa_symbols,
)

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def dirac_values(grid: TorusGrid, spin: SpinStructure, values: np.ndarray) -> np.ndarray:
    """Raw-array form of the Dirac action, the symbol of `kappa_symbols` in
    Fourier space, on values of shape (..., n, n, n, 2) (no field wrapping)."""
    sym = kappa_symbols(grid.n, grid.length, spin.shift)
    hat = grid_fft(values, axes=SPINOR_GRID_AXES)
    return grid_ifft(apply_spinor_symbol(sym.diag, sym.off, hat), axes=SPINOR_GRID_AXES)


@lru_cache(maxsize=None)
def dirac_matrix(n: int, length: float, shift: tuple) -> np.ndarray:
    """D as a hermitian matrix on packed spinors (values (n, n, n, 2) raveled):
    `dirac_values` on the identity, built once per grid and spin structure."""
    dim = 2 * n ** 3
    eye = np.eye(dim, dtype=np.complex128).reshape((dim, n, n, n, 2))
    cols = dirac_values(TorusGrid(n, length), SpinStructure(shift), eye).reshape(dim, dim)
    return _freeze(0.5 * (cols.T + cols.conj()))


def apply_dirac(psi: SpinorField) -> SpinorField:
    """Spectral Dirac action; hermitian in the unweighted L^2 spinor product."""
    return SpinorField(psi.grid, psi.spin, dirac_values(psi.grid, psi.spin, psi.values))


def flat_spectrum_oracle(grid: TorusGrid, spin: SpinStructure, window):
    """Closed-form flat spectrum: +-|kappa| over the shifted mode lattice.

    Returns [(lambda, complex multiplicity)] restricted to the (bounded)
    window, eigenvalues grouped to 1e-12 relative and sorted ascending.
    Each nonzero mode contributes one +|kappa| and one -|kappa| eigenvector;
    a zero mode (trivial shift only) contributes the 2-dimensional kernel.

    This is the continuum formula over the grid's modes, independent of
    `fields.kappa_symbols`.  The grid's symbol follows it on every mode
    except those with k = -n/2 on an unshifted axis, where it is |kappa| I
    (see `KappaSymbols`): the two agree on windows inside |lambda| < pi n / L
    (the Nyquist momentum), multiplicities included, at every spin structure.
    """
    lo, hi = window
    k1, k2, k3 = _integer_modes(grid.n)
    scale = TWO_PI / grid.length
    kap = scale * np.sqrt(
        (k1 + spin.shift[0]) ** 2 + (k2 + spin.shift[1]) ** 2 + (k3 + spin.shift[2]) ** 2
    )
    kap = kap.ravel()
    eigs = np.concatenate([kap[kap > 0], -kap[kap > 0], np.zeros(2 * int(np.sum(kap == 0)))])
    eigs = np.sort(eigs[(eigs >= lo) & (eigs <= hi)])
    out = []
    for lam in eigs:
        if out and abs(lam - out[-1][0]) <= 1e-12 * (1.0 + abs(lam)):
            out[-1][1] += 1
        else:
            out.append([float(lam), 1])
    return [(lam, mult) for lam, mult in out]


@lru_cache(maxsize=None)
def j_factors(n: int, length: float, shift: tuple) -> np.ndarray:
    """The factors (-i phase, i phase) of J's two components, shape
    (n, n, n, 2), read-only: (J v)_c = factor_c conj(v_{1-c}), with the periodic
    phase exp(-i (2 pi / L)(2 delta).x) relating J to the stored gauge."""
    x1, x2, x3 = TorusGrid(n, length).coords()
    theta = (TWO_PI / length) * (shift[0] * x1 + shift[1] * x2 + shift[2] * x3)
    phase = np.exp(-2j * theta)
    return _freeze(np.stack([phase * (-1j), phase * (1j)], axis=-1))


def j_values(grid: TorusGrid, spin: SpinStructure, values: np.ndarray) -> np.ndarray:
    """Raw-array form of the quaternionic structure (no field wrapping)."""
    out = np.conjugate(values[..., ::-1])
    return np.multiply(j_factors(grid.n, grid.length, spin.shift), out, out=out)


def quaternionic_j(psi: SpinorField) -> SpinorField:
    """Antilinear J with J^2 = -1, commuting with D and with real multiplication.

    On physical sections J(psi) = sigma_2 conj(psi); in the stored gauge this
    picks up the periodic phase exp(-2i theta), theta = (2*pi/L) delta.x.
    """
    return SpinorField(psi.grid, psi.spin,
                       j_values(psi.grid, psi.spin, psi.values))
