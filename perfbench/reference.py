"""The benchmark's own dense reference for the Dirac pencil D psi = lam u^2 psi.

Built with numpy's FFT from the Fourier symbol sigma.kappa,
kappa = (2 pi / L)(k + delta), independently of the program's `Pencil`:
the symmetrized pencil is C = u^-1 D u^-1 (m = 3), assembled column by
column as a dense hermitian matrix.  Spinor arrays have shape (n, n, n, 2)
and pack in C order, as in the program's snapshots.
"""

from __future__ import annotations

import numpy as np


def momenta(n: int, length: float, shift):
    k = np.fft.fftfreq(n, d=1.0 / n)
    scale = 2.0 * np.pi / length
    return np.meshgrid(*(scale * (k + s) for s in shift), indexing="ij")


def apply_dirac(values: np.ndarray, length: float, shift) -> np.ndarray:
    """D on a spinor array (..., n, n, n, 2), by FFT over the grid axes."""
    n = values.shape[-2]
    k1, k2, k3 = momenta(n, length, shift)
    axes = (-4, -3, -2)
    hat = np.fft.fftn(values, axes=axes)
    out = np.empty_like(hat)
    out[..., 0] = k3 * hat[..., 0] + (k1 - 1j * k2) * hat[..., 1]
    out[..., 1] = (k1 + 1j * k2) * hat[..., 0] - k3 * hat[..., 1]
    return np.fft.ifftn(out, axes=axes)


def pencil_matrix(u: np.ndarray, length: float, shift) -> np.ndarray:
    """Dense C = u^-1 D u^-1 on packed spinors (dimension 2 n^3)."""
    n = u.shape[0]
    dim = 2 * n ** 3
    basis = np.eye(dim, dtype=np.complex128).reshape(dim, n, n, n, 2)
    d = apply_dirac(basis, length, shift).reshape(dim, dim).T  # column j = D e_j
    inv_u = np.repeat(1.0 / u.ravel(), 2)
    c = inv_u[:, None] * d * inv_u[None, :]
    return 0.5 * (c + c.conj().T)


def pencil_eigenvalues(u: np.ndarray, length: float, shift) -> np.ndarray:
    return np.linalg.eigvalsh(pencil_matrix(u, length, shift))


def constraint_residual(u: np.ndarray, lam: float, psi: np.ndarray,
                        length: float, shift) -> float:
    """|D psi - lam u^2 psi| / |psi| (unweighted grid sums)."""
    resid = apply_dirac(psi, length, shift) - lam * (u ** 2)[..., None] * psi
    return float(np.linalg.norm(resid) / np.linalg.norm(psi))


def nearest(evals: np.ndarray, target: float, count: int) -> np.ndarray:
    """The `count` eigenvalues nearest `target`, ascending."""
    order = np.argsort(np.abs(evals - target), kind="stable")[:count]
    return np.sort(evals[order])


def trig_field(n: int, length: float, terms) -> np.ndarray:
    """1 + sum a cos((2 pi / L) k.x) on the grid x = (L / n) * index."""
    axis = np.arange(n) * (length / n)
    x = np.meshgrid(axis, axis, axis, indexing="ij")
    scale = 2.0 * np.pi / length
    u = np.ones((n, n, n))
    for amp, k in terms:
        u = u + amp * np.cos(scale * (k[0] * x[0] + k[1] * x[1] + k[2] * x[2]))
    return u
