"""Property tests over random grids, all 8 spin structures and random positive u.

D and C = B^{-1/2} D B^{-1/2} are hermitian, J^2 = -1 and DJ = JD, the
Kramers deflation is a hermitian idempotent that annihilates chi and J chi,
and the preconditioner M is hermitian positive definite at every shift sigma
and equals |C - sigma|^{-1} for constant u off the modes its floor clips.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edtorus.dirac import apply_dirac, j_values, quaternionic_j
from edtorus.fields import (
    SPINOR_GRID_AXES,
    ExponentTable,
    SpinorField,
    SpinStructure,
    TorusGrid,
    grid_fft,
    grid_ifft,
    scalar_field,
    spinor_momentum,
)
from edtorus.pencil import Pencil, ShiftedDiagonalPreconditioner, kramers_deflation

SPINS = [SpinStructure((a, b, c)) for a in (0.0, 0.5) for b in (0.0, 0.5) for c in (0.0, 0.5)]

CASES = st.tuples(st.sampled_from([4, 6]), st.sampled_from(SPINS),
                  st.integers(min_value=0, max_value=2 ** 32 - 1))

PROPERTY = settings(max_examples=16, deadline=None)

#: nonzero shifts of the preconditioner, both signs, across the first shells
SIGMAS = st.one_of(st.floats(min_value=-3.0, max_value=-0.05),
                   st.floats(min_value=0.05, max_value=3.0))


def draw(n, spin, seed):
    """A grid, a random positive u in [0.5, 1.5) and a random spinor source."""
    rng = np.random.default_rng(seed)
    grid = TorusGrid(n)
    u = scalar_field(grid, 0.5 + rng.random(grid.shape))

    def spinor():
        values = (rng.standard_normal(grid.shape + (2,))
                  + 1j * rng.standard_normal(grid.shape + (2,)))
        return SpinorField(grid, spin, values)

    return grid, u, spinor


def hermitian_defect(op, x, y):
    """|<x, op y> - <op x, y>| relative to |x| |op y| + |op x| |y|."""
    ox, oy = op(x), op(y)
    scale = np.linalg.norm(x) * np.linalg.norm(oy) + np.linalg.norm(ox) * np.linalg.norm(y)
    return abs(np.vdot(x, oy) - np.vdot(ox, y)) / scale


@given(CASES)
@PROPERTY
def test_dirac_hermitian(case):
    n, spin, seed = case
    grid, _u, spinor = draw(n, spin, seed)

    def dirac(values):
        return apply_dirac(SpinorField(grid, spin, values)).values

    assert hermitian_defect(dirac, spinor().values, spinor().values) <= 1e-13


@given(CASES)
@PROPERTY
def test_quaternionic_structure(case):
    n, spin, seed = case
    _grid, _u, spinor = draw(n, spin, seed)
    psi = spinor()
    jj = quaternionic_j(quaternionic_j(psi)).values
    assert np.abs(jj + psi.values).max() <= 1e-14 * np.abs(psi.values).max()
    dj = apply_dirac(quaternionic_j(psi)).values
    jd = quaternionic_j(apply_dirac(psi)).values
    assert np.abs(dj - jd).max() <= 1e-12 * np.abs(jd).max()


@given(CASES)
@PROPERTY
def test_pencil_hermitian(case):
    n, spin, seed = case
    _grid, u, spinor = draw(n, spin, seed)
    pencil = Pencil(u, spin, ExponentTable(3))
    x, y = (pencil.pack(spinor().values) for _ in range(2))
    assert hermitian_defect(pencil.apply, x, y) <= 1e-13


@given(CASES)
@PROPERTY
def test_kramers_deflation_projector(case):
    n, spin, seed = case
    grid, u, spinor = draw(n, spin, seed)
    pencil = Pencil(u, spin, ExponentTable(3))
    chi, x, y = (pencil.pack(spinor().values) for _ in range(3))
    jchi = pencil.pack(j_values(grid, spin, pencil.unpack(chi)))
    deflate = kramers_deflation(pencil, chi)
    qy = deflate(y)
    assert hermitian_defect(deflate, x, y) <= 1e-14
    assert np.linalg.norm(deflate(qy) - qy) <= 1e-14 * np.linalg.norm(y)
    for v in (chi, jchi):
        assert np.linalg.norm(deflate(v)) <= 1e-14 * np.linalg.norm(v)


@given(CASES)
@PROPERTY
def test_preconditioner_hermitian_positive(case):
    n, spin, seed = case
    _grid, u, spinor = draw(n, spin, seed)
    pencil = Pencil(u, spin, ExponentTable(3))
    prec = ShiftedDiagonalPreconditioner(pencil)
    x, y = (pencil.pack(spinor().values) for _ in range(2))
    assert hermitian_defect(prec, x, y) <= 1e-13
    block = np.column_stack([pencil.pack(spinor().values) for _ in range(4)])
    assert np.all(np.einsum("ij,ij->j", block.conj(), prec(block)).real > 0)


@given(CASES, st.floats(min_value=0.5, max_value=2.0))
@PROPERTY
def test_preconditioner_inverts_constant_pencil(case, c):
    """For constant u, M C M C x = x on spinors without harmonic (kappa = 0)
    modes, the kernel of C under shift (0, 0, 0)."""
    n, spin, seed = case
    grid, _u, spinor = draw(n, spin, seed)
    pencil = Pencil(scalar_field(grid, np.full(grid.shape, c)), spin, ExponentTable(3))
    prec = ShiftedDiagonalPreconditioner(pencil)
    hat = grid_fft(spinor().values, axes=SPINOR_GRID_AXES)
    k1, k2, k3 = spinor_momentum(grid.n, grid.length, spin.shift)
    hat[(k1 ** 2 + k2 ** 2 + k3 ** 2) == 0] = 0.0
    x = pencil.pack(grid_ifft(hat, axes=SPINOR_GRID_AXES))
    mcmc = prec(pencil.apply(prec(pencil.apply(x))))
    assert np.linalg.norm(mcmc - x) <= 1e-12 * np.linalg.norm(x)


@given(CASES, SIGMAS)
@PROPERTY
def test_shifted_preconditioner_hermitian_positive(case, sigma):
    n, spin, seed = case
    _grid, u, spinor = draw(n, spin, seed)
    pencil = Pencil(u, spin, ExponentTable(3))
    prec = ShiftedDiagonalPreconditioner(pencil, sigma)
    x, y = (pencil.pack(spinor().values) for _ in range(2))
    assert hermitian_defect(prec, x, y) <= 1e-13
    block = np.column_stack([pencil.pack(spinor().values) for _ in range(4)])
    assert np.all(np.einsum("ij,ij->j", block.conj(), prec(block)).real > 0)


@given(CASES, st.floats(min_value=0.5, max_value=2.0), SIGMAS)
@PROPERTY
def test_shifted_preconditioner_inverts_constant_pencil(case, c, sigma):
    """For constant u = c, M (C - sigma) M (C - sigma) x = x on spinors without
    the modes where a branch +-|kappa| lies within k_min of sigma c^2, the
    modes the floor of M clips."""
    n, spin, seed = case
    grid, _u, spinor = draw(n, spin, seed)
    pencil = Pencil(scalar_field(grid, np.full(grid.shape, c)), spin, ExponentTable(3))
    prec = ShiftedDiagonalPreconditioner(pencil, sigma)
    hat = grid_fft(spinor().values, axes=SPINOR_GRID_AXES)
    k1, k2, k3 = spinor_momentum(grid.n, grid.length, spin.shift)
    kn = np.sqrt(k1 ** 2 + k2 ** 2 + k3 ** 2)
    k_min = kn[kn > 0].min()
    hat[np.minimum(np.abs(kn - sigma * c ** 2), np.abs(kn + sigma * c ** 2)) < k_min] = 0.0
    x = pencil.pack(grid_ifft(hat, axes=SPINOR_GRID_AXES))

    def shifted(z):
        return pencil.apply(z) - sigma * z

    mcmc = prec(shifted(prec(shifted(x))))
    assert np.linalg.norm(mcmc - x) <= 1e-12 * np.linalg.norm(x)
