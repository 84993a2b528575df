"""Generalized eigenvalue pencil D psi = lambda u^{2/(m-2)} psi on the torus.

The pencil is symmetrized to C = B^{-1/2} D B^{-1/2} with B = multiplication
by u^{2/(m-2)}: B is a positive diagonal in physical space and D is diagonal
in Fourier space, so C stays fully matrix-free.  Eigenvectors chi of C map to
pencil eigenspinors psi = B^{-1/2} chi, and L^2-orthonormality of the chi's
is exactly u-weighted orthonormality of the psi's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirac import _apply_symbol, apply_dirac, j_values
from .errors import ConvergenceFailure, GridTooLarge, NonPositiveConformalFactor, WindowTooNarrow
from .fields import (
    ExponentTable,
    ScalarField,
    SpinorField,
    SpinStructure,
    _integer_modes,
    grid_fft,
    grid_ifft,
    require_positive,
    spinor_momentum,
    weighted_spinor_inner,
)

#: eigenvalues closer than this (relative) are treated as one cluster
CLUSTER_REL_TOL = 1e-6

#: default exterior gap below which a cluster is not called simple
DEFAULT_GAP_TOL = 1e-3

#: grid axes of an unpacked spinor array or a batch of them, (..., n, n, n, 2)
SPINOR_GRID_AXES = (-4, -3, -2)


class Pencil:
    """Matrix-free symmetrized pencil operator acting on packed spinor vectors."""

    def __init__(self, u: ScalarField, spin: SpinStructure, exps: ExponentTable):
        require_positive(u)
        self.u = u
        self.spin = spin
        self.exps = exps
        self.grid = u.grid
        self.weight = u.values ** exps.p1
        self.b_half = u.values ** (0.5 * exps.p1)
        self.dim = 2 * self.grid.num_points
        self._kappa = spinor_momentum(self.grid.n, self.grid.length, spin.shift)

    # -- raw array plumbing ------------------------------------------------

    def _dirac_raw(self, values: np.ndarray) -> np.ndarray:
        """sigma.kappa in Fourier space; values has shape (..., n, n, n, 2)."""
        hat = grid_fft(values, axes=SPINOR_GRID_AXES)
        out = np.empty_like(hat)
        out[..., 0], out[..., 1] = _apply_symbol(*self._kappa, hat[..., 0], hat[..., 1])
        return grid_ifft(out, axes=SPINOR_GRID_AXES)

    def _c_raw(self, values: np.ndarray) -> np.ndarray:
        scaled = values / self.b_half[..., None]
        return self._dirac_raw(scaled) / self.b_half[..., None]

    # -- packed vector interface --------------------------------------------
    # A packed vector has shape (dim,); a block of them is (dim, k), one per
    # column.  Blocks go through one batched FFT pass.

    def unpack(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 2:
            return x.T.reshape((x.shape[1],) + self.grid.shape + (2,))
        return x.reshape(self.grid.shape + (2,))

    def pack(self, values: np.ndarray) -> np.ndarray:
        if values.ndim == 5:
            return values.reshape(values.shape[0], self.dim).T
        return values.reshape(-1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply C to a packed vector or to every column of a block."""
        return self.pack(self._c_raw(self.unpack(x)))

    def to_spinor(self, x: np.ndarray) -> SpinorField:
        """Map an L^2-normalized chi vector to the u-weighted-normalized psi."""
        h3 = self.grid.cell_volume
        chi = self.unpack(x) / np.sqrt(h3 * np.sum(np.abs(x) ** 2))
        return SpinorField(self.grid, self.spin, chi / self.b_half[..., None])

    def from_spinor(self, psi: SpinorField) -> np.ndarray:
        return self.pack(psi.values * self.b_half[..., None])


# ---------------------------------------------------------------------------
# Preconditioned MINRES for complex hermitian systems, one Lanczos recurrence
# per right-hand side.  For a hermitian operator and preconditioner every
# recurrence coefficient is real, so this is the Paige-Saunders iteration
# with complex inner products.  The columns of a block share each operator
# application, so a block of k systems costs one batched FFT pass per
# iteration instead of k separate ones.
# ---------------------------------------------------------------------------

def _col_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real parts of the column-wise inner products <a_j, b_j>."""
    return np.einsum("ij,ij->j", a.conj(), b).real


def minres_hermitian(apply_c, b: np.ndarray, precond=None, rtol: float = 1e-11,
                     maxiter: int = 600):
    """Solve apply_c(x) = b for hermitian apply_c (possibly indefinite).

    b is a vector (dim,) or a block (dim, k); apply_c and precond (hermitian
    positive definite) accept the same shape.  Returns (x, info) with info
    the number of columns that reached maxiter unconverged (0 = success).

    Column j stops on its true residual, |b_j - apply_c(x_j)|_2 <=
    rtol |b_j|_2, recomputed from apply_c.  The recurrence only says when to
    look: once the preconditioned residual estimate phibar_j / beta1_j falls
    below the column's trigger (initially rtol), the true residual of that
    column is computed.  If it is still above rtol the column keeps iterating
    the same recurrence and its trigger drops by the ratio just seen between
    the true residual and the estimate.  Columns also stop when the first
    iterate is exact or at the roundoff floors of the recurrence
    (gmax/gmin >= 0.1/eps, |A| |x| eps >= beta1).
    """
    if b.ndim == 1:
        def col_op(f):
            return lambda Z: f(Z[:, 0])[:, None]
        x, info = minres_hermitian(col_op(apply_c), b[:, None],
                                   None if precond is None else col_op(precond),
                                   rtol, maxiter)
        return x[:, 0], info
    if precond is None:
        def precond(z):
            return z

    eps = np.finfo(np.float64).eps
    x_out = np.zeros(b.shape, dtype=np.complex128)
    r1 = b.astype(np.complex128)
    y = precond(r1)
    beta1 = _col_dot(r1, y)
    if np.any(beta1 < 0):
        raise ValueError("indefinite preconditioner")
    cols = np.flatnonzero(beta1 > 0)  # zero right-hand sides keep x = 0
    r1, y, beta1 = r1[:, cols], y[:, cols], np.sqrt(beta1[cols])
    k = cols.size
    rhs = r1
    bnorm = np.linalg.norm(rhs, axis=0)
    trigger = np.full(k, float(rtol))
    x = np.zeros_like(r1)
    w = np.zeros_like(r1)
    w2 = np.zeros_like(r1)
    r2 = r1
    oldb = np.zeros(k)
    beta = beta1.copy()
    dbar = np.zeros(k)
    epsln = np.zeros(k)
    phibar = beta1.copy()
    tnorm2 = np.zeros(k)
    gmax = np.zeros(k)
    gmin = np.full(k, np.finfo(np.float64).max)
    cs = -np.ones(k)
    sn = np.zeros(k)
    unconverged = 0
    itn = 0
    while cols.size:
        itn += 1
        v = y / beta
        y = apply_c(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = _col_dot(v, y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = precond(r2)
        oldb = beta
        beta = _col_dot(r2, y)
        if np.any(beta < 0):
            raise ValueError("non-hermitian operator")
        beta = np.sqrt(beta)
        tnorm2 = tnorm2 + alfa ** 2 + oldb ** 2 + beta ** 2
        # Abar = const * I: the first iterate is exact
        stop = (beta / beta1 <= 10 * eps) if itn == 1 else np.zeros(cols.size, bool)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.maximum(np.hypot(gbar, beta), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        gmax = np.maximum(gmax, gamma)
        gmin = np.minimum(gmin, gamma)
        ynorm = np.linalg.norm(x, axis=0)
        stop |= (gmax / gmin >= 0.1 / eps) | (np.sqrt(tnorm2) * ynorm * eps >= beta1)
        check = np.flatnonzero(~stop & (phibar <= trigger * beta1))
        if check.size:
            est = phibar[check] / beta1[check]
            resid = np.linalg.norm(rhs[:, check] - apply_c(x[:, check]), axis=0) / bnorm[check]
            met = resid <= rtol
            stop[check[met]] = True
            trigger[check[~met]] = rtol * est[~met] / resid[~met]
        if itn >= maxiter:
            unconverged += int(np.count_nonzero(~stop))
            stop[:] = True
        if np.any(stop):
            x_out[:, cols[stop]] = x[:, stop]
            keep = ~stop
            cols = cols[keep]
            x, w, w2, r1, r2, y, rhs = (a[:, keep] for a in (x, w, w2, r1, r2, y, rhs))
            (oldb, beta, beta1, bnorm, trigger, dbar, epsln, phibar, tnorm2, gmax, gmin,
             cs, sn) = (a[keep] for a in (oldb, beta, beta1, bnorm, trigger, dbar, epsln,
                                          phibar, tnorm2, gmax, gmin, cs, sn))
    return x_out, unconverged


class ShiftedDiagonalPreconditioner:
    """Hermitian positive-definite approximation of |C|^{-1}, independent of
    any shift.

    C^{-1} = B^{1/2} D^{-1} B^{1/2} with B diagonal in physical space and D
    diagonal in Fourier space, so M = B^{1/2} |D|^{-1} B^{1/2} is as cheap as
    one FFT pair: |D| is |kappa| on each Fourier mode, floored at the smallest
    nonzero |kappa| to keep the harmonic mode of shift (0, 0, 0) bounded.  For
    constant u, M is exactly |C|^{-1} off the harmonic modes.  MINRES on
    C - lambda uses M; the folded window solver on (C - sigma)^2 uses M^2.

    The class keeps its name from the shifted form it replaced because the
    benchmark's tracing (perfbench/spans.py) wraps `__call__` by that name.
    """

    def __init__(self, pencil: Pencil):
        kn = np.sqrt(sum(k ** 2 for k in pencil._kappa))
        self.inv_kappa = (1.0 / np.maximum(kn, kn[kn > 0].min()))[..., None]
        self.pencil = pencil

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply to a packed vector or to every column of a block."""
        p = self.pencil
        b_half = p.b_half[..., None]
        hat = grid_fft(p.unpack(x) * b_half, axes=SPINOR_GRID_AXES)
        return p.pack(grid_ifft(hat * self.inv_kappa, axes=SPINOR_GRID_AXES) * b_half)


# ---------------------------------------------------------------------------
# Eigenpair containers.
# ---------------------------------------------------------------------------

@dataclass
class EigenPair:
    """(lambda, psi) with psi normalized in the u-weighted inner product."""

    lam: float
    psi: SpinorField

    def constraint_residual(self, u: ScalarField, exps: ExponentTable) -> float:
        d = apply_dirac(self.psi).values
        w = u.values ** exps.p1
        resid = d - self.lam * w[..., None] * self.psi.values
        num = np.sqrt(np.sum(np.abs(resid) ** 2))
        den = np.sqrt(np.sum(np.abs(self.psi.values) ** 2))
        return float(num / den)

    def normalization_error(self, u: ScalarField, exps: ExponentTable) -> float:
        return abs(weighted_spinor_inner(u, self.psi, self.psi, exps) - 1.0)


@dataclass
class SpectrumWindow:
    """A batch of eigenpairs of one pencil sorted by eigenvalue."""

    target: float
    count: int
    pairs: list
    u: ScalarField = field(repr=False)
    exps: ExponentTable = field(repr=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    def clusters(self, rel_tol: float = CLUSTER_REL_TOL):
        """Indices grouped so consecutive eigenvalues within rel_tol cluster."""
        lams = self.eigenvalues
        groups = []
        for i in range(len(lams)):
            if groups and lams[i] - lams[groups[-1][-1]] <= rel_tol * (1.0 + abs(lams[i])):
                groups[-1].append(i)
            else:
                groups.append([i])
        return groups

    def cluster_containing(self, lam: float, rel_tol: float = CLUSTER_REL_TOL):
        lams = self.eigenvalues
        if len(lams) == 0:
            raise WindowTooNarrow("empty window")
        nearest = int(np.argmin(np.abs(lams - lam)))
        for group in self.clusters(rel_tol):
            if nearest in group:
                return group
        raise WindowTooNarrow("no cluster found")  # pragma: no cover


@dataclass
class SimplicityReport:
    kind: str  # quaternionic_simple | unpaired_simple | multiple | indeterminate
    cluster_size: int
    cluster_width: float
    exterior_gap: float
    gap_certified: bool


def simplicity_gap(window: SpectrumWindow, lam: float,
                   gap_tol: float = DEFAULT_GAP_TOL) -> SimplicityReport:
    """Classify the cluster at lam: at m = 3 'simple' means complex dimension 2.

    A one-member cluster is 'unpaired_simple' (no Kramers partner, which the
    discrete pencil allows for the spin structures whose Nyquist modes break
    DJ = JD); three or more members are 'multiple'.
    """
    group = window.cluster_containing(lam)
    lams = window.eigenvalues
    inside = lams[group]
    outside = np.delete(lams, group)
    if outside.size == 0:
        raise WindowTooNarrow("window holds a single cluster; no exterior gap measurable")
    gap = float(min(np.min(np.abs(outside - inside.min())),
                    np.min(np.abs(outside - inside.max()))))
    certified = 0 < group[0] and group[-1] < len(lams) - 1
    width = float(inside.max() - inside.min())
    if gap < gap_tol:
        kind = "indeterminate"
    elif len(group) == 2:
        kind = "quaternionic_simple" if certified else "indeterminate"
    elif len(group) == 1:
        kind = "unpaired_simple"
    else:
        kind = "multiple"
    return SimplicityReport(kind, len(group), width, gap, certified)


# ---------------------------------------------------------------------------
# Dense oracle: explicit hermitian matrix + complete eigendecomposition.
# ---------------------------------------------------------------------------

@dataclass
class DenseSpectrum:
    pencil: Pencil
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, plain l2-orthonormal chi vectors

    def pair(self, index: int) -> EigenPair:
        psi = self.pencil.to_spinor(self.eigenvectors[:, index])
        return EigenPair(float(self.eigenvalues[index]), psi)

    def nearest_indices(self, target: float, count: int) -> np.ndarray:
        order = np.argsort(np.abs(self.eigenvalues - target), kind="stable")
        sel = np.sort(order[:count])
        return sel

    def window(self, target: float, count: int) -> SpectrumWindow:
        sel = self.nearest_indices(target, count)
        pairs = [self.pair(i) for i in sel]
        return SpectrumWindow(target, count, pairs, self.pencil.u, self.pencil.exps)


DENSE_GRID_LIMIT = 6


def dense_oracle(u: ScalarField, spin: SpinStructure | None = None,
                 exps: ExponentTable | None = None) -> DenseSpectrum:
    """Assemble the symmetrized pencil as an explicit matrix and diagonalize.

    Cross-validation path for the matrix-free solver; limited to n <= 6
    (matrix dimension 2 n^3 <= 432).
    """
    spin = spin or SpinStructure()
    exps = exps or ExponentTable(3)
    if u.grid.n > DENSE_GRID_LIMIT:
        raise GridTooLarge(f"dense path limited to n <= {DENSE_GRID_LIMIT}, got {u.grid.n}")
    pencil = Pencil(u, spin, exps)
    mat = pencil.apply(np.eye(pencil.dim, dtype=np.complex128))
    mat = 0.5 * (mat + mat.conj().T)
    evals, evecs = np.linalg.eigh(mat)
    return DenseSpectrum(pencil, evals, evecs)


# ---------------------------------------------------------------------------
# Matrix-free window solver: LOBPCG on the folded operator (C - sigma)^2 with
# a signed Rayleigh-Ritz extraction on C itself.
# ---------------------------------------------------------------------------

def _fix_gauge(x: np.ndarray) -> np.ndarray:
    """Rotate a chi vector so its first significant entry is real positive."""
    mags = np.abs(x)
    idx = int(np.argmax(mags > 1e-8 * mags.max()))
    phase = x[idx] / abs(x[idx])
    return x * np.conjugate(phase)


def _flat_guess(pencil: Pencil, sigma: float, count: int) -> np.ndarray:
    """Plane-wave symbol eigenvectors nearest sigma (after mean-weight scaling):
    a cheap analytic warm start for cold window solves."""
    grid = pencil.grid
    wbar = float(np.mean(pencil.weight))
    k1, k2, k3 = pencil._kappa
    kn = np.sqrt(k1 ** 2 + k2 ** 2 + k3 ** 2)
    flat = np.concatenate([(kn / wbar).ravel(), (-kn / wbar).ravel()])
    order = np.argsort(np.abs(flat - sigma), kind="stable")[:count]
    npts = grid.num_points
    i1, i2, i3 = (m.ravel() for m in _integer_modes(grid.n))
    x1, x2, x3 = grid.coords()
    scale = 2.0 * np.pi / grid.length
    cols = np.empty((pencil.dim, len(order)), dtype=np.complex128)
    for c, idx in enumerate(order):
        sign = 1.0 if idx < npts else -1.0
        j = idx % npts
        kap = np.array([k1.ravel()[j], k2.ravel()[j], k3.ravel()[j]])
        norm = np.linalg.norm(kap)
        if norm == 0:
            vec = np.array([1.0, 0.0], dtype=np.complex128)
        else:
            symbol = np.array([[kap[2], kap[0] - 1j * kap[1]],
                               [kap[0] + 1j * kap[1], -kap[2]]]) / norm
            _w, v = np.linalg.eigh(symbol)
            vec = v[:, 1] if sign > 0 else v[:, 0]
        phase = np.exp(1j * scale * (i1[j] * x1 + i2[j] * x2 + i3[j] * x3))
        vals = phase[..., None] * vec
        cols[:, c] = (vals * pencil.b_half[..., None]).reshape(-1)
    return cols


def _complement_basis(X: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the part of span(S) orthogonal to span(X), X
    orthonormal.  Two passes of projection and orthonormalization through the
    eigendecomposition of the Gram matrix of the column-scaled block (SVQB);
    columns the projection cancels to roundoff and directions below 1e-7 of
    the largest singular value are dropped."""
    for _ in range(2):
        before = np.linalg.norm(S, axis=0)
        S = S - X @ (X.conj().T @ S)
        after = np.linalg.norm(S, axis=0)
        keep = after > 1e-10 * before
        if not keep.any():
            return S[:, :0]
        S = S[:, keep] / after[keep]
        w, V = np.linalg.eigh(S.conj().T @ S)
        big = w > 1e-14 * w[-1]
        S = S @ (V[:, big] / np.sqrt(w[big]))
    return S


def solve_window(u: ScalarField, target: float, count: int,
                 spin: SpinStructure | None = None,
                 exps: ExponentTable | None = None,
                 tol: float = 1e-9, max_iter: int = 400,
                 seed: int = 7261) -> SpectrumWindow:
    """Compute `count` eigenpairs of the pencil nearest `target`.

    LOBPCG (Knyazev 2001) on the folded operator A = (C - sigma)^2, sigma =
    target, preconditioned by M^2 with M the shift-free approximation of
    |C|^{-1}.  A is positive semidefinite at every sigma and its smallest
    eigenvalues are exactly the squared distances to sigma, so an eigenvalue
    at sigma is a zero Ritz value and far clusters cannot alias into the
    window.  The block holds count + 4 columns, started from plane waves plus
    seeded noise; columns whose folded residual falls below the lock
    threshold keep their place in the Rayleigh-Ritz basis but add no search
    directions (soft locking).  The search directions [W, P] are
    orthonormalized against X and each other and then multiplied by A afresh;
    A P is never carried through that transform, whose conditioning degrades
    as the residuals shrink.  Signed eigenvalues come from a
    final Rayleigh-Ritz of C on the first `count` columns, accepted only on
    directly verified residuals of C.
    """
    spin = spin or SpinStructure()
    exps = exps or ExponentTable(3)
    pencil = Pencil(u, spin, exps)
    if not 1 <= count <= pencil.dim - 2:
        raise ValueError(f"count must be within the dimension budget, got {count}")

    sigma = float(target)
    rng = np.random.default_rng(seed)
    block = min(count + 4, pencil.dim)
    X = 1e-3 * (rng.standard_normal((pencil.dim, block))
                + 1j * rng.standard_normal((pencil.dim, block)))
    X, _ = np.linalg.qr(X + _flat_guess(pencil, sigma, block))

    # chi-residuals overestimate the psi-form constraint residual by at most
    # max(u^p1), so tighten the Ritz threshold accordingly
    eff_tol = tol / max(1.0, float(pencil.weight.max()))
    lock_tol = max(0.02 * eff_tol, 1e-13)
    prec = ShiftedDiagonalPreconditioner(pencil)

    def folded(Z):
        Y = pencil.apply(Z) - sigma * Z
        return pencil.apply(Y) - sigma * Y

    AX = folded(X)
    S = AS = np.zeros((pencil.dim, 0), dtype=np.complex128)
    for it in range(1, max_iter + 1):
        basis, a_basis = np.hstack([X, S]), np.hstack([AX, AS])
        H = basis.conj().T @ a_basis
        mu, V = np.linalg.eigh(0.5 * (H + H.conj().T))  # ascending squared distances
        mu, V = mu[:block], V[:, :block]
        X, AX, P = basis @ V, a_basis @ V, S @ V[block:]
        R = AX - X * mu
        resid = np.linalg.norm(R, axis=0)

        if resid[:count].max() <= 50.0 * eff_tol:
            Y = X[:, :count]
            CY = pencil.apply(Y)
            Hc = Y.conj().T @ CY
            theta, Wc = np.linalg.eigh(0.5 * (Hc + Hc.conj().T))
            Z = Y @ Wc
            if np.linalg.norm(CY @ Wc - Z * theta, axis=0).max() <= eff_tol:
                pairs = [EigenPair(float(theta[i]), pencil.to_spinor(_fix_gauge(Z[:, i])))
                         for i in range(count)]
                return SpectrumWindow(sigma, count, pairs, u, exps)

        active = resid > lock_tol
        if not active.any():
            break
        W = prec(prec(R[:, active]))
        S = _complement_basis(X, np.hstack([W, P[:, active]]))
        AS = folded(S)

    raise ConvergenceFailure("window iteration did not converge",
                             iterations=it, residual=float(resid[:count].max()))


def kramers_deflation(pencil: Pencil, chi: np.ndarray):
    """Orthogonal projector Q off span{chi, J chi} on packed vectors; J chi is
    orthogonal to chi for every chi, so Q is two rank-one projections in turn."""
    chi = chi / np.linalg.norm(chi)
    jchi = pencil.pack(j_values(pencil.grid, pencil.spin, pencil.unpack(chi)))
    jchi = jchi / np.linalg.norm(jchi)

    def deflate(z: np.ndarray) -> np.ndarray:
        z = z - chi * np.vdot(chi, z)
        return z - jchi * np.vdot(jchi, z)

    return deflate


def deflated_solve(pencil: Pencil, deflate, lam: float, b: np.ndarray,
                   rtol: float, maxiter: int):
    """Preconditioned MINRES on the correction equation Q (C - lam) Q y = b, with
    Q a `kramers_deflation` projector; returns (Q y, info of `minres_hermitian`)."""
    def op(z):
        w = deflate(z)
        return deflate(pencil.apply(w) - lam * w)

    prec = ShiftedDiagonalPreconditioner(pencil)
    y, info = minres_hermitian(op, b, precond=prec, rtol=rtol, maxiter=maxiter)
    return deflate(y), info


def refine_pair(u: ScalarField, pair: EigenPair, exps: ExponentTable,
                tol: float = 1e-9, max_steps: int = 6) -> EigenPair:
    """Newton-style correction refreshing one tracked quaternionic pair.

    Each sweep solves the correction equation Q (C - lam) Q t = -Q r with Q
    the deflation off span{chi, J chi} (the same well-conditioned system the
    projected resolvent uses; raw shifted solves at the nearly singular
    Rayleigh shift are unreliable with Krylov inner solves).  Quadratically
    convergent; the caller is responsible for the cluster staying simple.
    """
    pencil = Pencil(u, pair.psi.spin, exps)
    eff_tol = tol / max(1.0, float(pencil.weight.max()))

    chi = pencil.from_spinor(pair.psi)
    chi = chi / np.linalg.norm(chi)
    lam = float(np.vdot(chi, pencil.apply(chi)).real)
    best = (np.inf, chi, lam)
    for _ in range(max_steps):
        resid_vec = pencil.apply(chi) - lam * chi
        resid = float(np.linalg.norm(resid_vec))
        if resid < best[0]:
            best = (resid, chi, lam)
        if resid <= eff_tol:
            break
        deflate = kramers_deflation(pencil, chi)
        b = -deflate(resid_vec)
        t, _info = deflated_solve(pencil, deflate, lam, b,
                                  0.05 * eff_tol / np.linalg.norm(b), 400)
        chi_new = chi + t
        chi = chi_new / np.linalg.norm(chi_new)
        lam = float(np.vdot(chi, pencil.apply(chi)).real)
    resid, chi, lam = best
    if resid > eff_tol:
        raise ConvergenceFailure("pair refinement stalled", residual=resid)
    return EigenPair(lam, pencil.to_spinor(chi))


def spectrum_near(u: ScalarField, center: float, count: int,
                  spin: SpinStructure | None = None,
                  exps: ExponentTable | None = None) -> SpectrumWindow:
    """The `count` eigenpairs nearest `center`: from the dense oracle on grids
    it covers (n <= DENSE_GRID_LIMIT), from the matrix-free window solver on
    larger ones."""
    if u.grid.n <= DENSE_GRID_LIMIT:
        return dense_oracle(u, spin, exps).window(center, count)
    return solve_window(u, center, count, spin, exps)


# ---------------------------------------------------------------------------
# Probes.
# ---------------------------------------------------------------------------

@dataclass
class SplittingReport:
    eps: np.ndarray
    branches: np.ndarray       # shape (len(eps), cluster_size), sorted rows
    separations: np.ndarray    # max pairwise separation per eps
    splits: bool               # separations strictly increasing


def splitting_probe(u: ScalarField, lam: float, v: ScalarField, eps_list,
                    spin: SpinStructure | None = None,
                    exps: ExponentTable | None = None,
                    cluster_size: int | None = None) -> SplittingReport:
    """Track the eigenvalue branches of the pencil at u + eps*v.

    Follows the descendants of the multiple eigenvalue lam and reports
    whether their maximal pairwise separation grows with eps.
    """
    spin = spin or SpinStructure()
    exps = exps or ExponentTable(3)
    eps_arr = np.asarray(list(eps_list), dtype=float)

    def eigenvalues_at(w: ScalarField, center: float, k: int) -> np.ndarray:
        return spectrum_near(w, center, k, spin, exps).eigenvalues

    if cluster_size is None:
        base = eigenvalues_at(u, lam, min(16, 2 * u.grid.num_points))
        cluster_size = int(np.sum(np.abs(base - lam) <= CLUSTER_REL_TOL * (1.0 + abs(lam))))
        cluster_size = max(cluster_size, 2)

    branches = np.empty((eps_arr.size, cluster_size))
    center = lam
    for i, eps in enumerate(eps_arr):
        w = ScalarField(u.grid, u.values + eps * v.values)
        if w.min() <= 0:
            raise NonPositiveConformalFactor(f"u + {eps} v loses positivity")
        branches[i] = eigenvalues_at(w, center, cluster_size)
        center = float(branches[i].mean())
    seps = branches.max(axis=1) - branches.min(axis=1)
    splits = bool(np.all(np.diff(seps) > 0))
    return SplittingReport(eps_arr, branches, seps, splits)


def rigidity_probe(window: SpectrumWindow, lam: float, n_random: int = 8,
                   seed: int = 20_21) -> float:
    """Spread of pointwise spinor norms across a normalized eigenvalue cluster.

    Evaluates an orthonormal cluster basis plus random unit combinations and
    returns sup_x (max_j |phi_j(x)| - min_j |phi_j(x)|).  Zero spread is the
    rigidity property; a quaternionic pair has it automatically.
    """
    group = window.cluster_containing(lam)
    if len(group) < 2:
        raise ValueError("rigidity probe needs a cluster of complex dimension >= 2")
    basis = [window.pairs[i].psi.values for i in group]
    rng = np.random.default_rng(seed)
    candidates = list(basis)
    for _ in range(n_random):
        c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        c /= np.linalg.norm(c)
        candidates.append(sum(ci * bi for ci, bi in zip(c, basis)))
    norms = np.stack([
        np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=-1)) for v in candidates
    ])
    return float((norms.max(axis=0) - norms.min(axis=0)).max())
