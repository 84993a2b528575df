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
from scipy.linalg import qr as pivoted_qr

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
    """Positive-definite Fourier-diagonal approximation of |C - sigma|^{-1}.

    Built from the mean of u: the symbol of C is approximately
    wbar^{-1} sigma.kappa, so per mode the eigenvalues of C - sigma are
    e_pm = wbar^{-1} (+-|kappa|) - sigma.  The inverse absolute values are
    floored to keep the preconditioner bounded near resonant modes.
    """

    def __init__(self, pencil: Pencil, sigma: float, floor_rel: float = 1e-2):
        wbar = float(np.mean(pencil.weight))
        k1, k2, k3 = pencil._kappa
        kn = np.sqrt(k1 ** 2 + k2 ** 2 + k3 ** 2)
        floor = floor_rel * (1.0 + abs(sigma))
        d_plus = 1.0 / np.maximum(np.abs(kn / wbar - sigma), floor)
        d_minus = 1.0 / np.maximum(np.abs(-kn / wbar - sigma), floor)
        self.diag = 0.5 * (d_plus + d_minus)
        half_diff = 0.5 * (d_plus - d_minus)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(kn > 0, half_diff / np.where(kn > 0, kn, 1.0), 0.0)
        self.bk = (unit * k1, unit * k2, unit * k3)
        self.pencil = pencil

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply to a packed vector or to every column of a block."""
        p = self.pencil
        hat = grid_fft(p.unpack(x), axes=SPINOR_GRID_AXES)
        b1, b2, b3 = self.bk
        out = np.empty_like(hat)
        out[..., 0] = self.diag * hat[..., 0] + b3 * hat[..., 0] + (b1 - 1j * b2) * hat[..., 1]
        out[..., 1] = self.diag * hat[..., 1] + (b1 + 1j * b2) * hat[..., 0] - b3 * hat[..., 1]
        return p.pack(grid_ifft(out, axes=SPINOR_GRID_AXES))


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
    kind: str  # quaternionic_simple | multiple | indeterminate
    cluster_size: int
    cluster_width: float
    exterior_gap: float
    gap_certified: bool


def simplicity_gap(window: SpectrumWindow, lam: float,
                   gap_tol: float = DEFAULT_GAP_TOL) -> SimplicityReport:
    """Classify the cluster at lam: at m = 3 'simple' means complex dimension 2."""
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
# Matrix-free window solver: shift-invert block subspace iteration with
# Rayleigh-Ritz extraction on the true operator.
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


def solve_window(u: ScalarField, target: float, count: int,
                 spin: SpinStructure | None = None,
                 exps: ExponentTable | None = None,
                 tol: float = 1e-9, max_outer: int = 80, seed: int = 7261,
                 block_extra: int = 8,
                 warm_start: np.ndarray | None = None) -> SpectrumWindow:
    """Compute `count` eigenpairs of the pencil nearest `target`.

    Folded shift-invert subspace iteration: each sweep applies (C - sigma)^{-2}
    to the block (two preconditioned MINRES solves per column) and extracts
    Ritz pairs of the folded operator, whose smallest eigenvalues are exactly
    the squared distances to sigma.  Folding keeps partially-resolved far
    clusters out of the window (their folded Rayleigh quotients cannot alias
    into it), so degenerate near clusters converge cleanly.  Signed
    eigenvalues are recovered by a final Rayleigh-Ritz of C on the converged
    subspace, and only directly verified constraint residuals are accepted.
    """
    spin = spin or SpinStructure()
    exps = exps or ExponentTable(3)
    pencil = Pencil(u, spin, exps)
    if not 1 <= count <= pencil.dim - 2:
        raise ValueError(f"count must be within the dimension budget, got {count}")

    rng = np.random.default_rng(seed)
    block = min(count + block_extra, pencil.dim)
    X = 1e-3 * (rng.standard_normal((pencil.dim, block))
                + 1j * rng.standard_normal((pencil.dim, block)))
    if warm_start is not None:
        # seed the subspace with known approximate eigenvectors (continuation)
        k = min(warm_start.shape[1], block)
        X[:, :k] += warm_start[:, :k]
    else:
        # cold start: plane-wave symbol eigenvectors nearest the shift
        X += _flat_guess(pencil, float(target), block)
    X, _ = np.linalg.qr(X)

    # chi-residuals overestimate the psi-form constraint residual by at most
    # max(u^p1), so tighten the Ritz threshold accordingly
    eff_tol = tol / max(1.0, float(pencil.weight.max()))

    sigma = float(target)
    shifts_tried = 0
    prec = ShiftedDiagonalPreconditioner(pencil, sigma)

    def shifted(Z):
        return pencil.apply(Z) - sigma * Z

    def solve_to(B, rel_target):
        """Shifted block solve, each column to true relative residual rel_target."""
        Y, info = minres_hermitian(shifted, B, precond=prec, rtol=rel_target)
        return Y, info == 0

    last_resid = np.inf
    lock_tol = max(0.02 * eff_tol, 1e-13)
    col_resid = np.full(X.shape[1], np.inf)
    stalls = 0
    for outer in range(1, max_outer + 1):
        # early sweeps only need solves slightly tighter than the current
        # subspace accuracy; final sweeps go to the floor.  Columns whose
        # folded residual already sits below the lock threshold skip their
        # solves; their directions stay in the basis through X.
        rel_target = float(np.clip(1e-2 * last_resid, 1e-12, 3e-5))
        active = [j for j in range(X.shape[1]) if col_resid[j] > lock_tol]
        Y, solve_ok = X[:, active], True
        if active:
            Y, solve_ok = solve_to(Y, rel_target)
            if solve_ok:
                Y, solve_ok = solve_to(Y, rel_target)
        if solve_ok:
            # Augmenting the trial space with the previous block (Rayleigh-Ritz
            # over span[Y, X]) roughly squares the per-sweep convergence factor,
            # but near convergence Y is almost parallel to X and the stacked QR
            # extracts new directions from cancelling differences, flooring the
            # attainable residual at roundoff * |(C-sigma)^2|.  Run plain sweeps
            # (Y plus only the locked columns) once the subspace is close.
            locked_cols = [j for j in range(X.shape[1]) if col_resid[j] <= lock_tol]
            pieces = []
            if active:
                pieces.append(Y)
            if last_resid > 1e-4:
                pieces.append(X)
            elif locked_cols:
                pieces.append(X[:, locked_cols])
            stacked = np.hstack(pieces) if pieces else X
            basis, R, _ = pivoted_qr(stacked, mode="economic", pivoting=True)
            rdiag = np.abs(np.diag(R))
            Q = basis[:, rdiag > 1e-10 * rdiag[0]]
        if not solve_ok or Q.shape[1] < count:
            # resonant shift (sigma on or next to an eigenvalue): the inner
            # solves fail, or (C - sigma)^{-2} amplifies the resonant direction
            # by about |lambda - sigma|^{-2} and the block loses rank.  Nudge
            # hard enough that the shifted systems become Krylov-tractable
            if shifts_tried >= 2:
                raise ConvergenceFailure(
                    f"inner shift solves failed at sigma={sigma}", iterations=outer)
            shifts_tried += 1
            sigma += 2e-3 * (1.0 + abs(sigma)) * (1 if shifts_tried == 1 else -2)
            prec = ShiftedDiagonalPreconditioner(pencil, sigma)
            continue
        FQ = shifted(shifted(Q))
        Hf = Q.conj().T @ FQ
        Hf = 0.5 * (Hf + Hf.conj().T)
        mu, V = np.linalg.eigh(Hf)  # ascending squared distances to sigma
        take = min(block, Q.shape[1])
        X = Q @ V[:, :take]
        FX = FQ @ V[:, :take]
        col_resid = np.linalg.norm(FX - X * mu[:take], axis=0)
        last_resid = float(col_resid[:count].max())
        if last_resid > 50.0 * eff_tol:
            continue

        # attempt signed recovery on the (near-)invariant subspace; accept
        # only on directly verified residuals of C itself
        S = X[:, :count]
        CS = pencil.apply(S)
        Hc = S.conj().T @ CS
        Hc = 0.5 * (Hc + Hc.conj().T)
        theta, W = np.linalg.eigh(Hc)
        Z = S @ W
        CZ = CS @ W
        c_resid = np.linalg.norm(CZ - Z * theta, axis=0)
        if float(c_resid.max()) <= eff_tol:
            pairs = []
            for i in range(count):
                chi = _fix_gauge(Z[:, i])
                pairs.append(EigenPair(float(theta[i]), pencil.to_spinor(chi)))
            pairs.sort(key=lambda p: p.lam)
            return SpectrumWindow(float(target), count, pairs, u, exps)
        stalls += 1
        if stalls >= 8 and not active:
            raise ConvergenceFailure(
                "folded subspace converged but signed extraction failed "
                "(window may split a symmetric cluster)", residual=float(c_resid.max()))

    raise ConvergenceFailure("window iteration did not converge",
                             iterations=max_outer, residual=last_resid)


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

    prec = ShiftedDiagonalPreconditioner(pencil, lam)
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
