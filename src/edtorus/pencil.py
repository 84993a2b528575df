"""Generalized eigenvalue pencil D psi = lambda u^{2/(m-2)} psi on the torus.

The pencil is symmetrized to C = B^{-1/2} D B^{-1/2} with B = multiplication
by u^{2/(m-2)}: B is a positive diagonal in physical space and D is diagonal
in Fourier space, so C stays fully matrix-free.  Eigenvectors chi of C map to
pencil eigenspinors psi = B^{-1/2} chi, and L^2-orthonormality of the chi's
is exactly u-weighted orthonormality of the psi's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zaxpy

from .dirac import apply_dirac, dirac_values, j_values
from .errors import ConvergenceFailure, GridTooLarge, NonPositiveConformalFactor, WindowTooNarrow
from .fields import (
    SPINOR_GRID_AXES,
    ExponentTable,
    ScalarField,
    SpinorField,
    SpinStructure,
    _integer_modes,
    apply_spinor_symbol,
    grid_fft,
    grid_ifft,
    kappa_symbols,
    require_positive,
    weighted_spinor_inner,
)

#: eigenvalues closer than this (relative) are treated as one cluster
CLUSTER_REL_TOL = 1e-6

#: default exterior gap below which a cluster is not called simple
DEFAULT_GAP_TOL = 1e-3

#: process-local counts of solver work, in report order (`solver_stats`)
_STATS = dict.fromkeys(("minres_solves", "minres_iterations", "window_solves",
                        "lobpcg_iterations", "refine_pair_calls"), 0)


def solver_stats() -> dict:
    """Solver work in this process since `reset_solver_stats`: MINRES solves
    and iterations, window solves and their LOBPCG iterations, `refine_pair`
    calls.  Counts only, so a rerun reproduces them exactly."""
    return dict(_STATS)


def reset_solver_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


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

    def _c_raw(self, values: np.ndarray) -> np.ndarray:
        """C on values of shape (..., n, n, n, 2)."""
        scaled = values / self.b_half[..., None]
        return dirac_values(self.grid, self.spin, scaled) / self.b_half[..., None]

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
# MINRES for one complex hermitian system.  Every Lanczos coefficient of a
# hermitian operator is real, so this is the Paige-Saunders iteration with
# complex inner products and its scalars held as Python floats.  It takes no
# preconditioner: `deflated_solve` splits its preconditioner M = L L^H into
# the operator, and plain MINRES on L^H A L has the iterates of M-preconditioned
# MINRES on A at one FFT pair per iteration instead of two.
#
# The vectors are updated in place: apply_c returns a fresh array, which the
# recurrence subtracts from in place and keeps as the next Lanczos residual;
# the two direction vectors w share two buffers, the new one overwriting the
# oldest; x is updated by an axpy.  Nothing writes into b or into a vector
# already passed to apply_c, so per iteration the only new arrays are v and
# apply_c(v).
# ---------------------------------------------------------------------------

def _norm(x: np.ndarray) -> float:
    return math.sqrt(float(np.vdot(x, x).real))


def minres_hermitian(apply_c, b: np.ndarray, rtol: float = 1e-11, maxiter: int = 600,
                     residual=None):
    """Solve apply_c(x) = b for hermitian apply_c (possibly indefinite), b a vector.

    Returns (x, info, iterations, resid) with info = 1 if maxiter was reached
    unconverged (0 = success) and resid = residual(x) for the returned x; a
    zero b returns x = 0 and resid = 0 after no iteration.

    Stops on the true residual, residual(x) <= rtol, recomputed from the
    operator: by default residual(x) = |b - apply_c(x)|_2 / |b|_2, and a caller
    that solves a transformed system passes the relative residual of its own.
    The recurrence only says when to look: once its estimate phibar / beta1
    falls below the trigger (initially rtol), residual(x) is computed.  If it
    is still above rtol the same recurrence continues and the trigger drops by
    the ratio just seen between the true residual and the estimate.  The
    iteration also stops when the first iterate is exact or at the roundoff
    floors of the recurrence (gmax/gmin >= 0.1/eps, |A| |x| eps >= beta1).
    resid is the value of the check MINRES stopped on, and is computed once
    more only after a stop without one (maxiter, exact first iterate, floors).
    So after at least one iteration the last residual call of every return
    path is on the returned x, and a caller may reuse what it computed there.

    apply_c must return a fresh array, which the recurrence overwrites;
    MINRES never writes into b or into an array it passed to apply_c.  The
    iterate x is updated in place, so residual must not keep its argument.
    """
    _STATS["minres_solves"] += 1
    eps = float(np.finfo(np.float64).eps)
    b = np.asarray(b, dtype=np.complex128)
    x = np.zeros_like(b)
    beta1 = _norm(b)
    if beta1 == 0.0:
        return x, 0, 0, 0.0
    if residual is None:
        def residual(z):
            return _norm(b - apply_c(z.copy())) / beta1
    trigger = float(rtol)
    r1 = r2 = b
    w, w2 = np.zeros_like(b), np.zeros_like(b)
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin, cs, sn = 0.0, 0.0, math.inf, -1.0, 0.0
    for itn in range(1, maxiter + 1):
        _STATS["minres_iterations"] += 1
        v = r2 * (1.0 / beta)
        y = apply_c(v)
        if itn >= 2:
            y = zaxpy(r1, y, a=-beta / oldb)
        alfa = float(np.vdot(v, y).real)
        y = zaxpy(r2, y, a=-alfa / beta)
        r1, r2 = r2, y
        oldb, beta = beta, _norm(y)
        tnorm2 += alfa ** 2 + oldb ** 2 + beta ** 2
        # Abar = const * I: the first iterate is exact
        stop = itn == 1 and beta <= 10 * eps * beta1

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar

        # w = (v - oldeps w1 - delta w2) / gamma into the buffer of w1
        w1, w2 = w2, w
        w1 *= -oldeps / gamma
        w1 = zaxpy(v, w1, a=1.0 / gamma)
        w = zaxpy(w2, w1, a=-delta / gamma)
        x = zaxpy(w, x, a=phi)

        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        stop = (stop or gmax / gmin >= 0.1 / eps
                or math.sqrt(tnorm2) * _norm(x) * eps >= beta1)
        checked = not stop and phibar <= trigger * beta1
        if checked:
            resid = residual(x)
            stop = resid <= rtol
            if not stop:
                trigger = rtol * (phibar / beta1) / resid
        if stop:
            return x, 0, itn, resid if checked else residual(x)
    return x, 1, maxiter, residual(x)


class ShiftedDiagonalPreconditioner:
    """Hermitian positive-definite approximation of |C - sigma|^{-1}.

    C - sigma = B^{-1/2} (D - sigma B) B^{-1/2} with B diagonal in physical
    space and D diagonal in Fourier space.  Replacing B by its mean wbar in
    the middle factor gives M = B^{1/2} F^{-1} R F B^{1/2}, as cheap as one FFT
    pair, where on each Fourier mode

        R = P+ / max(| |kappa| - sigma wbar|, k_min)
          + P- / max(|-|kappa| - sigma wbar|, k_min),

    P+- = (1 +- sigma.kappa / |kappa|) / 2 the projectors on the two branches
    of the symbol (at kappa = 0 they coincide and R is a scalar).  The floor
    k_min, the smallest nonzero |kappa|, keeps R bounded on the modes with a
    branch at sigma wbar and on the harmonic mode of shift (0, 0, 0).  For
    constant u, M is exactly |C - sigma|^{-1} off the floored modes.  The
    folded window solver on (C - sigma)^2 applies M^2 at sigma = target.
    """

    def __init__(self, pencil: Pencil, sigma: float = 0.0):
        grid = pencil.grid
        sym = kappa_symbols(grid.n, grid.length, pencil.spin.shift)
        kn, k_min = sym.kn, sym.k_min
        shift = sigma * float(np.mean(pencil.weight))
        r_plus = 1.0 / np.maximum(np.abs(kn - shift), k_min)
        r_minus = 1.0 / np.maximum(np.abs(kn + shift), k_min)
        # R = c + s sigma.kappa; r_plus = r_minus, so s = 0, wherever kappa = 0
        c = 0.5 * (r_plus + r_minus)[..., None]
        s = (0.5 * (r_plus - r_minus) / np.maximum(kn, k_min))[..., None]
        self.symbol = (c + s * sym.diag, s * sym.off)
        self.pencil = pencil

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply to a packed vector or to every column of a block."""
        p = self.pencil
        b_half = p.b_half[..., None]
        hat = grid_fft(p.unpack(x) * b_half, axes=SPINOR_GRID_AXES)
        out = apply_spinor_symbol(*self.symbol, hat)
        return p.pack(grid_ifft(out, axes=SPINOR_GRID_AXES) * b_half)


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


@dataclass(frozen=True)
class Cluster:
    """Consecutive window eigenvalues within CLUSTER_REL_TOL of each other:
    their window indices, mean and width, the exterior gap to the nearest
    window eigenvalue outside (None if the window holds no other), and
    whether that gap is certified by a window eigenvalue on each side."""

    members: range
    mean: float
    width: float
    gap: float | None
    certified: bool


@dataclass
class SpectrumWindow:
    """A batch of eigenpairs of one pencil sorted by eigenvalue; `iterations`
    counts the window solver's LOBPCG iterations (0 from the dense oracle).
    It owns the rule that groups its eigenvalues into clusters."""

    target: float
    count: int
    pairs: list
    u: ScalarField = field(repr=False)
    exps: ExponentTable = field(repr=False)
    iterations: int = 0

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    def clusters(self) -> list:
        """The window's clusters in ascending order: an eigenvalue joins its
        predecessor's cluster when they differ by at most CLUSTER_REL_TOL
        (1 + |eigenvalue|)."""
        lams = self.eigenvalues
        size = len(lams)
        joined = np.diff(lams) <= CLUSTER_REL_TOL * (1.0 + np.abs(lams[1:]))
        bounds = [0, *(np.flatnonzero(~joined) + 1).tolist(), size] if size else []
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            below = lams[lo] - lams[lo - 1] if lo > 0 else math.inf
            above = lams[hi] - lams[hi - 1] if hi < size else math.inf
            gap = float(min(below, above))
            out.append(Cluster(range(lo, hi), float(lams[lo:hi].mean()),
                               float(lams[hi - 1] - lams[lo]),
                               gap if gap < math.inf else None, 0 < lo and hi < size))
        return out

    def cluster_near(self, lam: float) -> Cluster:
        """The cluster holding the window eigenvalue nearest lam."""
        lams = self.eigenvalues
        if len(lams) == 0:
            raise WindowTooNarrow("empty window")
        nearest = int(np.argmin(np.abs(lams - lam)))
        return next(c for c in self.clusters() if nearest in c.members)


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
    cluster = window.cluster_near(lam)
    if cluster.gap is None:
        raise WindowTooNarrow("window holds a single cluster; no exterior gap measurable")
    size = len(cluster.members)
    if cluster.gap < gap_tol:
        kind = "indeterminate"
    elif size == 2:
        kind = "quaternionic_simple" if cluster.certified else "indeterminate"
    elif size == 1:
        kind = "unpaired_simple"
    else:
        kind = "multiple"
    return SimplicityReport(kind, size, cluster.width, cluster.gap, cluster.certified)


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
    a cheap analytic warm start for cold window solves.  Each mode's
    eigenvectors are those of its 2x2 block of K^{-1} (sigma.kappa); the
    kappa = 0 mode takes (1, 0) on both branches."""
    grid = pencil.grid
    wbar = float(np.mean(pencil.weight))
    sym = kappa_symbols(grid.n, grid.length, pencil.spin.shift)
    flat = np.concatenate([(sym.kn / wbar).ravel(), (-sym.kn / wbar).ravel()])
    order = np.argsort(np.abs(flat - sigma), kind="stable")[:count]
    j = order % grid.num_points
    s_diag, s_off = sym.s_diag.reshape(-1, 2)[j], sym.s_off.reshape(-1, 2)[j]
    blocks = np.stack([s_diag[:, 0], s_off[:, 0], s_off[:, 1], s_diag[:, 1]], axis=-1)
    _w, vecs = np.linalg.eigh(blocks.reshape(-1, 2, 2))
    vec = np.where((order < grid.num_points)[:, None], vecs[:, :, 1], vecs[:, :, 0])
    vec[sym.kn.ravel()[j] == 0] = (1.0, 0.0)
    i1, i2, i3 = (m.ravel()[j, None, None, None] for m in _integer_modes(grid.n))
    x1, x2, x3 = grid.coords()
    phase = np.exp(1j * (2.0 * np.pi / grid.length) * (i1 * x1 + i2 * x2 + i3 * x3))
    return pencil.pack(phase[..., None] * vec[:, None, None, None] * pencil.b_half[..., None])


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
    target, preconditioned by M^2 with M the Fourier-space approximation of
    |C - sigma|^{-1} (`ShiftedDiagonalPreconditioner` at sigma), so M^2 A is
    close to the identity for u close to constant; a shift-free |C|^{-1}
    cannot tell the wanted eigenvalues near sigma from their neighbours.
    A is positive semidefinite at every sigma and its smallest eigenvalues
    are exactly the squared distances to sigma, so an eigenvalue at sigma is
    a zero Ritz value and far clusters cannot alias into the window.  The block holds count + 4 columns, started from plane waves plus
    seeded noise; columns whose folded residual falls below the lock
    threshold keep their place in the Rayleigh-Ritz basis but add no search
    directions (soft locking).  The search directions [W, P] are
    orthonormalized against X and each other and then multiplied by A afresh;
    A P is never carried through that transform, whose conditioning degrades
    as the residuals shrink.  Signed eigenvalues come from a
    final Rayleigh-Ritz of C on the first `count` columns, accepted only on
    directly verified residuals of C; the window records the iterations.
    """
    spin = spin or SpinStructure()
    exps = exps or ExponentTable(3)
    pencil = Pencil(u, spin, exps)
    if not 1 <= count <= pencil.dim - 2:
        raise ValueError(f"count must be within the dimension budget, got {count}")

    _STATS["window_solves"] += 1
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
    prec = ShiftedDiagonalPreconditioner(pencil, sigma)

    def folded(Z):
        Y = pencil.apply(Z) - sigma * Z
        return pencil.apply(Y) - sigma * Y

    AX = folded(X)
    S = AS = np.zeros((pencil.dim, 0), dtype=np.complex128)
    for it in range(1, max_iter + 1):
        _STATS["lobpcg_iterations"] += 1
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
                return SpectrumWindow(sigma, count, pairs, u, exps, iterations=it)

        active = resid > lock_tol
        if not active.any():
            break
        W = prec(prec(R[:, active]))
        S = _complement_basis(X, np.hstack([W, P[:, active]]))
        AS = folded(S)

    raise ConvergenceFailure("window iteration did not converge",
                             iterations=it, residual=float(resid[:count].max()))


@dataclass
class KramersDeflation:
    """Orthogonal projector Q = I - V V^H on packed vectors, V = [chi, J chi]
    with orthonormal columns (built by `kramers_deflation`)."""

    basis: np.ndarray

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return z - self.basis @ (self.basis.conj().T @ z)


def kramers_deflation(pencil: Pencil, chi: np.ndarray) -> KramersDeflation:
    """The projector off span{chi, J chi}; J chi is orthogonal to chi for
    every chi."""
    chi = chi / np.linalg.norm(chi)
    jchi = pencil.pack(j_values(pencil.grid, pencil.spin, pencil.unpack(chi)))
    return KramersDeflation(np.column_stack([chi, jchi / np.linalg.norm(jchi)]))


def deflated_solve(pencil: Pencil, deflate: KramersDeflation, lam: float, b: np.ndarray,
                   rtol: float, maxiter: int):
    """MINRES on the correction equation Q (C - lam) Q y = b, b in range(Q),
    preconditioned by M = L L^H of `ShiftedDiagonalPreconditioner` through
    the split form: plain MINRES on

        A z = L^H b,   A = L^H Q (C - lam) Q L = S - lam G - U T U^H,

    has, in exact arithmetic, the iterates y = L z of M-preconditioned MINRES.
    With F the unitary grid FFT and V = deflate.basis, S = K^{-1/2} (sigma.kappa)
    K^{-1/2} is pointwise in Fourier space, G = K^{-1/2} F B F^{-1} K^{-1/2} is
    one FFT pair, U = [L^H V, L^H (C - lam) V] and T = [[-H, I], [I, 0]] with
    H = V^H (C - lam) V.  K^{-1/2} and S come from the cached `kappa_symbols`
    and -lam B is folded into one array per solve, so an iteration is one FFT
    pair, four pointwise products and the rank-4 term.  MINRES stops on the
    recomputed residual of the caller's system, |b - Q (C - lam) Q y|_2 <=
    rtol |b|_2.  Returns (Q y, C Q y, info, iterations, resid) of
    `minres_hermitian`, resid that recomputed relative residual of the
    returned Q y, and C Q y the application that residual made."""
    grid = pencil.grid
    sym = kappa_symbols(grid.n, grid.length, pencil.spin.shift)
    kih, s_diag, s_off = sym.kih, sym.s_diag, sym.s_off
    g = np.repeat(-lam * pencil.weight[..., None], 2, axis=-1).astype(np.complex128)
    # L and L^H with F = grid_fft / sqrt(n^3) folded into B^{1/2}
    b_lift = pencil.b_half[..., None] * np.sqrt(grid.num_points)
    b_drop = pencil.b_half[..., None] / np.sqrt(grid.num_points)

    def lift(z):
        return pencil.pack(grid_ifft(kih * pencil.unpack(z), axes=SPINOR_GRID_AXES) * b_lift)

    def drop(x):
        return pencil.pack(kih * grid_fft(pencil.unpack(x) * b_drop, axes=SPINOR_GRID_AXES))

    V = deflate.basis
    CV = pencil.apply(V) - lam * V
    H = V.conj().T @ CV
    T = np.block([[-0.5 * (H + H.conj().T), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    U = drop(np.column_stack([V, CV, b]))  # one batched FFT for U and L^H b
    U, rhs = U[:, :4], U[:, 4]
    Uh, UT = np.ascontiguousarray(U.conj().T), U @ T

    def op(z):
        zz = pencil.unpack(z)
        t = grid_ifft(kih * zz, axes=SPINOR_GRID_AXES)
        t *= g
        out = grid_fft(t, axes=SPINOR_GRID_AXES)
        out *= kih
        out += s_diag * zz
        out += s_off * zz[..., ::-1]
        out = pencil.pack(out)
        out -= UT @ (Uh @ z)
        return out

    bnorm = float(np.linalg.norm(b))
    # y and C y of the last residual check: minres_hermitian's last check is
    # on the iterate it returns, so this is the solution (zero for a zero b,
    # where it makes no iteration and no check)
    last = [np.zeros_like(b), np.zeros_like(b)]

    def residual(z):
        y = deflate(lift(z))
        cy = pencil.apply(y)
        last[:] = y, cy
        return float(np.linalg.norm(b - deflate(cy - lam * y))) / bnorm

    _z, info, iterations, resid = minres_hermitian(op, rhs, rtol=rtol, maxiter=maxiter,
                                                   residual=residual)
    return last[0], last[1], info, iterations, resid


def refine_pair(u: ScalarField, pair: EigenPair, exps: ExponentTable,
                tol: float = 1e-9, max_steps: int = 6) -> EigenPair:
    """Newton-style correction refreshing one tracked quaternionic pair.

    Each sweep solves the correction equation Q (C - lam) Q t = -Q r with Q
    the deflation off span{chi, J chi} (the same well-conditioned system the
    projected resolvent uses; raw shifted solves at the nearly singular
    Rayleigh shift are unreliable with Krylov inner solves).  Quadratically
    convergent; the caller is responsible for the cluster staying simple.
    Raises ConvergenceFailure when an inner solve fails (with its iterations
    and residual) or when max_steps sweeps leave the residual above tol
    (with the MINRES iterations of all sweeps).
    """
    _STATS["refine_pair_calls"] += 1
    pencil = Pencil(u, pair.psi.spin, exps)
    eff_tol = tol / max(1.0, float(pencil.weight.max()))

    chi = pencil.from_spinor(pair.psi)
    c_chi = pencil.apply(chi)
    iterations = 0
    for sweep in range(max_steps + 1):
        norm = np.linalg.norm(chi)
        chi, c_chi = chi / norm, c_chi / norm
        lam = float(np.vdot(chi, c_chi).real)
        resid_vec = c_chi - lam * chi
        resid = float(np.linalg.norm(resid_vec))
        if resid <= eff_tol:
            return EigenPair(lam, pencil.to_spinor(chi))
        if sweep == max_steps:
            raise ConvergenceFailure("pair refinement stalled", iterations=iterations,
                                     residual=resid)
        deflate = kramers_deflation(pencil, chi)
        b = -deflate(resid_vec)
        t, c_t, info, its, rel = deflated_solve(pencil, deflate, lam, b,
                                                0.05 * eff_tol / np.linalg.norm(b), 400)
        iterations += its
        if info != 0:
            raise ConvergenceFailure("pair refinement inner solve did not converge",
                                     iterations=its, residual=rel)
        # C (chi + t) from the application the solve's last residual check made
        chi, c_chi = chi + t, c_chi + c_t


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

    if cluster_size is None:
        base = spectrum_near(u, lam, min(16, 2 * u.grid.num_points), spin, exps)
        cluster_size = len(base.cluster_near(lam).members)

    branches = np.empty((eps_arr.size, cluster_size))
    center = lam
    for i, eps in enumerate(eps_arr):
        w = ScalarField(u.grid, u.values + eps * v.values)
        if w.min() <= 0:
            raise NonPositiveConformalFactor(f"u + {eps} v loses positivity")
        branches[i] = spectrum_near(w, center, cluster_size, spin, exps).eigenvalues
        center = float(branches[i].mean())
    seps = branches.max(axis=1) - branches.min(axis=1)
    splits = bool(np.all(np.diff(seps) > 0))
    return SplittingReport(eps_arr, branches, seps, splits)


def rigidity_probe(window: SpectrumWindow, lam: float) -> float:
    """Spread of pointwise spinor norms across a normalized eigenvalue cluster.

    Evaluates an orthonormal cluster basis plus 8 seeded random unit
    combinations and returns sup_x (max_j |phi_j(x)| - min_j |phi_j(x)|).
    Zero spread is the rigidity property; a quaternionic pair has it
    automatically.
    """
    members = window.cluster_near(lam).members
    if len(members) < 2:
        raise ValueError("rigidity probe needs a cluster of complex dimension >= 2")
    basis = [window.pairs[i].psi.values for i in members]
    rng = np.random.default_rng(2021)
    candidates = list(basis)
    for _ in range(8):
        c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        c /= np.linalg.norm(c)
        candidates.append(sum(ci * bi for ci, bi in zip(c, basis)))
    norms = np.stack([
        np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=-1)) for v in candidates
    ])
    return float((norms.max(axis=0) - norms.min(axis=0)).max())
