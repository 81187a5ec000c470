"""Spectral quantities driving every convergence certificate.

The certificates depend on the network only through the communication
matrix P, a ``graph.CommunicationMatrix``, which forms W = P' D^-1 P and the
column norms m, and whose ``route`` owns every product with P and W and
the spectra known in closed form. This module reads W and P only for
their spectra.

``SpectralData`` holds the matrix and the numbers the rate certificates
read, the smallest nonzero eigenvalue of W and the largest eigenvalue of
the metric block M - W, and, on first read, the algebraic connectivity
a(G) that only the degree/connectivity relations read: the second
eigenvalue of P, which is the graph Laplacian. Each is known in one of
three ways, its ``kind``, and each matrix takes one route, decided once:

* CLOSED_FORM: the matrix's route knows all three spectra
  (``graph.ClosedForm``, the route of a circulant P: the Laplacian of
  every circulant, cycle and complete graph). They are the eigenvalues of
  the exact W to a few ulps; no W is formed, so no rounding of a stored W
  (whose row sums a syrk leaves near 4e-15, not 0, shifting lam_2 by
  2.2e-9 relative at n=1600) enters them;
* EXACT: below ``certified_spectra_are_cheaper``'s size crossover, or where
  the certified path gives up, ``eigvalsh``;
* CERTIFIED: above the crossover, a bound on the safe side, which is all
  the certificates need: the contraction gain grows with lam_2(W) and
  shrinks with lam_max(M - W), and both sublinear envelopes grow as lam_2
  falls or lam_max rises. Lanczos with full reorthogonalization estimates
  the scalar from products with P and P' alone (``_ritz_ends``), so W's
  and M - W's searches run before W is formed (``_certified``);
  one Cholesky factorization of a shifted matrix then proves the bound by
  Sylvester's law of inertia, rounding included (``_allowance``): one
  routine, ``_proved``, for lam_2(W), lam_max(M - W) and a(G) alike. The
  bound lies 1e-10 of the Ritz value plus
  that allowance from the eigenvalue: 1.0-1.2e-10 relative at Erdos-Renyi
  n=800, p=0.05, and 1.0-2.1e-10 at n=1600, p=0.0125. The PSD floors need
  no factorization: lam_min(W) is 0 exactly, as W = B'B is a Gram matrix
  and W 1 = 0 (P 1 = 0), and M - W's is its Gershgorin floor (``_gershgorin``).
  A matrix falls back to ``eigvalsh`` when Lanczos has not converged
  within LANCZOS_STEPS, when neither back-off factors, when the bound would
  lie further than BOUND_RTOL from the Ritz value (small lam_2 next to a
  large trace, as on long paths and sparse regular graphs: lam_2(W) of
  path n=300 is 4e-9; Lanczos stops as soon as the trace alone rules the
  bound out), or, for M - W, when the discs reach below the PSD floor.

The search and the proof are apart: ``SpectralData.witness`` records the
Ritz values each CERTIFIED scalar was proved from, (theta_2, top) of W and
theta_max of M - W, and ``run`` writes them on the trace's first line.
Given a ``Witness``, ``compute_spectral_data`` proves each scalar from it
and runs no Lanczos; the back-off loop, the allowance, the tightness test
and Gershgorin run unchanged, so a search's own witness gives
that search's bits. A witness value that is not finite and positive (or a
top below theta_2), or that proves nothing, sends its scalar back to the
search and from there to ``eigvalsh``. Every bound is proven again, so a
witness can never make a bound false; it can make one looser, as a lowered
theta_2 or a raised theta_max still proves.

Where the route knows no spectrum W is the only dense matrix this module
reads; where it knows them, none. Every other matrix that needs
eigenvalues or a factor (M - W and the Laplacian for ``eigvalsh``, and the
three certificate matrices for Cholesky) is written into W's upper
triangle by ``_written_below``, as W plus p, as 0 - W, or as the Laplacian
plus p, each with its own diagonal. Both solvers read it as the lower
triangle of the F-contiguous W.T, which is all they read, and W's upper
triangle is restored from its lower one after; the M - W certificate, W
plus a diagonal, writes and restores only the diagonal. A certificate
factors with ``cholesky_lo``, the gufunc of numpy.linalg._umath_linalg
that ``np.linalg.cholesky`` wraps: the same LAPACK dpotrf, so the same
factor. It writes into one column-major n x n buffer that
``compute_spectral_data`` allocates once per call, when it certifies and
once W is formed, and that every certificate and back-off retry of the
call shares; a(G) allocates its own on first read, and no buffer outlives
its call. ``np.linalg.cholesky`` would also copy each factor, with a
stride, into a fresh C-ordered array whose pages fault on first touch. A
matrix that does not factor comes back NaN-filled, not as ``LinAlgError``,
and its norm is then not finite. Each certificate pays for its Cholesky
and one pass over the factor, made absolute in place for its norms. So
M - W is never stored (its forms are sum_i m_i |x_i|^2 - x' W x, see
``analysis._metric_form``), and no n x n Laplacian is built. Above the
product crossover a run on a graph that is not circulant holds at most
three dense n x n float arrays at once: W plus at most two transients.
A certified call runs its searches first, and their Lanczos basis (at
most LANCZOS_STEPS x n, a third of one n x n array at n=600) is freed
before D^(-1/2) P is written and W formed; the factor buffer and
Cholesky's copy of a certificate's matrix come after, once D^(-1/2) P is
freed. So a certified call's traced peak is two n x n arrays and a sliver
(2.06 at Erdos-Renyi n=600, searched or proved from a witness; Cholesky's
copy is allocated outside numpy). The other transients are ``eigvalsh``'s
copy of W, M - W or the Laplacian, or, where the route's ``w_pinv`` takes
the dense solve, W + 11'/n and the solve's copy of it. Where it takes
conjugate gradients over P's slots, W alone outlives the spectra. A
circulant run holds none: its route takes W products and W^+ by FFT.
Below the product crossover the kept P adds one. ``run`` and ``check``
never read a(G), so the Laplacian is written into W only for ``spectra``
and ``certify``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import CertificateFailedError, DegenerateSpectrumError, EigNoConvergenceError
from .graph import CommunicationMatrix

PSD_FLOOR = -1e-10  # smallest eigenvalue the PSD certificates admit
_SQUARE_ROWS = 64  # rows per block of W's upper triangle written or restored; only its diagonal square is masked
_U = np.finfo(float).eps / 2.0  # unit roundoff

EXACT, CLOSED_FORM, CERTIFIED = "exact", "closed form", "certified bound"
CERTIFY_MIN_N = 600  # the size crossover of ``certified_spectra_are_cheaper``
BACKOFFS = (1e-10, 3e-10)  # relative back-off of the shift from the Ritz value: first try, retry
BOUND_RTOL = 5e-10  # a certified bound lies this close to its Ritz value, or the eigenvalue is computed instead
LANCZOS_STEPS = 200  # step cap; the basis is LANCZOS_STEPS x n, a quarter of W at n=800
LANCZOS_RTOL = 1e-12  # converged when the Ritz value's error estimate is below this, relative


@dataclass(frozen=True)
class Spectrum:
    """The ends of a symmetric matrix's spectrum, and how they are known.

    EXACT and CLOSED_FORM carry every eigenvalue, ascending, in
    ``eigenvalues``. CERTIFIED carries none: ``min`` is W's smallest
    eigenvalue, 0, and a proven lower bound on M - W's; ``max`` is a proven
    upper bound on the largest for M - W and the largest Ritz value for W,
    where it only scales a residual test (see ``analysis.dual_reference``).
    """

    min: float
    max: float
    kind: str
    eigenvalues: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def of(cls, eigenvalues: np.ndarray, kind: str) -> Spectrum:
        return cls(min=float(eigenvalues[0]), max=float(eigenvalues[-1]), kind=kind, eigenvalues=eigenvalues)


@dataclass(frozen=True)
class Witness:
    """The Ritz values CERTIFIED scalars are proved from: (theta_2, top) of W, and theta_max of M - W.

    A field is None where its scalar took the EXACT or CLOSED_FORM route.
    """

    gram_ritz: tuple[float, float] | None = None
    metric_ritz: float | None = None


@dataclass(frozen=True)
class SpectralData:
    """The communication matrix and the spectra of W and M - W; M - W itself is not stored (see the module docstring).

    ``min_pos_eig_gram`` has ``eig_gram.kind`` and ``max_eig_metric`` has
    ``eig_metric.kind``; a CERTIFIED one is a lower and an upper bound, and
    ``witness`` holds the Ritz values it was proved from.
    """

    comm: CommunicationMatrix = field(repr=False)
    eig_gram: Spectrum = field(repr=False)
    eig_metric: Spectrum = field(repr=False)  # of M - W
    min_pos_eig_gram: float
    witness: Witness

    @property
    def max_eig_metric(self) -> float:
        return self.eig_metric.max

    @cached_property
    def connectivity(self) -> tuple[float, str]:
        """(a(G), its kind): the second eigenvalue of P, the Laplacian, a lower bound on it when CERTIFIED.

        Read from the route's closed-form spectra where it has them; else the
        Laplacian is written into W's upper triangle for its certificate or
        ``eigvalsh``, so no n x n Laplacian is built.
        """
        comm = self.comm
        closed = comm.route.spectra
        if closed is not None:
            return float(closed.laplacian[1]), CLOSED_FORM
        diag = comm.values[comm.rows == comm.cols]
        if certified_spectra_are_cheaper(comm.n):
            ends = _ritz_ends(comm.route.p, comm.n, lowest=True, deflate=True, trace=math.fsum(diag.tolist()))
            if ends is not None:
                found = _proved(comm.W, _factor_buffer(comm.n), diag, ends[0], False, p=ends[1] / comm.n, lap=comm)
                if found is not None:
                    return found, CERTIFIED
        with _written_below(comm.W, diag, lap=comm) as A:
            return float(_eigvalsh(A)[1]), EXACT

    @property
    def algebraic_connectivity(self) -> float:
        return self.connectivity[0]


def certified_spectra_are_cheaper(n: int) -> bool:
    """Whether Lanczos and one Cholesky per scalar cost less than a full ``eigvalsh``: n >= CERTIFY_MIN_N.

    ``eigvalsh`` costs O(n^3) and a Cholesky about a sixth of that, while
    Lanczos costs 20-140 steps of O(n + |E|) products and O(k n)
    reorthogonalization, which does not shrink with n. The measured
    break-even lies below CERTIFY_MIN_N (README, Performance), which stays
    put because lowering it moves the route, and so the printed kinds and
    the bits, of every graph between the old and the new value, and Lanczos
    needs more steps on some graphs (sparse regular ones).
    """
    return n >= CERTIFY_MIN_N


def _eigvalsh(S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix in S's lower triangle, by ``np.linalg.eigvalsh``.

    Determinism: one matrix gives the same bits on every call, but
    ``eigvalsh`` reads the sign of zero entries (LAPACK's Householder step
    takes the sign of its pivot, and -0.0 is negative). Two matrices that
    compare equal entry for entry can differ in the last digits: on
    Erdos-Renyi n=1600, p=0.0125, lam_max of M - W was 1295.4907051261139
    built as diag(m) - W and 1295.4907051261148 built as -W plus the
    diagonal, which moved ``c = auto`` by one ulp and a replay by 2.98e-8.
    Traces are compared across code changes at a fixed c.
    """
    try:
        return np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise EigNoConvergenceError(str(exc)) from exc


def _each_above(W: np.ndarray, fn) -> None:
    """fn(rows, cols, where) over W's strict upper triangle, by blocks of _SQUARE_ROWS rows.

    Each block's square on the diagonal goes with a mask of its strict upper
    triangle; the rest of the block's rows lies wholly above the diagonal and
    goes whole (where=True), so numpy's unmasked loops cover all but a sliver.
    """
    n = W.shape[0]
    above = ~np.tri(_SQUARE_ROWS, dtype=bool)
    for lo in range(0, n, _SQUARE_ROWS):
        hi = min(n, lo + _SQUARE_ROWS)
        fn(slice(lo, hi), slice(lo, hi), above[: hi - lo, : hi - lo])
        fn(slice(lo, hi), slice(hi, n), True)


@contextmanager
def _written_below(
    W: np.ndarray, diag: np.ndarray, p: float = 0.0, *, negate: bool = False, lap: CommunicationMatrix | None = None
):
    """W.T, whose lower triangle holds a symmetric matrix A while the block runs; W comes back bit for bit after.

    A has ``diag`` on its diagonal and, below it, W's entries plus p; with
    ``negate``, 0 - W's entries, so that a zero entry stays +0, whose sign
    ``eigvalsh`` reads; with ``lap``, that Laplacian's entries plus p. They
    are written into W's upper triangle, the lower one of W.T, which is
    F-contiguous: ``np.linalg.eigvalsh`` and the Cholesky kernel of
    ``_factor_norm`` copy it into LAPACK's column-major order column by
    column (a C-ordered matrix would cost a strided copy), and they read only that
    triangle, so W's strict lower triangle stays intact while they run. W
    is then restored: its diagonal from a saved copy and, if anything off
    the diagonal was written, its strict upper triangle from the lower one
    (W is a syrk, exactly symmetric).
    """
    saved = W.diagonal().copy()
    off_diagonal = lap is not None or negate or p != 0.0

    def write(rows, cols, where):
        block = W[rows, cols]
        if lap is not None:
            np.copyto(block, p, where=where)
        elif negate:
            np.subtract(0.0, block, out=block, where=where)
        else:
            np.add(block, p, out=block, where=where)

    def restore(rows, cols, where):
        np.copyto(W[rows, cols], W[cols, rows].T, where=where)

    try:
        if off_diagonal:
            _each_above(W, write)
        if lap is not None:
            rows, cols = lap.rows, lap.cols
            strict = rows < cols
            W[rows[strict], cols[strict]] += lap.values[strict]
        np.fill_diagonal(W, diag)
        yield W.T
    finally:
        if off_diagonal:
            _each_above(W, restore)
        np.fill_diagonal(W, saved)


# --- certified scalars ---------------------------------------------------------


def _ritz_ends(apply, n: int, lowest: bool, deflate: bool, trace: float | None = None) -> tuple[float, float] | None:
    """(smallest, largest) Ritz value of Lanczos on ``apply``, once the wanted end has converged; None if it has not.

    Every new vector is reorthogonalized against the whole basis, twice, and
    with ``deflate`` kept orthogonal to 1, so the run sees the matrix on 1's
    complement. The start vector is seeded, so a matrix gives the same
    values on every run. Every tenth step the tridiagonal T gives the wanted
    Ritz value theta and the gap g to its neighbor, and one step of inverse
    iteration with T the last entry of theta's eigenvector, hence its
    residual r; theta has converged when r min(1, r / g), the usual bound on
    |theta - lam|, is below LANCZOS_RTOL |theta|.

    With the matrix's ``trace``, the lowest end gives up as soon as
    ``_proved`` could no longer prove a bound from it: its
    allowance holds the term 2u (trace + top - n theta), which needs no
    factor, and the bound must lie within BOUND_RTOL theta. As the run goes
    on theta only falls and top only rises (Cauchy interlacing), so once
    that term exceeds BOUND_RTOL theta it does for good.
    """
    steps = min(LANCZOS_STEPS, n - 1 if deflate else n)
    V = np.empty((steps, n))
    alpha, beta = np.zeros(steps), np.zeros(steps)
    w = np.random.default_rng(0).standard_normal(n)
    for k in range(steps):
        if deflate:
            w -= w.mean()
        V[k] = w / np.linalg.norm(w)
        w = apply(V[k])
        alpha[k] = V[k] @ w
        basis = V[: k + 1]
        for _ in range(2):
            w -= (basis @ w) @ basis
        if deflate:
            w -= w.mean()
        beta[k] = np.linalg.norm(w)
        exhausted = beta[k] <= n * _U * abs(alpha[k]) or k + 1 == steps
        if (k + 1) % 10 and not exhausted:
            continue
        T = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        theta = np.linalg.eigvalsh(T)
        if trace is not None and 2.0 * _U * (trace + theta[-1] - n * theta[0]) > BOUND_RTOL * theta[0]:
            return None
        end, near = (0, 1) if lowest else (-1, -2)
        # the wanted Ritz vector by one step of inverse iteration just past
        # theta: `eigh` would page in LAPACK code (1.2 MB resident) that no
        # other path runs, while `eigvalsh` serves the exact path too
        shift = theta[end] - (1 if lowest else -1) * 1e-13 * (abs(theta[0]) + abs(theta[-1]))
        s = np.linalg.solve(T - shift * np.eye(k + 1), np.ones(k + 1))
        r = float(beta[k] * abs(s[-1]) / np.linalg.norm(s))
        gap = float(abs(theta[near] - theta[end])) if k else 0.0
        if (r if gap <= r else r * r / gap) <= LANCZOS_RTOL * abs(theta[end]):
            return float(theta[0]), float(theta[-1])
        if exhausted:
            return None
    return None


def _factor_buffer(n: int) -> np.ndarray:
    """An n x n column-major buffer for the Cholesky factors of ``_factor_norm``; each spectral call allocates its own."""
    return np.empty((n, n), order="F")


def _factor_norm(
    W: np.ndarray, F: np.ndarray, diag: np.ndarray, p: float, lap: CommunicationMatrix | None = None
) -> float | None:
    """|R|_1 |R|_inf of the Cholesky factor R of the matrix ``_written_below`` writes into W; None if it does not factor.

    The factor R' is written into F, a column-major n x n buffer (see
    ``_factor_buffer``) that every certificate of one spectral call reuses,
    by numpy's own gufunc ``cholesky_lo``: the LAPACK dpotrf kernel that
    ``np.linalg.cholesky`` wraps, so the factor is bit-identical, but with
    no fresh C-ordered result to copy it into with a stride. The kernel
    zeroes F's upper triangle, so nothing of an earlier factor is read. A
    matrix that does not factor comes back NaN-filled, with the invalid
    flag raised, in place of ``LinAlgError``, hence the ``errstate``. F's
    entries are then made absolute in place, and its row and column sums
    are the two norms. A non-finite norm (a failed factor included) does
    not count.
    """
    with _written_below(W, diag, p, lap=lap) as A:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
            _umath_linalg.cholesky_lo(A, out=F, signature="d->d")  # lower, F = R'
    np.abs(F, out=F)
    norm = float(F.sum(axis=1).max()) * float(F.sum(axis=0).max())
    return norm if math.isfinite(norm) else None


def _allowance(norm: float, diag: np.ndarray, q) -> float:
    """rho such that A's factoring proves A + rho I >= 0 for A = H + p 11' + diag(q), which was formed as ``diag`` and the rest.

    ``norm`` is |R|_1 |R|_inf of the computed factor R. It satisfies
    R'R = A' + E for the formed A', with |E| <= gamma_(n+1) |R'||R|
    (Higham, *Accuracy and Stability of Numerical Algorithms*, Thm 10.3, for
    any order of the inner products; Rump, "Verification of positive
    definiteness", BIT 46, 2006, makes the same argument with tr(A) in place
    of |R|_1 |R|_inf, 4-20 times larger here). So
    |E|_2 <= gamma_(n+1) |R|_2^2 <= gamma_(n+1) |R|_1 |R|_inf, with room for
    the rounding of the sums behind the norms. Forming A' rounds each entry
    once and the diagonal's q once more: |A' - A|_2 <= u |A'|_F + u max |q|,
    with |A'|_F <= (1 + 2 gamma) tr(A') since A' + E is PSD.
    """
    n1 = (diag.size + 1) * _U
    gamma = n1 / (1.0 - n1)
    return gamma * (1.0 + 2.0 * gamma) * norm + 2.0 * _U * (math.fsum(diag.tolist()) + float(np.max(np.abs(q))))


def _proved(W, F, diag, theta: float, upper: bool, p: float = 0.0, m=0.0, lap: CommunicationMatrix | None = None) -> float | None:
    """The bound proved from the Ritz value theta: a lower one on lam_2(H), or with ``upper`` an upper one on lam_max(M - W).

    Lower: H is W, or with ``lap`` that Laplacian, with diagonal ``diag``,
    and p = top / n for H's largest Ritz value top. s = theta (1 - back-off).
    If H + p 11' - s I factors, H + p 11' - sigma I >= 0 for
    sigma = s - rho (``_allowance``), and for every x orthogonal to 1,
    x' H x >= sigma |x|^2, so lam_2(H) >= sigma by Courant-Fischer.

    Upper: ``diag`` is W's diagonal and m is M's. s = theta (1 + back-off).
    If s I - (M - W) = W + diag(s - m), written in place, factors,
    tau = s + rho bounds lam_max(M - W).

    Each bound is rounded one ulp further from theta. None if no back-off
    factors, or the bound lies further than BOUND_RTOL theta from theta.
    """
    sign = 1.0 if upper else -1.0
    for backoff in BACKOFFS:
        s = theta * (1.0 + sign * backoff)
        q = s - m if upper else p - s
        shifted = diag + q
        norm = _factor_norm(W, F, shifted, p, lap)
        if norm is not None:
            bound = float(np.nextafter(s + sign * _allowance(norm, shifted, q), sign * np.inf))
            limit = theta * (1.0 + sign * BOUND_RTOL)
            return bound if (bound <= limit if upper else bound >= limit) else None
    return None


def _gershgorin(comm: CommunicationMatrix) -> tuple[float, float]:
    """(floor, ceiling): Gershgorin bounds, with no dense array, below every eigenvalue of M - W and above every one of W.

    Row i's disc of M - W reaches down to m_i - W_ii - sum_(j != i) |W_ij|
    >= m_i - R_i, and W's up to at most R_i, where R = |P|' D^-1 |P| 1 >= |W| 1
    entrywise and W_ii >= 0. The sums behind m and R have at most
    2 |N| + 2 terms, and W is a syrk of at most n terms per entry, so
    slack = (n + 2 max |N| + 4) u, relative to m + R, covers their rounding.
    """
    a = np.abs(comm.values)
    y = np.add.reduceat(a, comm.starts) / comm.nbhd_sizes
    R = np.bincount(comm.cols, weights=a * y[comm.rows], minlength=comm.n)
    slack = (comm.n + 2.0 * float(comm.nbhd_sizes.max()) + 4.0) * _U
    m = comm.col_norms_sq
    return float(np.min(m - R - slack * (m + R))), float(R.max()) * (1.0 + slack)


def _metric_spectrum(comm: CommunicationMatrix) -> Spectrum:
    """M - W's spectrum: the route's closed form where it has one, else ``eigvalsh`` of diag(m) - W written as 0 - W into W's upper triangle."""
    closed = comm.route.spectra
    if closed is not None:
        return Spectrum.of(closed.metric, CLOSED_FORM)
    W = comm.W
    with _written_below(W, (0.0 - W.diagonal()) + comm.col_norms_sq, negate=True) as A:
        return Spectrum.of(_eigvalsh(A), EXACT)


def _certified(comm: CommunicationMatrix, witness: Witness):
    """(W's ends, sigma <= lam_2(W), (theta_2, top)) and (M - W's ends, theta_max); each None where ``eigvalsh`` decides.

    Lanczos on 1's complement gives theta_2 >= lam_2(W) and top, W's largest
    Ritz value, and Lanczos on M - W gives theta_max <= lam_max(M - W);
    ``_proved`` proves sigma and tau from them. Each scalar takes one step:
    its ``witness`` field first where it is plausible, 0 < theta_2 <= top
    with top in [max_i W_ii, the Gershgorin ceiling] where every honest top
    lies, and 0 < theta_max < inf; else, or if the witness proves nothing,
    its search, run at most once. A search that gives up sends its scalar
    to ``eigvalsh``.

    The order is: the searches that no ``witness`` field stands in for,
    then D^(-1/2) P and W (the first read of ``comm.W``), then the factor
    buffer. The searches read only P's slots: W's first, then M - W's, only
    where its Gershgorin floor is at least PSD_FLOOR (below it only a full
    spectrum can tell). W's search reads tr W = sum_i m_i / |N(i)| from the
    slots (P is symmetric, so m_i is also row i's squared norm), as W is not
    formed yet; the two sums differed by at most 2.3e-16, relative, on
    Erdos-Renyi n=600, 800 and 1600, seeds 1-5. So the Lanczos basis is
    freed before D^(-1/2) P is written, and D^(-1/2) P before the factor
    buffer is allocated: W and at most one of them at once, a traced peak
    of 2.06 n x n at Erdos-Renyi n=600, searched or proved from a witness.
    Only a witness that proves nothing searches after W is formed, its
    basis next to W and the buffer. lam_min(W) is 0, and M - W's floor its
    Gershgorin floor.
    """
    n, m = comm.n, comm.col_norms_sq
    floor, ceiling = _gershgorin(comm)
    admitted = floor >= PSD_FLOOR

    def gram_search():
        trace = math.fsum((m / comm.nbhd_sizes).tolist())
        return _ritz_ends(comm.w_by_products, n, lowest=True, deflate=True, trace=trace)

    def metric_search():
        ends = _ritz_ends(lambda v: m * v - comm.w_by_products(v), n, lowest=False, deflate=False)
        return None if ends is None else ends[1]

    g, t = witness.gram_ritz, witness.metric_ritz
    wanted = ((gram_search, g is None), (metric_search, admitted and t is None))
    ritz = {search: search() for search, needed in wanted if needed}  # before W is formed
    W, F = comm.W, _factor_buffer(n)  # F holds both certificates' factors, freed on return
    diag = W.diagonal().copy()

    def gram(given):
        theta, top = given
        sigma = _proved(W, F, diag, theta, False, p=top / n)
        return None if sigma is None else (Spectrum(min=0.0, max=top, kind=CERTIFIED), sigma, (theta, top))

    def metric(theta):
        tau = _proved(W, F, diag, theta, True, m=m)
        return None if tau is None else (Spectrum(min=floor, max=tau, kind=CERTIFIED), theta)

    def step(prove, given, plausible: bool, search):
        """prove(given) where ``plausible``, else, or if that proves nothing, prove(the search's); None if neither proves."""
        found = prove(given) if plausible else None
        if found is None:
            ends = ritz[search] if search in ritz else search()
            found = None if ends is None else prove(ends)
        return found

    gram_plausible = g is not None and 0.0 < g[0] <= g[1] and float(diag.max()) <= g[1] <= ceiling
    return (
        step(gram, g, gram_plausible, gram_search),
        step(metric, t, t is not None and 0.0 < t < math.inf, metric_search) if admitted else None,
    )


def compute_spectral_data(comm: CommunicationMatrix, witness: Witness = Witness()) -> SpectralData:
    """W's and M - W's spectra; a CERTIFIED scalar is proved from ``witness`` where it can be, and searched for otherwise.

    Where the matrix's route knows the spectra in closed form, they are
    read from it and no W is formed.
    """
    closed = comm.route.spectra
    certify = closed is None and certified_spectra_are_cheaper(comm.n)
    gram, metric = _certified(comm, witness) if certify else (None, None)
    if gram is None:
        eig_gram = Spectrum.of(_eigvalsh(comm.W), EXACT) if closed is None else Spectrum.of(closed.gram, CLOSED_FORM)
        # null(W) = null(P) = span{1} on a connected graph, so lam_min is
        # the second eigenvalue; long paths have lam_2 below 1e-9 lam_max
        gram = eig_gram, float(eig_gram.eigenvalues[1]), None
    eig_gram, min_pos, gram_ritz = gram
    if not min_pos > comm.n * np.finfo(float).eps * eig_gram.max:  # nan included
        raise DegenerateSpectrumError(f"second eigenvalue {min_pos:.3e} of P' D^-1 P is numerically zero")

    eig_metric, metric_ritz = metric or (_metric_spectrum(comm), None)
    return SpectralData(
        comm=comm,
        eig_gram=eig_gram,
        eig_metric=eig_metric,
        min_pos_eig_gram=min_pos,
        witness=Witness(gram_ritz=gram_ritz, metric_ritz=metric_ritz),
    )


def psd_certificates(sd: SpectralData) -> None:
    """Certify that gram and the metric block M - W are PSD.

    The smallest eigenvalue of each matrix, or its certified lower bound,
    must be >= PSD_FLOOR = -1e-10. Raises CertificateFailedError naming the
    offending value otherwise.
    """
    for name, spectrum in (("gram", sd.eig_gram), ("metric_block", sd.eig_metric)):
        if spectrum.min < PSD_FLOOR:
            bound = " (a certified lower bound)" if spectrum.kind == CERTIFIED else ""
            raise CertificateFailedError(f"min eigenvalue of {name} is {spectrum.min:.3e}{bound} < -1e-10")
