"""Spectral quantities driving every convergence certificate.

The certificates depend on the network only through the communication
matrix P, a ``graph.CommunicationMatrix``, which forms W = P' D^-1 P, the
column norms m and a circulant P's Fourier symbol, and owns every product
with P and W. This module reads W, P and the symbol only for their spectra.

``SpectralData`` holds the matrix and the numbers the rate certificates
read, the smallest nonzero eigenvalue of W and the largest eigenvalue of
the metric block M - W, and, on first read, the algebraic connectivity
a(G) that only the degree/connectivity relations read: the second
eigenvalue of P, which is the graph Laplacian. Each is known in one of
three ways, its ``kind``, and each matrix takes one route, decided once:

* CLOSED_FORM: P is circulant (``CommunicationMatrix.circulant``, read
  from its slots: the Laplacian of every circulant, cycle and complete
  graph). Then D = |N(0)| I, so W = P^2 / |N(0)| and M - W = m_0 I - W
  are circulant too, and all three spectra come from P's Fourier symbol
  (``CommunicationMatrix.symbol``, sums of sin^2 terms >= 0 over P's first
  row on the slots): lam(P) for a(G), lam(P)^2 / |N(0)| for W (its
  ``gram_symbol``) and m_0 - lam(W) for M - W. They are the eigenvalues of
  the exact W to a few ulps; no W is formed, so no rounding of a stored W
  (whose row sums a syrk leaves near 4e-15, not 0, shifting lam_2 by
  2.2e-9 relative at n=1600) enters them;
* EXACT: below ``certified_spectra_are_cheaper``'s size crossover, or where
  the certified path gives up, ``eigvalsh``;
* CERTIFIED: above the crossover, a bound on the safe side, which is all
  the certificates need: the contraction gain grows with lam_2(W) and
  shrinks with lam_max(M - W), and both sublinear envelopes grow as lam_2
  falls or lam_max rises. Lanczos with full reorthogonalization estimates
  the scalar from products with P and P' alone (``_ritz_ends``); one
  Cholesky factorization then proves the bound by Sylvester's law of
  inertia (``_certified_second``, ``_certified_metric``), rounding
  included (``_allowance``). The bound lies 1e-10 of the Ritz value plus
  that allowance from the eigenvalue: 1.0-1.2e-10 relative at Erdos-Renyi
  n=800, p=0.05, and 1.0-2.1e-10 at n=1600, p=0.0125. The PSD floors need
  no further factorization: Kato-Temple for W, Gershgorin discs for M - W.
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
and runs no Lanczos; the back-off loop, the allowance, the tightness test,
Kato-Temple and Gershgorin run unchanged, so a search's own witness gives
that search's bits. A witness value that is not finite and positive (or a
top below theta_2), or that proves nothing, sends its scalar back to the
search and from there to ``eigvalsh``. Every bound is proven again, so a
witness can never make a bound false; it can make one looser, as a lowered
theta_2 or a raised theta_max still proves.

Off the circulant family W is the only dense matrix this module reads; on
it, none. Every other matrix that needs eigenvalues or a factor (M - W
and the Laplacian for ``eigvalsh``, and the three certificate matrices for
Cholesky) is written into W's upper triangle by ``_written_below``, as W
plus p, as 0 - W, or as the Laplacian plus p, each with its own diagonal.
Both solvers read it as the lower triangle of the F-contiguous W.T, which
is all they read, and W's upper triangle is restored from its lower one
after; the M - W certificate, W plus a diagonal, writes and restores only
the diagonal. A certificate factors with ``cholesky_lo``, the gufunc of
numpy.linalg._umath_linalg that ``np.linalg.cholesky`` wraps: the same
LAPACK dpotrf, so the same factor. It writes into one column-major n x n
buffer that ``compute_spectral_data`` allocates once per call, when it
certifies, and that every certificate and back-off retry of the call
shares; a(G) allocates its own on first read, and no buffer outlives its
call. ``np.linalg.cholesky`` would also copy each factor, with a stride,
into a fresh C-ordered array whose pages fault on first touch: at
Erdos-Renyi n=800, p=0.05 it took 18 ms where the kernel takes 10, at
n=1600, p=0.0125 104 ms against 70-74 (one thread, best of 15).
A matrix that does not factor comes back NaN-filled, not as
``LinAlgError``, and its norm is then not finite. Each certificate pays for
its Cholesky and one pass over the factor, made absolute in place for its
norms. So M - W is never stored (its forms are sum_i m_i |x_i|^2 - x' W x,
see ``analysis._metric_form``), and no n x n Laplacian is built. Above the
product crossover a run on a graph that is not circulant holds at most
three dense n x n float arrays at once: W plus at most two transients,
which are D^(-1/2) P while W is formed, ``eigvalsh``'s copy of W, M - W or
the Laplacian, the factor buffer and Cholesky's copy of a certificate's
matrix, or, where ``CommunicationMatrix.w_pinv`` takes the dense solve,
W + 11'/n and the solve's copy of it. Where it takes conjugate
gradients over P's slots, W alone outlives the spectra. A circulant run
holds none: its W products and W^+ run by FFT on the symbol. Below
the product crossover the kept P adds one. ``run`` and ``check`` never read
a(G), so the Laplacian is written into W only for ``spectra`` and
``certify``.
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
    ``eigenvalues``. CERTIFIED carries none: ``min`` is a proven lower bound
    on the smallest eigenvalue, and ``max`` is a proven upper bound on the
    largest for M - W and the largest Ritz value for W, where it only scales
    a residual test (see ``analysis.dual_reference``).
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
    max_eig_metric: float
    witness: Witness

    @cached_property
    def connectivity(self) -> tuple[float, str]:
        """(a(G), its kind): the second eigenvalue of P, the Laplacian, a lower bound on it when CERTIFIED.

        A circulant Laplacian reads it from its symbol; any other is written
        into W's upper triangle for its certificate or ``eigvalsh``, so no
        n x n Laplacian is built.
        """
        comm = self.comm
        if comm.circulant:
            return float(_unfolded(comm.symbol, comm.n)[1]), CLOSED_FORM
        diag = comm.values[comm.rows == comm.cols]
        if certified_spectra_are_cheaper(comm.n):
            found = _certified_second(comm.p, comm.W, _factor_buffer(comm.n), diag, comm)
            if found is not None:
                return found[0], CERTIFIED
        with _written_below(comm.W, diag, lap=comm) as A:
            return float(_eigvalsh(A)[1]), EXACT

    @property
    def algebraic_connectivity(self) -> float:
        return self.connectivity[0]


def certified_spectra_are_cheaper(n: int) -> bool:
    """Whether Lanczos and one Cholesky per scalar cost less than a full ``eigvalsh``: n >= CERTIFY_MIN_N.

    ``eigvalsh`` costs about 1e-10 n^3 s and a Cholesky about a sixth of
    that, while Lanczos costs 20-140 steps of O(n + |E|) products and O(k n)
    reorthogonalization, which does not shrink with n. Fitted to one-thread
    timings of all three scalars, certified against ``eigvalsh``, on
    Erdos-Renyi p=0.05, seed 1 (the two interleaved, best of 10): 54
    against 37 ms at n=400, 49 against 61 ms at n=500, 59 against 87 ms at
    n=600, 92 against 208 ms at n=800; at n=1600, p=0.0125, 396 against
    1547 ms. The break-even lies near n=450: there the certified route won
    on seeds 1-3, at n=400 on one of them and at n=500 on two. The
    crossover sits above it, as Lanczos needs more steps on some graphs.
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


def _unfolded(half: np.ndarray, n: int) -> np.ndarray:
    """Every eigenvalue, ascending, of an n x n symmetric circulant from its symbol at k = 0..n/2: lam_(n-k) = lam_k."""
    return np.sort(np.concatenate((half, half[1 : (n + 1) // 2])))


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
    column (a C-ordered matrix costs a strided copy: the kernel took 12.1
    against 10.4 ms at Erdos-Renyi n=800), and they read only that
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
    ``_certified_second`` could no longer prove a bound from it: its
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


def _certified_second(
    apply,
    W: np.ndarray,
    F: np.ndarray,
    diag: np.ndarray,
    lap: CommunicationMatrix | None = None,
    witness: tuple[float, float] | None = None,
    ceiling: float = math.inf,
):
    """(sigma, (theta, top)): a proven lower bound on the second eigenvalue of H, whose null space holds 1, and its witness.

    H is W or, with ``lap``, that Laplacian; ``apply`` is its product,
    ``diag`` its diagonal and F the buffer its factors go to. Lanczos on
    1's complement gives theta >= lam_2 and top, H's largest Ritz value. A
    ``witness`` (theta, top) recorded by an earlier search is tried first,
    if 0 < theta <= top and top lies in [max_i H_ii, ``ceiling``], an upper
    bound on lam_max(H): every honest top does, since max_i H_ii <=
    lam_max(H). Lanczos runs only if the witness is absent, outside those
    bounds or proves nothing. None if
    Lanczos has not converged or gave up on the trace term, or its values
    prove nothing (``_second_from``).
    """
    if witness is not None and 0.0 < witness[0] <= witness[1] and float(diag.max()) <= witness[1] <= ceiling:
        found = _second_from(W, F, diag, lap, *witness)
        if found is not None:
            return found
    ends = _ritz_ends(apply, W.shape[0], lowest=True, deflate=True, trace=math.fsum(diag.tolist()))
    return None if ends is None else _second_from(W, F, diag, lap, *ends)


def _second_from(W: np.ndarray, F: np.ndarray, diag: np.ndarray, lap: CommunicationMatrix | None, theta: float, top: float):
    """(sigma, (theta, top)) proved from the Ritz values theta and top of H; None if no back-off factors, or sigma is loose.

    s = theta (1 - back-off). If H + p 11' - s I with p = top / n factors,
    H + p 11' - sigma I >= 0 for sigma = s - rho (``_allowance``), and for
    every x orthogonal to 1, x' H x >= sigma |x|^2, so lam_2(H) >= sigma by
    Courant-Fischer. None if no back-off factors, or sigma lies below
    theta (1 - BOUND_RTOL).
    """
    p = top / W.shape[0]
    for backoff in BACKOFFS:
        s = theta * (1.0 - backoff)
        q = p - s
        shifted = diag + q
        norm = _factor_norm(W, F, shifted, p, lap)
        if norm is not None:
            sigma = float(np.nextafter(s - _allowance(norm, shifted, q), -np.inf))
            return (sigma, (theta, top)) if sigma >= theta * (1.0 - BOUND_RTOL) else None
    return None


def _gershgorin_floor(comm: CommunicationMatrix) -> float:
    """A lower bound on every eigenvalue of M - W from its Gershgorin discs, with no dense array.

    Row i's disc reaches down to m_i - W_ii - sum_(j != i) |W_ij| >= m_i - R_i,
    where R = |P|' D^-1 |P| 1 >= |W| 1 entrywise and W_ii >= 0. The sums
    behind m and R have at most 2 |N| + 2 terms, and W is a syrk of at most
    n terms per entry, so (n + 2 max |N| + 4) u (m + R) covers their rounding.
    """
    R, slack = _gershgorin_rows(comm)
    m = comm.col_norms_sq
    return float(np.min(m - R - slack * (m + R)))


def _gershgorin_rows(comm: CommunicationMatrix) -> tuple[np.ndarray, float]:
    """(R, slack): R = |P|' D^-1 |P| 1 >= |W| 1 entrywise, and the relative rounding of its sums (see ``_gershgorin_floor``).

    max_i R_i (1 + slack) bounds every Gershgorin disc of W, so lam_max(W).
    """
    a = np.abs(comm.values)
    y = np.add.reduceat(a, comm.starts) / comm.nbhd_sizes
    R = np.bincount(comm.cols, weights=a * y[comm.rows], minlength=comm.n)
    slack = (comm.n + 2.0 * float(comm.nbhd_sizes.max()) + 4.0) * _U
    return R, slack


def _certified_gram(comm: CommunicationMatrix, W: np.ndarray, F: np.ndarray, witness: tuple[float, float] | None = None):
    """(W's ends, sigma <= lam_2(W), (theta, top)) by ``_certified_second``, from ``witness`` if it proves; None if not proven.

    lam_min(W) needs no factorization: with u = 1/sqrt(n), rho = u'Wu and
    e = |Wu - rho u|, and no eigenvalue but lam_min below sigma, the
    Kato-Temple bound gives lam_min >= rho - e^2 / (sigma - rho), computed
    in floating point. For the Laplacian P 1 = 0 exactly and it reads 0.
    """
    ceiling = math.inf  # read only with a witness
    if witness is not None:
        R, slack = _gershgorin_rows(comm)
        ceiling = float(R.max()) * (1.0 + slack)
    found = _certified_second(comm.w_by_products, W, F, W.diagonal().copy(), witness=witness, ceiling=ceiling)
    if found is None:
        return None
    sigma, ends = found
    y = comm.w_by_products(np.ones(comm.n))  # sqrt(n) W u
    rho = float(np.mean(y))
    e_sq = float(np.mean((y - rho) ** 2))
    floor = rho - e_sq / (sigma - rho) if sigma > rho else -math.inf
    return Spectrum(min=floor, max=ends[1], kind=CERTIFIED), sigma, ends


def _certified_metric(comm: CommunicationMatrix, W: np.ndarray, F: np.ndarray, witness: float | None = None):
    """(M - W's ends, theta): the Gershgorin floor and a proven upper bound tau on lam_max, and its witness; None if not proven.

    Lanczos gives theta <= lam_max. A ``witness`` theta recorded by an
    earlier search is tried first, if 0 < theta < inf; Lanczos runs only if
    it is absent or proves nothing (``_metric_from``). None if the floor
    lies below PSD_FLOOR (only a full spectrum can tell), Lanczos has not
    converged, or its value proves nothing.
    """
    floor = _gershgorin_floor(comm)
    if floor < PSD_FLOOR:
        return None
    if witness is not None and 0.0 < witness < math.inf:
        found = _metric_from(comm, W, F, floor, witness)
        if found is not None:
            return found
    m = comm.col_norms_sq
    ends = _ritz_ends(lambda v: m * v - comm.w_by_products(v), comm.n, lowest=False, deflate=False)
    return None if ends is None else _metric_from(comm, W, F, floor, ends[1])


def _metric_from(comm: CommunicationMatrix, W: np.ndarray, F: np.ndarray, floor: float, theta: float):
    """(M - W's ends, theta) proved from the Ritz value theta of M - W; None if no back-off factors, or tau is loose.

    s = theta (1 + back-off). If s I - (M - W) = W + diag(s - m), written in
    place, factors, tau = s + rho (``_allowance``) bounds lam_max. None if
    no back-off factors, or tau lies above theta (1 + BOUND_RTOL).
    """
    m = comm.col_norms_sq
    w_diag = W.diagonal().copy()
    for backoff in BACKOFFS:
        s = theta * (1.0 + backoff)
        q = s - m
        shifted = w_diag + q
        norm = _factor_norm(W, F, shifted, 0.0)
        if norm is not None:
            tau = float(np.nextafter(s + _allowance(norm, shifted, q), np.inf))
            return (Spectrum(min=floor, max=tau, kind=CERTIFIED), theta) if tau <= theta * (1.0 + BOUND_RTOL) else None
    return None


def _metric_spectrum(comm: CommunicationMatrix) -> Spectrum:
    """M - W's spectrum: m_0 - lam(W) when P is circulant, else ``eigvalsh`` of diag(m) - W written as 0 - W into W's upper triangle."""
    m = comm.col_norms_sq
    if comm.circulant:
        return Spectrum.of(_unfolded(m[0] - comm.gram_symbol, comm.n), CLOSED_FORM)
    W = comm.W
    with _written_below(W, (0.0 - W.diagonal()) + m, negate=True) as A:
        return Spectrum.of(_eigvalsh(A), EXACT)


def compute_spectral_data(comm: CommunicationMatrix, witness: Witness = Witness()) -> SpectralData:
    """W's and M - W's spectra; a CERTIFIED scalar is proved from ``witness`` where it can be, and searched for otherwise.

    A circulant P reads every spectrum from its symbol and never forms W.
    """
    certify = certified_spectra_are_cheaper(comm.n) and not comm.circulant
    F = _factor_buffer(comm.n) if certify else None  # both certificates' factors, freed on return

    gram = _certified_gram(comm, comm.W, F, witness.gram_ritz) if certify else None
    if gram is None:
        if comm.circulant:
            eig_gram = Spectrum.of(_unfolded(comm.gram_symbol, comm.n), CLOSED_FORM)
        else:
            eig_gram = Spectrum.of(_eigvalsh(comm.W), EXACT)
        # null(W) = null(P) = span{1} on a connected graph, so lam_min is
        # the second eigenvalue; long paths have lam_2 below 1e-9 lam_max
        gram = eig_gram, float(eig_gram.eigenvalues[1]), None
    eig_gram, min_pos, gram_ritz = gram
    if not min_pos > comm.n * np.finfo(float).eps * eig_gram.max:  # nan included
        raise DegenerateSpectrumError(f"second eigenvalue {min_pos:.3e} of P' D^-1 P is numerically zero")

    metric = _certified_metric(comm, comm.W, F, witness.metric_ritz) if certify else None
    eig_metric, metric_ritz = metric or (_metric_spectrum(comm), None)
    return SpectralData(
        comm=comm,
        eig_gram=eig_gram,
        eig_metric=eig_metric,
        min_pos_eig_gram=min_pos,
        max_eig_metric=eig_metric.max,
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
