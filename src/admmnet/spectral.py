"""Spectral quantities driving every convergence certificate.

The certificates depend on the network only through the communication
matrix P, a ``graph.CommunicationMatrix``, which forms W = P' D^-1 P and
the column norms m and owns every product with P and W. This module reads
W and P only for their eigenvalues.

``SpectralData`` holds the matrix and the numbers the rate certificates
read: the smallest nonzero eigenvalue of W, the largest eigenvalue of the
metric block M - W and the algebraic connectivity a(G), the second
eigenvalue of the Laplacian on P's slots (on first read, from P itself
when P is the Laplacian). M - W is not stored: it is built for its
eigenvalues in W's own storage, as 0 - W with m added on its diagonal,
and W is restored after; its forms are sum_i m_i |x_i|^2 - x' W x (see
``analysis._metric_sq``). So above the product crossover a run holds at
most three dense n x n float arrays at once: W plus at most two
transients, which are D^(-1/2) P while W is formed, ``eigvalsh``'s copy
of W or of M - W, the Laplacian and ``eigvalsh``'s copy of it for a(G), or
W + 11'/n and the solve's copy of it (``CommunicationMatrix.w_pinv``).
Below the crossover the kept P adds one.

``sym_eig`` reads a symmetric circulant matrix (W, M - W and the Laplacian
of every circulant, cycle and complete graph, and any circulant custom P)
as cosine sums over the nonzeros of its first row, and any other matrix
(path, Erdos-Renyi and file graphs) with dense ``eigvalsh``; its docstring
says why every check that reads a spectrum keeps its meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CertificateFailedError,
    DegenerateSpectrumError,
    EigNoConvergenceError,
    NotSymmetricError,
)
from .graph import CommunicationMatrix

SYMMETRY_RTOL = 1e-9
_BLOCK_ENTRIES = 1 << 13  # entries per temporary block of the circulant test and sums


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of a symmetric matrix."""

    eigenvalues: np.ndarray = field(repr=False)

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class SpectralData:
    """The communication matrix and the spectra of W and M - W; M - W itself is not stored (see the module docstring)."""

    comm: CommunicationMatrix = field(repr=False)
    eig_gram: Spectrum = field(repr=False)
    eig_metric: Spectrum = field(repr=False)  # of M - W
    min_pos_eig_gram: float
    max_eig_metric: float

    @cached_property
    def algebraic_connectivity(self) -> float:
        """a(G), the second eigenvalue of the Laplacian on P's slots: P itself, kept dense below the crossover, when P is it."""
        comm = self.comm
        L = comm.kept_dense if comm.source == "laplacian" and comm.dense_products else comm.graph_laplacian().dense()
        return float(sym_eig(L).eigenvalues[1])


def sym_eig(S: np.ndarray) -> Spectrum:
    """Ascending eigenvalues of a matrix that must be symmetric to SYMMETRY_RTOL.

    A symmetric circulant S, C = circ(S[0]) with |S - C|_F <= n eps |S|_F,
    gets the cosine sums of ``_circulant_eigenvalues``; any other S gets
    ``eigvalsh``. The tolerance admits the one-ulp defect of a syrk Gram
    matrix (3.6e-15 on circulant n=200). By Weyl's inequality each
    eigenvalue of S is within |S - C|_2 <= |S - C|_F <= n eps |S|_F of one
    of C, the size of ``eigvalsh``'s own backward error. So the PSD
    certificate, the degeneracy test lam_2 > n eps lam_max, lam_2 as the
    smallest nonzero eigenvalue of W and the residual checks read the same
    either way.

    Determinism: one matrix gives the same bits on every call, but
    ``eigvalsh`` reads the sign of zero entries (LAPACK's Householder step
    takes the sign of its pivot, and -0.0 is negative). Two matrices that
    compare equal entry for entry can differ in the last digits: on
    Erdos-Renyi n=1600, p=0.0125, lam_max of M - W was 1295.4907051261139
    built as diag(m) - W and 1295.4907051261148 built as -W plus the
    diagonal, which moved ``c = auto`` by one ulp and a replay by 2.98e-8.
    Traces are compared across code changes at a fixed c.
    """
    S = np.asarray(S, dtype=float)
    scale = float(np.linalg.norm(S, ord="fro"))
    defect = _symmetry_defect(S)
    if defect > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetricError(f"symmetry defect {defect:.3e} exceeds {SYMMETRY_RTOL:.1e} * |S|")
    n = S.shape[0] if S.ndim == 2 else 0
    if n and S.shape == (n, n) and _is_circulant(S, n * np.finfo(float).eps * scale):
        return Spectrum(eigenvalues=_circulant_eigenvalues(S[0]))
    try:
        return Spectrum(eigenvalues=np.linalg.eigvalsh(S))
    except np.linalg.LinAlgError as exc:
        raise EigNoConvergenceError(str(exc)) from exc


def _symmetry_defect(S: np.ndarray) -> float:
    """max |S_ij - S_ji|, compared over row blocks of the upper triangle with no n x n temporary."""
    n = S.shape[0]
    step = max(1, _BLOCK_ENTRIES // max(1, n))
    return max(
        (float(np.max(np.abs(S[lo : lo + step, lo:] - S[lo:, lo : lo + step].T))) for lo in range(0, n, step)),
        default=0.0,
    )


def _is_circulant(S: np.ndarray, tol: float) -> bool:
    """Whether |S - circ(S[0])|_F <= tol; a nan or inf entry never passes."""
    n = S.shape[0]
    r = S[0]
    # row i of circ(r) is rr[n - i : 2n - i]: the windows of the doubled row, read in reverse
    C = np.lib.stride_tricks.sliding_window_view(np.concatenate((r, r)), n)[n:0:-1]
    step = max(1, _BLOCK_ENTRIES // n)
    budget, spent = tol * tol, 0.0
    # row 1 alone first, an O(n) reject of most non-circulant matrices
    for lo, hi in [(1, 2), *((i, i + step) for i in range(2, n, step))]:
        block = S[lo:hi] - C[lo:hi]
        spent += float(np.einsum("ij,ij->", block, block))
        if not spent <= budget:
            return False
    return True


def _circulant_eigenvalues(r: np.ndarray) -> np.ndarray:
    """Ascending lam_k = sum_j r_j cos(2 pi j k / n) of the symmetric circulant with first row r.

    Only the nonzero r_j enter, so the sum costs O(n nnz(r)), taken over
    blocks of k. It is evaluated as sum_j r_j - 2 sum_j r_j sin^2(pi j k / n),
    with the row sum taken exactly (``math.fsum``): near k = 0 the cosines
    round to 1 and the plain sum would cancel, while this form keeps a(G)
    of a circulant Laplacian to about 1e-14 relative at n = 1600. j k is
    reduced mod n in integers, so every angle lies in [0, pi).
    """
    n = r.size
    j = np.flatnonzero(r)
    rj = r[j]
    k = np.arange(n // 2 + 1)  # lam_(n-k) = lam_k: the rest repeat k = 1 .. (n-1)/2
    step = max(1, _BLOCK_ENTRIES // max(1, j.size))
    lam = np.empty(k.size)
    for k0 in range(0, k.size, step):
        lam[k0 : k0 + step] = rj @ np.sin(np.outer(j, k[k0 : k0 + step]) % n * (np.pi / n)) ** 2
    lam = math.fsum(rj.tolist()) - 2.0 * lam
    return np.sort(np.concatenate((lam, lam[1 : (n + 1) // 2])))


def compute_spectral_data(comm: CommunicationMatrix) -> SpectralData:
    W = comm.W

    eig_gram = sym_eig(W)
    # null(W) = span{1} (validate_comm_matrix, connectivity), so lam_min is
    # the second eigenvalue; long paths have lam_2 below 1e-9 lam_max
    lam_max, min_pos = eig_gram.max, float(eig_gram.eigenvalues[1])
    if not min_pos > comm.n * np.finfo(float).eps * lam_max:  # nan included
        raise DegenerateSpectrumError(f"second eigenvalue {min_pos:.3e} of P' D^-1 P is numerically zero")

    # M - W in W's own storage, as 0 - W plus m on the diagonal: bit for bit
    # diag(m) - W, where a zero entry stays +0, since eigvalsh reads the sign
    # of zeros (see ``sym_eig``). W comes back as 0 - (0 - W), exact off the
    # diagonal, with its saved diagonal written back.
    diag = np.diag_indices_from(W)
    w_diag = W[diag]
    np.subtract(0.0, W, out=W)
    try:
        W[diag] += comm.col_norms_sq
        eig_metric = sym_eig(W)
    finally:
        np.subtract(0.0, W, out=W)
        W[diag] = w_diag

    return SpectralData(
        comm=comm,
        eig_gram=eig_gram,
        eig_metric=eig_metric,
        min_pos_eig_gram=min_pos,
        max_eig_metric=eig_metric.max,
    )


def psd_certificates(sd: SpectralData) -> None:
    """Certify that gram and the metric block M - W are PSD.

    The smallest eigenvalue of each matrix must be >= -1e-10. Raises
    CertificateFailedError naming the offending eigenvalue otherwise.
    """
    for name, val in (("gram", sd.eig_gram.min), ("metric_block", sd.eig_metric.min)):
        if val < -1e-10:
            raise CertificateFailedError(f"min eigenvalue of {name} is {val:.3e} < -1e-10")
