"""Spectral quantities driving every convergence certificate.

From a communication matrix P and its graph we form

* ``col_norms_sq``  per-node squared column norms, sum_{j in N(i)} P_ji^2
* ``nbhd_sizes``    |N(i)| = degree + 1
* ``gram``          W = P' diag(1/|N|) P, symmetric PSD, null space span{1}
* ``metric_block``  diag(col_norms_sq) - gram, the weight of the x part of
  the contraction metric

plus the numbers the rate certificates read: the smallest nonzero
eigenvalue of ``gram``, the largest eigenvalue of ``metric_block`` and the
algebraic connectivity a(G) (computed on first read). Every spectrum is
eigenvalues only. The paper's norms |Q v| with Q = W^(1/2) are evaluated as
forms v' W v, and W^+ is applied by one linear solve (see
``analysis._gram_pinv_apply``).

Where the eigenvalues come from: ``sym_eig`` looks at the matrix itself.
When S is within n eps |S|_F (Frobenius) of the circulant C built from its
first row r, which holds for W, M - W and the Laplacian of every circulant,
cycle and complete graph and for any circulant custom P, it returns the
eigenvalues of C as cosine sums over the nonzero entries of r, in
O(n nnz(r)). Every other matrix (path, Erdos-Renyi and file graphs) goes
to dense ``eigvalsh``. By Weyl's inequality each eigenvalue of S lies within
|S - C|_2 <= |S - C|_F <= n eps |S|_F of one of C, which is the size of
``eigvalsh``'s own backward error, so every check that reads a spectrum
keeps its meaning.
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
from .graph import CommunicationMatrix, Graph, laplacian

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
    col_norms_sq: np.ndarray = field(repr=False)  # diagonal of M
    nbhd_sizes: np.ndarray = field(repr=False)  # diagonal of D
    gram: np.ndarray = field(repr=False)
    metric_block: np.ndarray = field(repr=False)
    eig_gram: Spectrum = field(repr=False)
    eig_metric: Spectrum = field(repr=False)
    min_pos_eig_gram: float
    max_eig_metric: float
    graph: Graph = field(repr=False)

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    @cached_property
    def algebraic_connectivity(self) -> float:
        return algebraic_connectivity(self.graph)


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


def stack_apply(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for every (n, d) entry of an (..., n, d) stack, as one GEMM of rows (A v)' = v' A'.

    For d = 1 the rows are a free reshape; for d > 1 the stack is transposed first.
    """
    rows = np.swapaxes(v, -1, -2)  # (..., d, n)
    return np.swapaxes((rows.reshape(-1, v.shape[-2]) @ A.T).reshape(rows.shape), -1, -2)


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest eigenvalue of the graph Laplacian (positive when connected)."""
    return float(sym_eig(laplacian(g).P).eigenvalues[1])


def compute_spectral_data(comm: CommunicationMatrix, g: Graph) -> SpectralData:
    P = comm.P
    col_norms_sq = np.sum(P * P, axis=0)
    nbhd_sizes = g.degrees + 1.0
    B = P * (1.0 / np.sqrt(nbhd_sizes))[:, None]  # D^(-1/2) P
    gram = B.T @ B  # numpy runs B' B as one syrk: half a GEMM, exactly symmetric
    del B

    eig_gram = sym_eig(gram)
    # null(W) = span{1} (validate_comm_matrix, connectivity), so lam_min is
    # the second eigenvalue; long paths have lam_2 below 1e-9 lam_max
    lam_max, min_pos = eig_gram.max, float(eig_gram.eigenvalues[1])
    if not min_pos > gram.shape[0] * np.finfo(float).eps * lam_max:  # nan included
        raise DegenerateSpectrumError(f"second eigenvalue {min_pos:.3e} of P' D^-1 P is numerically zero")

    metric_block = np.diag(col_norms_sq) - gram
    eig_metric = sym_eig(metric_block)

    return SpectralData(
        col_norms_sq=col_norms_sq,
        nbhd_sizes=nbhd_sizes,
        gram=gram,
        metric_block=metric_block,
        eig_gram=eig_gram,
        eig_metric=eig_metric,
        min_pos_eig_gram=min_pos,
        max_eig_metric=eig_metric.max,
        graph=g,
    )


def psd_certificates(sd: SpectralData) -> None:
    """Certify that gram and metric_block are PSD.

    The smallest eigenvalue of each matrix must be >= -1e-10. Raises
    CertificateFailedError naming the offending eigenvalue otherwise.
    """
    for name, val in (("gram", sd.eig_gram.min), ("metric_block", sd.eig_metric.min)):
        if val < -1e-10:
            raise CertificateFailedError(f"min eigenvalue of {name} is {val:.3e} < -1e-10")
