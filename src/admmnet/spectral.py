"""Spectral quantities driving every convergence certificate.

A :class:`NetworkOperator` is the only code outside ``graph`` that reads a
dense communication matrix P or its Gram matrix W = P' D^-1 P,
D = diag(|N(i)|). Engines and analysis reach them through its products
P x, P'v, W x and W^+ B, the column norms m_i = sum_{j in N(i)} P_ji^2
(``col_norms_sq``, the diagonal of M, one ``bincount`` over P's slots) and
|N(i)| = degree + 1 (``nbhd_sizes``). P x and P'v run over P's slots, or,
below a crossover measured in ``dense_products_are_cheaper``, as dense GEMVs
on a P kept once per matrix. W is formed on first read, as one syrk of
D^(-1/2) P written straight from the slots, so the engines never form it.

``SpectralData`` adds the numbers the rate certificates read: the smallest
nonzero eigenvalue of W, the largest eigenvalue of the metric block M - W
and the algebraic connectivity a(G) (computed on first read). Only W is
stored as a dense n x n array, and P too below the crossover. M - W is
derived: it is built for its eigenvalues in W's own storage, as 0 - W with
the column norms added on its diagonal, and W is restored after; its forms
are x' (M - W) x = sum_i m_i |x_i|^2 - x' W x (see
``analysis._metric_sq``). When P is the graph Laplacian, a(G) is read from
P itself, built dense for its eigenvalues. So above the crossover a run
holds at most three dense n x n float arrays at once: W plus at most two
transients, which are D^(-1/2) P while W is formed, ``eigvalsh``'s copy
of W or of M - W, the Laplacian and ``eigvalsh``'s copy of it for a(G), or
W + 11'/n and the solve's copy of it (``NetworkOperator.w_pinv``). Below
the crossover the kept P adds one.

Every spectrum is eigenvalues only. The paper's norms |Q v| with
Q = W^(1/2) are evaluated as forms v' W v, and W^+ is applied by one linear
solve.

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
# Cost of a slot product in dense GEMV entries: per slot, and fixed per call
# (see ``dense_products_are_cheaper``)
SLOT_COST, SLOT_FIXED = 10, 40_000


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


class NetworkOperator:
    """P, W and the column norms m of one network, reached through products.

    P x and P'v run on one of two backends, chosen once per matrix by
    ``dense_products_are_cheaper``: the dense P that ``comm.kept_dense``
    keeps with the matrix, through ``_apply``, or the slots themselves,
    through ``_slot_apply``. W x uses the dense W either way.
    """

    def __init__(self, comm: CommunicationMatrix, g: Graph):
        self.comm = comm
        self.graph = g
        self.n = comm.n
        self.col_norms_sq = np.bincount(comm.cols, weights=comm.values * comm.values, minlength=self.n)  # diagonal of M
        self.nbhd_sizes = g.degrees + 1.0  # diagonal of D
        self.dense_products = dense_products_are_cheaper(comm)
        self._gather = np.empty(0)  # slot products' gather buffer, grown on demand

    @cached_property
    def W(self) -> np.ndarray:
        B = np.zeros((self.n, self.n))  # D^(-1/2) P, written straight from the slots
        rows = self.comm.rows
        B[rows, self.comm.cols] = self.comm.values * (1.0 / np.sqrt(self.nbhd_sizes))[rows]
        return B.T @ B  # numpy runs B' B as one syrk: half a GEMM, exactly symmetric

    @cached_property
    def _values_t(self) -> np.ndarray:
        """P' on the slots: (P')_ij = P_ji sits at the slot of (j, i); the Laplacian is symmetric."""
        if self.comm.source == "laplacian":
            return self.comm.values
        return self.comm.values[self.comm.transpose]

    def p(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.dense_products:
            return _apply(self.comm.kept_dense, x, out)
        return self._slot_apply(self.comm.values, x, out)

    def pt(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.dense_products:
            return _apply(self.comm.kept_dense.T, v, out)
        return self._slot_apply(self._values_t, v, out)

    def w(self, x: np.ndarray) -> np.ndarray:
        return _apply(self.W, x)

    def w_pinv(self, B: np.ndarray) -> np.ndarray:
        """W^+ B by one linear solve.

        null(W) = span{1}, so W + 11'/n is invertible with inverse W^+ + 11'/n;
        removing the column means of its solve drops the 11'/n B part exactly
        and leaves W^+ B, which is orthogonal to the consensus direction.
        """
        X = np.linalg.solve(self.W + 1.0 / self.n, B)
        return X - X.mean(axis=0)

    def _slot_apply(self, values: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A x for the matrix A with ``values`` on the slots (see ``_slot_sum``).

        An (n, d) operand gathers into a buffer kept by the operator, and the
        result goes into ``out`` if given. An (..., n, d) stack is laid out as
        (n, R d) blocks of R of its entries, with R chosen so that the block's
        gather buffer stays below a quarter of one n x n array.
        """
        S = self.comm.cols.size
        if x.ndim == 2:
            if self._gather.size < S * x.shape[1]:
                self._gather = np.empty(S * x.shape[1])
            return _slot_sum(self.comm, values, x, self._gather, out)
        n, d = x.shape[-2:]
        flat = x.reshape(-1, n, d)
        res = np.empty(flat.shape)
        step = max(1, n * n // (4 * S * d))
        gather = np.empty(S * d * min(step, len(flat)))
        for lo in range(0, len(flat), step):
            block = np.ascontiguousarray(flat[lo : lo + step].transpose(1, 0, 2)).reshape(n, -1)  # (n, R d)
            res[lo : lo + step] = _slot_sum(self.comm, values, block, gather).reshape(n, -1, d).transpose(1, 0, 2)
        return res.reshape(x.shape)


def _slot_sum(comm: CommunicationMatrix, values: np.ndarray, x: np.ndarray, gather: np.ndarray, out=None) -> np.ndarray:
    """sum_{j in N(i)} values_ij x_j for every row i of an (n, k) operand.

    x is gathered to one row per slot in the front of ``gather``, scaled by
    the slot values and summed over each row's slots with ``np.add.reduceat``.
    """
    buf = gather[: comm.cols.size * x.shape[1]].reshape(-1, x.shape[1])
    np.take(x, comm.cols, axis=0, out=buf, mode="clip")
    buf *= values[:, None]
    return np.add.reduceat(buf, comm.starts, axis=0, out=out)


def _apply(A: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A v: ``np.matmul`` of an (n, d) operand, into ``out`` if given; ``stack_apply`` of an (..., n, d) stack."""
    return np.matmul(A, v, out=out) if v.ndim == 2 else stack_apply(A, v)


def dense_products_are_cheaper(comm: CommunicationMatrix) -> bool:
    """Whether P x costs less as a dense GEMV than over the n + 2|E| slots.

    A dense GEMV costs n^2 entries of about 0.19 ns while P stays in cache.
    A slot product costs about SLOT_COST entries per slot (its gather, scale
    and sum) plus SLOT_FIXED per call (its three numpy calls, about 7 us).
    Fitted to one-thread d = 1 timings; at n=80-200 the dense GEMV is 1.4-3x
    faster, from n=600 on Erdos-Renyi p=0.05 the slots are 2.5x faster.
    Near the crossover (n=300-400 at 5% fill) the two are within 1.5x, and
    the slots win there because they keep no n x n array.
    """
    return comm.n * comm.n <= SLOT_COST * comm.cols.size + SLOT_FIXED


@dataclass(frozen=True)
class SpectralData:
    """The network operator and the spectra of W and M - W; M - W itself is not stored (see the module docstring)."""

    op: NetworkOperator = field(repr=False)
    eig_gram: Spectrum = field(repr=False)
    eig_metric: Spectrum = field(repr=False)  # of M - W
    min_pos_eig_gram: float
    max_eig_metric: float

    @cached_property
    def algebraic_connectivity(self) -> float:
        """a(G), read from P itself when P is the Laplacian; any other P builds the Laplacian."""
        if self.op.comm.source != "laplacian":
            return algebraic_connectivity(self.op.graph)
        P = self.op.comm.kept_dense if self.op.dense_products else self.op.comm.dense()
        return float(sym_eig(P).eigenvalues[1])


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


def stack_apply(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for every (n, d) entry of an (..., n, d) stack, as one GEMM of rows (A v)' = v' A'.

    For d = 1 the rows are a free reshape; for d > 1 the stack is transposed first.
    """
    rows = np.swapaxes(v, -1, -2)  # (..., d, n)
    return np.swapaxes((rows.reshape(-1, v.shape[-2]) @ A.T).reshape(rows.shape), -1, -2)


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest eigenvalue of the graph Laplacian (positive when connected)."""
    return float(sym_eig(laplacian(g).dense()).eigenvalues[1])


def compute_spectral_data(comm: CommunicationMatrix, g: Graph) -> SpectralData:
    op = NetworkOperator(comm, g)
    W = op.W

    eig_gram = sym_eig(W)
    # null(W) = span{1} (validate_comm_matrix, connectivity), so lam_min is
    # the second eigenvalue; long paths have lam_2 below 1e-9 lam_max
    lam_max, min_pos = eig_gram.max, float(eig_gram.eigenvalues[1])
    if not min_pos > op.n * np.finfo(float).eps * lam_max:  # nan included
        raise DegenerateSpectrumError(f"second eigenvalue {min_pos:.3e} of P' D^-1 P is numerically zero")

    # M - W in W's own storage, as 0 - W plus m on the diagonal: bit for bit
    # diag(m) - W, where a zero entry stays +0, since eigvalsh reads the sign
    # of zeros (see ``sym_eig``). W comes back as 0 - (0 - W), exact off the
    # diagonal, with its saved diagonal written back.
    diag = np.diag_indices_from(W)
    w_diag = W[diag]
    np.subtract(0.0, W, out=W)
    try:
        W[diag] += op.col_norms_sq
        eig_metric = sym_eig(W)
    finally:
        np.subtract(0.0, W, out=W)
        W[diag] = w_diag

    return SpectralData(
        op=op,
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
