"""Spectral quantities driving every convergence certificate.

From a communication matrix P and its graph we form

* ``col_norms_sq``  per-node squared column norms, sum_{j in N(i)} P_ji^2
* ``nbhd_sizes``    |N(i)| = degree + 1
* ``gram``          W = P' diag(1/|N|) P, symmetric PSD, null space span{1}
* ``metric_block``  diag(col_norms_sq) - gram, the weight of the x part of
  the contraction metric

plus the two eigenvalues the rate certificates consume: the smallest
nonzero eigenvalue of ``gram`` and the largest eigenvalue of
``metric_block``. Only ``gram`` gets eigenvectors (they give W^+); the
paper's norms |Q v| with Q = W^(1/2) are evaluated as forms v' W v.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificateFailedError,
    DegenerateSpectrumError,
    EigNoConvergenceError,
    NotSymmetricError,
)
from .graph import CommunicationMatrix, Graph, laplacian

SYMMETRY_RTOL = 1e-9
ZERO_EIG_RTOL = 1e-9  # eigenvalues <= rtol * max eigenvalue count as zero
RECON_RTOL = 1e-10


@dataclass(frozen=True)
class Eigendecomposition:
    """Ascending eigenvalues, with orthonormal eigenvector columns when computed."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray | None = field(default=None, repr=False)

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
    eig_gram: Eigendecomposition = field(repr=False)
    eig_metric: Eigendecomposition = field(repr=False)  # eigenvalues only
    min_pos_eig_gram: float
    max_eig_metric: float
    algebraic_connectivity: float

    @property
    def n(self) -> int:
        return self.gram.shape[0]


def sym_eig(S: np.ndarray, vectors: bool = True) -> Eigendecomposition:
    """Eigendecomposition of a symmetric matrix with a fixed sign convention.

    Eigenvalues ascend; each eigenvector's first entry of magnitude above
    1e-12 is made positive so repeated calls are reproducible. With
    ``vectors=False`` only the eigenvalues are computed (``eigvalsh``).
    """
    S = np.asarray(S, dtype=float)
    scale = float(np.linalg.norm(S, ord="fro"))
    defect = float(np.max(np.abs(S - S.T))) if S.size else 0.0
    if defect > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetricError(f"symmetry defect {defect:.3e} exceeds {SYMMETRY_RTOL:.1e} * |S|")
    try:
        if not vectors:
            return Eigendecomposition(eigenvalues=np.linalg.eigvalsh((S + S.T) / 2.0))
        vals, vecs = np.linalg.eigh((S + S.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise EigNoConvergenceError(str(exc)) from exc
    # first entry above 1e-12 of each column; a unit vector always has one
    lead = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(vecs.shape[1])]
    vecs[:, lead < 0] *= -1.0

    recon = float(np.max(np.abs((vecs * vals) @ vecs.T - S)))
    spec_norm = float(np.max(np.abs(vals))) if vals.size else 0.0
    if recon > RECON_RTOL * (1.0 + spec_norm):
        raise EigNoConvergenceError(f"reconstruction error {recon:.3e} too large")
    return Eigendecomposition(eigenvalues=vals, eigenvectors=vecs)


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest eigenvalue of the graph Laplacian (positive when connected)."""
    return float(sym_eig(laplacian(g).P, vectors=False).eigenvalues[1])


def compute_spectral_data(comm: CommunicationMatrix, g: Graph) -> SpectralData:
    P = comm.P
    col_norms_sq = np.sum(P * P, axis=0)
    nbhd_sizes = np.array([deg + 1.0 for deg in g.degrees])
    # P' D^-1 P with a C-ordered left factor: at some sizes an F-ordered one
    # takes another BLAS path and changes the last bits of the Gram matrix
    gram = np.multiply(P.T, 1.0 / nbhd_sizes, order="C") @ P
    gram = (gram + gram.T) / 2.0

    eig_gram = sym_eig(gram)
    lam_max = eig_gram.max
    if not lam_max > 0.0:  # nan included
        raise DegenerateSpectrumError("all eigenvalues of P' D^-1 P are numerically zero")
    min_pos = float(eig_gram.eigenvalues[eig_gram.eigenvalues > ZERO_EIG_RTOL * lam_max][0])

    metric_block = np.diag(col_norms_sq) - gram
    eig_metric = sym_eig(metric_block, vectors=False)

    return SpectralData(
        col_norms_sq=col_norms_sq,
        nbhd_sizes=nbhd_sizes,
        gram=gram,
        metric_block=metric_block,
        eig_gram=eig_gram,
        eig_metric=eig_metric,
        min_pos_eig_gram=min_pos,
        max_eig_metric=eig_metric.max,
        algebraic_connectivity=algebraic_connectivity(g),
    )


@dataclass(frozen=True)
class PsdReport:
    """Row-wise diagonal-dominance lower bounds and eigenvalue floors.

    A nonnegative Gershgorin row minimum proves PSD outright; on irregular
    graphs rows can dip negative, in which case that witness is merely
    inconclusive (it never refutes PSD). The eigenvalue floors decide.
    """

    gersh_lower_gram: np.ndarray = field(repr=False)
    gersh_lower_metric: np.ndarray = field(repr=False)
    gersh_conclusive_gram: bool
    gersh_conclusive_metric: bool
    min_eig_gram: float
    min_eig_metric: float
    ok: bool


def psd_certificates(sd: SpectralData) -> PsdReport:
    """Certify that gram and metric_block are PSD.

    Reports the per-row Gershgorin lower bounds as a sufficient witness and
    checks the decisive condition: the smallest eigenvalue of each matrix
    must be >= -1e-10. Raises CertificateFailedError naming the offending
    eigenvalue otherwise.
    """
    lowers = []
    conclusive = []
    for mat in (sd.gram, sd.metric_block):
        diag = np.diag(mat)
        offsum = np.sum(np.abs(mat), axis=1) - np.abs(diag)
        lower = diag - offsum
        slack = 1e-12 * (1.0 + float(np.max(np.abs(diag))))
        lowers.append(lower)
        conclusive.append(bool(np.all(lower >= -slack)))
    for name, val in (("gram", sd.eig_gram.min), ("metric_block", sd.eig_metric.min)):
        if val < -1e-10:
            raise CertificateFailedError(f"min eigenvalue of {name} is {val:.3e} < -1e-10")
    return PsdReport(
        gersh_lower_gram=lowers[0],
        gersh_lower_metric=lowers[1],
        gersh_conclusive_gram=conclusive[0],
        gersh_conclusive_metric=conclusive[1],
        min_eig_gram=sd.eig_gram.min,
        min_eig_metric=sd.eig_metric.min,
        ok=True,
    )
