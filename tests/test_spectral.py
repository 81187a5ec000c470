import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admmnet.errors import CertificateFailedError, DegenerateSpectrumError, NotSymmetricError
from admmnet.graph import CommunicationMatrix, generate_graph, laplacian
from admmnet.spectral import (
    algebraic_connectivity,
    compute_spectral_data,
    psd_certificates,
    stack_apply,
    sym_eig,
)
from conftest import random_connected_graph

# characteristic polynomials by hand: P3 Laplacian -> (0, 1, 3), K3 -> (0, 3, 3)
P3_EIGS = (0.0, 1.0, 3.0)
K3_EIGS = (0.0, 3.0, 3.0)
# P3 Gram matrix spectrum worked out by symmetry reduction
P3_GRAM_EIGS = (0.0, 0.5, 3.5)
P3_METRIC_MAX = (27.0 + math.sqrt(681.0)) / 12.0
EPS = np.finfo(float).eps


def circulant(r) -> np.ndarray:
    """circ(r): row i is r shifted right by i."""
    r = np.asarray(r, dtype=float)
    n = r.size
    return r[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def count_eigvalsh(monkeypatch) -> list:
    calls = []
    fn = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda S, _fn=fn: calls.append(S.shape) or _fn(S))
    return calls


def laplacian_closed_form(kind: str, n: int, d: int) -> np.ndarray:
    """Laplacian spectrum: d - 2 sum_{s <= d/2} cos(2 pi k s / n) on circulants and cycles, (0, n, ..., n) on K_n."""
    if kind == "complete":
        return np.array([0.0] + [float(n)] * (n - 1))
    k = np.arange(n)[:, None]
    s = np.arange(1, d // 2 + 1)[None, :]
    return np.sort(d - 2.0 * np.cos(2.0 * np.pi * k * s / n).sum(axis=1))


def test_sym_eig_identity():
    dec = sym_eig(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1, 1, 1])


def test_sym_eig_p3(p3):
    dec = sym_eig(laplacian(p3).P)
    assert np.allclose(dec.eigenvalues, P3_EIGS, atol=1e-12)


def test_sym_eig_k3(k3):
    dec = sym_eig(laplacian(k3).P)
    assert np.allclose(dec.eigenvalues, K3_EIGS, atol=1e-12)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSymmetricError):  # circulant, so the symmetry check must come first
        sym_eig(circulant([0.0, 1.0, 0.0, 0.0]))
    S = np.array(laplacian(generate_graph("path", 300)).P)
    S[-1, -2] += 1e-6  # one asymmetric pair, in the last row block of the blockwise check
    with pytest.raises(NotSymmetricError, match="symmetry defect 1.000e-06"):
        sym_eig(S)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000), st.booleans())
def test_sym_eig_invariants(n, seed, blocks):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    if blocks:  # block-diagonal: the spectrum is the union of the blocks' spectra
        A[: n // 2, n // 2 :] = 0.0
        A[n // 2 :, : n // 2] = 0.0
    S = (A + A.T) / 2.0
    lam = sym_eig(S).eigenvalues
    norm = float(np.max(np.abs(lam)))
    assert lam.shape == (n,)
    assert np.all(np.diff(lam) >= 0.0)
    np.testing.assert_allclose(lam, np.linalg.eigh(S)[0], rtol=0, atol=1e-12 * (1.0 + norm))
    assert abs(lam.sum() - np.trace(S)) <= 1e-10 * (1.0 + norm) * n
    assert abs(np.sum(lam * lam) - np.sum(S * S)) <= 1e-10 * (1.0 + norm) ** 2 * n
    if blocks:
        halves = np.concatenate([sym_eig(S[: n // 2, : n // 2]).eigenvalues, sym_eig(S[n // 2 :, n // 2 :]).eigenvalues])
        np.testing.assert_allclose(lam, np.sort(halves), rtol=0, atol=1e-12 * (1.0 + norm))


def test_sym_eig_deterministic(k3):
    P = laplacian(k3).P
    a, b = sym_eig(P), sym_eig(P)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert (a.min, a.max) == (float(a.eigenvalues[0]), float(a.eigenvalues[-1]))


def test_spectral_data_k3(k3, k3_spectral):
    sd = k3_spectral
    P = laplacian(k3).P
    assert np.allclose(sd.col_norms_sq, [6, 6, 6])
    assert np.allclose(sd.nbhd_sizes, [3, 3, 3])
    # P^2 = 3P on the complete triangle, so the Gram matrix is P itself
    assert np.allclose(sd.gram, P, atol=1e-12)
    assert np.isclose(sd.min_pos_eig_gram, 3.0, atol=1e-12)
    assert np.isclose(sd.max_eig_metric, 6.0, atol=1e-12)
    assert np.isclose(sd.algebraic_connectivity, 3.0, atol=1e-12)


def test_spectral_data_p3(p3, p3_spectral):
    sd = p3_spectral
    assert np.allclose(sd.col_norms_sq, [2, 6, 2])
    assert np.allclose(sd.nbhd_sizes, [2, 3, 2])
    assert np.allclose(sd.eig_gram.eigenvalues, P3_GRAM_EIGS, atol=1e-12)
    assert np.isclose(sd.min_pos_eig_gram, 0.5, atol=1e-12)
    assert np.isclose(sd.max_eig_metric, P3_METRIC_MAX, atol=1e-10)


@pytest.mark.parametrize(
    "kind,n,d",
    [
        ("circulant", 6, 2),
        ("circulant", 7, 4),
        ("circulant", 9, 4),
        ("circulant", 200, 20),
        ("circulant", 800, 20),
        ("cycle", 300, 2),
        ("complete", 50, 49),
    ],
    ids=["6-2", "7-4", "9-4", "200-20", "800-20", "cycle-300", "complete-50"],
)
def test_regular_graph_closed_forms(monkeypatch, kind, n, d):
    # for d-regular graphs with the Laplacian: W = L^2/(d+1), so the smallest
    # nonzero Gram eigenvalue is a(G)^2/(d+1) and the metric maximum is d(d+1);
    # all three matrices are circulant and no eigensolver runs
    calls = count_eigvalsh(monkeypatch)
    g = generate_graph(kind, n, d=d if kind == "circulant" else None)
    sd = compute_spectral_data(laplacian(g), g)
    lap = sym_eig(laplacian(g).P).eigenvalues
    a = sd.algebraic_connectivity
    assert calls == []
    tol = 8 * n * EPS * sd.eig_gram.max
    np.testing.assert_allclose(lap, laplacian_closed_form(kind, n, d), rtol=0, atol=8 * n * EPS * lap[-1])
    np.testing.assert_allclose(sd.eig_gram.eigenvalues, np.sort(lap * lap / (d + 1)), rtol=0, atol=tol)
    assert sd.min_pos_eig_gram == pytest.approx(a * a / (d + 1), rel=1e-10, abs=tol)
    assert sd.max_eig_metric == pytest.approx(d * (d + 1), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 64), st.integers(0, 10_000), st.booleans())
def test_circulant_spectrum_matches_eigvalsh(n, seed, sparse):
    rng = np.random.default_rng(seed)
    half = rng.normal(size=n // 2 + 1)  # r_j = r_(n-j): half[min(j, n - j)]
    if sparse:
        half[rng.random(half.size) < 0.8] = 0.0
    S = circulant(half[np.minimum(np.arange(n), n - np.arange(n))])
    want = np.linalg.eigvalsh(S)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as solver:
        lam = sym_eig(S).eigenvalues
    assert solver.call_count == 0
    np.testing.assert_allclose(lam, want, rtol=0, atol=8 * n * EPS * max(float(np.max(np.abs(want))), 1e-300))


@pytest.mark.parametrize("factor,circulant_path", [(1e3, False), (0.1, True)])
def test_circulant_tolerance_and_fallback(monkeypatch, factor, circulant_path):
    # one symmetric pair off the first two rows, moved by factor * n eps |S|_F:
    # well beyond the tolerance it goes to eigvalsh, within it keeps the cosine sums
    S = laplacian(generate_graph("circulant", 40, d=6)).P.copy()
    n = S.shape[0]
    delta = factor * n * EPS * float(np.linalg.norm(S))
    S[5, 9] += delta
    S[9, 5] += delta
    want = np.linalg.eigvalsh(S)
    calls = count_eigvalsh(monkeypatch)
    lam = sym_eig(S).eigenvalues
    assert calls == ([] if circulant_path else [(n, n)])
    np.testing.assert_allclose(lam, want, rtol=0, atol=8 * n * EPS * float(want[-1]))


def test_one_eigendecomposition(monkeypatch):
    # one eigenvalue-only decomposition per matrix (W, then the metric
    # block), no eigenvectors; a(G) adds the Laplacian's on first read only
    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda S, _fn=fn, _log=calls[name]: _log.append(S.shape) or _fn(S))
    g = generate_graph("erdos_renyi", 30, p=0.2, seed=1)
    sd = compute_spectral_data(laplacian(g), g)
    assert calls == {"eigh": [], "eigvalsh": [(30, 30), (30, 30)]}
    a = sd.algebraic_connectivity
    assert sd.algebraic_connectivity == a == algebraic_connectivity(g)
    assert calls == {"eigh": [], "eigvalsh": [(30, 30)] * 4}


def test_algebraic_connectivity_values(k3, p3):
    assert np.isclose(algebraic_connectivity(k3), 3.0, atol=1e-12)
    assert np.isclose(algebraic_connectivity(p3), 1.0, atol=1e-12)
    k5 = generate_graph("complete", 5)
    assert np.isclose(algebraic_connectivity(k5), 5.0, atol=1e-12)


def test_consensus_direction_in_null_space(p3_spectral):
    ones = np.ones(3)
    assert np.max(np.abs(p3_spectral.gram @ ones)) <= 1e-10


def test_psd_certificates_k3(k3_spectral):
    psd_certificates(k3_spectral)
    # metric block is 3I + J
    assert np.isclose(k3_spectral.eig_metric.min, 3.0, atol=1e-10)


def test_psd_certificates_p3(p3_spectral):
    # diagonal dominance fails on the path graph's gram rows; the eigenvalue floor certifies
    psd_certificates(p3_spectral)
    assert p3_spectral.eig_gram.min >= -1e-10


def test_psd_certificates_detect_violation(monkeypatch, k3_spectral):
    # the second block, circ(1, -2, -2) with eigenvalues -3, 3, 3, is read by the cosine sums
    calls = count_eigvalsh(monkeypatch)
    blocks = (np.array([[1.0, -2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), circulant([1.0, -2.0, -2.0]))
    for bad_block in blocks:
        doctored = replace(k3_spectral, metric_block=bad_block, eig_metric=sym_eig(bad_block))
        with pytest.raises(CertificateFailedError, match="metric_block"):
            psd_certificates(doctored)
    assert calls == [(3, 3)]
    np.testing.assert_allclose(doctored.eig_metric.eigenvalues, [-3.0, 3.0, 3.0], rtol=0, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 40), st.integers(0, 10_000))
def test_spectral_inequalities_random_graphs(n, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_p=float(rng.uniform(0.05, 0.5)))
    sd = compute_spectral_data(laplacian(g), g)
    a = sd.algebraic_connectivity
    low = a * a / (g.d_max + 1)
    high = a * a / (g.d_min + 1)
    assert sd.min_pos_eig_gram >= low * (1 - 1e-9)
    assert sd.min_pos_eig_gram <= high * (1 + 1e-9)
    assert sd.max_eig_metric <= (g.d_max * (g.d_max + 1) + 4 * g.d_max**2 / (g.d_min + 1)) * (1 + 1e-9)
    assert sd.eig_gram.min >= -1e-10
    assert sd.eig_metric.min >= -1e-10


@pytest.mark.parametrize("n", [280, 300, 600])
def test_long_path_min_eig_in_sandwich(n):
    # lam_2(W) falls below 1e-9 lam_max on these paths; it is still the
    # smallest nonzero eigenvalue and must sit in a^2/(d_max+1) .. a^2/(d_min+1)
    g = generate_graph("path", n)
    sd = compute_spectral_data(laplacian(g), g)
    a = sd.algebraic_connectivity
    assert sd.min_pos_eig_gram < 1e-9 * sd.max_eig_metric
    assert a * a / 3.0 * (1 - 1e-9) <= sd.min_pos_eig_gram <= a * a / 2.0 * (1 + 1e-9)


def test_second_null_direction_is_degenerate():
    # two disjoint triangles: W has a two-dimensional null space
    g = generate_graph("cycle", 6)
    P = np.zeros((6, 6))
    P[:3, :3] = P[3:, 3:] = laplacian(generate_graph("complete", 3)).P
    with pytest.raises(DegenerateSpectrumError):
        compute_spectral_data(CommunicationMatrix(P=P, source="custom"), g)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("symmetric", [True, False])
def test_stack_apply_matches_matmul(d, symmetric):
    rng = np.random.default_rng(d)
    A = rng.normal(size=(9, 9))
    if symmetric:
        A = A + A.T
    v = rng.normal(size=(5, 9, d))
    want = np.matmul(A, v)
    np.testing.assert_allclose(stack_apply(A, v), want, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(stack_apply(A, v[1:3]), want[1:3], rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(stack_apply(A, v[:, :, ::-1]), want[:, :, ::-1], rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(stack_apply(A, v[2]), A @ v[2], rtol=1e-13, atol=1e-13)
    assert stack_apply(A, v).shape == v.shape
