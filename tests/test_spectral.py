import functools
import math
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admmnet import analysis, graph, spectral
from admmnet.errors import CertificateFailedError, DegenerateSpectrumError, EigNoConvergenceError
from admmnet.graph import (
    CommunicationMatrix,
    dense_products_are_cheaper,
    generate_graph,
    laplacian,
    neighborhood_slots,
    stack_apply,
)
from admmnet.spectral import CLOSED_FORM, EXACT, Spectrum, Witness, compute_spectral_data, psd_certificates
from conftest import dense, random_circulant, random_connected_graph, with_slot_products

# characteristic polynomials by hand: P3 Laplacian -> (0, 1, 3), K3 -> (0, 3, 3)
P3_EIGS = (0.0, 1.0, 3.0)
K3_EIGS = (0.0, 3.0, 3.0)
# P3 Gram matrix spectrum worked out by symmetry reduction
P3_GRAM_EIGS = (0.0, 0.5, 3.5)
P3_METRIC_MAX = (27.0 + math.sqrt(681.0)) / 12.0
EPS = np.finfo(float).eps


def count_eigvalsh(monkeypatch) -> list:
    calls = []
    fn = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda S, _fn=fn: calls.append(S.shape) or _fn(S))
    return calls


def algebraic_connectivity(g) -> float:
    """a(G) the plain way: the second eigenvalue of g's Laplacian, built dense, by eigvalsh."""
    return float(np.linalg.eigvalsh(dense(laplacian(g)))[1])


def laplacian_closed_form(kind: str, n: int, d: int) -> np.ndarray:
    """Laplacian spectrum: d - 2 sum_{s <= d/2} cos(2 pi k s / n) on circulants and cycles, (0, n, ..., n) on K_n."""
    if kind == "complete":
        return np.array([0.0] + [float(n)] * (n - 1))
    k = np.arange(n)[:, None]
    s = np.arange(1, d // 2 + 1)[None, :]
    return np.sort(d - 2.0 * np.cos(2.0 * np.pi * k * s / n).sum(axis=1))


def test_sym_eig_identity(monkeypatch):
    assert np.allclose(spectral._eigvalsh(np.eye(3)), [1, 1, 1])

    def refuse(S):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    with pytest.raises(EigNoConvergenceError, match="did not converge"):
        spectral._eigvalsh(np.eye(3))


def test_sym_eig_p3(p3):
    assert np.allclose(spectral._eigvalsh(dense(laplacian(p3))), P3_EIGS, atol=1e-12)


def test_sym_eig_k3(k3):
    # K3's Laplacian is circulant: its spectrum from its symbol, read from the first row of its slots
    lam = spectral._unfolded(laplacian(k3).symbol, 3)
    assert np.allclose(lam, K3_EIGS, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000), st.booleans())
def test_sym_eig_invariants(n, seed, blocks):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    if blocks:  # block-diagonal: the spectrum is the union of the blocks' spectra
        A[: n // 2, n // 2 :] = 0.0
        A[n // 2 :, : n // 2] = 0.0
    S = (A + A.T) / 2.0
    lam = spectral._eigvalsh(S)
    norm = float(np.max(np.abs(lam)))
    assert lam.shape == (n,)
    assert np.all(np.diff(lam) >= 0.0)
    np.testing.assert_allclose(lam, np.linalg.eigh(S)[0], rtol=0, atol=1e-12 * (1.0 + norm))
    assert abs(lam.sum() - np.trace(S)) <= 1e-10 * (1.0 + norm) * n
    assert abs(np.sum(lam * lam) - np.sum(S * S)) <= 1e-10 * (1.0 + norm) ** 2 * n
    if blocks:
        halves = np.concatenate([spectral._eigvalsh(S[: n // 2, : n // 2]), spectral._eigvalsh(S[n // 2 :, n // 2 :])])
        np.testing.assert_allclose(lam, np.sort(halves), rtol=0, atol=1e-12 * (1.0 + norm))


def test_sym_eig_deterministic(k3):
    P = dense(laplacian(k3))
    a, b = (Spectrum.of(spectral._eigvalsh(P), EXACT) for _ in range(2))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert (a.min, a.max) == (float(a.eigenvalues[0]), float(a.eigenvalues[-1]))


def test_spectral_data_k3(k3, k3_spectral):
    sd = k3_spectral
    P = dense(laplacian(k3))
    assert np.allclose(sd.comm.col_norms_sq, [6, 6, 6])
    assert np.allclose(sd.comm.nbhd_sizes, [3, 3, 3])
    # P^2 = 3P on the complete triangle, so the Gram matrix is P itself
    assert np.allclose(sd.comm.W, P, atol=1e-12)
    assert np.isclose(sd.min_pos_eig_gram, 3.0, atol=1e-12)
    assert np.isclose(sd.max_eig_metric, 6.0, atol=1e-12)
    assert np.isclose(sd.algebraic_connectivity, 3.0, atol=1e-12)


def test_spectral_data_p3(p3, p3_spectral):
    sd = p3_spectral
    assert np.allclose(sd.comm.col_norms_sq, [2, 6, 2])
    assert np.allclose(sd.comm.nbhd_sizes, [2, 3, 2])
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
    sd = compute_spectral_data(laplacian(g))
    lap = spectral._unfolded(laplacian(g).symbol, n)
    a = sd.algebraic_connectivity
    assert calls == []
    assert (sd.eig_gram.kind, sd.eig_metric.kind, sd.connectivity[1]) == (CLOSED_FORM,) * 3
    tol = 8 * n * EPS * sd.eig_gram.max
    np.testing.assert_allclose(lap, laplacian_closed_form(kind, n, d), rtol=0, atol=8 * n * EPS * lap[-1])
    np.testing.assert_allclose(sd.eig_gram.eigenvalues, np.sort(lap * lap / (d + 1)), rtol=0, atol=tol)
    assert sd.min_pos_eig_gram == pytest.approx(a * a / (d + 1), rel=1e-10, abs=tol)
    assert sd.max_eig_metric == pytest.approx(d * (d + 1), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 64), st.integers(0, 10_000), st.sampled_from([2, 4, 6, 20]))
def test_circulant_spectrum_matches_eigvalsh(n, seed, degree):
    # P's, W's and M - W's spectra from the symbol, against eigvalsh of the
    # dense matrices, on circulants with random offsets
    g = random_circulant(np.random.default_rng(seed), n, degree)
    comm = laplacian(g)
    assert comm.circulant
    sd = compute_spectral_data(comm)
    W = gram_of(comm, g)
    for got, A in (
        (spectral._unfolded(comm.symbol, n), dense(comm)),
        (sd.eig_gram.eigenvalues, W),
        (sd.eig_metric.eigenvalues, np.diag(comm.col_norms_sq) - W),
    ):
        want = np.linalg.eigvalsh(A)
        np.testing.assert_allclose(got, want, rtol=0, atol=8 * n * EPS * float(np.max(np.abs(want))))
    assert sd.eig_gram.eigenvalues[0] == 0.0 and sd.connectivity == (float(spectral._unfolded(comm.symbol, n)[1]), CLOSED_FORM)


def test_one_eigendecomposition(monkeypatch):
    # one eigenvalue-only decomposition per matrix (W, then the metric
    # block), no eigenvectors; a(G) adds the Laplacian's on first read only
    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda S, _fn=fn, _log=calls[name]: _log.append(S.shape) or _fn(S))
    g = generate_graph("erdos_renyi", 30, p=0.2, seed=1)
    sd = compute_spectral_data(laplacian(g))
    assert calls == {"eigh": [], "eigvalsh": [(30, 30), (30, 30)]}
    a = sd.algebraic_connectivity
    assert sd.algebraic_connectivity == a == algebraic_connectivity(g)
    assert calls == {"eigh": [], "eigvalsh": [(30, 30)] * 4}


def test_metric_block_handed_to_eigvalsh_is_diag_m_minus_w_bit_for_bit(monkeypatch):
    # eigvalsh reads the sign of zero entries, so the transient M - W in W's
    # upper triangle, the lower one of the W.T that eigvalsh reads and all it
    # reads, must carry +0.0 where diag(m) - W does, not the -0.0 of a negated W
    seen = []
    fn = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda S, _fn=fn: seen.append(np.array(S)) or _fn(S))
    g = generate_graph("erdos_renyi", 30, p=0.2, seed=1)
    sd = compute_spectral_data(laplacian(g))
    want = np.diag(sd.comm.col_norms_sq) - sd.comm.W
    lower = np.tril_indices(g.n)
    got, want_lower = seen[1][lower], want[lower]
    assert np.array_equal(got, want_lower) and np.array_equal(np.signbit(got), np.signbit(want_lower))
    assert not np.signbit(got[got == 0.0]).any()
    assert np.array_equal(sd.eig_metric.eigenvalues, fn(want))


@pytest.mark.parametrize(
    "kind,n,kw",
    [("erdos_renyi", 30, {"p": 0.2, "seed": 1}), ("path", 12, {}), ("circulant", 20, {"d": 4}), ("erdos_renyi", 400, {"p": 0.05, "seed": 1})],
)
def test_laplacian_problem_reads_a_from_its_own_p(kind, n, kw):
    # a(G) is the second eigenvalue of the problem's own P, the Laplacian,
    # bit for bit (a circulant's comes from its symbol: to 8 eps of the
    # closed form), and reading it leaves W as it was
    g = generate_graph(kind, n, **kw)
    sd = compute_spectral_data(laplacian(g))
    W = sd.comm.W.copy()
    if sd.comm.circulant:
        assert sd.algebraic_connectivity == pytest.approx(laplacian_closed_form(kind, n, kw["d"])[1], rel=8 * EPS)
    else:
        assert sd.algebraic_connectivity == algebraic_connectivity(g)
    assert sd.comm.W.tobytes() == W.tobytes()


def test_algebraic_connectivity_values(k3, p3):
    def a_of(g):
        return compute_spectral_data(laplacian(g)).algebraic_connectivity

    assert np.isclose(a_of(k3), 3.0, atol=1e-12)
    assert np.isclose(a_of(p3), 1.0, atol=1e-12)
    k5 = generate_graph("complete", 5)
    assert np.isclose(a_of(k5), 5.0, atol=1e-12)


def test_consensus_direction_in_null_space(p3_spectral):
    ones = np.ones(3)
    assert np.max(np.abs(p3_spectral.comm.W @ ones)) <= 1e-10


def test_psd_certificates_k3(k3_spectral):
    psd_certificates(k3_spectral)
    # metric block is 3I + J
    assert np.isclose(k3_spectral.eig_metric.min, 3.0, atol=1e-10)


def test_psd_certificates_p3(p3_spectral):
    # diagonal dominance fails on the path graph's gram rows; the eigenvalue floor certifies
    psd_certificates(p3_spectral)
    assert p3_spectral.eig_gram.min >= -1e-10


def test_psd_certificates_detect_violation(k3_spectral):
    # the second block, circ(1, -2, -2) with eigenvalues -3, 3, 3, is read from its symbol (-3, 3)
    bad_blocks = (
        Spectrum.of(spectral._eigvalsh(np.array([[1.0, -2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])), EXACT),
        Spectrum.of(spectral._unfolded(np.array([-3.0, 3.0]), 3), CLOSED_FORM),
    )
    for bad_block in bad_blocks:
        doctored = replace(k3_spectral, eig_metric=bad_block)
        with pytest.raises(CertificateFailedError, match="metric_block"):
            psd_certificates(doctored)
    np.testing.assert_allclose(doctored.eig_metric.eigenvalues, [-3.0, 3.0, 3.0], rtol=0, atol=1e-14)


def test_max_eig_metric_follows_the_metric_spectrum(k3_spectral):
    # max_eig_metric is read off eig_metric, so a replaced spectrum carries its own top
    top = Spectrum.of(np.array([1.0, 2.0, 7.5]), EXACT)
    doctored = replace(k3_spectral, eig_metric=top)
    assert doctored.max_eig_metric == top.max == 7.5
    assert k3_spectral.max_eig_metric == k3_spectral.eig_metric.max


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 40), st.integers(0, 10_000))
def test_spectral_inequalities_random_graphs(n, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_p=float(rng.uniform(0.05, 0.5)))
    sd = compute_spectral_data(laplacian(g))
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
    sd = compute_spectral_data(laplacian(g))
    a = sd.algebraic_connectivity
    assert sd.min_pos_eig_gram < 1e-9 * sd.max_eig_metric
    assert a * a / 3.0 * (1 - 1e-9) <= sd.min_pos_eig_gram <= a * a / 2.0 * (1 + 1e-9)


def test_second_null_direction_is_degenerate():
    # two disjoint paths inside a 6-cycle: W has a two-dimensional null space
    # (no Laplacian of a connected graph has one, so the matrix is built from slot values)
    g = generate_graph("cycle", 6)
    P = np.zeros((6, 6))
    P[:3, :3] = P[3:, 3:] = dense(laplacian(generate_graph("path", 3)))
    rows, cols, starts = neighborhood_slots(g)
    with pytest.raises(DegenerateSpectrumError):
        compute_spectral_data(CommunicationMatrix(n=g.n, cols=cols, starts=starts, values=P[rows, cols]))


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


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10_000), st.sampled_from([1, 3]))
def test_operator_products_keep_their_bits(n, seed, d):
    """W is D^(-1/2) P's syrk, and each product is bit for bit np.matmul on an (n, d) operand and stack_apply on a stack.

    A circulant draw (K2, K3, a cycle) takes W x by np.fft instead: to 1e-12 of the dense W there.
    """
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_p=float(rng.uniform(0.05, 0.5)))
    comm = laplacian(g)
    assert compute_spectral_data(comm).comm is comm
    assert comm.dense_products  # below the crossover at n <= 30
    P = dense(comm)
    B = P * (1.0 / np.sqrt(g.degrees + 1.0))[:, None]
    assert np.array_equal(comm.W, B.T @ B)
    assert np.array_equal(comm.col_norms_sq, np.einsum("ji,ji->i", P, P))
    x, stack = rng.normal(size=(n, d)), rng.normal(size=(4, n, d))
    for got_of, A in ((comm.p, P), (comm.pt, P.T), (comm.w, comm.W)):
        if got_of == comm.w and comm.circulant:
            for v in (x, stack):
                want = np.matmul(A, v)
                assert np.linalg.norm(got_of(v) - want) <= 1e-12 * np.linalg.norm(want)
            continue
        assert np.array_equal(got_of(x), np.matmul(A, x))
        assert np.array_equal(got_of(stack), stack_apply(A, stack))
    for got_of, A in ((comm.p, P), (comm.pt, P.T)):
        out = np.empty((n, d))
        assert got_of(x, out=out) is out
        assert np.array_equal(out, np.matmul(A, x))


def test_operator_forms_w_on_first_read_only(p3):
    mat = laplacian(p3)
    assert "W" not in vars(mat)
    mat.p(np.ones((3, 1)))
    mat.pt(np.ones((2, 3, 1)))
    assert "W" not in vars(mat)
    assert mat.W is mat.W


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10_000), st.sampled_from([1, 3]))
def test_slot_products_match_dense_products(n, seed, d):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_p=float(rng.uniform(0.05, 0.5)))
    comm = laplacian(g)
    mat, P = with_slot_products(comm), dense(comm)
    assert not mat.dense_products
    x, stack = rng.normal(size=(n, d)), rng.normal(size=(7, n, d))
    tol = dict(rtol=1e-12, atol=1e-12 * float(np.abs(P).max()) * n)
    for got_of, A in ((mat.p, P), (mat.pt, P.T)):
        np.testing.assert_allclose(got_of(x), A @ x, **tol)
        out = np.empty((n, d))
        assert got_of(x, out=out) is out
        np.testing.assert_allclose(out, A @ x, **tol)
        for v in (stack, stack[::2], stack[3], stack.reshape(7, 1, n, d)):
            got = got_of(v)
            assert got.shape == v.shape
            np.testing.assert_allclose(got, np.matmul(A, v), **tol)


@settings(max_examples=10, deadline=None)
@given(st.integers(300, 400), st.integers(0, 10_000))
def test_vector_slot_products_match_the_column_path(n, seed):
    # above the product crossover an (n,) operand of P, P' and W runs one
    # gather, scale and reduceat: bit for bit the (n, 1) operand's column,
    # which, like every column of (n, d), sums as one (S, d) reduceat would
    rng = np.random.default_rng(seed)
    g = generate_graph("erdos_renyi", n, p=float(rng.uniform(0.02, 0.045)), seed=seed)
    comm = laplacian(g)
    assert not comm.dense_products
    P = dense(comm)
    x = rng.normal(size=n)
    for got_of, A in ((comm.p, P), (comm.pt, P.T), (comm.w_by_products, comm.W)):
        got = got_of(x)
        assert got.shape == (n,)
        assert np.array_equal(got.view(np.int64), got_of(x[:, None])[:, 0].view(np.int64))
        np.testing.assert_allclose(got, A @ x, rtol=1e-12, atol=1e-12 * float(np.abs(A).max()) * n)
    X = rng.normal(size=(n, 3))
    rows_at_once = np.add.reduceat(X[comm.cols] * comm.values[:, None], comm.starts, axis=0)
    assert np.array_equal(comm.p(X).view(np.int64), rows_at_once.view(np.int64))
    ints = rng.integers(-5, 5, size=n)
    assert np.array_equal(comm.p(ints), comm.p(ints.astype(float)))


def test_stack_products_allocate_at_most_one_dense_array():
    """Peak traced bytes of P and P' on a (T+1, n, 1) stack, in units of one n x n float array.

    The result is 0.25 of one here; each column gathers into n + 2|E|
    entries, 0.02 of one; gathering all 301 rounds at once would take 6.
    """
    n, T = 1200, 300
    g = generate_graph("erdos_renyi", n, p=20 / n, seed=1)
    mat = laplacian(g)
    assert not mat.dense_products
    stack = np.random.default_rng(0).normal(size=(T + 1, n, 1))
    for product in (mat.p, mat.pt):
        tracemalloc.start()
        try:
            product(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) <= 0.5


@pytest.mark.parametrize(
    "kind,n,kw,dense",
    [
        ("circulant", 200, {"d": 20}, True),  # circulant-long's graph
        ("erdos_renyi", 80, {"p": 0.15, "seed": 0}, True),  # edge-l1's graph
        ("erdos_renyi", 800, {"p": 0.05, "seed": 1}, False),  # dense-spectral's graph
        ("erdos_renyi", 400, {"p": 0.05, "seed": 1}, False),
        ("erdos_renyi", 1600, {"p": 0.0125, "seed": 1}, False),
    ],
)
def test_crossover_by_graph_size_and_fill(kind, n, kw, dense):
    g = generate_graph(kind, n, **kw)
    comm = laplacian(g)
    assert dense_products_are_cheaper(comm) is dense
    assert comm.dense_products is dense


def condition_number(sd) -> float:
    return sd.eig_gram.max / sd.min_pos_eig_gram


def dense_pinv(comm, B) -> np.ndarray:
    """W^+ B as the dense solve takes it, from W + 11'/n."""
    X = np.linalg.solve(comm.W + 1.0 / comm.n, B)
    return X - X.mean(axis=0)


@pytest.mark.parametrize(
    "kind,n,kw", [("path", 600, {}), ("circulant", 1600, {"d": 20})], ids=["path-600", "circulant-1600"]
)
def test_ill_conditioned_w_pinv_takes_the_dense_solve(kind, n, kw):
    # above the product crossover, but kappa (2e10 and 2e7) puts the
    # conjugate-gradient bound far past the cost of one dense solve; the
    # circulant takes neither, but np.fft on its symbol, with no W
    comm = laplacian(generate_graph(kind, n, **kw))
    sd = compute_spectral_data(comm)
    assert not comm.dense_products
    assert not graph.conjugate_gradients_are_cheaper(comm, graph.cg_step_bound(condition_number(sd)), 1)
    B = np.random.default_rng(n).normal(size=(n, 1))
    with mock.patch.object(CommunicationMatrix, "_cg_pinv", side_effect=AssertionError("conjugate gradients")):
        if comm.circulant:
            with mock.patch.object(np.linalg, "solve", side_effect=AssertionError("dense solve")):
                got = comm.w_pinv(B, condition_number(sd))
            assert "W" not in vars(comm)
            # W^+ B solves W X = B - mean(B), checked with P itself, to a
            # backward error of 1e-12 (the forward error grows with kappa)
            residual = comm.w_by_products(got) - (B - B.mean())
            assert np.linalg.norm(residual) <= 1e-12 * (sd.eig_gram.max * np.linalg.norm(got) + np.linalg.norm(B))
            assert abs(float(got.sum())) <= 1e-13 * np.linalg.norm(got)
            return
        got = comm.w_pinv(B, condition_number(sd))
    assert np.array_equal(got, dense_pinv(comm, B))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 300), st.integers(0, 10_000), st.sampled_from([2, 4, 6, 20]), st.sampled_from([1, 3]))
def test_circulant_w_products_match_a_dense_w(n, seed, degree, d):
    """W x and W^+ B by np.fft on the symbol, against the dense W formed here, with no W formed by the matrix.

    W x to 1e-12 relative; W^+ B to a relative backward error of 1e-12 in
    W X = B - mean(B), since its forward error grows with kappa (a cycle of
    300 nodes has kappa 8e7), and orthogonal to 1.
    """
    rng = np.random.default_rng(seed)
    g = random_circulant(rng, n, degree)
    comm = laplacian(g)
    assert comm.circulant
    x, stack, B = rng.normal(size=(n, d)), rng.normal(size=(5, n, d)), rng.normal(size=(n, d))
    got_x, got_stack, X = comm.w(x), comm.w(stack), comm.w_pinv(B, math.inf)
    assert comm.w(x[:, 0]).shape == (n,)
    assert "W" not in vars(comm)
    W = gram_of(comm, g)
    for got, v in ((got_x, x), (got_stack, stack), (comm.w(x[:, 0]), x[:, 0])):
        want = np.matmul(W, v)
        assert got.shape == v.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    lam_max = float(np.max(comm.gram_symbol))
    residual = W @ X - (B - B.mean(axis=0))
    assert np.linalg.norm(residual) <= 1e-12 * (lam_max * np.linalg.norm(X) + np.linalg.norm(B))
    assert np.all(np.abs(X.sum(axis=0)) <= 1e-13 * np.linalg.norm(X, axis=0))


@pytest.mark.parametrize("n", [1600, 10_000])
def test_circulant_second_gram_eigenvalue_matches_mpmath(n):
    # lam_2(W) = lam_1(P)^2 / 21, lam_1(P) = 2 sum_(j in N(0), j != 0) sin^2(pi r / n) = 4 sum_(s <= 10) sin^2(pi s / n):
    # the angle reduction keeps every term's angle in [0, pi/2]; with angles
    # near pi for the offsets n - s it reads 2.5e-14 and 1.2e-13 relative,
    # and the syrk W's first row, whose sum rounds to 4e-15 and not 0, 2.2e-9 at n=1600
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    comm = laplacian(generate_graph("circulant", n, d=20))
    sd = compute_spectral_data(comm)
    lam_p = 4 * mpmath.fsum(mpmath.sin(mpmath.pi * s / n) ** 2 for s in range(1, 11))
    want = lam_p**2 / 21
    assert float(abs(sd.min_pos_eig_gram - want) / want) <= 1e-15
    assert "W" not in vars(comm)


@pytest.mark.parametrize("n,p,d", [(800, 0.05, 1), (1600, 0.0125, 3)], ids=["er-800-d1", "er-1600-d3"])
def test_well_conditioned_w_pinv_takes_conjugate_gradients_with_no_dense_array(n, p, d):
    """dense-spectral's graph (kappa 4.35, d = 1) and ER n=1600 (kappa 9.35, d = 3): W^+ B over the slots, no n x n array.

    Conjugate gradients take one column at a time, so whatever d the traced
    peak is one S-float gather buffer for S slots, numpy's clipped copy of
    the S slot indices, and a few n-vectors; the dense solve would hold
    W + 11'/n, one n x n array.
    """
    comm = laplacian(generate_graph("erdos_renyi", n, p=p, seed=1))
    sd = compute_spectral_data(comm)
    B = np.random.default_rng(0).normal(size=(n, d))
    with mock.patch.object(np.linalg, "solve", side_effect=AssertionError("dense solve")):
        tracemalloc.start()
        try:
            got = comm.w_pinv(B, condition_number(sd))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 8 * (2 * comm.cols.size + 10 * n)
    assert peak / (8 * n * n) <= 0.5
    want = dense_pinv(comm, B)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_w_pinv_route_counts_the_columns():
    # dense-spectral's graph: 36 bound steps on one column cost less than the
    # solve (5-7 ms against 15-23 ms, one thread); on three columns the rule
    # counts three times that and takes the solve, with the two within 10%
    comm = laplacian(generate_graph("erdos_renyi", 800, p=0.05, seed=1))
    sd = compute_spectral_data(comm)
    steps = graph.cg_step_bound(condition_number(sd))
    assert steps == 36
    assert graph.conjugate_gradients_are_cheaper(comm, steps, 1)
    assert not graph.conjugate_gradients_are_cheaper(comm, steps, 3)
    B = np.random.default_rng(0).normal(size=(800, 3))
    with mock.patch.object(CommunicationMatrix, "_cg_pinv", side_effect=AssertionError("conjugate gradients")):
        got = comm.w_pinv(B, condition_number(sd))
    assert np.array_equal(got, dense_pinv(comm, B))


def test_w_pinv_falls_back_to_the_dense_solve_when_cg_misses():
    comm = laplacian(generate_graph("erdos_renyi", 800, p=0.05, seed=1))
    sd = compute_spectral_data(comm)
    B = np.random.default_rng(0).normal(size=(800, 1))
    with mock.patch.object(graph, "cg_step_bound", return_value=3):  # CG_RTOL is out of reach in 3 steps
        assert comm._cg_pinv(B, 3) is None
        got = comm.w_pinv(B, condition_number(sd))
    assert np.array_equal(got, dense_pinv(comm, B))


def gram_of(comm, g) -> np.ndarray:
    B = dense(comm) * (1.0 / np.sqrt(g.degrees + 1.0))[:, None]
    return B.T @ B


@pytest.mark.parametrize("kind,n,kw", [("erdos_renyi", 40, {"p": 0.2, "seed": 2}), ("circulant", 30, {"d": 6}), ("path", 9, {})])
def test_metric_block_leaves_w_bytes_unchanged(monkeypatch, kind, n, kw):
    # M - W and the Laplacian are built in W's own storage and W is
    # restored, also when a spectrum raises; a circulant P writes neither
    g = generate_graph(kind, n, **kw)
    comm = laplacian(g)
    want = gram_of(comm, g).tobytes()
    sd = compute_spectral_data(comm)
    assert sd.algebraic_connectivity > 0
    assert sd.comm.W.tobytes() == want

    seen = []

    def second_call_raises(S, _fn=spectral._eigvalsh):
        seen.append(S)
        if len(seen) == 2:
            raise EigNoConvergenceError("refused")
        return _fn(S)

    monkeypatch.setattr(spectral, "_eigvalsh", second_call_raises)
    if comm.circulant:
        compute_spectral_data(comm)
        assert seen == []
    else:
        with pytest.raises(EigNoConvergenceError):
            compute_spectral_data(comm)
        assert seen[0] is comm.W and seen[1].base is comm.W  # the metric block lives in W's storage
    assert comm.W.tobytes() == want


# --- certified scalars above the size crossover ---------------------------------


def cholesky_kernel(A: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of A by the kernel ``spectral._factor_norm`` calls, into a NaN-filled column-major buffer."""
    F = np.full(A.shape, np.nan, order="F")
    with np.errstate(invalid="ignore"):
        spectral._umath_linalg.cholesky_lo(A, out=F, signature="d->d")
    return F


def test_cholesky_reads_only_the_lower_triangle():
    # each certificate's matrix, and M - W and the Laplacian for eigvalsh, is
    # written into W's upper triangle, the lower one of the F-contiguous W.T
    # that the solvers read, while W's lower triangle keeps W, from which
    # the upper one is restored; the certificates' kernel reads as little
    rng = np.random.default_rng(0)
    B = rng.normal(size=(60, 60))
    A = B @ B.T + 60.0 * np.eye(60)
    upper_nan = A.copy()
    upper_nan[np.triu_indices(60, 1)] = np.nan
    assert np.array_equal(np.linalg.cholesky(upper_nan), np.linalg.cholesky(A))
    assert np.array_equal(cholesky_kernel(upper_nan), np.linalg.cholesky(A))
    assert np.array_equal(np.linalg.eigvalsh(upper_nan).view(np.int64), np.linalg.eigvalsh(A).view(np.int64))
    storage = A.copy()
    storage[np.tril_indices(60, -1)] = np.nan  # W's lower triangle, not A's
    view = storage.T
    assert view.flags.f_contiguous and np.isnan(view[np.triu_indices(60, 1)]).all()
    assert np.array_equal(np.linalg.cholesky(view), np.linalg.cholesky(A))
    assert np.array_equal(cholesky_kernel(view), np.linalg.cholesky(A))
    assert np.array_equal(np.linalg.eigvalsh(view).view(np.int64), np.linalg.eigvalsh(A).view(np.int64))


@pytest.mark.parametrize("mode", ["plus-p", "diagonal", "laplacian"])
def test_factor_norm_matches_numpy_cholesky_bit_for_bit(mode):
    # into a buffer pre-filled with NaN, the kernel's factor, made absolute,
    # equals np.linalg.cholesky's, and so does its norm taken in the buffer's
    # column-major order: the upper triangle is zeroed and nothing stale
    # leaks; the same buffer then takes the next matrix. numpy sums a row
    # pairwise where it is contiguous, so C order moves the norm's last bits
    n = 120
    comm = laplacian(generate_graph("erdos_renyi", n, p=0.1, seed=2))
    W = comm.W
    kwargs = {"plus-p": {"p": 0.3}, "diagonal": {"p": 0.0}, "laplacian": {"p": 0.3, "lap": comm}}[mode]
    F = np.full((n, n), np.nan, order="F")
    for shift in (1.0, 2.0):
        diag = W.diagonal() + shift if mode != "laplacian" else comm.values[comm.rows == comm.cols] + shift
        with spectral._written_below(W, diag, **kwargs) as A:
            R = np.asfortranarray(np.abs(np.linalg.cholesky(A)))
        want = float(R.sum(axis=1).max()) * float(R.sum(axis=0).max())
        got = spectral._factor_norm(W, F, diag, **kwargs)
        assert np.array_equal(F, R) and not np.isnan(F).any()
        assert got == want
        R = np.ascontiguousarray(R)
        assert got == pytest.approx(float(R.sum(axis=1).max()) * float(R.sum(axis=0).max()), rel=2 * n * EPS, abs=0)
        F[np.triu_indices(n, 1)] = np.nan  # stale entries where the next factor's zeros go


def test_non_pd_matrix_gives_none_without_warnings():
    # a failed factorization comes back NaN-filled with the invalid flag
    # raised; _factor_norm swallows the flag, leaves the error state as it was and returns None
    n = 80
    comm = laplacian(generate_graph("erdos_renyi", n, p=0.1, seed=3))
    W = comm.W
    want = W.tobytes()
    before = np.geterr()
    F = spectral._factor_buffer(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # lam_min(W) = 0, so W - I is indefinite
        assert spectral._factor_norm(W, F, W.diagonal() - 1.0, 0.0) is None
        assert spectral._factor_norm(W, F, comm.values[comm.rows == comm.cols] - 1.0, 0.0, lap=comm) is None
    assert np.isnan(F).all()
    assert np.geterr() == before
    assert W.tobytes() == want


def test_failed_backoff_retried_in_the_same_buffer(monkeypatch):
    # a first back-off that cannot factor (past the eigenvalue) leaves a
    # NaN-filled buffer; the retry in that buffer proves the same sigma and
    # tau as with a fresh buffer for every factorization
    comm = er_comm(600)
    monkeypatch.setattr(spectral, "BACKOFFS", (-1e-3, spectral.BACKOFFS[1]))
    fn = spectral._factor_norm

    def factored(fresh: bool):
        norms, buffers = [], []

        def logged(W, F, *args, **kwargs):
            buffers.append(spectral._factor_buffer(comm.n) if fresh else F)
            norms.append(fn(W, buffers[-1], *args, **kwargs))
            return norms[-1]

        monkeypatch.setattr(spectral, "_factor_norm", logged)
        sd = compute_spectral_data(comm)
        assert [norm is None for norm in norms] == [True, False, True, False]
        assert all(F is buffers[0] for F in buffers) is not fresh
        assert (sd.eig_gram.kind, sd.eig_metric.kind) == (spectral.CERTIFIED,) * 2
        return sd

    shared, fresh = factored(fresh=False), factored(fresh=True)
    assert (shared.min_pos_eig_gram, shared.max_eig_metric) == (fresh.min_pos_eig_gram, fresh.max_eig_metric)
    assert (shared.eig_gram, shared.eig_metric, shared.witness) == (fresh.eig_gram, fresh.eig_metric, fresh.witness)


def test_one_factor_buffer_per_spectral_call(monkeypatch):
    # both certificates of a compute_spectral_data call factor into one
    # column-major buffer, freed when the call returns; a(G) allocates its own
    comm = er_comm(600)
    refs, alive = [], []
    fn = spectral._factor_norm

    def logged(W, F, *args, **kwargs):
        assert F.flags.f_contiguous and F.shape == (comm.n, comm.n)
        alive.append(refs[-1]() is F if refs else None)  # the previous factorization's buffer, if it still lives
        refs.append(weakref.ref(F))
        return fn(W, F, *args, **kwargs)

    monkeypatch.setattr(spectral, "_factor_norm", logged)
    sd = compute_spectral_data(comm)
    assert (sd.eig_gram.kind, sd.eig_metric.kind) == (spectral.CERTIFIED,) * 2
    assert alive == [None, True]
    assert len(refs) == 2 and refs[0]() is None and refs[1]() is None
    assert sd.connectivity[1] == spectral.CERTIFIED
    assert len(refs) == 3 and refs[2]() is None  # a new buffer: the call's own was already gone


@pytest.mark.parametrize("mode", ["diagonal", "plus-p", "negate", "laplacian"])
@pytest.mark.parametrize("raises", [False, True])
def test_written_below_restores_w_bit_for_bit(monkeypatch, mode, raises):
    # every mode yields W.T with the matrix in its lower triangle and gives W
    # back bit for bit, also when the block raises; the diagonal-only mode
    # (the M - W certificate) writes and restores only the diagonal
    n = 90
    g = generate_graph("erdos_renyi", n, p=0.1, seed=4)
    comm = laplacian(g)
    W = comm.W
    want = W.copy()
    diag = np.random.default_rng(5).normal(size=n)
    kwargs = {
        "diagonal": {},
        "plus-p": {"p": 0.3},
        "negate": {"negate": True},
        "laplacian": {"p": 0.3, "lap": comm},
    }[mode]
    below = {
        "diagonal": want,
        "plus-p": want + 0.3,
        "negate": 0.0 - want,
        "laplacian": dense(comm) + 0.3,
    }[mode]
    passes = []
    fn = spectral._each_above
    monkeypatch.setattr(spectral, "_each_above", lambda W, op: passes.append(op.__name__) or fn(W, op))
    strict = np.tril_indices(n, -1)
    try:
        with spectral._written_below(W, diag, **kwargs) as A:
            assert A.base is W and A.flags.f_contiguous
            assert np.array_equal(A[strict], below[strict])
            assert not np.signbit(A[strict][A[strict] == 0.0]).any()
            assert np.array_equal(np.diagonal(A), diag)
            assert np.array_equal(W[strict], want[strict])  # W's lower triangle is left alone
            if raises:
                raise EigNoConvergenceError("refused")
    except EigNoConvergenceError:
        assert raises
    assert W.tobytes() == want.tobytes()
    assert passes == ([] if mode == "diagonal" else ["write", "restore"])


@pytest.mark.parametrize("n", [600, 800])
def test_certified_scalars_bound_the_eigenvalues(n):
    g = generate_graph("erdos_renyi", n, p=0.05, seed=1)
    comm = laplacian(g)
    W = comm.W.copy()
    sd = compute_spectral_data(comm)
    sigma, tau, sigma_a = sd.min_pos_eig_gram, sd.max_eig_metric, sd.algebraic_connectivity
    assert (sd.eig_gram.kind, sd.eig_metric.kind, sd.connectivity[1]) == (spectral.CERTIFIED,) * 3
    assert sd.eig_gram.eigenvalues is None and sd.eig_metric.eigenvalues is None
    assert comm.W.tobytes() == W.tobytes()  # every certificate leaves W bit for bit
    lam = np.linalg.eigvalsh(W)
    metric = np.linalg.eigvalsh(np.diag(comm.col_norms_sq) - W)
    a = np.linalg.eigvalsh(dense(comm))[1]
    assert sigma <= lam[1] <= sigma * (1 + 1e-9)
    assert tau * (1 - 1e-9) <= metric[-1] <= tau
    assert sigma_a <= a <= sigma_a * (1 + 1e-9)
    assert sd.eig_metric.min <= metric[0]  # Gershgorin
    assert sd.eig_gram.max == pytest.approx(lam[-1], rel=1e-10)  # the top Ritz value
    psd_certificates(sd)


def test_long_path_falls_back_to_eigvalsh(monkeypatch):
    # lam_2 of path n=600 is far below 1e-9 lam_max: no bound within
    # BOUND_RTOL of it can be proven, and every scalar is eigvalsh's, bit for bit
    g = generate_graph("path", 600)
    comm = laplacian(g)
    fn = np.linalg.eigvalsh
    calls = count_eigvalsh(monkeypatch)
    sd = compute_spectral_data(comm)
    a = sd.algebraic_connectivity
    assert [shape for shape in calls if shape == (600, 600)] == [(600, 600)] * 3
    assert (sd.eig_gram.kind, sd.eig_metric.kind, sd.connectivity[1]) == (spectral.EXACT,) * 3
    assert np.array_equal(sd.eig_gram.eigenvalues, fn(comm.W))
    assert np.array_equal(sd.eig_metric.eigenvalues, fn(np.diag(comm.col_norms_sq) - comm.W))
    assert a == algebraic_connectivity(g)


def lanczos_steps(monkeypatch) -> list:
    """[(steps, found)] of each Lanczos run: its products, and whether it returned Ritz values."""
    runs = []
    fn = spectral._ritz_ends

    def counting(apply, *args, **kwargs):
        steps = [0]

        def counted(v):
            steps[0] += 1
            return apply(v)

        ends = fn(counted, *args, **kwargs)
        runs.append((steps[0], ends is not None))
        return ends

    monkeypatch.setattr(spectral, "_ritz_ends", counting)
    return runs


@pytest.mark.parametrize(
    "n,p,steps",
    [(800, 0.05, [80, 30, 40]), (1600, 0.0125, [140, 20, 60])],
    ids=["er-800", "er-1600"],
)
def test_certified_graphs_keep_their_lanczos_steps(monkeypatch, n, p, steps):
    # lam_2(W), lam_max(M - W), then a(G): the trace test never gives up on
    # a matrix that certifies, so each run stops where its Ritz value converges
    runs = lanczos_steps(monkeypatch)
    sd = compute_spectral_data(laplacian(generate_graph("erdos_renyi", n, p=p, seed=1)))
    assert sd.connectivity[1] == spectral.CERTIFIED
    assert runs == [(k, True) for k in steps]


def test_long_path_lanczos_gives_up_on_the_trace_term(monkeypatch):
    # lam_2(W) and a(G) of path n=600 lie below 2u tr / BOUND_RTOL, so both
    # lowest-end runs stop once theta falls below it instead of running all
    # LANCZOS_STEPS (M - W's Gershgorin floor sends it to eigvalsh unrun)
    runs = lanczos_steps(monkeypatch)
    sd = compute_spectral_data(laplacian(generate_graph("path", 600)))
    assert sd.connectivity[1] == spectral.EXACT
    assert len(runs) == 2
    assert all(steps < spectral.LANCZOS_STEPS and not found for steps, found in runs)


# --- proving from a recorded witness ------------------------------------------


def er_comm(n: int, seed: int = 1) -> CommunicationMatrix:
    return laplacian(generate_graph("erdos_renyi", n, p=0.05, seed=seed))


@functools.cache
def searched(n: int, seed: int = 1) -> spectral.SpectralData:
    """The spectral data of ``er_comm(n, seed)`` by the Lanczos search; its W is restored after every use."""
    return compute_spectral_data(er_comm(n, seed))


def assert_same_spectra(got, want) -> None:
    assert (got.min_pos_eig_gram, got.max_eig_metric) == (want.min_pos_eig_gram, want.max_eig_metric)
    assert (got.eig_gram, got.eig_metric, got.witness) == (want.eig_gram, want.eig_metric, want.witness)
    # the estimation preset, nu = L = 1: c = auto and the rate follow bit for bit
    assert analysis.optimize_rate(1.0, 1.0, got) == analysis.optimize_rate(1.0, 1.0, want)


def test_exact_and_closed_form_spectra_record_no_witness():
    for comm in (laplacian(generate_graph("path", 30)), laplacian(generate_graph("circulant", 40, d=6))):
        assert compute_spectral_data(comm).witness == Witness()


@pytest.mark.parametrize("n", [600, 800])
def test_own_witness_proves_the_searched_spectra_without_lanczos(monkeypatch, n):
    want = searched(n)
    assert want.witness.gram_ritz[0] >= want.min_pos_eig_gram and want.witness.gram_ritz[1] == want.eig_gram.max
    assert want.witness.metric_ritz <= want.max_eig_metric
    runs = lanczos_steps(monkeypatch)
    got = compute_spectral_data(er_comm(n), want.witness)
    assert runs == []
    assert_same_spectra(got, want)


def bad_witness(case: str, n: int) -> tuple[Witness, int]:
    """A witness of ``er_comm(n)`` spoiled as ``case`` says, and how many of its two scalars prove nothing from it."""
    w = searched(n).witness
    theta, top = w.gram_ritz
    return {
        # no back-off factors: the shift lies 1e-6 past the eigenvalue
        "gram-raised": (replace(w, gram_ritz=(theta * (1 + 1e-6), top)), 1),
        "metric-lowered": (replace(w, metric_ritz=w.metric_ritz * (1 - 1e-6)), 1),
        "nan": (Witness(gram_ritz=(math.nan, top), metric_ritz=math.nan), 2),
        "inf": (Witness(gram_ritz=(theta, math.inf), metric_ritz=math.inf), 2),
        "zero": (Witness(gram_ritz=(0.0, top), metric_ritz=0.0), 2),
        "negative": (Witness(gram_ritz=(-theta, top), metric_ritz=-w.metric_ritz), 2),
        "top-below-theta": (replace(w, gram_ritz=(theta, theta * (1 - 1e-12))), 1),
        # top outside [max_i W_ii, the Gershgorin row bound]: it would move
        # the allowance and kappa, though theta alone still proves a bound
        "top-below-diagonal": (replace(w, gram_ritz=(theta, theta)), 1),
        "top-past-gershgorin": (replace(w, gram_ritz=(theta, 1000.0)), 1),
    }[case]


@pytest.mark.parametrize("n", [600, 800])
@pytest.mark.parametrize(
    "case",
    ["gram-raised", "metric-lowered", "nan", "inf", "zero", "negative", "top-below-theta", "top-below-diagonal", "top-past-gershgorin"],
)
def test_bad_witness_falls_back_to_the_search(monkeypatch, n, case):
    witness, spoiled = bad_witness(case, n)
    runs = lanczos_steps(monkeypatch)
    got = compute_spectral_data(er_comm(n), witness)
    assert len(runs) == spoiled
    assert_same_spectra(got, searched(n))


@pytest.mark.parametrize("other", [2, 3])
def test_witness_of_another_graph_proves_no_tighter_bound(monkeypatch, other):
    # a foreign theta_2 above lam_2, or theta_max below lam_max, factors at
    # no back-off and that scalar is searched for; on the other side it
    # proves a looser bound, as any loosened witness does, which no test
    # short of the search can tell from a foreign one
    n = 800
    want, foreign = searched(n), searched(n, other).witness
    runs = lanczos_steps(monkeypatch)
    got = compute_spectral_data(er_comm(n), foreign)
    gram_searched = got.witness.gram_ritz == want.witness.gram_ritz
    metric_searched = got.witness.metric_ritz == want.witness.metric_ritz
    assert len(runs) == gram_searched + metric_searched
    if gram_searched:
        assert (got.eig_gram, got.min_pos_eig_gram) == (want.eig_gram, want.min_pos_eig_gram)
    else:
        assert got.witness.gram_ritz == foreign.gram_ritz and got.min_pos_eig_gram < want.min_pos_eig_gram
    if metric_searched:
        assert got.eig_metric == want.eig_metric
    else:
        assert got.witness.metric_ritz == foreign.metric_ritz and got.max_eig_metric > want.max_eig_metric


@pytest.mark.parametrize("n,p,seed", [(600, 0.05, 1), (800, 0.05, 1), (600, 0.5, 2)], ids=["er-600", "er-800", "er-600-dense"])
def test_certified_gram_floor_is_plus_zero(n, p, seed):
    # W = B'B is PSD and W 1 = 0, so lam_min(W) is 0 exactly: the certified
    # route records +0.0, sign bit included, from the search and from the
    # graph's own witness (p=0.5 takes the dense products)
    g = generate_graph("erdos_renyi", n, p=p, seed=seed)
    found = compute_spectral_data(laplacian(g))
    own = compute_spectral_data(laplacian(g), found.witness)
    assert laplacian(g).dense_products is (p == 0.5)
    for sd in (found, own):
        assert sd.eig_gram.kind == spectral.CERTIFIED
        assert sd.eig_gram.min == 0.0 and not np.signbit(sd.eig_gram.min)


@pytest.mark.parametrize("n", [600, 800])
def test_loosened_witness_proves_a_looser_bound(n):
    # every bound is proven again, so a witness can loosen a bound but never make it false
    want = searched(n)
    theta, top = want.witness.gram_ritz
    comm = er_comm(n)
    looser = Witness(gram_ritz=(theta * (1 - 1e-3), top), metric_ritz=want.witness.metric_ritz * (1 + 1e-3))
    got = compute_spectral_data(comm, looser)
    assert got.witness == looser
    assert got.min_pos_eig_gram <= want.min_pos_eig_gram
    assert got.max_eig_metric >= want.max_eig_metric
    lam = np.linalg.eigvalsh(comm.W)
    assert got.min_pos_eig_gram <= lam[1]
    assert got.max_eig_metric >= np.linalg.eigvalsh(np.diag(comm.col_norms_sq) - comm.W)[-1]


def test_failing_cholesky_falls_back_to_eigvalsh(monkeypatch):
    g = generate_graph("erdos_renyi", 600, p=0.05, seed=1)
    with mock.patch.object(spectral, "CERTIFY_MIN_N", 10**9):
        exact = compute_spectral_data(laplacian(g))
        want = (exact.eig_gram.eigenvalues, exact.eig_metric.eigenvalues, exact.algebraic_connectivity)

    def refuse(A, out, signature):
        # how the kernel reports a matrix that does not factor: a NaN-filled factor
        out.fill(np.nan)
        return out

    monkeypatch.setattr(spectral, "_umath_linalg", SimpleNamespace(cholesky_lo=refuse))
    comm = laplacian(g)
    W = comm.W.copy()
    sd = compute_spectral_data(comm)
    assert (sd.eig_gram.kind, sd.eig_metric.kind, sd.connectivity[1]) == (spectral.EXACT,) * 3
    assert np.array_equal(sd.eig_gram.eigenvalues, want[0])
    assert np.array_equal(sd.eig_metric.eigenvalues, want[1])
    assert sd.algebraic_connectivity == want[2]
    assert comm.W.tobytes() == W.tobytes()


def test_certified_spectra_hold_one_factor_next_to_w():
    """Traced peak of the certified scalars, W already formed, in units of one n x n float array.

    Cholesky's factor is one array; its copy of the matrix is allocated
    outside numpy and does not show. The Lanczos basis adds at most a
    quarter of one.
    """
    n = 800
    comm = laplacian(generate_graph("erdos_renyi", n, p=0.05, seed=1))
    comm.W
    tracemalloc.start()
    try:
        sd = compute_spectral_data(comm)
        assert sd.algebraic_connectivity > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sd.eig_gram.kind == spectral.CERTIFIED
    assert peak / (8 * n * n) <= 1.5


@pytest.mark.parametrize("with_witness", [False, True], ids=["search", "witness"])
def test_certified_spectra_hold_at_most_275_traced_dense_arrays(with_witness):
    """Traced peak of one spectral call at Erdos-Renyi n=600, W not yet formed, in units of one n x n float array.

    D^(-1/2) P and W coexist with the Lanczos basis (a third of one at
    n=600) while they search; the factor buffer comes once D^(-1/2) P is
    gone. Allocated before W, it took the peak to 3.05; it reads 2.52, and
    2.16 from a witness, which searches nothing.
    """
    comm = er_comm(600)
    witness = searched(600).witness if with_witness else Witness()
    assert "W" not in vars(comm)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sd = compute_spectral_data(comm, witness)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (sd.eig_gram.kind, sd.eig_metric.kind) == (spectral.CERTIFIED,) * 2
    assert peak / (8 * comm.n * comm.n) <= 2.75


def syrk_of_slots(comm) -> np.ndarray:
    """B' B for B = D^(-1/2) P built dense, the product ``CommunicationMatrix.W`` forms."""
    B = dense(comm) * (1.0 / np.sqrt(comm.nbhd_sizes))[:, None]
    return B.T @ B


def test_w_formed_alongside_the_search_is_the_syrk_bit_for_bit(monkeypatch):
    # the worker's one syrk runs off the calling thread while the searches
    # run on it, and W is kept: formed once, the same bits as B' B
    comm = er_comm(600)
    caller = threading.get_ident()
    syrks, searches = [], []
    fn, ritz = graph._syrk, spectral._ritz_ends
    monkeypatch.setattr(graph, "_syrk", lambda B, W: syrks.append(threading.get_ident()) or fn(B, W))
    monkeypatch.setattr(spectral, "_ritz_ends", lambda *a, **k: searches.append(threading.get_ident()) or ritz(*a, **k))
    sd = compute_spectral_data(comm)
    assert (sd.eig_gram.kind, sd.eig_metric.kind) == (spectral.CERTIFIED,) * 2
    assert len(syrks) == 1 and syrks[0] != caller
    assert searches == [caller, caller]
    assert comm.W is comm.W and len(syrks) == 1
    assert comm.W.tobytes() == syrk_of_slots(comm).tobytes()
    assert compute_spectral_data(comm) == sd and len(syrks) == 1  # a kept W is not formed again


def test_w_kept_by_form_w_is_the_one_w_reads(p3):
    comm = laplacian(p3)
    assert comm.form_w(lambda: "searched") == "searched"
    W = vars(comm)["W"]
    assert comm.W is W and comm.W.tobytes() == syrk_of_slots(comm).tobytes()
    assert comm.form_w(lambda: 3) == 3 and comm.W is W
    fresh = laplacian(p3)
    assert fresh.form_w() is None and fresh.W.tobytes() == W.tobytes()


def test_failed_syrk_on_the_worker_reaches_the_caller(monkeypatch):
    comm = er_comm(600)
    threads = threading.active_count()

    def refuse(B, W):
        raise MemoryError("no room for W")

    with monkeypatch.context() as patched:
        patched.setattr(graph, "_syrk", refuse)
        with pytest.raises(MemoryError, match="no room for W"):
            compute_spectral_data(comm)
    assert threading.active_count() == threads
    assert "W" not in vars(comm)
    assert comm.W.tobytes() == syrk_of_slots(comm).tobytes()


# --- circulance, read from the slots ---------------------------------------------


def relabeled_circulant(n: int, d: int):
    g = generate_graph("circulant", n, d=d)
    return graph.build_graph(n, np.random.default_rng(n).permutation(n)[g.edges])


@pytest.mark.parametrize(
    "make,want",
    [
        (lambda: laplacian(generate_graph("circulant", 40, d=6)), True),
        (lambda: laplacian(generate_graph("cycle", 25)), True),
        (lambda: laplacian(generate_graph("complete", 12)), True),
        (lambda: laplacian(generate_graph("path", 30)), False),
        (lambda: laplacian(generate_graph("erdos_renyi", 40, p=0.2, seed=1)), False),
        (lambda: laplacian(relabeled_circulant(40, 6)), False),
    ],
    ids=["circulant", "cycle", "complete", "path", "erdos-renyi", "relabeled"],
)
def test_circulance_is_read_from_the_slots(monkeypatch, make, want):
    # a circulant P gets every spectrum, a(G) included, from its symbol, with
    # no eigvalsh and no W; any other P sends W, M - W and then P to eigvalsh, one call each
    comm = make()
    n = comm.n
    assert comm.circulant is want
    calls = count_eigvalsh(monkeypatch)
    sd = compute_spectral_data(comm)
    assert calls == ([] if want else [(n, n), (n, n)])
    a = sd.algebraic_connectivity
    assert len(calls) == (0 if want else 3)
    kind = CLOSED_FORM if want else EXACT
    assert (sd.eig_gram.kind, sd.eig_metric.kind, sd.connectivity[1]) == (kind, kind, kind)
    assert ("W" in vars(comm)) is not want
    W = comm.W
    for got, A in ((sd.eig_gram.eigenvalues, W), (sd.eig_metric.eigenvalues, np.diag(comm.col_norms_sq) - W)):
        lam = np.linalg.eigvalsh(A)
        np.testing.assert_allclose(got, lam, rtol=0, atol=8 * n * EPS * float(np.max(np.abs(lam))))
    lam = np.linalg.eigvalsh(dense(comm))
    assert a == pytest.approx(lam[1], rel=0, abs=8 * n * EPS * lam[-1])


def test_relabeled_circulant_connectivity_matches_the_closed_form():
    n, d = 40, 6
    sd = compute_spectral_data(laplacian(relabeled_circulant(n, d)))
    a, kind = sd.connectivity
    want = laplacian_closed_form("circulant", n, d)
    assert kind == EXACT
    assert a == pytest.approx(want[1], rel=0, abs=8 * n * EPS * want[-1])


@pytest.mark.parametrize("kind,kw", [("erdos_renyi", {"p": 0.05, "seed": 1}), ("path", {})])
def test_exact_connectivity_builds_no_dense_laplacian(kind, kw):
    """Traced numpy peak of the first read of a(G), in units of one n x n float array.

    The Laplacian is written into W's upper triangle, and eigvalsh's copy of
    it is allocated outside numpy; what shows is the row-block masks and the
    slot indices. A dense Laplacian would be one whole array.
    """
    n = 400
    comm = laplacian(generate_graph(kind, n, **kw))
    sd = compute_spectral_data(comm)
    W = comm.W.copy()
    tracemalloc.start()
    try:
        a, how = sd.connectivity
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert how == EXACT and a > 0
    assert comm.W.tobytes() == W.tobytes()
    assert peak / (8 * n * n) <= 0.5
