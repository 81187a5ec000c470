import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admmnet.errors import (
    ConnectivityRetryExhaustedError,
    DisconnectedError,
    DuplicateEdgeError,
    GraphFileError,
    InfeasibleParamsError,
    NodeOutOfRangeError,
    SelfLoopError,
)
from admmnet.graph import (
    build_graph,
    custom_comm_matrix,
    generate_graph,
    laplacian,
    read_graph_file,
    validate_comm_matrix,
    write_graph_file,
)
from conftest import random_connected_graph


def test_build_k3():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.degrees == (2, 2, 2)
    assert g.d_max == g.d_min == 2
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_build_p3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.degrees == (1, 2, 1)
    assert g.closed_neighbors(0) == (0, 1)
    assert g.closed_neighbors(1) == (0, 1, 2)
    assert g.closed_neighbors(2) == (1, 2)


def test_build_disconnected():
    with pytest.raises(DisconnectedError):
        build_graph(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize(
    "edges,err",
    [
        ([(0, 0)], SelfLoopError),
        ([(0, 1), (1, 0)], DuplicateEdgeError),
        ([(0, 3)], NodeOutOfRangeError),
    ],
)
def test_build_invalid_edges(edges, err):
    with pytest.raises(err):
        build_graph(3, edges)


def test_generate_complete():
    g = generate_graph("complete", 3)
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_circulant_d2_is_cycle():
    g = generate_graph("circulant", 5, d=2)
    cyc = generate_graph("cycle", 5)
    assert g.edges == cyc.edges


def test_circulant_d4_n7():
    g = generate_graph("circulant", 7, d=4)
    assert g.degrees == (4,) * 7
    # node 0 adjacent to offsets +-1, +-2
    assert g.neighbors[0] == (1, 2, 5, 6)


@pytest.mark.parametrize("kwargs", [dict(d=3), dict(d=8), dict(d=0)])
def test_circulant_infeasible(kwargs):
    with pytest.raises(InfeasibleParamsError):
        generate_graph("circulant", 7, **kwargs)


def test_erdos_renyi_deterministic():
    g1 = generate_graph("erdos_renyi", 12, p=0.3, seed=7)
    g2 = generate_graph("erdos_renyi", 12, p=0.3, seed=7)
    assert g1.edges == g2.edges
    g3 = generate_graph("erdos_renyi", 12, p=0.3, seed=8)
    assert g3.edges != g1.edges  # overwhelmingly likely for this family


def erdos_renyi_by_scalar_draws(n, p, seed):
    """(graph, attempt): one rng.random() per pair i < j in row-major order, retried until connected."""
    for attempt in range(1000):
        rng = np.random.default_rng([seed, attempt])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        try:
            return build_graph(n, edges), attempt
        except DisconnectedError:
            continue
    raise AssertionError("no connected draw")


@pytest.mark.parametrize(
    ("n", "p", "seed", "retried"), [(10, 0.25, 0, True), (12, 0.3, 7, False), (80, 0.15, 0, False)]
)
def test_erdos_renyi_matches_scalar_draws(n, p, seed, retried):
    want, attempt = erdos_renyi_by_scalar_draws(n, p, seed)
    assert (attempt > 0) == retried
    assert generate_graph("erdos_renyi", n, p=p, seed=seed).edges == want.edges


def test_erdos_renyi_low_p_retry_exhausted():
    with pytest.raises(ConnectivityRetryExhaustedError):
        generate_graph("erdos_renyi", 40, p=0.001, seed=0)


def test_laplacian_k3(k3):
    P = laplacian(k3).P
    assert np.array_equal(P, np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float))


def test_laplacian_p3(p3):
    P = laplacian(p3).P
    assert np.array_equal(P, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float))


def test_laplacian_c4():
    g = generate_graph("cycle", 4)
    P = laplacian(g).P
    assert np.array_equal(np.diag(P), np.full(4, 2.0))
    assert P[0, 1] == P[1, 2] == P[2, 3] == P[0, 3] == -1.0
    assert P[0, 2] == P[1, 3] == 0.0


def laplacian_by_edges(g):
    """The Laplacian filled one diagonal entry and one edge at a time."""
    P = np.zeros((g.n, g.n))
    for i, deg in enumerate(g.degrees):
        P[i, i] = float(deg)
    for i, j in g.edges:
        P[i, j] = -1.0
        P[j, i] = -1.0
    return P


@pytest.mark.parametrize(
    ("kind", "kwargs"),
    [("path", {}), ("complete", {}), ("circulant", dict(d=6)), ("erdos_renyi", dict(p=0.05, seed=1))],
)
def test_laplacian_matches_edge_loop(kind, kwargs):
    g = generate_graph(kind, 120, **kwargs)
    comm = laplacian(g)
    assert np.array_equal(comm.P, laplacian_by_edges(g))
    assert comm.P.dtype == np.float64 and not comm.P.flags.writeable


def test_validate_laplacian_ok(k3):
    report = validate_comm_matrix(laplacian(k3), k3)
    assert report.ok and not report.violations


def test_validate_zero_matrix(p3):
    report = validate_comm_matrix(np.zeros((3, 3)), p3)
    kinds = {v.kind for v in report.violations}
    assert not report.ok
    assert "NullSpaceViolation" in kinds
    assert "ZeroColumn" in kinds


def test_validate_tampered_laplacian(k3):
    P = np.array(laplacian(k3).P)
    P[0, 2] = 0.0
    report = validate_comm_matrix(P, k3)
    assert not report.ok
    assert any(v.kind == "NullSpaceViolation" for v in report.violations)


def test_validate_sparsity(p3):
    P = np.array(laplacian(p3).P)
    P[0, 2] = 1.0
    P[0, 0] -= 1.0  # keep the row sum at zero so only sparsity trips
    report = validate_comm_matrix(P, p3)
    assert any(v.kind == "SparsityViolation" and v.index == (0, 2) for v in report.violations)


def test_validate_zero_column(p3):
    P = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    report = validate_comm_matrix(P, p3)
    assert any(v.kind == "ZeroColumn" and v.index == (2,) for v in report.violations)


def test_custom_comm_matrix_accepts_scaled_laplacian(k3):
    comm = custom_comm_matrix(2.0 * np.array(laplacian(k3).P), k3)
    assert comm.source == "custom"


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 25), st.integers(0, 10_000), st.floats(0.0, 0.8))
def test_laplacian_validates_on_random_graphs(n, seed, extra_p):
    g = random_connected_graph(np.random.default_rng(seed), n, extra_p)
    P = laplacian(g).P
    assert np.array_equal(P, P.T)
    assert np.array_equal(np.diag(P), np.array(g.degrees, dtype=float))
    assert np.all(P @ np.ones(g.n) == 0.0)
    assert validate_comm_matrix(P, g).ok


def test_graph_file_roundtrip(tmp_path, k3):
    path = tmp_path / "g.txt"
    write_graph_file(k3, path)
    assert read_graph_file(path).edges == k3.edges


def test_graph_file_bad_edge_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 two\n")
    with pytest.raises(GraphFileError) as exc:
        read_graph_file(path)
    assert exc.value.lineno == 3


def test_graph_file_header_mismatch(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 5\n0 1\n1 2\n")
    with pytest.raises(GraphFileError):
        read_graph_file(path)
