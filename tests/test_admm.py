import numpy as np
import pytest

from admmnet import admm
from admmnet.errors import AdmmError, ZeroMWeightError
from admmnet.graph import generate_graph, laplacian
from admmnet.objectives import NetworkProblem, Quadratic, estimation_problem
from admmnet.spectral import compute_spectral_data

FIRST_X = np.array([1.0 / 7.0, 2.0 / 7.0, 3.0 / 7.0])
FIRST_Y = np.array([-1.0 / 7.0, 0.0, 1.0 / 7.0])


def test_first_round_k3(k3_problem):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=1))
    assert trace.T == 1
    assert np.max(np.abs(trace.xs[1][:, 0] - FIRST_X)) <= 1e-15
    assert np.max(np.abs(trace.ys[1][:, 0] - FIRST_Y)) <= 1e-15
    assert np.max(np.abs(trace.ps[1][:, 0] - FIRST_Y)) <= 1e-15


def test_consensus_fixed_point(k3):
    objs = tuple(Quadratic(target=np.array([4.0]), weight=1.0) for _ in range(3))
    prob = NetworkProblem(graph=k3, comm=laplacian(k3), objectives=objs)
    x0 = np.full((3, 1), 4.0)
    init = (x0, np.zeros((3, 1)), np.zeros((3, 1)))
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=20, init=init))
    assert np.max(np.abs(trace.xs - 4.0)) <= 1e-13


def test_p3_converges_to_mean(p3):
    objs = tuple(Quadratic(target=np.array([v]), weight=1.0) for v in (0.0, 0.0, 3.0))
    prob = NetworkProblem(graph=p3, comm=laplacian(p3), objectives=objs)
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=300))
    assert np.max(np.abs(trace.xs[-1] - 1.0)) <= 1e-4


def test_stacked_identities(p3_problem):
    trace = admm.run(p3_problem, admm.RunConfig(c=0.7, T=60))
    P = p3_problem.comm.P
    Dinv = np.diag(1.0 / np.array([2.0, 3.0, 2.0]))
    for t in range(1, trace.T + 1):
        assert np.max(np.abs(trace.ys[t] - Dinv @ P @ trace.xs[t])) <= 1e-12
    # zero dual init: p(t) = c * sum of y up to t
    acc = np.zeros_like(trace.ys[0])
    for t in range(1, trace.T + 1):
        acc = acc + trace.ys[t]
        assert np.max(np.abs(trace.ps[t] - 0.7 * acc)) <= 1e-10


def test_ergodic_and_xsum_recursions(k3_problem):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=40))
    ergodic, x_sums = trace.ergodic, trace.x_sums
    assert np.all(ergodic[0] == 0.0)
    for t in range(1, trace.T + 1):
        assert np.allclose(ergodic[t], trace.xs[1 : t + 1].mean(axis=0), atol=1e-13)
        assert np.allclose(x_sums[t], trace.xs[: t + 1].sum(axis=0), atol=1e-12)


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_node_edge_equivalence(k3_problem, c):
    node = admm.run(k3_problem, admm.RunConfig(c=c, T=100, engine="node"))
    edge = admm.run(k3_problem, admm.RunConfig(c=c, T=100, engine="edge"))
    assert np.max(np.abs(node.xs - edge.xs)) <= 1e-9


def test_node_edge_equivalence_custom_init(p3_problem):
    rng = np.random.default_rng(11)
    init = tuple(rng.normal(size=(3, 1)) for _ in range(3))
    node = admm.run(p3_problem, admm.RunConfig(c=0.8, T=50, init=init))
    edge = admm.run(p3_problem, admm.RunConfig(c=0.8, T=50, engine="edge", init=init))
    assert np.max(np.abs(node.xs - edge.xs)) <= 1e-9


def test_reduction_identities(k3, k3_problem):
    node = admm.run(k3_problem, admm.RunConfig(c=1.0, T=5))
    edge = admm.run(k3_problem, admm.RunConfig(c=1.0, T=5, engine="edge"))
    P = k3_problem.comm.P
    t = 5
    worst_lam = 0.0
    worst_z = 0.0
    for i in range(3):
        for j in k3.closed_neighbors(i):
            worst_lam = max(worst_lam, float(np.max(np.abs(edge.lams[t][i, j] - node.ps[t][i]))))
            worst_z = max(
                worst_z,
                float(np.max(np.abs(edge.zs[t][i, j] - (P[i, j] * node.xs[t][j] - node.ys[t][i])))),
            )
    assert worst_lam <= 1e-10
    assert worst_z <= 1e-10


def test_edge_z_rows_sum_to_zero(p3, p3_problem):
    edge = admm.run(p3_problem, admm.RunConfig(c=1.3, T=8, engine="edge"))
    for t in range(1, 9):
        for i in range(3):
            total = sum(edge.zs[t][i, j] for j in p3.closed_neighbors(i))
            assert np.max(np.abs(total)) <= 1e-12


def test_recurrence_residuals_small(k3_problem, k3_spectral):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=30))
    resid = admm.recurrence_residuals(trace, k3_spectral, k3_problem)
    assert float(np.max(resid)) <= 1e-10


def test_recurrence_detects_corruption(k3_problem, k3_spectral):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=30))
    # corrupt one node only; a constant shift would hide in the consensus
    # null space of the Gram matrix
    trace.xs[10:, 0, :] += 0.05
    resid = admm.recurrence_residuals(trace, k3_spectral, k3_problem)
    assert float(np.max(resid)) > 1e-6


def test_implicit_subgradients_match_quadratic_gradient(k3_problem):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=20))
    hs = admm.implicit_subgradients(trace, k3_problem)
    for t in range(20):
        for i, f in enumerate(k3_problem.objectives):
            assert np.max(np.abs(hs[t, i] - f.gradient(trace.xs[t + 1][i]))) <= 1e-10


def test_account_counts(k3, p3):
    a3 = admm.account(k3)
    assert a3.storage_vectors == 9
    assert a3.storage_scalars == 9
    assert a3.messages_per_round == 6  # two broadcast phases over |E| = 3
    ap = admm.account(p3, dimension=2)
    assert ap.messages_per_round == 4  # |E| = 2 per phase
    assert ap.storage_scalars == 18


def test_determinism(k3_problem):
    t1 = admm.run(k3_problem, admm.RunConfig(c=0.3, T=50))
    t2 = admm.run(k3_problem, admm.RunConfig(c=0.3, T=50))
    assert np.array_equal(t1.xs, t2.xs)
    assert np.array_equal(t1.ys, t2.ys)
    assert np.array_equal(t1.ps, t2.ps)
    assert np.array_equal(t1.ergodic, t2.ergodic)


def test_vector_dimension_runs(k3):
    targets = [np.array([1.0, -2.0]), np.array([2.0, 0.5]), np.array([3.0, 1.5])]
    objs = tuple(Quadratic(target=t, weight=1.0) for t in targets)
    prob = NetworkProblem(graph=k3, comm=laplacian(k3), objectives=objs)
    node = admm.run(prob, admm.RunConfig(c=1.0, T=200))
    edge = admm.run(prob, admm.RunConfig(c=1.0, T=200, engine="edge"))
    assert np.max(np.abs(node.xs - edge.xs)) <= 1e-9
    sd = compute_spectral_data(prob.comm, k3)
    assert float(np.max(admm.recurrence_residuals(node, sd, prob))) <= 1e-10
    mean = np.mean(targets, axis=0)
    assert np.max(np.abs(node.xs[-1] - mean)) <= 1e-8


@pytest.mark.parametrize("kwargs", [dict(c=1.0, T=0), dict(c=0.0, T=5), dict(c=1.0, T=5, engine="ring")])
def test_run_rejects_bad_config(k3_problem, kwargs):
    with pytest.raises(AdmmError):
        admm.run(k3_problem, admm.RunConfig(**kwargs))


def test_zero_column_raises_zero_weight(p3):
    # a comm matrix with an all-zero column cannot weight that node's prox
    P = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    P[:, 0] = 0.0
    from admmnet.graph import CommunicationMatrix

    comm = CommunicationMatrix(P=P, source="custom")
    prob = NetworkProblem(graph=p3, comm=comm, objectives=tuple(Quadratic(target=np.array([float(i)])) for i in range(3)))
    with pytest.raises(ZeroMWeightError):
        admm.run(prob, admm.RunConfig(c=1.0, T=1))
