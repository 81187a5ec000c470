from unittest import mock

import numpy as np
import pytest

from admmnet import admm, analysis, graph, reporting
from admmnet.graph import build_graph, custom_comm_matrix, generate_graph, laplacian
from admmnet.objectives import central_solve, estimation_problem
from admmnet.spectral import compute_spectral_data


def random_connected_graph(rng: np.random.Generator, n: int, extra_p: float = 0.25):
    """Random spanning tree plus independent extra edges; always connected."""
    order = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        parent = order[rng.integers(0, k)]
        edges.add((min(order[k], parent), max(order[k], parent)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_p:
                edges.add((i, j))
    return build_graph(n, sorted(edges))


def trace_table(trace, problem, sd, opt, c: float) -> dict:
    """The per-round table that `run` writes and judges, for a run at penalty c."""
    return reporting.trace_rows(trace, problem, opt, analysis.aux_sequences(trace, sd, opt, c))


def recurrence_residuals(trace, problem, sd):
    """``admm.recurrence_residuals`` with its W part from the sweep of ``analysis.aux_sequences``, as `run` takes it."""
    aux = analysis.aux_sequences(trace, sd, central_solve(problem), trace.c, recurrence=True)
    return admm.recurrence_residuals(trace, sd, aux.recurrence_w)


def implicit_subgradients(trace, comm):
    """Subgradients h(x(t+1)) implied by prox optimality, shape (T, n, d).

    h = c m (v - x(t+1)) row-wise, where v = x(t) - P'(p(t) + c y(t)) / (c m)
    is the prox center of round t+1.
    """
    rho = trace.c * comm.col_norms_sq[:, None]
    centers = trace.xs[:-1] - comm.pt(trace.ps[:-1] + trace.c * trace.ys[:-1]) / rho
    return rho * (centers - trace.xs[1:])


def edge_weighted_laplacian(rng: np.random.Generator, g):
    """A Laplacian with edge weights drawn from [0.5, 2): a custom P with the graph's sparsity."""
    P = np.zeros((g.n, g.n))
    for i, j in g.edges:
        w = rng.uniform(0.5, 2.0)
        P[[i, j], [i, j]] += w
        P[[i, j], [j, i]] -= w
    return custom_comm_matrix(P, g)


def row_scaled_laplacian(rng: np.random.Generator, g):
    """An edge-weighted Laplacian with its rows scaled apart: a custom P that is not symmetric."""
    P = rng.uniform(0.5, 2.0, size=(g.n, 1)) * edge_weighted_laplacian(rng, g).dense()
    P[P == 0.0] = 0.0  # no -0.0 off the slots
    return custom_comm_matrix(P, g)


def with_slot_products(comm):
    """The matrix, with its P products set to run over the slots whatever the crossover says."""
    with mock.patch.object(graph, "dense_products_are_cheaper", return_value=False):
        comm.dense_products  # chosen on first read and kept
    return comm


@pytest.fixture(scope="session")
def k3():
    return generate_graph("complete", 3)


@pytest.fixture(scope="session")
def p3():
    return generate_graph("path", 3)


@pytest.fixture(scope="session")
def k3_problem(k3):
    return estimation_problem(k3)


@pytest.fixture(scope="session")
def p3_problem(p3):
    return estimation_problem(p3)


@pytest.fixture(scope="session")
def k3_spectral(k3, k3_problem):
    return compute_spectral_data(k3_problem.comm)


@pytest.fixture(scope="session")
def p3_spectral(p3, p3_problem):
    return compute_spectral_data(p3_problem.comm)


@pytest.fixture(scope="session")
def k3_optimal(k3_problem):
    return central_solve(k3_problem)
