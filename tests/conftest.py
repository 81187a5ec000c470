from unittest import mock

import numpy as np
import pytest

from admmnet import admm, analysis, graph, reporting
from admmnet.graph import build_graph, generate_graph
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


def dense(comm):
    """P as a new writable n x n array: zeros with the slot values written in."""
    P = np.zeros((comm.n, comm.n))
    P[comm.rows, comm.cols] = comm.values
    return P


def gap_inequality_check(trace, spectral, optimal, problem, c, r=None):
    """Per-round margins rhs - lhs of the one-step gap inequality that telescopes into the sublinear bounds.

    For an x-space reference r (default 0; ``AuxSequences.dual_ref`` is the
    one at the optimum), every round must satisfy
    (2/c)(F(x(t+1)) - F*) + 2 r' W x(t+1)
      <= dist(t) - dist(t+1) - step(t)
    where the distances are squared metric distances to (r, x*), i.e. the
    paper's inequality with its dual reference Q r. The terms come from the
    blocked sweeps of ``analysis``, so the margins also check those sweeps.
    """
    if r is None:
        r = np.zeros_like(optimal.x_star)
    comm, xs = spectral.comm, trace.xs
    dist = analysis._metric_sweep(xs, comm, r, optimal.x_star)[0]
    wr = comm.w(r)
    m = np.repeat(comm.col_norms_sq, xs.shape[-1])
    lhs, step = np.empty(trace.T), np.empty(trace.T)
    # step(t) is the metric form of (S(t) - S(t+1), x(t) - x(t+1)) = (-x(t+1), x(t) - x(t+1))
    sweeps = zip(analysis._centered_sweep(xs[:-1], comm), analysis._centered_sweep(xs[1:], comm))
    for (rows, xc0, wxc0), (_, xc1, wxc1) in sweeps:
        x1 = xs[1:][rows]
        lhs[rows] = (2.0 / c) * (problem.f_value(x1) - optimal.f_star) + 2.0 * np.sum(wr * x1, axis=(1, 2))
        xc0 -= xc1
        wxc0 -= wxc1
        step[rows] = analysis._metric_form(m, xc1, wxc1, xs[:-1][rows] - x1, analysis._forms(xc0, wxc0))
    return dist[:-1] - dist[1:] - step - lhs


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
