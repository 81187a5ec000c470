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


def random_circulant(rng: np.random.Generator, n: int, degree: int):
    """A circulant graph on n >= 3 nodes: offset 1, so connected, and random offsets up to n/2, about ``degree`` edges a node."""
    half = n // 2
    offsets = np.concatenate(([1], rng.choice(np.arange(2, half + 1), size=min(degree // 2, half) - 1, replace=False)))
    i = np.arange(n)
    # offset n/2 joins each node to one other, so its edges start from the first half only
    edges = [np.column_stack((i[: n - s], i[: n - s] + s)) if 2 * s == n else np.column_stack((i, (i + s) % n)) for s in offsets]
    return build_graph(n, np.concatenate(edges))


def trace_table(trace, problem, sd, opt) -> dict:
    """The per-round table that `run` writes and judges, for a collected run."""
    return reporting.trace_rows(analysis.aux_sequences(trace, problem, sd, opt), trace.accounting.messages_per_round)


def recurrence_residuals(trace, problem, sd):
    """``admm.recurrence_residuals`` of every round of a collected run, from the sweep `run` takes."""
    return analysis.aux_sequences(trace, problem, sd, central_solve(problem)).recurrence


def sweep_distances(trace, problem, spectral, optimal, r):
    """The squared metric distances to (r, x*) for t = 0..T, from ``analysis.RoundSweep`` fed the trace's blocks."""
    consumer = analysis.RoundSweep(problem, spectral.comm, optimal, trace.c, trace.T, r)
    for block in admm.trace_blocks(trace):
        consumer.add(block)
    return consumer.dist


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
    paper's inequality with its dual reference Q r. The distances come from
    ``analysis.RoundSweep`` and the step terms from the same blocks, so the
    margins also check the sweep.
    """
    if r is None:
        r = np.zeros_like(optimal.x_star)
    comm = spectral.comm
    dist = sweep_distances(trace, problem, spectral, optimal, r)
    wr = comm.w(r)
    m = np.repeat(comm.col_norms_sq, trace.dimension)
    lhs, step = np.empty(trace.T), np.empty(trace.T)
    # step(t) is the metric form of (S(t) - S(t+1), x(t) - x(t+1)) = (-x(t+1), x(t) - x(t+1))
    for block in admm.trace_blocks(trace):
        x0, x1 = block.xs[:-1], block.xs[1:]
        rows = slice(block.t0, block.t0 + len(x1))
        lhs[rows] = (2.0 / c) * (problem.f_value(x1) - optimal.f_star) + 2.0 * np.sum(wr * x1, axis=(1, 2))
        xc0, xc1 = (x - x.mean(axis=1, keepdims=True) for x in (x0, x1))
        wxc0, wxc1 = comm.w(xc0), comm.w(xc1)
        xc0 -= xc1
        wxc0 -= wxc1
        e_metric = analysis._weighted_sq(m, x0 - x1)
        step[rows] = analysis._metric_form(xc1, wxc1, e_metric, analysis._forms(xc0, wxc0))
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
