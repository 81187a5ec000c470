from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest

from admmnet import admm, analysis, graph, reporting
from admmnet.errors import DimensionMismatchError
from admmnet.graph import build_graph, generate_graph
from admmnet.objectives import (
    OptimalPoint,
    QuadraticRows,
    _node_sum,
    _stacked,
    central_solve,
    estimation_problem,
    soft_threshold,
)
from admmnet.spectral import compute_spectral_data


@dataclass(frozen=True)
class Quadratic:
    """(weight/2) |x - target|^2 + tau |x|_1 at one node: the per-node reference of a ``QuadraticRows`` row.

    The quadratic part is isotropic, so the prox is an exact soft threshold
    of the combined quadratic minimizer; at tau = 0 the threshold is 0 and
    returns that minimizer unchanged. ``gradient`` returns the subgradient
    with sign(0) = 0 on the l1 part.
    """

    target: np.ndarray = field(repr=False)
    weight: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "target", np.atleast_1d(np.asarray(self.target, dtype=float)))
        if self.weight < 0 or self.tau < 0:
            raise ValueError("weight and tau must be nonnegative")

    @property
    def kind(self) -> str:
        return "l1_quadratic" if self.tau > 0 else "quadratic"

    @property
    def dimension(self) -> int:
        return self.target.shape[0]

    def _vec(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dimension,):
            raise DimensionMismatchError(f"expected shape ({self.dimension},), got {x.shape}")
        return x

    def value(self, x) -> float:
        x = self._vec(x)
        diff = x - self.target
        return 0.5 * self.weight * float(diff @ diff) + self.tau * float(np.sum(np.abs(x)))

    def gradient(self, x) -> np.ndarray:
        x = self._vec(x)
        return self.weight * (x - self.target) + self.tau * np.sign(x)

    def smooth_gradient(self, x) -> np.ndarray:
        return self.weight * (self._vec(x) - self.target)

    def prox(self, v, rho: float) -> np.ndarray:
        v = self._vec(v)
        if rho <= 0:
            raise ValueError("rho must be positive")
        u = (self.weight * self.target + rho * v) / (self.weight + rho)
        return soft_threshold(u, self.tau / (self.weight + rho))


def rows_of(quadratics) -> QuadraticRows:
    """The stacked rows of per-node ``Quadratic`` objectives, one row each; tau is None when every tau is 0."""
    taus = [q.tau for q in quadratics]
    return QuadraticRows(
        weight=np.array([q.weight for q in quadratics], dtype=float)[:, None],
        target=np.stack([q.target for q in quadratics]),
        tau=np.array(taus, dtype=float)[:, None] if any(taus) else None,
    )


def per_node(rows: QuadraticRows) -> tuple[Quadratic, ...]:
    """Row i of ``rows`` as node i's ``Quadratic``, for every row: the inverse of ``rows_of``."""
    taus = np.zeros(len(rows)) if rows.tau is None else rows.tau[:, 0]
    return tuple(
        Quadratic(target=a.copy(), weight=float(w), tau=float(t)) for a, w, t in zip(rows.target, rows.weight[:, 0], taus)
    )


ORACLE_TOL = 1e-12
ORACLE_ROUNDING = 4.0 * np.finfo(float).eps  # residual floor per unit of |sum_i |grad f_i| + L |x||
ORACLE_MAX_ITERS = 500_000


def reference_oracle(problem) -> tuple[OptimalPoint, int]:
    """(The optimum, the steps taken) by proximal-gradient iterations on sum_i f_i, the reference of ``central_solve``.

    Steps of 1/(sum_i w_i), the l1 weights summed into one soft threshold,
    run from x = 0 down to a residual of ORACLE_TOL, or to the rounding floor
    ORACLE_ROUNDING |sum_i |g_i| + L |x||, when that is larger: the node-sum
    rounds at the size of its terms, and x itself at ulp(x), which moves the
    sum of gradients by up to L ulp(x), L = sum_i w_i. The per-node
    subgradients share a single l1 sign vector, so their node-sum equals
    the residual. Raises AssertionError after ORACLE_MAX_ITERS steps.
    """
    rows = problem.objectives
    taus = np.zeros_like(rows.weight) if rows.tau is None else rows.tau
    lip_total, tau_total = sum(rows.weight[:, 0].tolist()), sum(taus[:, 0].tolist())
    x = np.zeros(problem.dimension)
    xi = np.zeros_like(x)  # shared sign vector of the l1 terms
    G = rows.smooth_gradients(np.zeros((problem.n, x.size)))
    gs = _node_sum(G)
    residual = float(np.linalg.norm(gs))
    steps = 0
    if lip_total > 0.0:  # else no smooth curvature at all: the l1 sum is minimized at 0
        eta = 1.0 / lip_total
        for steps in range(1, ORACLE_MAX_ITERS + 1):
            u = x - eta * gs
            x = soft_threshold(u, eta * tau_total) if tau_total > 0 else u
            if tau_total > 0:
                xi = (u - x) / (eta * tau_total)
            G = rows.smooth_gradients(np.broadcast_to(x, G.shape))
            gs = _node_sum(G)
            residual = float(np.linalg.norm(gs + tau_total * xi))
            if residual <= ORACLE_TOL or residual <= ORACLE_ROUNDING * float(
                np.linalg.norm(np.abs(G).sum(axis=0) + tau_total * np.abs(xi) + lip_total * np.abs(x))
            ) < np.inf:  # an overflowed iterate has an infinite floor and must not stop
                break
        else:
            raise AssertionError(f"oracle residual {residual:.3e} after {ORACLE_MAX_ITERS} iterations")
    return _stacked(problem, x, G + taus * xi, residual), steps


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
    centers = trace.xs[:-1] - comm.route.pt(trace.ps[:-1] + trace.c * trace.ys[:-1]) / rho
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
    wr = comm.route.w(r)
    m = np.repeat(comm.col_norms_sq, trace.dimension)
    lhs, step = np.empty(trace.T), np.empty(trace.T)
    # step(t) is the metric form of (S(t) - S(t+1), x(t) - x(t+1)) = (-x(t+1), x(t) - x(t+1))
    for block in admm.trace_blocks(trace):
        x0, x1 = block.xs[:-1], block.xs[1:]
        rows = slice(block.t0, block.t0 + len(x1))
        lhs[rows] = (2.0 / c) * (problem.f_value(x1) - optimal.f_star) + 2.0 * np.sum(wr * x1, axis=(1, 2))
        xc0, xc1 = (x - x.mean(axis=1, keepdims=True) for x in (x0, x1))
        wxc0, wxc1 = comm.route.w(xc0), comm.route.w(xc1)
        xc0 -= xc1
        wxc0 -= wxc1
        e_metric = analysis._weighted_sq(m, x0 - x1)
        step[rows] = analysis._metric_form(xc1, wxc1, e_metric, analysis._forms(xc0, wxc0))
    return dist[:-1] - dist[1:] - step - lhs


def with_slot_products(comm):
    """The matrix, with its route's P products set to run over the slots whatever the crossover says."""
    with mock.patch.object(graph, "dense_products_are_cheaper", return_value=False):
        comm.route  # chosen on first read and kept
    return comm


def dense_products(comm) -> bool:
    """Whether the matrix's route takes P x and P'v with its kept dense P rather than over the slots."""
    return comm.route.p.func is graph._apply


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
