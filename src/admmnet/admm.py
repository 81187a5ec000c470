"""Synchronous-round ADMM engines.

The node-based engine keeps three (n, d) arrays: the estimates x, the
neighborhood averages y and the duals p. One round is three array
expressions over all nodes at once:

1. x <- prox(v) at weights c m, where m_i = sum_{j in N(i)} P_ji^2 and the
   prox center folds the neighbors' duals: v = x - P'(p + c y) / (c m)
2. y <- D^-1 P x, with D = diag(|N(i)|) over closed neighborhoods N(i)
3. p <- p + c y

The prox is batched per objective kind (``NetworkProblem.prox``): the
closed forms of Quadratic and L1Quadratic act on stacked parameters, and
only CustomSmooth nodes are solved one at a time.

The edge-based engine is the reference formulation that keeps one pair
(z_ij, lambda_ij) per directed neighborhood slot (i, j), j in N(i). The
slots are the n + 2|E| rows of (n + 2|E|, d) arrays, in row-major order
(by i, then j; see ``edge_slots``), so a round costs O(|E| d). With the
matched initialization lambda_ij(0) = p_i(0), z_ij(0) = P_ij x_j(0) - y_i(0)
the two engines generate identical x sequences.

P entries act as scalars on rows, so vector problems never materialize a
Kronecker product, and P follows the graph's sparsity (see
``graph.CommunicationMatrix``). Both engines write each round straight
into the trace arrays and raise NonFiniteIterateError after a round that
leaves a non-finite estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmmError, NonFiniteIterateError, ZeroMWeightError
from .graph import Graph
from .objectives import NetworkProblem


@dataclass(frozen=True)
class RoundAccounting:
    """Deployment cost of the node-based engine on this topology.

    Each round has two broadcast phases (duals + averages, then estimates);
    every edge carries one bundled message per phase.
    """

    messages_per_round: int  # 2 |E|
    storage_vectors: int  # 3 |V|
    storage_scalars: int  # 3 |V| d


def account(g: Graph, dimension: int = 1) -> RoundAccounting:
    return RoundAccounting(
        messages_per_round=2 * g.m,
        storage_vectors=3 * g.n,
        storage_scalars=3 * g.n * dimension,
    )


@dataclass(frozen=True)
class RunConfig:
    c: float
    T: int
    engine: str = "node"
    init: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # (x0, y0, p0)


@dataclass
class AdmmTrace:
    """Per-iteration snapshots of a run (index 0 is the initial state).

    Running sums and ergodic means are derived from ``xs`` on each access;
    read them once per use, not once per round.
    """

    engine: str
    c: float
    xs: np.ndarray  # (T+1, n, d)
    ys: np.ndarray
    ps: np.ndarray
    accounting: RoundAccounting
    zs: np.ndarray | None = None  # (T+1, n + 2|E|, d), rows as in edge_slots; edge engine only
    lams: np.ndarray | None = None

    @property
    def T(self) -> int:
        return self.xs.shape[0] - 1

    @property
    def n(self) -> int:
        return self.xs.shape[1]

    @property
    def dimension(self) -> int:
        return self.xs.shape[2]

    @property
    def x_sums(self) -> np.ndarray:
        """Running sums sum_{s=0}^{t} x(s), shape (T+1, n, d)."""
        return np.cumsum(self.xs, axis=0)

    @property
    def ergodic(self) -> np.ndarray:
        """Ergodic means (1/t) sum_{s=1}^{t} x(s), shape (T+1, n, d); zeros at t=0."""
        erg = np.zeros_like(self.xs)
        np.cumsum(self.xs[1:], axis=0, out=erg[1:])
        erg[1:] /= np.arange(1, self.T + 1)[:, None, None]
        return erg


class _Workspace:
    """Per-run arrays derived from the problem and the penalty c."""

    def __init__(self, problem: NetworkProblem, c: float):
        self.P = problem.comm.P
        self.inv_size = 1.0 / (np.array(problem.graph.degrees, dtype=float) + 1.0)[:, None]  # D^-1
        m = np.einsum("ji,ji->i", self.P, self.P)  # sum_{j in N(i)} P_ji^2
        zero = np.flatnonzero(m <= 0.0)
        if zero.size:
            raise ZeroMWeightError(int(zero[0]))
        self.rho = c * m[:, None]  # prox weights c m_i, (n, 1)

    def prox_center(self, x: np.ndarray, y: np.ndarray, p: np.ndarray, c: float) -> np.ndarray:
        """v = x - P'(p + c y) / (c m), the prox center of the next node round."""
        return x - (self.P.T @ (p + c * y)) / self.rho


def edge_slots(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the edge engine's slots (i, j), j in N(i), in row-major order.

    There are n + 2|E| slots; those of row i are contiguous, |N(i)| long and
    ascending in j, and include the diagonal slot (i, i).
    """
    edges = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    diag = np.arange(g.n)
    rows = np.concatenate((diag, edges[:, 0], edges[:, 1]))
    cols = np.concatenate((diag, edges[:, 1], edges[:, 0]))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def _require_finite(x: np.ndarray, t: int) -> None:
    finite = np.isfinite(x)
    if not finite.all():
        raise NonFiniteIterateError(int(np.flatnonzero(~finite.all(axis=1))[0]), t)


def run(problem: NetworkProblem, config: RunConfig) -> AdmmTrace:
    """Run T synchronized rounds and record every snapshot."""
    if config.T < 1:
        raise AdmmError(f"T must be >= 1, got {config.T}")
    if config.c <= 0:
        raise AdmmError(f"penalty c must be positive, got {config.c}")
    if config.engine not in ("node", "edge"):
        raise AdmmError(f"unknown engine {config.engine!r}")
    ws = _Workspace(problem, config.c)
    n, d, T, c = problem.n, problem.dimension, config.T, config.c
    acct = account(problem.graph, d)
    if config.init is None:
        x0 = y0 = p0 = np.zeros((n, d))
    else:
        x0, y0, p0 = (np.array(a, dtype=float).reshape(n, d) for a in config.init)
    xs = np.empty((T + 1, n, d))
    xs[0] = x0

    if config.engine == "node":
        ys = np.empty_like(xs)
        ps = np.empty_like(xs)
        ys[0], ps[0] = y0, p0
        for t in range(1, T + 1):
            x = problem.prox(ws.prox_center(xs[t - 1], ys[t - 1], ps[t - 1], c), ws.rho)
            _require_finite(x, t)
            xs[t] = x
            np.matmul(ws.P, x, out=ys[t])
            ys[t] *= ws.inv_size
            np.add(ps[t - 1], c * ys[t], out=ps[t])
        return AdmmTrace(engine="node", c=c, xs=xs, ys=ys, ps=ps, accounting=acct)

    rows, cols = edge_slots(problem.graph)
    # N is symmetric, so the slots grouped by column have the row groups' offsets
    starts = np.searchsorted(rows, np.arange(n))
    by_col = np.lexsort((rows, cols))
    P = ws.P[rows, cols][:, None]  # P_ij per slot
    zs = np.empty((T + 1, rows.size, d))
    lams = np.empty_like(zs)
    zs[0] = P * x0[cols] - y0[rows]
    lams[0] = p0[rows]
    for t in range(1, T + 1):
        z, lam = zs[t - 1], lams[t - 1]
        # stationarity of each x_j subproblem of the full augmented Lagrangian:
        # center sum_{i in N(j)} P_ij (c z_ij - lam_ij) / (c m_j)
        w = P * (c * z - lam)
        x = problem.prox(np.add.reduceat(w[by_col], starts) / ws.rho, ws.rho)
        _require_finite(x, t)
        xs[t] = x
        Px = P * x[cols]  # P_ij x_j
        u = Px + lam / c
        # minimize over z_i subject to sum_j z_ij = 0: project the
        # unconstrained minimizer by subtracting the neighborhood mean
        mu = ws.inv_size * np.add.reduceat(u, starts)
        np.subtract(u, mu[rows], out=zs[t])
        np.add(lam, c * (Px - zs[t]), out=lams[t])
    # y and p reconstructed through the reduction identities, for reporting:
    # y(t) = D^-1 P x(t) and p_i(t) = lambda_ii(t)
    ys = ws.P @ xs
    ys *= ws.inv_size
    ps = lams[:, rows == cols]
    return AdmmTrace(
        engine="edge", c=c, xs=xs, ys=ys, ps=ps, accounting=acct, zs=zs, lams=lams,
    )


def implicit_subgradients(trace: AdmmTrace, problem: NetworkProblem) -> np.ndarray:
    """Subgradients h(x(t+1)) implied by prox optimality, shape (T, n, d).

    h = c m (v - x(t+1)) row-wise, where v is the prox center of round t+1.
    """
    ws = _Workspace(problem, trace.c)
    hs = ws.prox_center(trace.xs[:-1], trace.ys[:-1], trace.ps[:-1], trace.c)
    hs -= trace.xs[1:]
    hs *= ws.rho
    return hs


def recurrence_residuals(trace: AdmmTrace, spectral, problem: NetworkProblem) -> np.ndarray:
    """Inf-norm residual of the eliminated-variable recurrence, per round.

    After eliminating y and p, each round satisfies
    x(t+1) = -(1/c) M^-1 h(x(t+1)) + (I - M^-1 W) x(t) - M^-1 W sum_{s<=t} x(s)
    with M = diag(col_norms_sq) and W the weighted Gram matrix. The
    returned vector holds the residual of that identity for t = 0..T-1.
    """
    # evaluated in place, in the order of
    # pred = -(1/c) M^-1 h + x(t) - M^-1 W x(t) - M^-1 W sum_{s<=t} x(s)
    pred = implicit_subgradients(trace, problem)
    Minv = 1.0 / spectral.col_norms_sq[:, None]
    pred *= -(1.0 / trace.c) * Minv
    xs = trace.xs[:-1]
    pred += xs
    term = spectral.gram @ xs
    term *= Minv
    pred -= term
    np.matmul(spectral.gram, trace.x_sums[:-1], out=term)
    term *= Minv
    pred -= term
    pred -= trace.xs[1:]
    return np.abs(pred, out=pred).max(axis=(1, 2))
