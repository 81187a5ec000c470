"""Synchronous-round ADMM engines.

The node-based engine keeps three (n, d) arrays: the estimates x, the
neighborhood averages y and the duals p. One round is three array
expressions over all nodes at once:

1. x <- prox(v) at weights c m, where m_i = sum_{j in N(i)} P_ji^2 and the
   prox center folds the neighbors' duals: v = x - P'(p + c y) / (c m)
2. y <- D^-1 P x, with D = diag(|N(i)|) over closed neighborhoods N(i)
3. p <- p + c y

The prox is batched per objective class and bound once per run
(``NetworkProblem.bind_prox``): the closed form of Quadratic (with or
without an l1 term) acts in place on stacked parameters precomputed at
the run's weights, and only CustomSmooth nodes are solved one at a time.

The edge-based engine is the reference formulation that keeps one pair
(z_ij, lambda_ij) per directed neighborhood slot (i, j), j in N(i). The
slots are the n + 2|E| rows of two (n + 2|E|, d) buffers, in row-major
order (by i, then j; see ``edge_slots``), updated in place, so a round
costs O(|E| d) and the run stores no slot history. With the matched
initialization lambda_ij(0) = p_i(0), z_ij(0) = P_ij x_j(0) - y_i(0) the
two engines generate identical x sequences, and both return the same
trace: the edge engine records p_i(t) = lambda_ii(t) each round and
rebuilds y(t) = D^-1 P x(t) after the loop.

P entries act as scalars on rows, so vector problems never materialize a
Kronecker product, and P follows the graph's sparsity (see
``graph.CommunicationMatrix``). A round pays only for its arithmetic:
everything constant within a run (the row and slot scalings at full
(., d) width, the flat element indices of the edge engine's gathers, the
bound prox) is built before the first round, and every round writes into
preallocated buffers or straight into the trace arrays. Each expression
keeps its operand order, so the traces are bit-identical to evaluating
the round formulas above as plain array expressions (the tests hold a
reference of each). Both engines raise NonFiniteIterateError after a
round that leaves a non-finite estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmmError, NonFiniteIterateError, ZeroMWeightError
from .graph import Graph
from .objectives import NetworkProblem
from .spectral import stack_apply


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

    Both engines fill the same fields. Running sums and ergodic means are
    derived from ``xs`` on each access; read them once per use, not once
    per round.
    """

    c: float
    xs: np.ndarray  # (T+1, n, d)
    ys: np.ndarray
    ps: np.ndarray
    accounting: RoundAccounting
    # always None: no slot history is stored, but the benchmark's tracer
    # (bench/spans.py, Tracer._observe_trace) still reads these two names
    zs: None = None
    lams: None = None

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
    """Per-run arrays derived from the problem and the penalty c.

    Row scalings are stored at full (n, d) width: multiplying by an (n, 1)
    column runs numpy's inner loop only d elements at a time.
    """

    def __init__(self, problem: NetworkProblem, c: float):
        self.P = problem.comm.P
        d = problem.dimension
        size = problem.graph.degrees + 1.0
        self.inv_size = np.repeat(1.0 / size[:, None], d, axis=1)  # D^-1
        m = np.einsum("ji,ji->i", self.P, self.P)  # sum_{j in N(i)} P_ji^2
        zero = np.flatnonzero(m <= 0.0)
        if zero.size:
            raise ZeroMWeightError(int(zero[0]))
        self.rho = np.repeat(c * m[:, None], d, axis=1)  # prox weights c m_i

    def prox_center(self, x: np.ndarray, y: np.ndarray, p: np.ndarray, c: float) -> np.ndarray:
        """v = x - P'(p + c y) / (c m) over (T, n, d) stacks: the prox centers of rounds 1..T."""
        return x - stack_apply(self.P.T, p + c * y) / self.rho


def edge_slots(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the edge engine's slots (i, j), j in N(i), in row-major order.

    There are n + 2|E| slots; those of row i are contiguous, |N(i)| long and
    ascending in j, and include the diagonal slot (i, i).
    """
    diag = np.arange(g.n)
    rows = np.concatenate((diag, g.edges[:, 0], g.edges[:, 1]))
    cols = np.concatenate((diag, g.edges[:, 1], g.edges[:, 0]))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def _flat_rows(idx: np.ndarray, d: int) -> np.ndarray:
    """Element indices of the rows ``idx`` of a flattened (k, d) array."""
    return (idx[:, None] * d + np.arange(d)).ravel()


def _require_finite(x: np.ndarray, t: int) -> None:
    finite = np.isfinite(x)
    if not finite.all():
        raise NonFiniteIterateError(int(np.flatnonzero(~finite.all(axis=1))[0]), t)


def run(problem: NetworkProblem, config: RunConfig) -> AdmmTrace:
    """Run T synchronized rounds and record every snapshot."""
    if config.T < 1:
        raise AdmmError(f"T must be >= 1, got {config.T}")
    if not 0.0 < config.c < np.inf:
        raise AdmmError(f"penalty c must be positive and finite, got {config.c}")
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

    prox = problem.bind_prox(ws.rho)
    ps = np.empty_like(xs)

    if config.engine == "node":
        ys = np.empty_like(xs)
        ys[0], ps[0] = y0, p0
        PT = ws.P.T
        q, v = np.empty((n, d)), np.empty((n, d))
        for t in range(1, T + 1):
            # v = x - P'(p + c y) / (c m), then x <- prox(v)
            np.multiply(c, ys[t - 1], out=q)
            np.add(ps[t - 1], q, out=q)
            np.matmul(PT, q, out=v)
            np.divide(v, ws.rho, out=v)
            np.subtract(xs[t - 1], v, out=v)
            prox(v, xs[t])
            _require_finite(xs[t], t)
            np.matmul(ws.P, xs[t], out=ys[t])
            ys[t] *= ws.inv_size
            np.multiply(c, ys[t], out=q)
            np.add(ps[t - 1], q, out=ps[t])
        return AdmmTrace(c=c, xs=xs, ys=ys, ps=ps, accounting=acct)

    rows, cols = edge_slots(problem.graph)
    S = rows.size
    # N is symmetric, so the slots grouped by column have the row groups' offsets
    starts = np.searchsorted(rows, np.arange(n))
    by_col = np.lexsort((rows, cols))
    P = np.repeat(ws.P[rows, cols][:, None], d, axis=1)  # P_ij per slot
    z = P * x0[cols] - y0[rows]
    lam = p0[rows]
    # flat gathers: np.take of elements beats fancy indexing of rows
    by_col_flat, cols_flat, rows_flat, diag_flat = (
        _flat_rows(idx, d) for idx in (by_col, cols, rows, np.flatnonzero(rows == cols))
    )
    np.take(lam.reshape(-1), diag_flat, out=ps[0].reshape(-1))
    w, w_by_col, Px, u, r = (np.empty((S, d)) for _ in range(5))
    center, mu = np.empty((n, d)), np.empty((n, d))
    for t in range(1, T + 1):
        # stationarity of each x_j subproblem of the full augmented Lagrangian:
        # center sum_{i in N(j)} P_ij (c z_ij - lam_ij) / (c m_j)
        np.multiply(c, z, out=w)
        w -= lam
        w *= P
        np.take(w.reshape(-1), by_col_flat, out=w_by_col.reshape(-1))
        np.add.reduceat(w_by_col, starts, out=center)
        center /= ws.rho
        prox(center, xs[t])
        _require_finite(xs[t], t)
        np.take(xs[t].reshape(-1), cols_flat, out=Px.reshape(-1))
        Px *= P  # P_ij x_j
        np.divide(lam, c, out=u)
        u += Px
        # minimize over z_i subject to sum_j z_ij = 0: project the
        # unconstrained minimizer by subtracting the neighborhood mean
        np.add.reduceat(u, starts, out=mu)
        mu *= ws.inv_size
        np.take(mu.reshape(-1), rows_flat, out=r.reshape(-1))
        np.subtract(u, r, out=z)
        np.subtract(Px, z, out=r)
        r *= c
        lam += r
        np.take(lam.reshape(-1), diag_flat, out=ps[t].reshape(-1))  # p_i(t) = lambda_ii(t)
    ys = stack_apply(ws.P, xs)  # y(t) = D^-1 P x(t)
    ys *= ws.inv_size
    return AdmmTrace(c=c, xs=xs, ys=ys, ps=ps, accounting=acct)


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

    What it can see: h is recovered from x(t+1) by ``implicit_subgradients``,
    so x(t+1) cancels and the residual is
    M^-1 P' (p(t) + c y(t)) / c - M^-1 W (x(t) + sum_{s<=t} x(s)).
    It checks the y and p recursions against the running sums of x, not
    the x-update: a wrong prox leaves it at rounding level.
    """
    # evaluated in place, in the order of
    # pred = -(1/c) M^-1 h + x(t) - M^-1 W (x(t) + sum_{s<=t} x(s))
    pred = implicit_subgradients(trace, problem)
    Minv = 1.0 / spectral.col_norms_sq[:, None]
    pred *= -(1.0 / trace.c) * Minv
    xs = trace.xs[:-1]
    pred += xs
    sums = trace.x_sums[:-1]  # a fresh array, derived on access
    sums += xs
    term = stack_apply(spectral.gram, sums)
    term *= Minv
    pred -= term
    pred -= trace.xs[1:]
    return np.abs(pred, out=pred).max(axis=(1, 2))
