"""Synchronous-round ADMM engines.

The node-based engine keeps three (n, d) arrays: the estimates x, the
neighborhood averages y and the duals p. One round is three array
expressions over all nodes at once:

1. x <- prox(v) at weights c m, where m_i = sum_{j in N(i)} P_ji^2 and the
   prox center folds the neighbors' duals: v = x - P'(p + c y) / (c m)
2. y <- D^-1 P x, with D = diag(|N(i)|) over closed neighborhoods N(i)
3. p <- p + c y

The prox is bound once per run (``NetworkProblem.bind_prox``): when every
node is exactly a Quadratic (with or without an l1 term), its closed form
acts in place on stacked parameters precomputed at the run's weights;
any other problem calls each node's own prox in turn.

The edge-based engine is the reference formulation that keeps one pair
(z_ij, lambda_ij) per directed neighborhood slot (i, j), j in N(i). The
slots are the n + 2|E| rows of two (n + 2|E|, d) buffers, in the row-major
order (by i, then j) in which ``problem.comm`` stores P_ij, updated in
place, so a round costs O(|E| d) and the run stores no slot history. With
the matched initialization lambda_ij(0) = p_i(0),
z_ij(0) = P_ij x_j(0) - y_i(0) the two engines generate identical x
sequences, and both return the same trace: the edge engine records
p_i(t) = lambda_ii(t) each round and rebuilds y(t) = D^-1 P x(t) after the
loop.

Both engines read P from ``problem.comm``, the same
``graph.CommunicationMatrix`` the analysis reads, so m and |N(i)| are
made once per matrix: the node engine uses its products (P x, P'v), the
edge engine its slot values P_ij, and neither forms W. P entries act as
scalars on rows, so vector problems never materialize a Kronecker product,
and P follows the graph's sparsity. A round pays only for its arithmetic:
everything constant within a run (the row and slot scalings at full (., d)
width, the flat element indices of the edge engine's gathers, the bound
prox) is built before the first round, and every round writes into
preallocated buffers or straight into the trace arrays. Each expression
keeps its operand order, so the traces are bit-identical to evaluating the
round formulas above as plain array expressions (the tests hold a
reference of each). Both engines raise
NonFiniteIterateError after a round that leaves a non-finite estimate.

The analysis reads a trace in the blocks of SWEEP_ROUNDS rounds that
``sweep_blocks`` yields and carries sums across blocks with
``running_sums``. ``recurrence_residuals`` checks
the recurrence in its reduced form M^-1 [P'(p + c y) / c - W (x + S)],
with its W part from the sweep of ``analysis.aux_sequences``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmmError, NonFiniteIterateError
from .graph import CommunicationMatrix, Graph
from .objectives import NetworkProblem

SWEEP_ROUNDS = 64  # rounds per block of the analysis


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


def _prox_weights(comm: CommunicationMatrix, c: float, d: int) -> np.ndarray:
    """The prox weights c m_i at full (n, d) width.

    Row scalings are stored at full width: multiplying by an (n, 1) column
    runs numpy's inner loop only d elements at a time. P is the Laplacian of
    a connected graph on n >= 2 nodes, so every m_i = d_i (d_i + 1) >= 2.
    """
    return np.repeat(c * comm.col_norms_sq[:, None], d, axis=1)


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
    comm = problem.comm
    n, d, T, c = problem.n, problem.dimension, config.T, config.c
    rho = _prox_weights(comm, c, d)
    inv_size = np.repeat(1.0 / comm.nbhd_sizes[:, None], d, axis=1)  # D^-1
    acct = account(problem.graph, d)
    if config.init is None:
        x0 = y0 = p0 = np.zeros((n, d))
    else:
        x0, y0, p0 = (np.array(a, dtype=float).reshape(n, d) for a in config.init)
    xs = np.empty((T + 1, n, d))
    xs[0] = x0

    prox = problem.bind_prox(rho)
    ps = np.empty_like(xs)

    if config.engine == "node":
        ys = np.empty_like(xs)
        ys[0], ps[0] = y0, p0
        q, v = np.multiply(c, ys[0]), np.empty((n, d))  # q = c y(t-1) on entry to round t
        for t in range(1, T + 1):
            # v = x - P'(p + c y) / (c m), then x <- prox(v)
            np.add(ps[t - 1], q, out=q)
            comm.pt(q, out=v)
            np.divide(v, rho, out=v)
            np.subtract(xs[t - 1], v, out=v)
            prox(v, xs[t])
            _require_finite(xs[t], t)
            comm.p(xs[t], out=ys[t])
            ys[t] *= inv_size
            np.multiply(c, ys[t], out=q)
            np.add(ps[t - 1], q, out=ps[t])
        return AdmmTrace(c=c, xs=xs, ys=ys, ps=ps, accounting=acct)

    rows, cols, starts = comm.rows, comm.cols, comm.starts
    S = rows.size
    # N is symmetric, so the slots of column j, transpose[starts[j]:starts[j + 1]],
    # have the row groups' offsets
    by_col = comm.transpose
    P = np.repeat(comm.values[:, None], d, axis=1)  # P_ij per slot
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
        center /= rho
        prox(center, xs[t])
        _require_finite(xs[t], t)
        np.take(xs[t].reshape(-1), cols_flat, out=Px.reshape(-1))
        Px *= P  # P_ij x_j
        np.divide(lam, c, out=u)
        u += Px
        # minimize over z_i subject to sum_j z_ij = 0: project the
        # unconstrained minimizer by subtracting the neighborhood mean
        np.add.reduceat(u, starts, out=mu)
        mu *= inv_size
        np.take(mu.reshape(-1), rows_flat, out=r.reshape(-1))
        np.subtract(u, r, out=z)
        np.subtract(Px, z, out=r)
        r *= c
        lam += r
        np.take(lam.reshape(-1), diag_flat, out=ps[t].reshape(-1))  # p_i(t) = lambda_ii(t)
    ys = comm.p(xs)  # y(t) = D^-1 P x(t)
    ys *= inv_size
    return AdmmTrace(c=c, xs=xs, ys=ys, ps=ps, accounting=acct)


def sweep_blocks(T: int):
    """The slices of rounds 0..T-1 that the analysis reads at a time: SWEEP_ROUNDS each, the last one part-full."""
    return (slice(lo, min(lo + SWEEP_ROUNDS, T)) for lo in range(0, T, SWEEP_ROUNDS))


def running_sums(block: np.ndarray, carry: np.ndarray | None = None) -> np.ndarray:
    """Turn a (k, n, d) block of rounds into its running sums in place, continued from ``carry``; returns the block.

    ``carry`` is the sum through the round before the block, None for the
    first block. Row 0 becomes ``carry + block[0]``, each later row the row
    before plus its round: the order of one ``np.cumsum`` over the stack,
    so its bits. A loop of row adds, since numpy's accumulate along the
    round axis steps through memory one (n, d) row apart per entry: at 64
    rounds (one thread) it took 1.3x the loop's time at n d = 200 and
    5.5-6x at n d = 1600.
    """
    rows = list(block)
    if carry is not None:
        np.add(carry, rows[0], out=rows[0])
    for prev, row in zip(rows, rows[1:]):
        np.add(prev, row, out=row)
    return block


def recurrence_residuals(trace: AdmmTrace, spectral, recurrence_w: np.ndarray) -> np.ndarray:
    """Inf-norm residual of the eliminated-variable recurrence, per round.

    After eliminating y and p, each round satisfies
    x(t+1) = -(1/c) M^-1 h(x(t+1)) + (I - M^-1 W) x(t) - M^-1 W sum_{s<=t} x(s)
    with M = diag(m), W the weighted Gram matrix of ``spectral.comm`` and
    h(x(t+1)) = c M (v - x(t+1)) the subgradient that prox optimality
    implies at the center v = x(t) - M^-1 P'(p(t) + c y(t)) / c of round
    t+1. The returned vector holds the residual of that identity for
    t = 0..T-1, evaluated in its reduced form
    M^-1 [P'(p(t) + c y(t)) / c - W (x(t) + sum_{s<=t} x(s))], with one P'
    product per block of rounds. ``recurrence_w`` is its (T, n, d) W part,
    ``AuxSequences.recurrence_w``, from the sweep that gives every W-form.

    What it can see: x(t+1) cancels from the identity, so it checks the y
    and p recursions against the running sums of x and stays blind to the
    x-update: a wrong prox leaves it at rounding level, and only a separate
    test of the prox's optimality at x(t+1) would see one.
    """
    comm = spectral.comm
    m_inv = np.repeat(1.0 / comm.col_norms_sq[:, None], trace.dimension, axis=1)  # full width, as in _prox_weights
    out = np.empty(trace.T)
    for rows in sweep_blocks(trace.T):
        q = np.multiply(1.0 / trace.c, trace.ps[rows])
        q += trace.ys[rows]
        r = comm.pt(q)  # P'(p + c y) / c
        r -= recurrence_w[rows]
        r *= m_inv
        out[rows] = np.abs(r, out=r).max(axis=(1, 2))
    return out
