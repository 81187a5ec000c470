"""Synchronous-round ADMM engines.

The node-based engine keeps three (n, d) arrays: the estimates x, the
neighborhood averages y and the duals p. One round is three array
expressions over all nodes at once:

1. x <- prox(v) at weights c m, where m_i = sum_{j in N(i)} P_ji^2 and the
   prox center folds the neighbors' duals: v = x - P'(p + c y) / (c m)
2. y <- D^-1 P x, with D = diag(|N(i)|) over closed neighborhoods N(i)
3. p <- p + c y

The prox is bound once per run (``NetworkProblem.bind_prox``): its closed
form acts in place on the problem's stacked rows, with the parameters it
needs precomputed at the run's weights.

The edge-based engine is the reference formulation that keeps one pair
(z_ij, lambda_ij) per directed neighborhood slot (i, j), j in N(i). The
slots are the n + 2|E| rows of two (n + 2|E|, d) buffers, in the row-major
order (by i, then j) in which ``problem.comm`` stores P_ij, updated in
place, so a round costs O(|E| d) and the run stores no slot history. With
the matched initialization lambda_ij(0) = p_i(0),
z_ij(0) = P_ij x_j(0) - y_i(0) the two engines generate identical x
sequences, and both yield the same rounds: the edge engine records
p_i(t) = lambda_ii(t) each round and rebuilds y(t) = D^-1 P x(t) after
each block of rounds.

Both engines read P from ``problem.comm``, the same
``graph.CommunicationMatrix`` the analysis reads, so m and |N(i)| are
made once per matrix: the node engine uses its products (P x, P'v), the
edge engine its slot values P_ij, and neither forms W. P entries act as
scalars on rows, so vector problems never materialize a Kronecker product,
and P follows the graph's sparsity. A round pays only for its arithmetic:
everything constant within a run (the row and slot scalings at full (., d)
width, the flat element indices of the edge engine's gathers, the flat and
row views of the buffers they read and write, the bound prox, the node
engine's P and P' kernels) is built before the first round, and every
round writes into preallocated buffers. The edge engine's gathers clip
rather than raise: in raise mode numpy buffers ``out`` and copies every
gather twice, so their indices are checked to lie in range once instead,
when the engine's kernels are built, and one that does not raises
AdmmError. Each expression keeps its operand order, so the rounds are
bit-identical to evaluating the round formulas above as plain array
expressions (the tests hold a reference of each). Both engines raise
NonFiniteIterateError naming the first round and node that leave a
non-finite estimate; the estimates are tested once per block
(``_advance``).

``rounds`` yields a run in blocks of SWEEP_ROUNDS rounds, written into
x, y and p buffers reused for the whole run, so memory does not grow with
T; the commands stream them into the analysis (``analysis.RoundSweep``),
which carries sums across blocks with ``running_sums``. ``run`` collects
the blocks into (T+1, n, d) stacks for the Python API and the tests, and
``trace_blocks`` yields a collected trace in the same blocks.
``recurrence_residuals`` checks a block's rounds against the recurrence in
its reduced form M^-1 [P'(p + c y) / c - W (x + S)], with its W part from
the sweep.
"""

from __future__ import annotations

from collections.abc import Iterator
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


@dataclass(frozen=True)
class Block:
    """Rounds t0..t0+k of a run, as (k+1, n, d) views: row 0 holds round t0, rows 1..k the block's own rounds.

    Row 0 is the initial state in the first block and the last round of the
    block before in every other, so the analysis reads rows 1..k and the
    recurrence rows 0..k-1. Views of ``rounds``' buffers are valid only
    until the next block is asked for.
    """

    t0: int
    xs: np.ndarray
    ys: np.ndarray
    ps: np.ndarray


def rounds(problem: NetworkProblem, config: RunConfig) -> Iterator[Block]:
    """Run T synchronized rounds and yield them in blocks of SWEEP_ROUNDS, the last one part-full.

    Every block is written into the same (min(T, SWEEP_ROUNDS) + 1, n, d)
    x, y and p buffers, so a run's memory does not grow with T. The config
    is checked here, before the first round; the rounds run as the blocks
    are asked for.
    """
    if config.T < 1:
        raise AdmmError(f"T must be >= 1, got {config.T}")
    if not 0.0 < config.c < np.inf:
        raise AdmmError(f"penalty c must be positive and finite, got {config.c}")
    if config.engine not in ("node", "edge"):
        raise AdmmError(f"unknown engine {config.engine!r}")
    comm, n, d, c = problem.comm, problem.n, problem.dimension, config.c
    if config.init is None:
        x0 = y0 = p0 = np.zeros((n, d))
    else:
        x0, y0, p0 = (np.array(a, dtype=float).reshape(n, d) for a in config.init)
    rho = _prox_weights(comm, c, d)
    inv_size = np.repeat(1.0 / comm.nbhd_sizes[:, None], d, axis=1)  # D^-1
    xs, ys, ps = (np.empty((min(config.T, SWEEP_ROUNDS) + 1, n, d)) for _ in range(3))
    xs[0] = x0
    engine = _node_engine if config.engine == "node" else _edge_engine
    kernels = engine(comm, problem.bind_prox(rho), rho, inv_size, c, xs, ys, ps, y0, p0)
    return _blocks(config.T, xs, ys, ps, *kernels)


def _blocks(T: int, xs: np.ndarray, ys: np.ndarray, ps: np.ndarray, start, update_x, update_rest, finish) -> Iterator[Block]:
    """The blocks of ``rounds``, from its three buffers and an engine's kernels.

    ``start()`` sets the engine's state from row 0 (or rewinds it there);
    the round in row j is ``update_x(j)``, which writes x there from row
    j - 1, then ``update_rest(j)``; ``finish(k)`` completes rows 0..k once a
    block's rounds are known to be finite.
    """
    for t0 in range(0, T, SWEEP_ROUNDS):
        if t0:  # the last round of the block before, whose k rounds filled rows 1..k
            for buf in (xs, ys, ps):
                buf[0] = buf[k]
        k = min(SWEEP_ROUNDS, T - t0)
        _advance(xs, t0, k, start, update_x, update_rest)
        finish(k)
        yield Block(t0, xs[: k + 1], ys[: k + 1], ps[: k + 1])


class _Trapped(Exception):
    """A floating-point error trapped while a block runs (``_advance``)."""


def _trap(kind: str, flag: int) -> None:
    raise _Trapped(kind)


def _advance(xs: np.ndarray, t0: int, k: int, start, update_x, update_rest) -> None:
    """Rounds t0+1..t0+k into rows 1..k, with one finiteness test for the block.

    The rounds run with every floating-point error that would not be
    ignored trapped, and stop at a trapped error. The estimates written
    before it are tested first, and NonFiniteIterateError names the first
    non-finite round and node, as a test after every x-update would; no
    warning comes from a round past it. An error trapped before any
    non-finite estimate rewinds the engine to row 0 and replays the block
    one round at a time, testing each x-update, under the caller's error
    settings, so that round warns or raises as it does unblocked.
    """
    start()
    trapped = {kind: "call" for kind, mode in np.geterr().items() if mode != "ignore"}
    failed, written = False, 0
    try:
        with np.errstate(call=_trap, **trapped):
            for j in range(1, k + 1):
                update_x(j)
                written = j
                update_rest(j)
    except _Trapped:
        failed = True
    finite = np.isfinite(xs[1 : written + 1]).all(axis=(1, 2))
    if not finite.all():
        first = int(np.argmin(finite)) + 1
        _require_finite(xs[first], t0 + first)
    if not failed:
        return
    start(rewind=True)
    for j in range(1, k + 1):
        update_x(j)
        _require_finite(xs[j], t0 + j)
        update_rest(j)


def _node_engine(comm: CommunicationMatrix, prox, rho, inv_size, c: float, xs, ys, ps, y0, p0):
    """The node engine's kernels for ``_blocks``, with q = c y and the center v as its state.

    P x and P'v are the kernels of the matrix's ``route``, bound once per matrix.
    """
    p, pt = comm.route.p, comm.route.pt
    ys[0], ps[0] = y0, p0
    q, v = np.empty_like(y0), np.empty_like(y0)  # q = c y(t-1) on entry to round t

    def start(rewind: bool = False) -> None:
        np.multiply(c, ys[0], out=q)

    x_rows, y_rows, p_rows = (list(buf) for buf in (xs, ys, ps))  # row views, made once

    def update_x(j: int) -> None:
        # v = x - P'(p + c y) / (c m), then x <- prox(v)
        np.add(p_rows[j - 1], q, out=q)
        pt(q, out=v)
        np.divide(v, rho, out=v)
        np.subtract(x_rows[j - 1], v, out=v)
        prox(v, x_rows[j])

    def update_rest(j: int) -> None:
        y = y_rows[j]
        p(x_rows[j], out=y)
        np.multiply(y, inv_size, out=y)
        np.multiply(c, y, out=q)
        np.add(p_rows[j - 1], q, out=p_rows[j])

    return start, update_x, update_rest, lambda k: None


def _edge_engine(comm: CommunicationMatrix, prox, rho, inv_size, c: float, xs, ys, ps, y0, p0):
    """The edge engine's kernels for ``_blocks``, with z and lambda per slot as its state, saved at each block's start.

    y is rebuilt as D^-1 P x once a block's rounds are finite: row 0 of
    the first block too, so y(0) reads D^-1 P x(0). The rebuild takes the
    whole x buffer, so every block's GEMM has the shape of the first: a
    GEMM of a few rows can take BLAS's small-matrix kernels, whose sums
    differ in the last bits (a 2-row rebuild did, at T=65). Rows past k
    hold rounds of the block before and are not read.
    """
    n, d = xs.shape[1:]
    rows, cols, starts = comm.rows, comm.cols, comm.starts
    S = rows.size
    # N is symmetric, so the slots of column j, transpose[starts[j]:starts[j + 1]],
    # have the row groups' offsets
    by_col = comm.transpose
    P = np.repeat(comm.values[:, None], d, axis=1)  # P_ij per slot
    z = P * xs[0][cols] - y0[rows]
    lam = p0[rows]
    # flat gathers: a take of elements beats fancy indexing of rows. Each is
    # the method ``ndarray.take``, which goes straight to C, where ``np.take``
    # first passes through numpy's Python wrapper. In its default raise mode
    # numpy buffers ``out`` and copies each gather twice, so the gathers clip,
    # and every index is checked here, once, to lie in range of the array it
    # reads: a clipped index would be clamped silently.
    by_col_flat, cols_flat, rows_flat, diag_flat = (
        _flat_rows(idx, d) for idx in (by_col, cols, rows, np.flatnonzero(rows == cols))
    )
    for name, flat, size in (
        ("by_col", by_col_flat, S * d),  # reads w
        ("cols", cols_flat, n * d),  # reads a row of x
        ("rows", rows_flat, n * d),  # reads mu
        ("diag", diag_flat, S * d),  # reads lambda
    ):
        if not 0 <= flat.min() <= flat.max() < size:
            raise AdmmError(f"edge gather {name!r} has an index outside 0..{size - 1}")
    w, w_by_col, Px, u, r = (np.empty((S, d)) for _ in range(5))
    center, mu = np.empty((n, d)), np.empty((n, d))
    z_saved, lam_saved = np.empty_like(z), np.empty_like(lam)
    # flat and row views, made once
    w_flat, w_by_col_flat, Px_flat, mu_flat, r_flat, lam_flat = (a.reshape(-1) for a in (w, w_by_col, Px, mu, r, lam))
    x_rows = list(xs)
    x_flat, p_flat = ([row.reshape(-1) for row in buf] for buf in (xs, ps))
    lam_flat.take(diag_flat, out=p_flat[0], mode="clip")

    def start(rewind: bool = False) -> None:
        if rewind:
            np.copyto(z, z_saved)
            np.copyto(lam, lam_saved)
        else:
            np.copyto(z_saved, z)
            np.copyto(lam_saved, lam)

    def update_x(j: int) -> None:
        # stationarity of each x_j subproblem of the full augmented Lagrangian:
        # center sum_{i in N(j)} P_ij (c z_ij - lam_ij) / (c m_j)
        np.multiply(c, z, out=w)
        np.subtract(w, lam, out=w)
        np.multiply(w, P, out=w)
        w_flat.take(by_col_flat, out=w_by_col_flat, mode="clip")
        np.add.reduceat(w_by_col, starts, out=center)
        np.divide(center, rho, out=center)
        prox(center, x_rows[j])

    def update_rest(j: int) -> None:
        x_flat[j].take(cols_flat, out=Px_flat, mode="clip")
        np.multiply(Px, P, out=Px)  # P_ij x_j
        np.divide(lam, c, out=u)
        np.add(u, Px, out=u)
        # minimize over z_i subject to sum_j z_ij = 0: project the
        # unconstrained minimizer by subtracting the neighborhood mean
        np.add.reduceat(u, starts, out=mu)
        np.multiply(mu, inv_size, out=mu)
        mu_flat.take(rows_flat, out=r_flat, mode="clip")
        np.subtract(u, r, out=z)
        np.subtract(Px, z, out=r)
        np.multiply(r, c, out=r)
        np.add(lam, r, out=lam)
        lam_flat.take(diag_flat, out=p_flat[j], mode="clip")  # p_i(t) = lambda_ii(t)

    def finish(k: int) -> None:
        np.multiply(comm.route.p(xs), inv_size, out=ys)  # y(t) = D^-1 P x(t)

    return start, update_x, update_rest, finish


def run(problem: NetworkProblem, config: RunConfig) -> AdmmTrace:
    """Run T synchronized rounds and record every snapshot: the blocks of ``rounds`` collected into (T+1, n, d) stacks."""
    blocks = rounds(problem, config)
    xs, ys, ps = (np.empty((config.T + 1, problem.n, problem.dimension)) for _ in range(3))
    for block in blocks:
        rows = slice(block.t0, block.t0 + len(block.xs))
        xs[rows], ys[rows], ps[rows] = block.xs, block.ys, block.ps
    return AdmmTrace(c=config.c, xs=xs, ys=ys, ps=ps, accounting=account(problem.graph, problem.dimension))


def trace_blocks(trace: AdmmTrace) -> Iterator[Block]:
    """A collected trace's rounds in the blocks ``rounds`` yields, as views of its stacks."""
    for t0 in range(0, trace.T, SWEEP_ROUNDS):
        rows = slice(t0, min(t0 + SWEEP_ROUNDS, trace.T) + 1)
        yield Block(t0, trace.xs[rows], trace.ys[rows], trace.ps[rows])


def running_sums(block: np.ndarray, carry: np.ndarray | None = None) -> np.ndarray:
    """Turn a (k, n, d) block of rounds into its running sums in place, continued from ``carry``; returns the block.

    ``carry`` is the sum through the round before the block, None for the
    first block. Row 0 becomes ``carry + block[0]``, each later row the row
    before plus its round: the order of one ``np.cumsum`` over the stack,
    so its bits. A loop of row adds, since numpy's accumulate along the
    round axis steps through memory one (n, d) row apart per entry, and
    costs more (README, Performance).
    """
    rows = list(block)
    if carry is not None:
        np.add(carry, rows[0], out=rows[0])
    for prev, row in zip(rows, rows[1:]):
        np.add(prev, row, out=row)
    return block


def recurrence_residuals(block: Block, comm: CommunicationMatrix, c: float, w_part: np.ndarray) -> np.ndarray:
    """Inf-norm residual of the eliminated-variable recurrence for the rounds t0..t0+k-1 in rows 0..k-1 of ``block``.

    After eliminating y and p, each round satisfies
    x(t+1) = -(1/c) M^-1 h(x(t+1)) + (I - M^-1 W) x(t) - M^-1 W sum_{s<=t} x(s)
    with M = diag(m), W the weighted Gram matrix of ``comm`` and
    h(x(t+1)) = c M (v - x(t+1)) the subgradient that prox optimality
    implies at the center v = x(t) - M^-1 P'(p(t) + c y(t)) / c of round
    t+1. The residual of that identity is evaluated in its reduced form
    M^-1 [P'(p(t) + c y(t)) / c - W (x(t) + sum_{s<=t} x(s))], with one P'
    product per block. ``w_part`` is its (k, n, d) W part, centered, from
    the sweep that gives every W-form (``analysis.RoundSweep``).

    What it can see: x(t+1) cancels from the identity, so it checks the y
    and p recursions against the running sums of x and stays blind to the
    x-update: a wrong prox leaves it at rounding level, and only a separate
    test of the prox's optimality at x(t+1) would see one.
    """
    m_inv = np.repeat(1.0 / comm.col_norms_sq[:, None], block.xs.shape[-1], axis=1)  # full width, as in _prox_weights
    q = np.multiply(1.0 / c, block.ps[:-1])
    q += block.ys[:-1]
    r = comm.route.pt(q)  # P'(p + c y) / c
    r -= w_part
    r *= m_inv
    return np.abs(r, out=r).max(axis=(1, 2))
