"""Synchronous-round ADMM engines.

The node-based engine keeps three vectors per node (the estimate x_i, the
neighborhood average y_i and the dual p_i). One round is

1. x_i <- prox of f_i at weight c * m_i, where m_i = sum_{j in N(i)} P_ji^2
   and the prox center folds the neighbors' duals:
   v_i = x_i - (1/(c m_i)) sum_{j in N(i)} P_ji (p_j + c y_j)
2. y_i <- (1/|N(i)|) sum_{j in N(i)} P_ij x_j
3. p_i <- p_i + c y_i

The edge-based engine is the reference formulation that keeps one pair
(z_ij, lambda_ij) per directed neighborhood slot. With the matched
initialization lambda_ij(0) = p_i(0), z_ij(0) = P_ij x_j(0) - y_i(0) the
two engines generate identical x sequences.

All state is (n, d) arrays; P entries act as scalars on rows, so vector
problems never materialize a Kronecker product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AdmmError, ProxFailureError, ZeroMWeightError
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
class AdmmState:
    """Node-engine snapshot after t rounds."""

    t: int
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    c: float = 1.0


@dataclass(frozen=True)
class EdgeAdmmState:
    """Edge-engine snapshot; z and lam are (n, n, d), row i indexed by j in N(i)."""

    t: int
    x: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    c: float = 1.0


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
    zs: np.ndarray | None = None  # (T+1, n, n, d), edge engine only
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
    """Per-run gather indices and prox weights derived from the problem."""

    def __init__(self, problem: NetworkProblem):
        g = problem.graph
        P = problem.comm.P
        self.n = g.n
        self.d = problem.dimension
        self.nbrs = [np.array(g.closed_neighbors(i), dtype=int) for i in range(g.n)]
        self.col = [P[self.nbrs[i], i].copy() for i in range(g.n)]  # P_ji, j in N(i)
        self.row = [P[i, self.nbrs[i]].copy() for i in range(g.n)]  # P_ij, j in N(i)
        self.inv_size = np.array([1.0 / (deg + 1.0) for deg in g.degrees])
        self.m_diag = np.array([float(self.col[i] @ self.col[i]) for i in range(g.n)])
        for i, m in enumerate(self.m_diag):
            if m <= 0.0:
                raise ZeroMWeightError(i)


def initial_state(problem: NetworkProblem, c: float, init=None) -> AdmmState:
    n, d = problem.n, problem.dimension
    if init is None:
        x0 = np.zeros((n, d))
        y0 = np.zeros((n, d))
        p0 = np.zeros((n, d))
    else:
        x0, y0, p0 = (np.array(a, dtype=float).reshape(n, d) for a in init)
    return AdmmState(t=0, x=x0, y=y0, p=p0, c=float(c))


def initial_edge_state(problem: NetworkProblem, c: float, init=None) -> EdgeAdmmState:
    """Edge state matching a node init through the reduction identities."""
    node = initial_state(problem, c, init)
    ws = _Workspace(problem)
    n, d = problem.n, problem.dimension
    z = np.zeros((n, n, d))
    lam = np.zeros((n, n, d))
    P = problem.comm.P
    for i in range(n):
        for j in ws.nbrs[i]:
            z[i, j] = P[i, j] * node.x[j] - node.y[i]
            lam[i, j] = node.p[i]
    return EdgeAdmmState(t=0, x=node.x.copy(), z=z, lam=lam, c=float(c))


def _node_step(state: AdmmState, problem: NetworkProblem, ws: _Workspace) -> AdmmState:
    c = state.c
    n, d = ws.n, ws.d
    dual_load = state.p + c * state.y  # p_j(t) + c y_j(t), gathered per node below
    x_new = np.empty((n, d))
    for i in range(n):
        rho = c * ws.m_diag[i]
        v = state.x[i] - (ws.col[i] @ dual_load[ws.nbrs[i]]) / rho
        try:
            x_new[i] = problem.objectives[i].prox(v, rho)
        except AdmmError:
            raise
        except Exception as exc:
            raise ProxFailureError(i, exc) from exc
    y_new = np.empty((n, d))
    for i in range(n):
        y_new[i] = ws.inv_size[i] * (ws.row[i] @ x_new[ws.nbrs[i]])
    return AdmmState(t=state.t + 1, x=x_new, y=y_new, p=state.p + c * y_new, c=c)


def _edge_step(state: EdgeAdmmState, problem: NetworkProblem, ws: _Workspace) -> EdgeAdmmState:
    c = state.c
    n, d = ws.n, ws.d
    P = problem.comm.P
    x_new = np.empty((n, d))
    for j in range(n):
        rho = c * ws.m_diag[j]
        # stationarity of the x_j subproblem of the full augmented Lagrangian
        acc = np.zeros(d)
        for i in ws.nbrs[j]:
            acc += P[i, j] * (c * state.z[i, j] - state.lam[i, j])
        v = acc / rho
        try:
            x_new[j] = problem.objectives[j].prox(v, rho)
        except AdmmError:
            raise
        except Exception as exc:
            raise ProxFailureError(j, exc) from exc
    z_new = np.zeros_like(state.z)
    lam_new = np.zeros_like(state.lam)
    for i in range(n):
        # minimize over z_i subject to sum_j z_ij = 0: project the
        # unconstrained minimizer by subtracting the neighborhood mean
        mu = np.zeros(d)
        for j in ws.nbrs[i]:
            mu += P[i, j] * x_new[j] + state.lam[i, j] / c
        mu *= ws.inv_size[i]
        for j in ws.nbrs[i]:
            z_new[i, j] = P[i, j] * x_new[j] + state.lam[i, j] / c - mu
            lam_new[i, j] = state.lam[i, j] + c * (P[i, j] * x_new[j] - z_new[i, j])
    return EdgeAdmmState(t=state.t + 1, x=x_new, z=z_new, lam=lam_new, c=c)


def run(problem: NetworkProblem, config: RunConfig) -> AdmmTrace:
    """Run T synchronized rounds and record every snapshot."""
    if config.T < 1:
        raise AdmmError(f"T must be >= 1, got {config.T}")
    if config.c <= 0:
        raise AdmmError(f"penalty c must be positive, got {config.c}")
    if config.engine not in ("node", "edge"):
        raise AdmmError(f"unknown engine {config.engine!r}")
    ws = _Workspace(problem)
    n, d, T = problem.n, problem.dimension, config.T
    acct = account(problem.graph, d)

    if config.engine == "node":
        state = initial_state(problem, config.c, config.init)
        xs = np.empty((T + 1, n, d))
        ys = np.empty_like(xs)
        ps = np.empty_like(xs)
        xs[0], ys[0], ps[0] = state.x, state.y, state.p
        for t in range(1, T + 1):
            state = _node_step(state, problem, ws)
            xs[t], ys[t], ps[t] = state.x, state.y, state.p
        return AdmmTrace(engine="node", c=config.c, xs=xs, ys=ys, ps=ps, accounting=acct)

    state = initial_edge_state(problem, config.c, config.init)
    xs = np.empty((T + 1, n, d))
    zs = np.empty((T + 1, n, n, d))
    lams = np.empty_like(zs)
    xs[0], zs[0], lams[0] = state.x, state.z, state.lam
    for t in range(1, T + 1):
        state = _edge_step(state, problem, ws)
        xs[t], zs[t], lams[t] = state.x, state.z, state.lam
    # y and p reconstructed through the reduction identities, for reporting
    ys = np.zeros_like(xs)
    ps = np.zeros_like(xs)
    Dinv = ws.inv_size[:, None]
    for t in range(T + 1):
        ys[t] = Dinv * (problem.comm.P @ xs[t])
        ps[t] = lams[t, np.arange(n), np.arange(n)]
    return AdmmTrace(
        engine="edge", c=config.c, xs=xs, ys=ys, ps=ps, accounting=acct, zs=zs, lams=lams,
    )


def implicit_subgradients(trace: AdmmTrace, problem: NetworkProblem) -> np.ndarray:
    """Subgradients h(x(t+1)) implied by prox optimality, shape (T, n, d).

    h_i = c m_i (v_i - x_i(t+1)) where v_i is the prox center of round t+1.
    """
    ws = _Workspace(problem)
    c = trace.c
    T, n, d = trace.T, trace.n, trace.dimension
    hs = np.empty((T, n, d))
    for t in range(T):
        dual_load = trace.ps[t] + c * trace.ys[t]
        for i in range(n):
            rho = c * ws.m_diag[i]
            v = trace.xs[t][i] - (ws.col[i] @ dual_load[ws.nbrs[i]]) / rho
            hs[t, i] = rho * (v - trace.xs[t + 1][i])
    return hs


def recurrence_residuals(trace: AdmmTrace, spectral, problem: NetworkProblem) -> np.ndarray:
    """Inf-norm residual of the eliminated-variable recurrence, per round.

    After eliminating y and p, each round satisfies
    x(t+1) = -(1/c) M^-1 h(x(t+1)) + (I - M^-1 W) x(t) - M^-1 W sum_{s<=t} x(s)
    with M = diag(col_norms_sq) and W the weighted Gram matrix. The
    returned vector holds the residual of that identity for t = 0..T-1.
    """
    hs = implicit_subgradients(trace, problem)
    c = trace.c
    Minv = 1.0 / spectral.col_norms_sq[:, None]
    W = spectral.gram
    x_sums = trace.x_sums
    out = np.empty(trace.T)
    for t in range(trace.T):
        pred = (
            -(1.0 / c) * Minv * hs[t]
            + trace.xs[t]
            - Minv * (W @ trace.xs[t])
            - Minv * (W @ x_sums[t])
        )
        out[t] = float(np.max(np.abs(trace.xs[t + 1] - pred)))
    return out
