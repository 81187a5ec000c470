"""Local convex objectives, stacked one row per node, and the centralized oracle.

Node i holds f_i(x) = (w_i/2) |x - a_i|^2 + tau_i |x|_1. A problem keeps
the n objectives as one :class:`QuadraticRows`: (n, 1) weights, (n, d)
targets and (n, 1) l1 weights, None when every tau_i is 0. Values,
proximal maps and the oracle's smooth gradients of every node come in
closed form from those arrays, on whole (n, d) iterates, so no path loops
over the nodes. The CLI's kinds (the estimation preset, ``quadratic`` and
``l1_quadratic``) build the rows directly (``estimation_rows``,
``quadratic_rows``); a sequence of per-node :class:`Quadratic` objectives
is stacked once, when the :class:`NetworkProblem` is made. ``Quadratic``
is the per-node reference, which row i of the rows reads as;
:class:`L1Quadratic` is the same class, whose ``kind`` reads
``"l1_quadratic"`` when tau > 0 and ``"quadratic"`` otherwise.
:func:`central_solve` gives the consensus optimum that every certificate
check uses as ground truth.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, MissingCurvatureMetadataError, OracleNoConvergenceError
from .graph import CommunicationMatrix, Graph, laplacian

ORACLE_TOL = 1e-12
ORACLE_ROUNDING = 4.0 * np.finfo(float).eps  # residual floor per unit of |sum_i |grad f_i| + L |x||
ORACLE_MAX_ITERS = 500_000


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


@dataclass(frozen=True, eq=False)
class QuadraticRows(Sequence):
    """(w/2)|x - a|^2 + tau |x|_1 on every row: (k, 1) weights, (k, d) targets, (k, 1) taus.

    ``tau`` is None when every row's tau is 0, so no l1 term is evaluated.
    The rows are also a sequence, whose item i is row i's ``Quadratic``,
    built only when read.
    """

    weight: np.ndarray
    target: np.ndarray
    tau: np.ndarray | None = None

    def __post_init__(self):
        rows = (self.target.shape[0], 1) if self.target.ndim == 2 else None
        if rows is None or self.weight.shape != rows or (self.tau is not None and self.tau.shape != rows):
            tau = None if self.tau is None else self.tau.shape
            raise DimensionMismatchError(
                f"rows need a (k, d) target and (k, 1) weight and tau, got {self.target.shape}, {self.weight.shape}, {tau}"
            )
        if np.any(self.weight < 0) or (self.tau is not None and np.any(self.tau < 0)):
            raise ValueError("weight and tau must be nonnegative")

    @classmethod
    def of(cls, objectives: Sequence[Quadratic]) -> QuadraticRows:
        """Stacked parameters of ``objectives``, one row each."""
        dims = sorted({o.dimension for o in objectives})
        if len(dims) != 1:
            raise DimensionMismatchError(f"objectives of one dimension needed, got dimensions {dims}")
        taus = [o.tau for o in objectives]
        return cls(
            weight=_column([o.weight for o in objectives]),
            target=np.stack([o.target for o in objectives]),
            tau=_column(taus) if any(taus) else None,
        )

    def __len__(self) -> int:
        return self.target.shape[0]

    def __getitem__(self, i: int) -> Quadratic:
        tau = 0.0 if self.tau is None else float(self.tau[i, 0])
        return Quadratic(target=self.target[i].copy(), weight=float(self.weight[i, 0]), tau=tau)

    @property
    def dimension(self) -> int:
        return self.target.shape[1]

    def curvature(self) -> tuple[float | None, float | None]:
        """(min_i w_i, max_i w_i): the first None if some w_i is 0, the second if some tau_i > 0 (a nonsmooth row)."""
        w = self.weight[:, 0]
        nu = float(w.min()) if np.all(w > 0) else None
        lip = float(w.max()) if self.tau is None or not np.any(self.tau) else None
        return nu, lip

    def oracle_terms(self) -> tuple[float, float, np.ndarray]:
        """(sum_i w_i, sum_i tau_i, the (k, 1) column of tau_i), each sum taken in row order by ``sum``."""
        if self.tau is None:
            return sum(self.weight[:, 0].tolist()), 0.0, np.zeros_like(self.weight)
        return sum(self.weight[:, 0].tolist()), sum(self.tau[:, 0].tolist()), self.tau

    def values(self, X: np.ndarray) -> np.ndarray:
        """Row values of a (..., k, d) stack, shape (..., k)."""
        diff = X - self.target
        vals = np.einsum("...ij,...ij->...i", diff, diff)
        vals *= 0.5 * self.weight[:, 0]
        if self.tau is not None:
            np.abs(X, out=diff)
            vals += self.tau[:, 0] * diff.sum(axis=-1)
        return vals

    def smooth_gradients(self, X: np.ndarray) -> np.ndarray:
        """Row gradients w (x - a) of the quadratic parts at the (k, d) rows X."""
        return self.weight * (X - self.target)

    def bind(self, rho: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Closed-form prox at the fixed row weights ``rho``, (k, 1) or (k, d).

        The kernel evaluates u = (rho v + w a)/(w + rho) and, with an l1
        term, sign(u) max(|u| - tau/(w + rho), 0) in ``out``, with the same
        operations as the per-node ``Quadratic.prox``, so the bits agree.
        """
        wa = self.weight * self.target
        wr = self.weight + rho
        threshold = None if self.tau is None else self.tau / wr
        mag = np.empty_like(wa)

        def prox(V: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.multiply(rho, V, out=out)
            out += wa
            out /= wr
            if threshold is not None:
                np.abs(out, out=mag)
                np.subtract(mag, threshold, out=mag)
                np.maximum(mag, 0.0, out=mag)
                np.sign(out, out=out)
                out *= mag
            return out

        return prox


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float)[:, None]


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


L1Quadratic = Quadratic


@dataclass(frozen=True)
class NetworkProblem:
    """Graph + communication matrix + the local objectives, one row per node.

    ``objectives`` is a ``QuadraticRows``; a sequence of per-node
    ``Quadratic`` objectives is stacked into one when the problem is made.
    """

    graph: Graph
    comm: CommunicationMatrix
    objectives: QuadraticRows

    def __post_init__(self):
        if not isinstance(self.objectives, QuadraticRows):
            object.__setattr__(self, "objectives", QuadraticRows.of(tuple(self.objectives)))
        if len(self.objectives) != self.graph.n:
            raise DimensionMismatchError(
                f"{len(self.objectives)} objectives for {self.graph.n} nodes"
            )
        if self.comm.n != self.graph.n:
            raise DimensionMismatchError("communication matrix size does not match graph")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def dimension(self) -> int:
        return self.objectives.dimension

    def f_value(self, X: np.ndarray) -> float | np.ndarray:
        """Sum of local objective values over the rows of each (n, d) iterate.

        A single (n, d) iterate gives a float; a (..., n, d) stack gives one
        value per iterate, shape (...).
        """
        total = self.objectives.values(X).sum(axis=-1)
        return float(total) if X.ndim == 2 else total

    def smooth_gradients(self, X: np.ndarray) -> np.ndarray:
        """(n, d) gradients of the smooth parts of the local objectives at the rows of X."""
        return self.objectives.smooth_gradients(X)

    def bind_prox(self, rho: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The prox at fixed weights, as a kernel ``(V, out) -> out`` built once per run.

        ``rho`` holds the row weights, (n, 1) or expanded to (n, d). The
        kernel writes row-wise argmin_x f_i(x) + (rho_i/2)|x - v_i|^2 of the
        (n, d) centers V into ``out`` and leaves V unchanged, in closed form
        and with no allocation per call.
        """
        return self.objectives.bind(rho)


def quadratic_rows(target, weight=1.0, tau: float = 0.0) -> QuadraticRows:
    """Rows (w_i/2)|x - a_i|^2 + tau |x|_1 of an (n, d) ``target``, with one weight or one per row, and one tau."""
    target = np.asarray(target, dtype=float)
    n = target.shape[0]
    weight = np.broadcast_to(np.asarray(weight, dtype=float).reshape(-1, 1), (n, 1)).copy()
    return QuadraticRows(weight=weight, target=target, tau=np.full((n, 1), float(tau)) if tau else None)


def estimation_rows(n: int, dimension: int = 1) -> QuadraticRows:
    """Scalar-estimation preset: row i holds (1/2)|x - (i+1)|^2."""
    return quadratic_rows(np.repeat(np.arange(1.0, n + 1.0)[:, None], dimension, axis=1))


def estimation_problem(g: Graph, dimension: int = 1) -> NetworkProblem:
    return NetworkProblem(graph=g, comm=laplacian(g), objectives=estimation_rows(g.n, dimension))


@dataclass(frozen=True)
class AggregateInfo:
    """Aggregate curvature and the subgradient bound at the optimum."""

    strong_convexity: float | None
    lipschitz: float | None
    condition_number: float | None
    subgrad_bound: float | None

    def curvature(self) -> tuple[float, float]:
        """(strong convexity, Lipschitz) or raise MissingCurvatureMetadataError."""
        if self.strong_convexity is None or self.lipschitz is None:
            raise MissingCurvatureMetadataError(
                "every local objective must declare strong convexity and a Lipschitz gradient"
            )
        return self.strong_convexity, self.lipschitz


@dataclass(frozen=True)
class OptimalPoint:
    """Consensus optimum from the centralized oracle.

    ``x_star`` is (n, d) with identical rows; ``subgrad`` stacks one valid
    subgradient per node whose node-sum is the oracle residual.
    """

    x_star: np.ndarray = field(repr=False)
    f_star: float = 0.0
    subgrad: np.ndarray = field(repr=False, default=None)
    residual: float = 0.0


def aggregate(problem: NetworkProblem, optimal: OptimalPoint | None = None) -> AggregateInfo:
    nu, lip = problem.objectives.curvature()
    kappa = None if (nu is None or lip is None or nu <= 0) else lip / nu
    bound = None if optimal is None else float(np.linalg.norm(optimal.subgrad))
    return AggregateInfo(strong_convexity=nu, lipschitz=lip, condition_number=kappa, subgrad_bound=bound)


def require_curvature(problem: NetworkProblem) -> tuple[float, float]:
    """Aggregate (strong convexity, Lipschitz) or raise MissingCurvatureMetadataError."""
    return aggregate(problem).curvature()


def _node_sum(G: np.ndarray) -> np.ndarray:
    """Sum over the nodes (rows) of G, each column rounded once by ``math.fsum``.

    A float sum rounds at every step, with an error that grows with n. Where
    the exact sum is not finite (an overflowing iterate) it is numpy's.
    """
    try:
        return np.array([math.fsum(G[:, j]) for j in range(G.shape[1])])
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        return G.sum(axis=0)


def central_solve(problem: NetworkProblem) -> OptimalPoint:
    """Solve min_x sum_i f_i(x) on R^d and stack the result.

    Proximal-gradient iterations on sum_i f_i, with step 1/(sum of smooth
    Lipschitz constants) and the l1 weights summed into one soft threshold,
    run from x = 0 down to a residual of ORACLE_TOL, or to the rounding floor
    ORACLE_ROUNDING |sum_i |g_i| + L |x||, when that is larger: the node-sum
    rounds at the size of its terms, and x itself at ulp(x), which moves the
    sum of gradients by up to L ulp(x), L the summed Lipschitz constant. The
    node gradients of each step come from the stacked rows of
    :meth:`NetworkProblem.smooth_gradients`. The smooth part is isotropic
    with curvature exactly sum_i w_i, so the first step lands on
    soft(sum_i w_i a_i / sum_i w_i, sum_i tau_i / sum_i w_i).
    The per-node subgradients g_i recorded in the result share a single l1
    sign vector, so their node-sum equals the reported residual. Both
    node-sums are exact up to one final rounding (``_node_sum``).
    """
    lip_total, tau_total, taus = problem.objectives.oracle_terms()
    x = np.zeros(problem.dimension)
    xi = np.zeros_like(x)  # shared sign vector of the l1 terms
    G = problem.smooth_gradients(np.zeros((problem.n, x.size)))
    gs = _node_sum(G)
    residual = float(np.linalg.norm(gs))
    if lip_total > 0.0:  # else no smooth curvature at all: the l1 sum is minimized at 0
        eta = 1.0 / lip_total
        for _ in range(ORACLE_MAX_ITERS):
            u = x - eta * gs
            x = soft_threshold(u, eta * tau_total) if tau_total > 0 else u
            if tau_total > 0:
                xi = (u - x) / (eta * tau_total)
            G = problem.smooth_gradients(np.broadcast_to(x, G.shape))
            gs = _node_sum(G)
            residual = float(np.linalg.norm(gs + tau_total * xi))
            if residual <= ORACLE_TOL or residual <= ORACLE_ROUNDING * float(
                np.linalg.norm(np.abs(G).sum(axis=0) + tau_total * np.abs(xi) + lip_total * np.abs(x))
            ) < np.inf:  # an overflowed iterate has an infinite floor and must not stop
                break
        else:
            raise OracleNoConvergenceError(f"oracle residual {residual:.3e} after {ORACLE_MAX_ITERS} iterations")

    subgrad = G + taus * xi
    return _stacked(problem, x, subgrad, residual)


def _stacked(problem: NetworkProblem, xbar: np.ndarray, subgrad: np.ndarray, residual: float) -> OptimalPoint:
    x_star = np.tile(xbar, (problem.n, 1))
    return OptimalPoint(
        x_star=x_star,
        f_star=problem.f_value(x_star),
        subgrad=subgrad,
        residual=residual,
    )
