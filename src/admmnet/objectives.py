"""Local convex objectives, stacked one row per node, and the centralized oracle.

Node i holds f_i(x) = (w_i/2) |x - a_i|^2 + tau_i |x|_1. A problem keeps
the n objectives as one :class:`QuadraticRows`, the only objective model:
(n, 1) weights, (n, d) targets and (n, 1) l1 weights, None when every
tau_i is 0. Values, proximal maps and gradients of every node come in
closed form from those arrays, on whole (n, d) iterates, so no path loops
over the nodes. The CLI's kinds (the estimation preset, ``quadratic`` and
``l1_quadratic``) build the rows directly (``estimation_rows``,
``quadratic_rows``). :func:`central_solve` gives the consensus optimum
that every certificate check uses as ground truth: one closed-form step,
:meth:`QuadraticRows.minimizer`, per rows class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, MissingCurvatureMetadataError
from .graph import CommunicationMatrix, Graph, laplacian


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


@dataclass(frozen=True, eq=False)
class QuadraticRows:
    """(w/2)|x - a|^2 + tau |x|_1 on every row: (k, 1) weights, (k, d) targets, (k, 1) taus.

    ``tau`` is None when every row's tau is 0, so no l1 term is evaluated.
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

    def __len__(self) -> int:
        return self.target.shape[0]

    @property
    def dimension(self) -> int:
        return self.target.shape[1]

    def curvature(self) -> tuple[float | None, float | None]:
        """(min_i w_i, max_i w_i): the first None if some w_i is 0, the second if some tau_i > 0 (a nonsmooth row)."""
        w = self.weight[:, 0]
        nu = float(w.min()) if np.all(w > 0) else None
        lip = float(w.max()) if self.tau is None or not np.any(self.tau) else None
        return nu, lip

    def minimizer(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(x*, the (k, d) row subgradients at x*, the residual) of min_x sum_i f_i(x).

        x* = soft(sum_i w_i a_i / W, sum_i tau_i / W) with W = sum_i w_i, the
        curvature of the isotropic smooth part, evaluated as the
        proximal-gradient step of length 1/W from x = 0; W = 0 leaves x* = 0.
        The sums of w and tau run in row order (``sum``), the node-sums of
        the gradients by ``_node_sum``. The l1 terms share one sign vector
        xi, so the residual |sum_i w_i (x* - a_i) + (sum_i tau_i) xi| is the
        norm of the node-sum of the returned subgradients.
        """
        tau = np.zeros_like(self.weight) if self.tau is None else self.tau
        w_sum, tau_sum = sum(self.weight[:, 0].tolist()), sum(tau[:, 0].tolist())
        x = np.zeros(self.dimension)
        xi = np.zeros_like(x)
        if w_sum > 0.0:
            eta = 1.0 / w_sum
            u = x - eta * _node_sum(self.smooth_gradients(x))
            if tau_sum > 0:
                x = soft_threshold(u, eta * tau_sum)
                xi = (u - x) / (eta * tau_sum)
            else:
                x = u
        G = self.smooth_gradients(x)
        residual = float(np.linalg.norm(_node_sum(G) + tau_sum * xi))
        return x, G + tau * xi, residual

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
        term, sign(u) max(|u| - tau/(w + rho), 0) in ``out``, in the order
        of that scalar formula, so each row has the bits of a per-node prox.
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


@dataclass(frozen=True)
class NetworkProblem:
    """Graph + the local objectives, one ``QuadraticRows`` row per node; ``comm``, P, is derived: the graph's Laplacian."""

    graph: Graph
    objectives: QuadraticRows
    comm: CommunicationMatrix = field(init=False, repr=False, compare=False)  # P, the graph's Laplacian

    def __post_init__(self):
        if not isinstance(self.objectives, QuadraticRows):
            raise TypeError(f"objectives must be QuadraticRows, got {type(self.objectives).__name__}")
        if len(self.objectives) != self.graph.n:
            raise DimensionMismatchError(
                f"{len(self.objectives)} objectives for {self.graph.n} nodes"
            )
        # built once, here, so the spectra and the engines share one matrix
        object.__setattr__(self, "comm", laplacian(self.graph))

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
    return NetworkProblem(graph=g, objectives=estimation_rows(g.n, dimension))


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
    the exact sum is not finite (an overflowing gradient) it is numpy's.
    """
    try:
        return np.array([math.fsum(G[:, j]) for j in range(G.shape[1])])
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        return G.sum(axis=0)


def central_solve(problem: NetworkProblem) -> OptimalPoint:
    """Solve min_x sum_i f_i(x) on R^d in closed form and stack the result (:meth:`QuadraticRows.minimizer`)."""
    return _stacked(problem, *problem.objectives.minimizer())


def _stacked(problem: NetworkProblem, xbar: np.ndarray, subgrad: np.ndarray, residual: float) -> OptimalPoint:
    x_star = np.tile(xbar, (problem.n, 1))
    return OptimalPoint(
        x_star=x_star,
        f_star=problem.f_value(x_star),
        subgrad=subgrad,
        residual=residual,
    )
