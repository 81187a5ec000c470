"""Local convex objectives with value, (sub)gradient and proximal maps.

Two classes are supported:

* :class:`Quadratic`          (w/2) |x - a|^2 + tau |x|_1, tau = 0 by default
* :class:`CustomSmooth`       user callables with declared curvature

plus :class:`NetworkProblem` (graph + communication matrix + one objective
per node) and a centralized oracle solver that produces the consensus
optimum used as ground truth by every certificate check.
:class:`L1Quadratic` is the same class as ``Quadratic``; its ``kind`` reads
``"l1_quadratic"`` when tau > 0 and ``"quadratic"`` otherwise.

A problem evaluates its objectives on whole (n, d) iterates through one
rows object: values, proximal maps and the oracle's smooth gradients of
every node come in closed form from stacked parameters when every node is
exactly a ``Quadratic``, and otherwise from one node at a time. The stacked
parameters are a :class:`QuadraticRows`: (n, 1) weights, (n, d) targets and
(n, 1) l1 weights. The CLI's kinds (the estimation preset, ``quadratic`` and
``l1_quadratic``) build them directly (``estimation_rows``,
``quadratic_rows``) and hand them to the problem in place of its per-node
objectives, so the problem, ``aggregate`` and ``central_solve`` build no
per-node object and loop over no nodes; per-node ``Quadratic`` objectives
are stacked once, on first use.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InnerSolverNoConvergenceError,
    MissingCurvatureMetadataError,
    OracleNoConvergenceError,
    ProxFailureError,
)
from .graph import CommunicationMatrix, Graph, laplacian

PROX_RTOL = 1e-10  # optimality residual <= PROX_RTOL * rho * (1 + |v|)
ORACLE_TOL = 1e-12
ORACLE_ROUNDING = 4.0 * np.finfo(float).eps  # residual floor per unit of |sum_i |grad f_i| + L |x||
ORACLE_MAX_ITERS = 500_000


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class LocalObjective:
    """Interface shared by all objective kinds."""

    dimension: int

    def _vec(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dimension,):
            raise DimensionMismatchError(f"expected shape ({self.dimension},), got {x.shape}")
        return x

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        """Gradient, or a valid subgradient for nonsmooth kinds."""
        raise NotImplementedError

    def prox(self, v, rho: float) -> np.ndarray:
        """argmin_x f(x) + (rho/2) |x - v|^2 for rho > 0."""
        raise NotImplementedError

    # curvature metadata; None when unknown / not applicable
    strong_convexity: float | None = None
    gradient_lipschitz: float | None = None

    # split used by the centralized oracle
    l1_weight: float = 0.0
    smooth_lipschitz: float = 0.0

    def smooth_gradient(self, x) -> np.ndarray:
        return self.gradient(x)


class _EachRow:
    """Objectives evaluated one row at a time through their own methods; row i is node i."""

    def __init__(self, objectives: tuple[LocalObjective, ...]):
        self.objectives = objectives
        self.dimension = objectives[0].dimension

    def curvature(self) -> tuple[float | None, float | None]:
        """(min_i nu_i, max_i L_i), each None if some node lacks it."""
        nus = [o.strong_convexity for o in self.objectives]
        lips = [o.gradient_lipschitz for o in self.objectives]
        nu = None if any(v is None for v in nus) else float(min(nus))
        lip = None if any(v is None for v in lips) else float(max(lips))
        return nu, lip

    def oracle_terms(self) -> tuple[float, float, np.ndarray]:
        """(sum_i L_i of the smooth parts, sum_i tau_i, the (k, 1) column of tau_i), summed in row order."""
        taus = [o.l1_weight for o in self.objectives]
        return sum(o.smooth_lipschitz for o in self.objectives), sum(taus), _column(taus)

    def values(self, X: np.ndarray) -> np.ndarray:
        rows = X.reshape(-1, *X.shape[-2:])
        vals = [[f.value(x) for f, x in zip(self.objectives, row)] for row in rows]
        return np.array(vals).reshape(X.shape[:-1])

    def smooth_gradients(self, X: np.ndarray) -> np.ndarray:
        """Row gradients of the smooth parts at the (k, d) rows X."""
        # reshaped so that a d = 1 grad_fn returning a scalar still fills the rows
        return np.array([f.smooth_gradient(x) for f, x in zip(self.objectives, X)], dtype=float).reshape(X.shape)

    def bind(self, rho: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Per-node prox at the fixed row weights ``rho`` (first column read)."""
        rhos = [float(r) for r in rho[:, 0]]

        def prox(V: np.ndarray, out: np.ndarray) -> np.ndarray:
            for i, (f, r) in enumerate(zip(self.objectives, rhos)):
                try:
                    out[i] = f.prox(V[i], r)
                except Exception as exc:
                    raise ProxFailureError(i, exc) from exc
            return out

        return prox


@dataclass(frozen=True, eq=False)
class QuadraticRows(Sequence):
    """(w/2)|x - a|^2 + tau |x|_1 on every row: (k, 1) weights, (k, d) targets.

    ``tau`` is None when every row's tau is 0, so no l1 term is evaluated.
    A ``NetworkProblem`` takes the rows in place of k per-node objectives:
    they are also a sequence, whose item i is row i's ``Quadratic``, built
    only when read.
    """

    weight: np.ndarray
    target: np.ndarray
    tau: np.ndarray | None = None

    def __post_init__(self):
        if np.any(self.weight < 0) or (self.tau is not None and np.any(self.tau < 0)):
            raise ValueError("weight and tau must be nonnegative")

    @classmethod
    def of(cls, objectives: Sequence[Quadratic]) -> QuadraticRows:
        """Stacked parameters of ``objectives``, one row each."""
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
        """(min_i w_i, max_i w_i), as the rows' ``Quadratic``s declare them: None if some w_i is 0, or some tau_i > 0."""
        w = self.weight[:, 0]
        nu = float(w.min()) if np.all(w > 0) else None
        lip = float(w.max()) if self.tau is None or not np.any(self.tau) else None
        return nu, lip

    def oracle_terms(self) -> tuple[float, float, np.ndarray]:
        """(sum_i w_i, sum_i tau_i, the (k, 1) column of tau_i), summed in row order by ``sum`` as over per-node objectives."""
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
class Quadratic(LocalObjective):
    """(weight/2) |x - target|^2 + tau |x|_1.

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

    @property
    def strong_convexity(self) -> float | None:
        return self.weight if self.weight > 0 else None

    @property
    def gradient_lipschitz(self) -> float | None:
        # nonsmooth unless the l1 term vanishes
        return self.weight if self.tau == 0 else None

    @property
    def smooth_lipschitz(self) -> float:
        return self.weight

    @property
    def l1_weight(self) -> float:
        return self.tau

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
class CustomSmooth(LocalObjective):
    """Smooth objective given by callables, with declared curvature.

    The prox has no closed form; it is solved by gradient iterations on the
    rho-strongly-convex subproblem with step 1/(L + rho).
    """

    value_fn: Callable[[np.ndarray], float] = field(repr=False)
    grad_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    dim: int = 1
    nu: float | None = None
    lipschitz: float | None = None

    kind = "custom_smooth"

    @property
    def dimension(self) -> int:
        return self.dim

    @property
    def strong_convexity(self) -> float | None:
        return self.nu

    @property
    def gradient_lipschitz(self) -> float | None:
        return self.lipschitz

    @property
    def smooth_lipschitz(self) -> float:
        if self.lipschitz is None:
            raise MissingCurvatureMetadataError("custom objective needs a Lipschitz constant")
        return self.lipschitz

    def value(self, x) -> float:
        return float(self.value_fn(self._vec(x)))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self.grad_fn(self._vec(x)), dtype=float)

    def prox(self, v, rho: float) -> np.ndarray:
        v = self._vec(v)
        if rho <= 0:
            raise ValueError("rho must be positive")
        if self.lipschitz is None:
            raise MissingCurvatureMetadataError("custom objective needs a Lipschitz constant")
        step = 1.0 / (self.lipschitz + rho)
        target = PROX_RTOL * rho * (1.0 + float(np.linalg.norm(v)))
        x = v.copy()
        for _ in range(100_000):
            g = self.gradient(x) + rho * (x - v)
            g_norm = float(np.linalg.norm(g))
            if not np.isfinite(g_norm):
                raise InnerSolverNoConvergenceError("prox inner solver hit a non-finite gradient", g_norm)
            if g_norm <= 0.5 * target:
                break
            x_new = x - step * g
            if float(np.linalg.norm(x_new - x)) <= 1e-13:
                x = x_new
                break
            x = x_new
        residual = float(np.linalg.norm(self.gradient(x) + rho * (x - v)))
        if not residual <= target:  # also refuses a nan residual or target
            raise InnerSolverNoConvergenceError("prox inner solver stalled", residual)
        return x


@dataclass(frozen=True)
class NetworkProblem:
    """Graph + communication matrix + one local objective per node."""

    graph: Graph
    comm: CommunicationMatrix
    objectives: Sequence[LocalObjective]  # a tuple, or QuadraticRows

    def __post_init__(self):
        stacked = isinstance(self.objectives, QuadraticRows)  # one (n, d) target array: one dimension
        if not stacked:
            object.__setattr__(self, "objectives", tuple(self.objectives))
        if len(self.objectives) != self.graph.n:
            raise DimensionMismatchError(
                f"{len(self.objectives)} objectives for {self.graph.n} nodes"
            )
        if self.comm.n != self.graph.n:
            raise DimensionMismatchError("communication matrix size does not match graph")
        dims = set() if stacked else {o.dimension for o in self.objectives}
        if len(dims) > 1:
            raise DimensionMismatchError(f"mixed objective dimensions {sorted(dims)}")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def dimension(self) -> int:
        return self._rows.dimension

    @cached_property
    def _rows(self) -> QuadraticRows | _EachRow:
        """The objectives as one rows object, built once per problem: the given ``QuadraticRows`` themselves.

        The closed form applies only when every objective's type is exactly
        ``Quadratic``; a subclass keeps its own per-node methods.
        """
        objs = self.objectives
        if isinstance(objs, QuadraticRows):
            return objs
        if all(type(f) is Quadratic for f in objs):
            return QuadraticRows.of(objs)
        return _EachRow(objs)

    def f_value(self, X: np.ndarray) -> float | np.ndarray:
        """Sum of local objective values over the rows of each (n, d) iterate.

        A single (n, d) iterate gives a float; a (..., n, d) stack gives one
        value per iterate, shape (...).
        """
        total = self._rows.values(X).sum(axis=-1)
        return float(total) if X.ndim == 2 else total

    def smooth_gradients(self, X: np.ndarray) -> np.ndarray:
        """(n, d) gradients of the smooth parts of the local objectives at the rows of X."""
        return self._rows.smooth_gradients(X)

    def bind_prox(self, rho: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The prox at fixed weights, as a kernel ``(V, out) -> out`` built once per run.

        ``rho`` holds the row weights, (n, 1) or expanded to (n, d). The
        kernel writes row-wise argmin_x f_i(x) + (rho_i/2)|x - v_i|^2 of the
        (n, d) centers V into ``out`` and leaves V unchanged; the closed form
        allocates nothing per call. Raises ProxFailureError naming the node
        when a per-node prox fails.
        """
        return self._rows.bind(rho)


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
    nu, lip = problem._rows.curvature()
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
    :meth:`NetworkProblem.smooth_gradients`. For ``Quadratic`` nodes the
    smooth part is isotropic with curvature exactly sum_i w_i, so the first
    step lands on soft(sum_i w_i a_i / sum_i w_i, sum_i tau_i / sum_i w_i).
    The per-node subgradients g_i recorded in the result share a single l1
    sign vector, so their node-sum equals the reported residual. Both
    node-sums are exact up to one final rounding (``_node_sum``).
    """
    lip_total, tau_total, taus = problem._rows.oracle_terms()
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
