"""Convergence certificates and their numerical verification.

Certified quantities, writing lam_min for the smallest nonzero eigenvalue
of the weighted Gram matrix and lam_max for the largest eigenvalue of the
metric block:

* ergodic (sublinear) bounds for zero-initialized runs,
    |F(xhat(T)) - F*| <= (c/2T) |x*|^2 lam_max + (2/cT) U^2 / lam_min
    |Q xhat(T)|       <= (1/2T) |x*|^2 lam_max + (1/2T) (2 + 2U^2/(c^2 lam_min))
  where U bounds the subgradient stack at the optimum;
* a linear rate 1/(1 + gain) of the squared metric distance
    |q(t+1) - q*|_G^2 <= 1/(1 + gain) |q(t) - q*|_G^2
  with gain = min{ 2 beta nu / (c lam_max (1 + 2/lam_min)),
                   (1 - beta) c lam_min / L };
  ``contraction_check`` judges that inequality round by round, as a
  per-round ratio. It FAILs on the complete graph n=50 at c = auto (a
  strict expected failure in the tests), whose one-step norm in the
  metric exceeds the certified rate; whether the theorem bounds one step
  or only the asymptotic rate is open (ROADMAP item 11);
* the penalty maximizing that gain, with the closed forms
    best balance = c^2 lam_max (2 + lam_min) / (2 nu L + c^2 lam_max (2 + lam_min))
    best penalty = sqrt(2 nu L / (lam_max (2 + lam_min)))
    best gain    = (1/2) sqrt(2 lam_min^2 / (lam_max (2 + lam_min)) / kappa)
* degree/connectivity relaxations of the spectral quantities, whose
  communication matrix is the graph Laplacian.

Every O(T) column of a run is filled as its rounds stream from
``admm.rounds``, one block of SWEEP_ROUNDS rounds at a time (``sweep``,
``RoundSweep``): each block is centered once and takes one W product, and W
of the running sums is carried as running sums of those products, since W
is linear. The metric distance, the ergodic feasibility, the objective
gaps, the distance to x* and, when asked for (`run` asks, `check` does
not), the recurrence residuals all follow, so a command takes one W product
per round and holds no (T+1)-deep stack; its memory does not grow with T.
``aux_sequences`` feeds a collected trace through the same sweep.

`run` and `check` judge the per-round table with one function per
certificate: ``sublinear_check`` for the two ergodic bounds and
``contraction_check`` for the contraction.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InvalidBetaError,
    InvalidCError,
    MissingCurvatureMetadataError,
    OptimizationBracketFailureError,
)
from . import admm  # attributes read at each call, so a wrapper set on the module sees them
from .graph import CommunicationMatrix
from .objectives import NetworkProblem, OptimalPoint
from .spectral import SpectralData, compute_spectral_data

# The tolerance policy shared by `run` and `check`.
BOUND_SLACK = 1e-9  # additive slack absorbing eigensolver error and rounding; the prox is closed form, with no solver error
RECURRENCE_LIMIT = 1e-8  # largest admissible residual of the eliminated-variable recurrence
REPLAY_RTOL = 1e-9  # largest deviation |got - want| / max(1, |want|) of a replayed trace
RATIO_FLOOR = 1e-24  # contraction ratios with a smaller denominator are nan, not judged
RECON_RTOL = 1e-10  # largest relative residual of the dual reference's solve with W


# --- auxiliary sequences ---------------------------------------------------


@dataclass(frozen=True)
class AuxSequences:
    """Every O(T) column of a run, from one sweep of its rounds (``RoundSweep``).

    ``dual_ref`` is the x-space reference a = -(1/c) W^+ subgrad(x*), so
    ``metric_dist_sq[t]`` = (S(t) - a)' W (S(t) - a) + |x(t) - x*|^2 weighted
    by the metric block, S(t) = sum_{s<=t} x(s); ``feasibility[t-1]`` =
    |Q xhat(t)| for the ergodic mean xhat(t); ``obj_gap[t-1]``,
    ``ergodic_obj_gap[t-1]`` and ``dist_sq[t-1]`` are F(x(t)) - F*,
    F(xhat(t)) - F* and |x(t) - x*|^2; ``recurrence[t]`` is the residual of
    ``admm.recurrence_residuals`` at round t = 0..T-1, or None unless asked
    for; ``dual_ref_residual`` = |W a + subgrad(x*)/c| (bounded, see
    ``dual_reference``) and ``span_residual`` = |consensus part of a|.
    """

    dual_ref: np.ndarray = field(repr=False)  # (n, d)
    metric_dist_sq: np.ndarray = field(repr=False)  # (T+1,)
    feasibility: np.ndarray = field(repr=False)  # (T,)
    obj_gap: np.ndarray = field(repr=False)  # (T,)
    ergodic_obj_gap: np.ndarray = field(repr=False)  # (T,)
    dist_sq: np.ndarray = field(repr=False)  # (T,)
    recurrence: np.ndarray | None = field(repr=False)  # (T,)
    dual_ref_residual: float = 0.0
    span_residual: float = 0.0


def _forms(s: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """s' W s per round of a (k, n, d) block s, given ws = W s."""
    return np.einsum("kij,kij->k", s, ws)


def _metric_form(s: np.ndarray, ws: np.ndarray, e_metric: np.ndarray, e_form: np.ndarray) -> np.ndarray:
    """s' W s + e' (M - W) e per round of (k, n, d) blocks, given e_metric = sum_i m_i |e_i|^2.

    s is centered, ws = W s, and e_form holds ec' W ec for e's centered part
    ec (see ``RoundSweep``). M - W is not stored: e' (M - W) e =
    sum_i m_i |e_i|^2 - ec' W ec, since W 1 = 0, and no further product is
    taken.
    """
    total = np.maximum(_forms(s, ws), 0.0)
    total -= e_form
    total += e_metric
    return total


def _weighted_sq(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sum_i m_i |e_i|^2 per round of a (k, n, d) block e, m repeated d times; squares e in place."""
    e *= e
    return e.reshape(e.shape[0], -1) @ m


class RoundSweep:
    """Fills every O(T) column of a run from its rounds, one ``admm.Block`` at a time, with one W product per round.

    Per block of k rounds it centers x(t) (each round minus its node mean)
    and takes W of the k centered rounds at once. W 1 = 0 holds only up to
    rounding, so v' W v loses digits on a v with a large consensus part,
    such as a running sum of iterates near x*; every W-form reads centered
    operands. The running sums R(t) = sum_{1<=s<=t} x_c(s) and W R(t) are
    carried from block to block (``admm.running_sums``), since W is linear.
    Centered, S(t) - ref is R(t) - (ref_c - x_c(0)), xhat(t) is R(t) / t,
    x(t) - x* is x_c(t) (x* has identical rows) and x(t) + S(t) is
    x_c(t) + x_c(0) + R(t). The columns without W evaluate the objective
    once per block of rounds and once per block of ergodic means, with the
    bits of one pass over the whole stack.

    Memory: the columns, O(T), and one block-sized work array made once
    (two with the recurrence's W part), so it does not grow with T. Each
    block reads W once, so much shorter blocks cost more per round.
    ``recurrence`` asks for the residuals of ``admm.recurrence_residuals``
    too (`run` asks, `check` does not).
    """

    def __init__(self, problem: NetworkProblem, comm, optimal: OptimalPoint, c: float, T: int, ref: np.ndarray, recurrence: bool = False):
        n, d = problem.n, problem.dimension
        self.problem, self.comm, self.optimal, self.c, self.ref = problem, comm, optimal, c, ref
        self.w = comm.route.w
        self.dist = np.empty(T + 1)
        self.feasibility, self.obj_gap, self.ergodic_obj_gap, self.dist_sq = (np.empty(T) for _ in range(4))
        self.recurrence = np.empty(T) if recurrence else None
        self.m = np.repeat(comm.col_norms_sq, d)
        self.means = np.full(n, 1.0 / n)
        rows = min(T, admm.SWEEP_ROUNDS)
        self.work = np.empty((rows, n, d))
        self.w_part = np.empty((rows + 1, n, d)) if recurrence else None  # row 0: the round before the block
        self.carry = self.wcarry = self.ergodic_carry = None

    def _start(self, x0: np.ndarray) -> None:
        """The forms of round 0, and the centered constants of every later round."""
        x_star = self.optimal.x_star
        x0c, ref_c = (v - v.mean(axis=0) for v in (x0, self.ref))
        self.wx0c = self.w(x0c)
        self.base, self.wbase = ref_c - x0c, self.w(ref_c) - self.wx0c  # S_c(t) - ref_c = R(t) - base
        e_metric = _weighted_sq(self.m, (x0 - x_star)[None])
        self.dist[:1] = _metric_form(self.base[None], self.wbase[None], e_metric, _forms(x0c[None], self.wx0c[None]))
        if self.w_part is not None:
            self.w_part[0] = 2.0 * self.wx0c

    def add(self, block) -> None:
        """The columns of the block's rounds t0+1..t0+k, and the recurrence's of rounds t0..t0+k-1."""
        if block.t0 == 0:
            self._start(block.xs[0])
        x = block.xs[1:]
        k = x.shape[0]
        rows = slice(block.t0, block.t0 + k)
        ts = np.arange(block.t0 + 1, block.t0 + k + 1)
        problem, f_star, x_star = self.problem, self.optimal.f_star, self.optimal.x_star
        work = self.work[:k]
        # the columns without W first, in the array the centered rounds take
        # next: a round's objective value is independent of the others, and
        # the ergodic sums are carried in ``AdmmTrace.ergodic``'s order
        self.obj_gap[rows] = problem.f_value(x) - f_star
        np.copyto(work, x)
        erg = admm.running_sums(work, self.ergodic_carry)
        self.ergodic_carry = erg[-1].copy()
        erg /= ts[:, None, None]
        self.ergodic_obj_gap[rows] = problem.f_value(erg) - f_star
        e_sq = np.subtract(x, x_star, out=work)
        e_metric = _weighted_sq(self.m, e_sq)
        self.dist_sq[rows] = e_sq.sum(axis=(1, 2))
        # node means by one product per block: numpy's mean over the middle axis is slow for small d
        xc = np.subtract(x, (self.means @ x)[:, None], out=work)
        wxc = self.w(xc)
        x_form = _forms(xc, wxc)
        w_part = self.w_part
        if w_part is not None:
            np.add(wxc, self.wx0c, out=w_part[1 : k + 1])
        sums, wsums = admm.running_sums(xc, self.carry), admm.running_sums(wxc, self.wcarry)
        self.carry, self.wcarry = sums[-1].copy(), wsums[-1].copy()
        if w_part is not None:
            w_part[1 : k + 1] += wsums
        self.feasibility[rows] = np.sqrt(np.maximum(_forms(sums, wsums), 0.0)) / ts
        sums -= self.base
        wsums -= self.wbase
        self.dist[1:][rows] = _metric_form(sums, wsums, e_metric, x_form)
        del wxc, wsums  # freed before the recurrence's product is made
        if w_part is not None:
            self.recurrence[rows] = admm.recurrence_residuals(block, self.comm, self.c, w_part[:k])
            w_part[0] = w_part[k]


def dual_reference(spectral: SpectralData, optimal: OptimalPoint, c: float) -> tuple[np.ndarray, float, float]:
    """(a, |W a + subgrad/c|, |consensus part of a|) for the x-space reference a = -(1/c) W^+ subgrad(x*).

    W a is taken by two P products (``w_by_products``), so the residual
    checks the solve against P itself, not against the W or the symbol it
    was solved with. Raises DegenerateSpectrumError if
    |W a + subgrad/c| > RECON_RTOL (lam_max |a| + |subgrad|/c).
    """
    kappa = spectral.eig_gram.max / spectral.min_pos_eig_gram  # W's condition number on 1's complement
    dual_ref = -(1.0 / c) * spectral.comm.route.w_pinv(optimal.subgrad, kappa)
    dual_resid = float(np.linalg.norm(spectral.comm.w_by_products(dual_ref) + (1.0 / c) * optimal.subgrad))
    scale = spectral.eig_gram.max * float(np.linalg.norm(dual_ref)) + float(np.linalg.norm(optimal.subgrad)) / c
    if not dual_resid <= RECON_RTOL * scale:
        raise DegenerateSpectrumError(f"dual reference residual {dual_resid:.3e} exceeds {RECON_RTOL:.0e} * {scale:.3e}")
    span_resid = math.sqrt(spectral.comm.n) * float(np.linalg.norm(dual_ref.mean(axis=0)))
    return dual_ref, dual_resid, span_resid


def sweep(
    blocks: Iterable, problem: NetworkProblem, spectral: SpectralData, optimal: OptimalPoint, c: float, T: int, recurrence: bool = False
) -> AuxSequences:
    """Every O(T) column of a run at penalty c, from its T rounds in the blocks of ``admm.rounds``.

    The dual reference and the columns are made before the first round, so
    a degenerate spectrum or a T too large to allocate fails before the
    engine runs. Raises DegenerateSpectrumError as ``dual_reference``.
    """
    dual_ref, dual_resid, span_resid = dual_reference(spectral, optimal, c)
    consumer = RoundSweep(problem, spectral.comm, optimal, c, T, dual_ref, recurrence)
    for block in blocks:
        consumer.add(block)
    return AuxSequences(
        dual_ref=dual_ref,
        metric_dist_sq=consumer.dist,
        feasibility=consumer.feasibility,
        obj_gap=consumer.obj_gap,
        ergodic_obj_gap=consumer.ergodic_obj_gap,
        dist_sq=consumer.dist_sq,
        recurrence=consumer.recurrence,
        dual_ref_residual=dual_resid,
        span_residual=span_resid,
    )


def aux_sequences(trace: admm.AdmmTrace, problem: NetworkProblem, spectral: SpectralData, optimal: OptimalPoint) -> AuxSequences:
    """``sweep`` of a collected trace, at its penalty and with the recurrence residuals."""
    return sweep(admm.trace_blocks(trace), problem, spectral, optimal, trace.c, trace.T, recurrence=True)


# --- linear rate certificates ----------------------------------------------


@dataclass(frozen=True)
class RateCertificate:
    penalty: float  # c in use
    balance: float  # weight splitting the two contraction terms
    gain: float  # per-iteration contraction increment
    rate: float  # 1 / (1 + gain)
    best_penalty: float
    best_balance: float
    best_gain: float
    best_rate: float
    condition_number: float
    min_pos_eig_gram: float
    max_eig_metric: float


def _check_curvature(nu: float, lipschitz: float) -> None:
    """Raise MissingCurvatureMetadataError unless 0 < nu <= L < inf (nan fails) and the certificate's forms are representable.

    Its closed forms and its search bracket read nu L, 2 nu L and L / nu:
    each must be a finite normal float, or sqrt(nu L) underflows to 0 and
    the bracket's log fails, or the best penalty overflows to inf.
    """
    if not 0.0 < nu <= lipschitz < math.inf:
        raise MissingCurvatureMetadataError(f"need 0 < nu <= L, got nu={nu}, L={lipschitz}")
    if not (sys.float_info.min <= nu * lipschitz and 2.0 * nu * lipschitz < math.inf and lipschitz / nu < math.inf):
        raise MissingCurvatureMetadataError(
            f"nu={nu} and L={lipschitz} are too extreme: nu L, 2 nu L and L / nu must be finite normal floats"
        )


def contraction_gain(nu: float, lipschitz: float, c: float, balance: float, spectral) -> float:
    """min of the two admissible contraction terms at penalty c and the given balance."""
    if not (0.0 < balance < 1.0):
        raise InvalidBetaError(f"balance must lie in (0,1), got {balance}")
    if c <= 0.0:
        raise InvalidCError(f"penalty must be positive, got {c}")
    _check_curvature(nu, lipschitz)
    lam_min, lam_max = spectral.min_pos_eig_gram, spectral.max_eig_metric
    term1 = 2.0 * balance * nu / (c * lam_max * (1.0 + 2.0 / lam_min))
    term2 = (1.0 - balance) * c * lam_min / lipschitz
    return min(term1, term2)


def balance_star(nu: float, lipschitz: float, c: float, spectral) -> float:
    """The balance equating the two contraction terms at penalty c."""
    if c <= 0.0:
        raise InvalidCError(f"penalty must be positive, got {c}")
    lam_min, lam_max = spectral.min_pos_eig_gram, spectral.max_eig_metric
    a = c * c * lam_max * (2.0 + lam_min)
    balance = a / (2.0 * nu * lipschitz + a)
    if not 0.0 < balance < 1.0:  # c^2 underflowed to 0 or overflowed to inf
        raise InvalidCError(f"penalty {c:g} is too extreme for the rate certificate")
    return balance


def _gain_at(nu: float, lipschitz: float, c: float, spectral) -> float:
    """Contraction gain with the balance optimized at this penalty."""
    lam_min, lam_max = spectral.min_pos_eig_gram, spectral.max_eig_metric
    return 2.0 * nu * lam_min * c / (2.0 * nu * lipschitz + c * c * lam_max * (2.0 + lam_min))


def optimize_rate(nu: float, lipschitz: float, spectral, c: float | None = None) -> RateCertificate:
    """Build the rate certificate, optimizing the penalty by golden section.

    ``spectral`` carries ``min_pos_eig_gram`` and ``max_eig_metric``: SpectralData or LaplacianBounds.

    The numeric optimizer runs on log(penalty) over the bracket
    [1e-6, 1e6] sqrt(nu L) to relative precision 1e-12 and is cross-checked
    against the closed forms; disagreement above 1e-6 relative raises.
    """
    _check_curvature(nu, lipschitz)
    lam_min, lam_max = spectral.min_pos_eig_gram, spectral.max_eig_metric
    kappa = lipschitz / nu

    scale = math.sqrt(nu * lipschitz)
    lo, hi = math.log(1e-6 * scale), math.log(1e6 * scale)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1 = _gain_at(nu, lipschitz, math.exp(x1), spectral)
    f2 = _gain_at(nu, lipschitz, math.exp(x2), spectral)
    while (b - a) > 1e-12:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = _gain_at(nu, lipschitz, math.exp(x2), spectral)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = _gain_at(nu, lipschitz, math.exp(x1), spectral)
    c_numeric = math.exp((a + b) / 2.0)
    gain_numeric = _gain_at(nu, lipschitz, c_numeric, spectral)

    best_penalty = math.sqrt(2.0 * nu * lipschitz / (lam_max * (2.0 + lam_min)))
    best_gain = 0.5 * math.sqrt(2.0 * lam_min * lam_min / (lam_max * (2.0 + lam_min)) / kappa)
    if not (lo <= math.log(best_penalty) <= hi):
        raise OptimizationBracketFailureError(
            f"closed-form penalty {best_penalty:.3e} outside the search bracket"
        )
    if abs(gain_numeric - best_gain) > 1e-6 * best_gain:
        raise OptimizationBracketFailureError(
            f"numeric gain {gain_numeric:.12g} disagrees with closed form {best_gain:.12g}"
        )

    penalty = best_penalty if c is None else float(c)
    balance = balance_star(nu, lipschitz, penalty, spectral)
    gain = contraction_gain(nu, lipschitz, penalty, balance, spectral)
    return RateCertificate(
        penalty=penalty,
        balance=balance,
        gain=gain,
        rate=1.0 / (1.0 + gain),
        best_penalty=best_penalty,
        best_balance=balance_star(nu, lipschitz, best_penalty, spectral),
        best_gain=best_gain,
        best_rate=1.0 / (1.0 + best_gain),
        condition_number=kappa,
        min_pos_eig_gram=lam_min,
        max_eig_metric=lam_max,
    )


# --- sublinear bounds --------------------------------------------------------


@dataclass(frozen=True)
class SublinearBound:
    """O(1/T) envelopes for the ergodic objective gap and feasibility."""

    subgrad_bound: float
    min_pos_eig_gram: float
    max_eig_metric: float
    x_star_norm_sq: float
    penalty: float

    def objective_bound(self, T: int) -> float:
        c = self.penalty
        return (c / (2.0 * T)) * self.x_star_norm_sq * self.max_eig_metric + (
            2.0 / (c * T)
        ) * self.subgrad_bound**2 / self.min_pos_eig_gram

    def feasibility_bound(self, T: int) -> float:
        c = self.penalty
        return (1.0 / (2.0 * T)) * self.x_star_norm_sq * self.max_eig_metric + (
            1.0 / (2.0 * T)
        ) * (2.0 + 2.0 * self.subgrad_bound**2 / (c * c * self.min_pos_eig_gram))


def sublinear_bounds(subgrad_bound: float, spectral: SpectralData, x_star: np.ndarray, c: float) -> SublinearBound:
    return SublinearBound(
        subgrad_bound=float(subgrad_bound),
        min_pos_eig_gram=spectral.min_pos_eig_gram,
        max_eig_metric=spectral.max_eig_metric,
        x_star_norm_sq=float(np.sum(np.asarray(x_star) ** 2)),
        penalty=float(c),
    )


# --- one check pipeline --------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of one bound test over the rounds of the per-round table."""

    passed: bool
    worst_t: int  # round with the largest value - bound; 0 when no round was judged
    value: float  # judged value at worst_t; nan when no round was judged
    bound: float  # bound at worst_t
    judged: int  # number of rounds judged

    @property
    def worst_margin(self) -> float:
        return self.value - self.bound


def _verdict(ts: np.ndarray, values: np.ndarray, bounds) -> Verdict:
    """value <= bound + BOUND_SLACK at every round; a nan value fails."""
    if values.size == 0:
        return Verdict(passed=True, worst_t=0, value=math.nan, bound=math.nan, judged=0)
    bounds = np.broadcast_to(bounds, values.shape)
    margins = values - bounds
    k = int(np.argmax(margins))  # the first nan, if any
    return Verdict(
        passed=bool(margins[k] <= BOUND_SLACK),
        worst_t=int(ts[k]),
        value=float(values[k]),
        bound=float(bounds[k]),
        judged=values.size,
    )


def sublinear_check(table: Mapping[str, np.ndarray], bounds: SublinearBound) -> tuple[Verdict, Verdict]:
    """Objective and feasibility verdicts of the per-round table (trace CSV columns).

    The |ergodic_obj_gap| and feasibility columns are judged against the
    envelopes of ``bounds`` at each row's t; only those columns and ``t``
    need to be present.
    """
    ts = table["t"]
    return (
        _verdict(ts, np.abs(table["ergodic_obj_gap"]), bounds.objective_bound(ts)),
        _verdict(ts, table["feasibility"], bounds.feasibility_bound(ts)),
    )


def contraction_check(table: Mapping[str, np.ndarray], rate: float) -> Verdict:
    """Verdict of the table's contraction_ratio column against the certified ``rate``.

    nan ratios, whose previous distance fell below RATIO_FLOOR
    (``contraction_ratios``), are not judged.
    """
    ratios = table["contraction_ratio"]
    live = ~np.isnan(ratios)
    return _verdict(table["t"][live], ratios[live], rate)


def contraction_ratios(dist: np.ndarray) -> np.ndarray:
    """One-step ratios dist[t] / dist[t-1] for t = 1..T.

    nan (not judged) where dist[t-1] is finite and below RATIO_FLOOR; inf
    (judged, so failing) wherever else a distance makes the ratio non-finite.
    """
    prev = dist[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = dist[1:] / prev
    ratios[~np.isfinite(ratios)] = np.inf
    ratios[np.isfinite(prev) & (prev < RATIO_FLOOR)] = np.nan
    return ratios


# --- Laplacian network bounds ------------------------------------------------


@dataclass(frozen=True)
class LaplacianBounds:
    """Degree/connectivity relaxations, all of which must dominate the spectra."""

    d_max: int
    d_min: int
    algebraic_connectivity: float
    connectivity_kind: str  # how a(G) is known: a ``spectral`` kind
    min_pos_eig_gram: float
    gram_kind: str  # how min_pos_eig_gram is known; CERTIFIED: a lower bound
    max_eig_metric: float
    metric_kind: str  # how max_eig_metric is known; CERTIFIED: an upper bound
    sandwich_low: float  # a(G)^2 / (d_max + 1) <= lam_min
    sandwich_high: float  # lam_min <= a(G)^2 / (d_min + 1)
    metric_eig_bound: float  # lam_max <= d_max (d_max + 1) + 4 d_max^2/(d_min + 1)
    relaxed_metric_eig: float  # lam_max <= 4 d_max^2
    relaxed_inv_gram_eig: float  # 1/lam_min <= 2 d_max / a(G)^2
    complexity_lhs: float  # lam_max (2 + lam_min) / lam_min^2
    complexity_coeff: float  # 16 d_max^4 / (d_min a(G)^2)
    iteration_coefficient: float | None  # sqrt(kappa * complexity_coeff) when curvature known
    violated: tuple[str, ...]  # names of the relations above that fail, in field order

    @property
    def ok(self) -> bool:
        return not self.violated


def laplacian_network_bounds(
    comm: CommunicationMatrix, nu: float | None = None, lipschitz: float | None = None
) -> LaplacianBounds:
    """The relations of ``LaplacianBounds`` on the graph whose Laplacian is ``comm``; its degrees are |N(i)| - 1."""
    sd = compute_spectral_data(comm)
    a, a_kind = sd.connectivity
    dmax, dmin = int(comm.nbhd_sizes.max()) - 1, int(comm.nbhd_sizes.min()) - 1
    lam_min, lam_max = sd.min_pos_eig_gram, sd.max_eig_metric

    low = a * a / (dmax + 1.0)
    high = a * a / (dmin + 1.0)
    metric_bound = dmax * (dmax + 1.0) + 4.0 * dmax * dmax / (dmin + 1.0)
    relaxed_metric = 4.0 * dmax * dmax
    relaxed_inv = 2.0 * dmax / (a * a)
    lhs = lam_max * (2.0 + lam_min) / (lam_min * lam_min)
    coeff = 16.0 * dmax**4 / (dmin * a * a)

    tol = 1e-9
    holds = {
        "sandwich_low": low * (1.0 - tol) - 1e-12 <= lam_min,
        "sandwich_high": lam_min <= high * (1.0 + tol) + 1e-12,
        "metric_eig_bound": lam_max <= metric_bound * (1.0 + tol) + 1e-12,
        "relaxed_metric_eig": lam_max <= relaxed_metric * (1.0 + tol) + 1e-12,
        "relaxed_inv_gram_eig": 1.0 / lam_min <= relaxed_inv * (1.0 + tol) + 1e-12,
        "complexity": lhs <= coeff * (1.0 + tol) + 1e-12,
    }
    iteration_coeff = None
    if nu is not None and lipschitz is not None and nu > 0:
        iteration_coeff = math.sqrt((lipschitz / nu) * coeff)
    return LaplacianBounds(
        d_max=dmax,
        d_min=dmin,
        algebraic_connectivity=a,
        connectivity_kind=a_kind,
        min_pos_eig_gram=lam_min,
        gram_kind=sd.eig_gram.kind,
        max_eig_metric=lam_max,
        metric_kind=sd.eig_metric.kind,
        sandwich_low=low,
        sandwich_high=high,
        metric_eig_bound=metric_bound,
        relaxed_metric_eig=relaxed_metric,
        relaxed_inv_gram_eig=relaxed_inv,
        complexity_lhs=lhs,
        complexity_coeff=coeff,
        iteration_coefficient=iteration_coeff,
        violated=tuple(name for name, held in holds.items() if not held),
    )
