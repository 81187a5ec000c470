"""Trace CSV schema, diagnostics rows and slope fitting.

The CSV layout is fixed and versioned by a leading comment line. A row per
iteration t = 1..T:

    t, obj_gap, ergodic_obj_gap, feasibility, dist_sq, gnorm_sq,
    contraction_ratio, messages

obj_gap / ergodic_obj_gap are signed gaps F(.) - F*, feasibility is the
norm of Q applied to the ergodic average, dist_sq the squared distance of
x(t) to the optimum, gnorm_sq the squared metric distance of the auxiliary
state, contraction_ratio its one-step ratio (nan once converged) and
messages the cumulative link messages through round t.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .admm import AdmmTrace
from .analysis import AuxSequences, contraction_ratios, ergodic_errors
from .errors import ConfigParseError
from .objectives import NetworkProblem, OptimalPoint
from .spectral import SpectralData

TRACE_SCHEMA = "# admmnet-trace v1"
TRACE_COLUMNS = (
    "t",
    "obj_gap",
    "ergodic_obj_gap",
    "feasibility",
    "dist_sq",
    "gnorm_sq",
    "contraction_ratio",
    "messages",
)
INT_COLUMNS = ("t", "messages")


def fmt(x: float) -> str:
    """Round-trip decimal text of a float (17 significant digits)."""
    return format(float(x), ".17g")


def trace_rows(
    trace: AdmmTrace,
    problem: NetworkProblem,
    spectral: SpectralData,
    optimal: OptimalPoint,
    aux: AuxSequences,
) -> list[dict]:
    """The per-round table: one dict per round t = 1..T, keyed by TRACE_COLUMNS."""
    erg_gaps, feas = ergodic_errors(trace, problem, spectral, optimal)
    ratios = contraction_ratios(aux.metric_dist_sq)
    rows = []
    for t in range(1, trace.T + 1):
        rows.append(
            {
                "t": t,
                "obj_gap": problem.f_value(trace.xs[t]) - optimal.f_star,
                "ergodic_obj_gap": float(erg_gaps[t - 1]),
                "feasibility": float(feas[t - 1]),
                "dist_sq": float(np.sum((trace.xs[t] - optimal.x_star) ** 2)),
                "gnorm_sq": float(aux.metric_dist_sq[t]),
                "contraction_ratio": float(ratios[t - 1]),
                "messages": t * trace.accounting.messages_per_round,
            }
        )
    return rows


def replay_deviation(got: list[dict], want: list[dict]) -> float:
    """Worst deviation of a trace from its replay, over every column and row.

    Float columns deviate by |got - want| / max(1, |want|), and nan matches
    only nan; any other difference, in the integer columns too, is inf.
    """
    if len(got) != len(want):
        return math.inf
    worst = 0.0
    for g_row, w_row in zip(got, want):
        for key in TRACE_COLUMNS:
            g, w = g_row[key], w_row[key]
            if key in INT_COLUMNS or math.isnan(g) or math.isnan(w):
                dev = 0.0 if g == w or (math.isnan(g) and math.isnan(w)) else math.inf
            else:
                dev = abs(g - w) / max(1.0, abs(w))
            worst = max(worst, dev)
    return worst


def write_trace_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(TRACE_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    str(row["t"]),
                    fmt(row["obj_gap"]),
                    fmt(row["ergodic_obj_gap"]),
                    fmt(row["feasibility"]),
                    fmt(row["dist_sq"]),
                    fmt(row["gnorm_sq"]),
                    fmt(row["contraction_ratio"]),
                    str(row["messages"]),
                ]
            )


def read_trace_csv(path) -> list[dict]:
    with open(path, "r", newline="", encoding="ascii") as fh:
        first = fh.readline().rstrip("\n")
        if first != TRACE_SCHEMA:
            raise ConfigParseError(f"unknown trace schema {first!r}", lineno=1)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_COLUMNS:
            raise ConfigParseError(f"unexpected trace header {header}", lineno=2)
        rows = []
        for lineno, rec in enumerate(reader, start=3):
            if len(rec) != len(TRACE_COLUMNS):
                raise ConfigParseError(f"expected {len(TRACE_COLUMNS)} fields", lineno=lineno)
            try:
                rows.append(
                    {
                        "t": int(rec[0]),
                        "obj_gap": float(rec[1]),
                        "ergodic_obj_gap": float(rec[2]),
                        "feasibility": float(rec[3]),
                        "dist_sq": float(rec[4]),
                        "gnorm_sq": float(rec[5]),
                        "contraction_ratio": float(rec[6]),
                        "messages": int(rec[7]),
                    }
                )
            except ValueError as exc:
                raise ConfigParseError(str(exc), lineno=lineno) from None
        return rows


def fit_tail_slope(errors: np.ndarray, tail_fraction: float = 0.5) -> tuple[float, float]:
    """Least-squares slope and R^2 of log10(errors) over the trailing window.

    ``errors`` is indexed by iteration (starting at t=1). Zero entries are
    clipped at 1e-300 before the log.
    """
    errors = np.asarray(errors, dtype=float)
    T = errors.shape[0]
    start = T - max(2, int(round(T * tail_fraction)))
    ts = np.arange(1, T + 1)[start:]
    ys = np.log10(np.clip(errors[start:], 1e-300, None))
    slope, intercept = np.polyfit(ts, ys, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)
