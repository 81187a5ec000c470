"""The per-round table, its trace CSV schema and I/O, and slope fitting.

The CSV layout is fixed and versioned by a leading comment line,
``# admmnet-trace v2`` followed by the run's spectral witness (see
``WITNESS_FIELDS``); ``# admmnet-trace v1``, which carries none, is still
read. A row per iteration t = 1..T; in memory the table is one array per
column, integer for INT_COLUMNS:

    t, obj_gap, ergodic_obj_gap, feasibility, dist_sq, gnorm_sq,
    contraction_ratio, messages

obj_gap / ergodic_obj_gap are signed gaps F(.) - F*, feasibility is
|Q xhat(t)| = sqrt(e' W e) with e the ergodic average minus its node mean,
dist_sq the squared distance of x(t) to the optimum, gnorm_sq the squared
metric distance of the auxiliary state, contraction_ratio its one-step
ratio (nan once converged) and messages the cumulative link messages
through round t.

``trace_rows`` assembles the table from the columns that
``analysis.RoundSweep`` fills block by block as the rounds run.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Mapping
from itertools import chain

import numpy as np

from .analysis import AuxSequences, contraction_ratios
from .errors import ConfigParseError
from .spectral import Witness

TRACE_SCHEMA = "# admmnet-trace v2"
TRACE_SCHEMA_V1 = "# admmnet-trace v1"  # no witness
WITNESS_FIELDS = {"gram_ritz": 2, "metric_ritz": 1}  # fields of the v2 first line, and how many numbers each holds
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


def trace_rows(aux: AuxSequences, messages_per_round: int) -> dict[str, np.ndarray]:
    """The per-round table for t = 1..T: one array per column of TRACE_COLUMNS, from the columns of a sweep."""
    ts = np.arange(1, aux.feasibility.size + 1)
    return {
        "t": ts,
        "obj_gap": aux.obj_gap,
        "ergodic_obj_gap": aux.ergodic_obj_gap,
        "feasibility": aux.feasibility,
        "dist_sq": aux.dist_sq,
        "gnorm_sq": aux.metric_dist_sq[1:],
        "contraction_ratio": contraction_ratios(aux.metric_dist_sq),
        "messages": ts * messages_per_round,
    }


def replay_deviation(got: Mapping[str, np.ndarray], want: Mapping[str, np.ndarray]) -> float:
    """Worst deviation of a table from its replay, over every column and row.

    Float columns deviate by |got - want| / max(1, |want|), and nan matches
    only nan; any other difference, in the integer columns too, is inf.
    """
    if len(got["t"]) != len(want["t"]):
        return math.inf
    worst = 0.0
    for key in TRACE_COLUMNS:
        g, w = got[key], want[key]
        if key in INT_COLUMNS:
            dev = np.where(g == w, 0.0, np.inf)
        else:
            with np.errstate(invalid="ignore"):
                dev = np.abs(g - w) / np.maximum(1.0, np.abs(w))
            dev[np.isnan(dev)] = np.inf  # a side is nan or infinite
            dev[(g == w) | (np.isnan(g) & np.isnan(w))] = 0.0
        worst = max(worst, float(dev.max(initial=0.0)))
    return worst


def schema_line(witness: Witness) -> str:
    """TRACE_SCHEMA, then ``gram_ritz=theta_2,top`` and ``metric_ritz=theta_max`` where ``witness`` has them, as :func:`fmt` text."""
    fields = [TRACE_SCHEMA]
    if witness.gram_ritz is not None:
        fields.append("gram_ritz=" + ",".join(map(fmt, witness.gram_ritz)))
    if witness.metric_ritz is not None:
        fields.append("metric_ritz=" + fmt(witness.metric_ritz))
    return " ".join(fields)


def _read_schema_line(line: str) -> Witness:
    """The witness of a trace's first line; ConfigParseError at line 1 for an unknown schema or field, or a bad number."""
    if line == TRACE_SCHEMA_V1:
        return Witness()
    if line != TRACE_SCHEMA and not line.startswith(TRACE_SCHEMA + " "):
        raise ConfigParseError(f"unknown trace schema {line!r}", lineno=1)
    found = {}
    for field in line[len(TRACE_SCHEMA) :].split():
        name, _, text = field.partition("=")
        if name not in WITNESS_FIELDS or name in found:
            raise ConfigParseError(f"unknown or repeated trace field {field!r}", lineno=1)
        try:
            found[name] = tuple(float(v) for v in text.split(","))
        except ValueError:
            found[name] = ()
        if len(found[name]) != WITNESS_FIELDS[name]:
            raise ConfigParseError(f"{name} needs {WITNESS_FIELDS[name]} comma-separated numbers, got {text!r}", lineno=1)
    metric = found.get("metric_ritz")
    return Witness(gram_ritz=found.get("gram_ritz"), metric_ritz=None if metric is None else metric[0])


def write_trace_csv(path, table: Mapping[str, np.ndarray], witness: Witness = Witness()) -> None:
    """Write the table as CSV with csv-module line ends ("\\r\\n"), floats as :func:`fmt` text, ``witness`` on the first line."""
    row = ",".join("%d" if key in INT_COLUMNS else "%.17g" for key in TRACE_COLUMNS) + "\r\n"
    columns = [table[key].tolist() for key in TRACE_COLUMNS]
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(schema_line(witness) + "\n")
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.write((row * len(table["t"])) % tuple(chain.from_iterable(zip(*columns))))


def read_trace_csv(path) -> tuple[dict[str, np.ndarray], Witness]:
    """The table and witness written by :func:`write_trace_csv`, or a v1 table with no witness; ConfigParseError if it cannot be read.

    The body is split once and each column parsed with one ``map``. A body
    that does not split into rows of len(TRACE_COLUMNS) fields ended by
    "\\r\\n", or a field that does not parse, sends the rows to the csv module
    one at a time, which names the first bad line.
    """
    try:
        with open(path, "r", newline="", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read trace: {exc}") from exc
    buf = io.StringIO(text, newline="")
    witness = _read_schema_line(buf.readline().rstrip("\n"))
    header = next(csv.reader(buf), None)  # reads the header's line only
    if header is None or tuple(header) != TRACE_COLUMNS:
        raise ConfigParseError(f"unexpected trace header {header}", lineno=2)
    body = buf.read()
    return _columns(body) or _columns_by_rows(body), witness


def _columns(body: str) -> dict[str, np.ndarray] | None:
    """The table from the rows of a trace's body, one parse per column; None if a row is malformed or a field does not parse."""
    width = len(TRACE_COLUMNS)
    rows = body.split("\r\n")
    # every row ends in "\r\n", with no other line end, and holds width fields
    if rows.pop() != "" or not body.count("\r") == body.count("\n") == len(rows) or any(row.count(",") != width - 1 for row in rows):
        return None
    cells = ",".join(rows).split(",") if rows else []
    try:
        return {
            key: np.array(list(map(int, cells[k::width])), dtype=np.int64)
            if key in INT_COLUMNS
            else np.array(list(map(float, cells[k::width])))
            for k, key in enumerate(TRACE_COLUMNS)
        }
    except (ValueError, OverflowError):
        return None


def _columns_by_rows(body: str) -> dict[str, np.ndarray]:
    """The table from the rows of a trace's body, read by the csv module one row at a time; ConfigParseError at the first bad line."""
    parsers = [np.int64 if key in INT_COLUMNS else float for key in TRACE_COLUMNS]
    rows = []
    for lineno, rec in enumerate(csv.reader(io.StringIO(body, newline="")), start=3):
        if len(rec) != len(TRACE_COLUMNS):
            raise ConfigParseError(f"expected {len(TRACE_COLUMNS)} fields", lineno=lineno)
        try:
            rows.append([parse(v) for parse, v in zip(parsers, rec)])
        except (ValueError, OverflowError) as exc:
            raise ConfigParseError(str(exc), lineno=lineno) from None
    columns = zip(*rows) if rows else [()] * len(TRACE_COLUMNS)
    return {
        key: np.array(col, dtype=np.int64 if key in INT_COLUMNS else float)
        for key, col in zip(TRACE_COLUMNS, columns)
    }


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
