"""Per-layer spans recorded around the calls the admmnet CLI makes.

The wrappers are installed from here on the module and class attributes the
CLI resolves at call time, so the package itself is unchanged. Each span
keeps its name, start, end and parent; a layer's self time is its spans'
durations minus the part covered by their child spans. ``Tracer.installed``
restores every attribute on exit.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (owner, attribute, span name); owners are admmnet module names or classes.
SPAN_TARGETS = (
    ("cli", "parse_experiment_config", "config.parse"),
    ("cli", "build_problem", "config.build_problem"),
    ("config", "generate_graph", "graph.generate"),
    ("config", "laplacian", "graph.laplacian"),
    ("cli", "compute_spectral_data", "spectral.compute"),
    ("cli", "psd_certificates", "spectral.psd"),
    ("cli", "central_solve", "objectives.oracle"),
    ("NetworkProblem", "f_value", "objectives.f_value"),
    ("admm", "run", "admm.run"),
    ("admm", "recurrence_residuals", "admm.recurrence"),
    ("analysis", "aux_sequences", "analysis.aux"),
    ("analysis", "sublinear_bounds", "analysis.sublinear"),
    ("analysis", "sublinear_check", "analysis.sublinear"),
    ("analysis", "contraction_check", "analysis.contraction"),
    ("analysis", "optimize_rate", "analysis.optimize_rate"),
    ("reporting", "trace_rows", "reporting.trace_rows"),
    ("reporting", "write_trace_csv", "reporting.write_csv"),
    ("reporting", "read_trace_csv", "reporting.read_csv"),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name in SPAN_TARGETS))
CALL_COUNTS = ("spectral.compute", "objectives.f_value")
# Layers a command never calls (see admmnet.cli); their self time is 0 by
# construction, so it is not reported.
NOT_CALLED = {
    "run": ("reporting.read_csv",),
    "check": ("spectral.psd", "admm.recurrence", "analysis.contraction", "reporting.write_csv"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans and counters of one traced CLI command at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _span(self, fn, name):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._stack.pop()
            self.counts[name + "_calls"] += 1
            if name == "admm.run":
                self._observe_trace(result)
            return result

        return wrapper

    def _counter(self, fn, name):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_trace(self, trace) -> None:
        arrays = (trace.xs, trace.ys, trace.ps, trace.x_sums, trace.ergodic, trace.zs, trace.lams)
        self.counts["admm.trace_bytes"] += sum(a.nbytes for a in arrays if a is not None)
        self.counts["admm.rounds"] += trace.T
        self.counts["admm.node_updates"] += trace.n * trace.T
        self.counts["admm.messages"] += trace.T * trace.accounting.messages_per_round

    @contextmanager
    def installed(self):
        """Wrap every layer entry point and numpy.linalg.eigh; restore them on exit."""
        import numpy.linalg

        from admmnet import admm, analysis, cli, config, reporting
        from admmnet.objectives import NetworkProblem

        owners = {
            "cli": cli, "config": config, "admm": admm, "analysis": analysis,
            "reporting": reporting, "NetworkProblem": NetworkProblem,
        }
        patches = [(owners[o], attr, self._span(vars(owners[o])[attr], name)) for o, attr, name in SPAN_TARGETS]
        patches.append((numpy.linalg, "eigh", self._counter(numpy.linalg.eigh, "spectral.eigh_calls")))
        saved = []
        try:
            for owner, attr, wrapper in patches:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out = dict.fromkeys(LAYERS, 0.0)
        for span, child in zip(self.spans, covered):
            out[span.name] += (span.end - span.start) - child
        return out

    def nesting_problems(self, wall_s: float) -> list[str]:
        """Ways the spans of the command just traced fail to fit its ``wall_s``.

        Every layer's self time must be non-negative (children inside their
        parent) and the top-level spans must together fit in the wall time
        (``cli.self_s`` non-negative).
        """
        selfs = self.self_times()
        problems = [f"{name} self time {t:.3g} s < 0" for name, t in selfs.items() if t < 0.0]
        top = sum(span.end - span.start for span in self.spans if span.parent is None)
        if top > wall_s:
            problems.append(f"top-level spans cover {top:.6f} s of a {wall_s:.6f} s wall")
        return problems

    def command_metrics(self, kind: str, wall_s: float, csv_bytes: int, scale: float) -> dict[str, float]:
        """Per-layer metrics of the ``kind`` command just traced, which took ``wall_s``.

        Every time is multiplied by ``scale``, the command's speed correction.
        Layers in NOT_CALLED[kind] are left out.
        """
        selfs = {name: t * scale for name, t in self.self_times().items()}
        wall_s *= scale
        m = {f"{name}_s": t for name, t in selfs.items() if name not in NOT_CALLED[kind]}
        for name in CALL_COUNTS:
            m[f"{name}_calls"] = self.counts[name + "_calls"]
        m["spectral.eigh_calls"] = self.counts["spectral.eigh_calls"]
        for key in ("admm.rounds", "admm.messages", "admm.trace_bytes"):
            m[key] = self.counts[key]
        run_s = selfs["admm.run"]
        m["admm.node_updates_per_s"] = self.counts["admm.node_updates"] / run_s if run_s > 0 else 0.0
        m["reporting.csv_bytes"] = csv_bytes
        m["cli.self_s"] = wall_s - sum(selfs.values())
        m["cli.wall_s"] = wall_s
        return m
