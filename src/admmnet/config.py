"""Experiment configuration: INI-style files with [graph], [objective]
and [admm] sections; an unknown section or key is an error.

Example::

    [graph]
    kind = complete
    n = 3

    [objective]
    preset = estimation

    [admm]
    c = 1.0
    T = 200
    engine = node
    init = zero

Explicit objectives replace the preset line with ``kind`` plus per-node
values: ``a`` (one entry per node, rows separated by ';' when the
dimension exceeds 1), ``w`` (scalar or per-node) and ``tau`` for the
l1-regularized kind. ``kind``, ``a``, ``w`` or ``tau`` next to a preset,
``tau > 0`` under ``kind = quadratic``, and a ``[graph]`` key that the graph
kind does not read are errors, not ignored.
``c = auto`` selects the certificate-optimal penalty, which requires
curvature metadata on every node.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigParseError
from .graph import Graph, generate_graph, laplacian, read_graph_file
from .objectives import NetworkProblem, estimation_rows, quadratic_rows


@dataclass(frozen=True)
class GraphSpec:
    kind: str = "complete"
    n: int = 3
    d: int | None = None
    p: float | None = None
    seed: int | None = None
    path: str | None = None


@dataclass(frozen=True)
class ObjectiveSpec:
    preset: str | None = "estimation"
    kind: str = "quadratic"
    targets: tuple | None = None  # set when explicit
    weights: tuple | None = None
    tau: float = 0.0
    dimension: int = 1

    def __post_init__(self):
        if self.tau > 0.0 and (self.preset is not None or self.kind != "l1_quadratic"):
            raise ConfigParseError(f"tau = {self.tau} needs kind = l1_quadratic, the only kind with an l1 term")


@dataclass(frozen=True)
class AdmmSpec:
    c: float | str = 1.0  # float or "auto"
    T: int = 200
    engine: str = "node"
    init: str = "zero"


@dataclass(frozen=True)
class ExperimentConfig:
    graph: GraphSpec = field(default_factory=GraphSpec)
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    admm: AdmmSpec = field(default_factory=AdmmSpec)


def _floats(text: str) -> list[float]:
    parts = text.replace(",", " ").split()
    return [float(p) for p in parts]


def _require(name: str, values, ok=lambda v: True, rule: str = "") -> None:
    """ConfigParseError at the first of ``values`` that is not finite or fails ``ok``."""
    for v in values:
        if not (math.isfinite(v) and ok(v)):
            raise ConfigParseError(f"{name} must be finite{rule}, got {v}")


def parse_experiment_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        raise ConfigParseError(str(exc), lineno=lineno) from exc
    try:
        return _build_config(parser)
    except (ValueError, KeyError) as exc:
        raise ConfigParseError(f"invalid config value: {exc}") from exc


# the keys each section may hold, lowercased as configparser stores them (T is t)
_SECTION_KEYS = {
    "graph": {"kind", "n", "d", "p", "seed", "path"},
    "objective": {"preset", "kind", "a", "w", "tau", "dimension"},
    "admm": {"c", "t", "engine", "init"},
}
# the [graph] keys each kind reads, besides kind itself
_GRAPH_KIND_KEYS = {
    "path": {"n"},
    "cycle": {"n"},
    "complete": {"n"},
    "circulant": {"n", "d"},
    "erdos_renyi": {"n", "p", "seed"},
    "file": {"path"},
}


def _build_config(parser: configparser.ConfigParser) -> ExperimentConfig:
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigParseError(f"unknown section [{name}]")
        unknown = sorted(set(parser[name]) - _SECTION_KEYS[name])
        if unknown:
            raise ConfigParseError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")
    gsec = parser["graph"] if parser.has_section("graph") else {}
    kind = gsec.get("kind", "complete")
    # an unknown kind is refused when the graph is built
    stray = sorted(set(gsec) - {"kind"} - _GRAPH_KIND_KEYS.get(kind, set(gsec)))
    if stray:
        raise ConfigParseError(f"[graph] {', '.join(stray)} cannot go with kind = {kind}")
    graph = GraphSpec(
        kind=kind,
        n=int(gsec.get("n", 3)),
        d=int(gsec["d"]) if "d" in gsec else None,
        p=float(gsec["p"]) if "p" in gsec else None,
        seed=int(gsec["seed"]) if "seed" in gsec else None,
        path=gsec.get("path"),
    )
    if graph.seed is not None:
        _require("seed", (graph.seed,), lambda v: v >= 0, " and >= 0")

    osec = parser["objective"] if parser.has_section("objective") else {}
    dimension = int(osec.get("dimension", 1))
    _require("dimension", (dimension,), lambda v: v >= 1, " and >= 1")
    preset = osec.get("preset")
    targets = weights = None
    tau = float(osec.get("tau", 0.0))
    kind = osec.get("kind", "quadratic")
    if preset is not None or "a" not in osec:
        stray = [key for key in ("kind", "a", "w", "tau") if key in osec]
        if stray:
            given = "" if preset else " (the default without a)"
            raise ConfigParseError(f"[objective] {', '.join(stray)} cannot go with preset = {preset or 'estimation'}{given}")
    if preset is None and "a" in osec:
        rows = [r for r in osec["a"].split(";") if r.strip()]
        targets = tuple(tuple(_floats(r)) for r in rows)
        if dimension == 1 and len(rows) == 1:
            targets = tuple((v,) for v in _floats(osec["a"]))
        weights = tuple(_floats(osec.get("w", "1")))
        _require("a", (v for row in targets for v in row))
        _require("w", weights, lambda v: v >= 0.0, " and >= 0")
        # max(1, w) |a|^2 / 2 bounds the objective at x = 0 and the squared
        # distances to the targets; past a float, inf runs through every column
        if not math.isfinite(math.fsum(v * v for row in targets for v in row) * max(1.0, *weights)):
            raise ConfigParseError("a is too large: the objective sum_i w_i |x - a_i|^2 / 2 overflows at x = 0")
    elif preset is None:
        preset = "estimation"
    _require("tau", (tau,), lambda v: v >= 0.0, " and >= 0")
    objective = ObjectiveSpec(
        preset=preset, kind=kind, targets=targets, weights=weights, tau=tau, dimension=dimension
    )

    asec = parser["admm"] if parser.has_section("admm") else {}
    c_raw = asec.get("c", "1.0")
    c: float | str = "auto" if c_raw.strip().lower() == "auto" else float(c_raw)
    if c != "auto":
        _require("c", (c,), lambda v: v > 0.0, " and > 0")
    admm = AdmmSpec(
        c=c,
        T=int(asec.get("T", 200)),
        engine=asec.get("engine", "node"),
        init=asec.get("init", "zero"),
    )
    if admm.engine not in ("node", "edge"):
        raise ConfigParseError(f"engine must be node or edge, got {admm.engine!r}")
    if admm.init != "zero":
        raise ConfigParseError(f"config files support zero init only, got {admm.init!r}")
    if admm.T < 1:
        raise ConfigParseError(f"T must be >= 1, got {admm.T}")
    return ExperimentConfig(graph=graph, objective=objective, admm=admm)


def build_graph_from_spec(spec: GraphSpec) -> Graph:
    if spec.kind == "file":
        if not spec.path:
            raise ConfigParseError("graph kind 'file' requires a path")
        return read_graph_file(spec.path)
    return generate_graph(spec.kind, spec.n, d=spec.d, p=spec.p, seed=spec.seed)


def build_problem(cfg: ExperimentConfig) -> NetworkProblem:
    """The graph, its Laplacian and the objective's stacked rows; no per-node objective is built."""
    g = build_graph_from_spec(cfg.graph)
    spec = cfg.objective
    if spec.preset == "estimation":
        rows = estimation_rows(g.n, spec.dimension)
    elif spec.preset is not None:
        raise ConfigParseError(f"unknown objective preset {spec.preset!r}")
    else:
        if spec.targets is None or len(spec.targets) != g.n:
            raise ConfigParseError(f"need one target per node ({g.n}), got {spec.targets}")
        weights = spec.weights or (1.0,)
        if len(weights) not in (1, g.n):
            raise ConfigParseError(f"need one weight per node ({g.n}), got {len(weights)}")
        if spec.kind not in ("quadratic", "l1_quadratic"):
            raise ConfigParseError(f"unknown objective kind {spec.kind!r}")
        lengths = np.fromiter(map(len, spec.targets), dtype=np.intp, count=g.n)
        wrong = np.flatnonzero(lengths != spec.dimension)
        if wrong.size:
            raise ConfigParseError(f"target {spec.targets[wrong[0]]} does not match dimension {spec.dimension}")
        rows = quadratic_rows(spec.targets, weights, spec.tau)
    return NetworkProblem(graph=g, comm=laplacian(g), objectives=rows)
