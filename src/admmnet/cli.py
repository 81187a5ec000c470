"""Command-line experiment runner.

Subcommands:

* ``run``      run an experiment from a config file or preset, write the
               trace CSV and a report, and verify every certificate
* ``spectra``  print the spectral table for a graph
* ``certify``  print the linear-rate certificate for a problem
* ``check``    replay a trace CSV against its config and re-verify

Exit codes: 0 on success and all checks passing, 1 when a check
fails, 2 on usage or input errors (unwritable output paths and runs
too large to allocate included).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import admm, analysis, reporting
from .config import (
    ExperimentConfig,
    build_graph_from_spec,
    build_problem,
    parse_experiment_config,
)
from .errors import AdmmNetError, CertificateFailedError, ConfigParseError
from .graph import Graph, generate_graph, laplacian, read_graph_file
from .objectives import aggregate, central_solve, estimation_problem, require_curvature
from .reporting import fmt
from .spectral import CERTIFIED, Witness, compute_spectral_data, psd_certificates

FIGURE1_DEGREES = (10, 20, 30)
FIGURE1_N = 50
FIGURE1_T = 150


def _fmt12(x: float) -> str:
    # display precision for tables; hides one-ulp eigensolver noise
    return format(float(x), ".12g")


def _is(kind: str, bound: str, known: str = "=") -> str:
    """How a spectral value relates to the true one: ``known`` when exact or closed form, ``bound`` ('>=' or '<=') when certified."""
    return bound if kind == CERTIFIED else known


def _worst(v: analysis.Verdict) -> str:
    if not v.judged:
        return "no round judged"
    return f"worst margin {fmt(v.worst_margin)} at t={v.worst_t}"


def _run_config(cfg: ExperimentConfig, recurrence: bool = False, witness: Witness = Witness()):
    """(problem, spectral data, optimum, aggregate info, penalty, accounting, auxiliary sequences,
    per-round table, sublinear bound, certified rate or None without curvature metadata) of a run of ``cfg``.

    The rounds stream into the analysis block by block and are not kept.
    ``recurrence`` asks for the recurrence residuals too; ``witness`` holds
    recorded Ritz values to prove the certified spectra from."""
    problem = build_problem(cfg)
    spectral = compute_spectral_data(problem.comm, witness)
    optimal = central_solve(problem)
    agg = aggregate(problem, optimal)
    auto = cfg.admm.c == "auto"
    cert = None
    if auto or (agg.strong_convexity is not None and agg.lipschitz is not None):
        cert = analysis.optimize_rate(*agg.curvature(), spectral, c=None if auto else cfg.admm.c)
    c = float(cfg.admm.c) if cert is None else cert.penalty
    blocks = admm.rounds(problem, admm.RunConfig(c=c, T=cfg.admm.T, engine=cfg.admm.engine))
    aux = analysis.sweep(blocks, problem, spectral, optimal, c, cfg.admm.T, recurrence)
    acct = admm.account(problem.graph, problem.dimension)
    table = reporting.trace_rows(aux, acct.messages_per_round)
    sublinear = analysis.sublinear_bounds(agg.subgrad_bound, spectral, optimal.x_star, c)
    return problem, spectral, optimal, agg, c, acct, aux, table, sublinear, None if cert is None else cert.rate


class _Recorder:
    """Appends one verdict line per check to ``lines`` and counts the failed checks."""

    def __init__(self, lines: list[str]):
        self.lines = lines
        self.failures = 0

    def __call__(self, name: str, passed: bool, detail: str) -> None:
        self.failures += not passed
        self.lines.append(f"check {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    problem, spectral, optimal, agg, c, acct, aux, table, sublinear, rate = _run_config(cfg, recurrence=True)
    g = problem.graph
    reporting.write_trace_csv(out_dir / "trace.csv", table, spectral.witness)

    lines = [
        "# admmnet report v2",
        f"graph: kind={cfg.graph.kind} n={g.n} d_max={g.d_max} d_min={g.d_min}",
        f"spectral: min_nonzero_eig{_is(spectral.eig_gram.kind, '>=')}{fmt(spectral.min_pos_eig_gram)}"
        f" max_metric_eig{_is(spectral.eig_metric.kind, '<=')}{fmt(spectral.max_eig_metric)}",
        f"objective: preset={cfg.objective.preset or cfg.objective.kind}"
        f" nu={agg.strong_convexity} L={agg.lipschitz} kappa={agg.condition_number}"
        f" U={fmt(agg.subgrad_bound)}",
        f"optimal: x_star={fmt(optimal.x_star[0, 0])} f_star={fmt(optimal.f_star)}"
        f" oracle_residual={fmt(optimal.residual)}",
        f"admm: engine={cfg.admm.engine} c={fmt(c)} T={cfg.admm.T}"
        f" messages_per_round={acct.messages_per_round}"
        f" storage_vectors={acct.storage_vectors}",
    ]
    record = _Recorder(lines)
    try:
        psd_certificates(spectral)
        lows = (_is(s.kind, ">=", "") + fmt(s.min) for s in (spectral.eig_gram, spectral.eig_metric))
        record("psd", True, f"min eigs {', '.join(lows)}")
    except CertificateFailedError as exc:
        record("psd", False, str(exc))
    obj, feas = analysis.sublinear_check(table, sublinear)
    record("sublinear", obj.passed and feas.passed, f"objective {_worst(obj)}, feasibility {_worst(feas)}")
    if rate is None:
        lines.append("check contraction: SKIP (no curvature metadata)")
    else:
        v = analysis.contraction_check(table, rate)
        detail = f"bound {fmt(rate)}, checked {v.judged}, {_worst(v)}"
        if v.judged < cfg.admm.T:
            detail += ", converged"
        record("contraction", v.passed, detail)
    worst = float(np.max(aux.recurrence))
    record("recurrence", worst <= analysis.RECURRENCE_LIMIT, f"max residual {fmt(worst)}")

    report = "\n".join(lines) + "\n"
    (out_dir / "report.txt").write_text(report, encoding="ascii")
    sys.stdout.write(report)
    return 1 if record.failures else 0


def run_figure1(out_dir: Path) -> int:
    """Three circulant-graph runs of increasing degree at the optimal penalty."""
    out_dir.mkdir(parents=True, exist_ok=True)
    slopes: list[float] = []
    r2s: list[float] = []
    lines = ["# admmnet figure1 report v1"]
    for d in FIGURE1_DEGREES:
        g = generate_graph("circulant", FIGURE1_N, d=d)
        problem = estimation_problem(g)
        spectral = compute_spectral_data(problem.comm)
        optimal = central_solve(problem)
        cert = analysis.optimize_rate(1.0, 1.0, spectral)
        # quarter of the certificate-optimal penalty: at the optimum the
        # dominant error mode of the denser graphs is a complex pair and the
        # trace rings; backing off keeps the tail on a clean log-linear decay
        c = cert.best_penalty / 4.0
        rate = analysis.optimize_rate(1.0, 1.0, spectral, c=c).rate  # certified at the penalty in use
        blocks = admm.rounds(problem, admm.RunConfig(c=c, T=FIGURE1_T))
        aux = analysis.sweep(blocks, problem, spectral, optimal, c, FIGURE1_T)
        table = reporting.trace_rows(aux, admm.account(g).messages_per_round)
        reporting.write_trace_csv(out_dir / f"figure1_d{d}.csv", table)
        slope, r2 = reporting.fit_tail_slope(np.sqrt(table["dist_sq"]))
        slopes.append(slope)
        r2s.append(r2)
        lines.append(
            f"d={d}: c={fmt(c)} rate={fmt(rate)} slope={fmt(slope)} r2={fmt(r2)}"
        )
    ordered = slopes[2] < slopes[1] < slopes[0]
    linear = all(r2 >= 0.99 for r2 in r2s)
    lines.append(f"check slope_ordering: {'PASS' if ordered else 'FAIL'}")
    lines.append(f"check linear_fit: {'PASS' if linear else 'FAIL'}")
    report = "\n".join(lines) + "\n"
    (out_dir / "figure1_report.txt").write_text(report, encoding="ascii")
    sys.stdout.write(report)
    return 0 if (ordered and linear) else 1


def _graph_for_table(args) -> Graph:
    if args.config:
        cfg = parse_experiment_config(args.config)
        return build_graph_from_spec(cfg.graph)
    if args.graph_file:
        return read_graph_file(args.graph_file)
    return generate_graph("complete", 3 if args.n is None else args.n)


def cmd_spectra(args) -> int:
    g = _graph_for_table(args)
    spectral = compute_spectral_data(laplacian(g))
    try:
        psd_certificates(spectral)
        psd = "ok"
    except CertificateFailedError as exc:
        psd = f"failed: {exc}"
    graph_cells = (str(g.n), str(g.d_max), str(g.d_min))
    scalars = (  # value, kind, and the side a certified value bounds the true one from
        (spectral.algebraic_connectivity, spectral.connectivity[1], ">="),
        (spectral.min_pos_eig_gram, spectral.eig_gram.kind, ">="),
        (spectral.max_eig_metric, spectral.eig_metric.kind, "<="),
    )
    header = ("n", "d_max", "d_min", "a(G)", "min_nonzero_eig", "max_metric_eig", "psd")
    values = (*graph_cells, *(_is(kind, bound, "") + _fmt12(x) for x, kind, bound in scalars), psd)
    widths = [max(len(h), len(v)) for h, v in zip(header, values)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join(v.ljust(w) for v, w in zip(values, widths)))
    if args.csv:
        cells = [*graph_cells]
        for x, kind, _ in scalars:
            cells += [_fmt12(x), kind]
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write("# admmnet-spectra v2\n")
            fh.write(
                "n,d_max,d_min,a_G,a_G_kind,min_nonzero_eig,min_nonzero_eig_kind,max_metric_eig,max_metric_eig_kind,psd\n"
            )
            fh.write(",".join([*cells, "ok" if psd == "ok" else "failed"]) + "\n")
    return 0 if psd == "ok" else 1


def cmd_certify(args) -> int:
    if args.config:
        cfg = parse_experiment_config(args.config)
        problem = build_problem(cfg)
        comm = problem.comm
        nu, lip = require_curvature(problem)
    else:
        comm = laplacian(_graph_for_table(args))
        nu, lip = (1.0 if v is None else v for v in (args.nu, args.lipschitz))
    net = analysis.laplacian_network_bounds(comm, nu=nu, lipschitz=lip)
    cert = analysis.optimize_rate(nu, lip, net)  # net carries both spectral scalars
    eps = 1e-6
    iters = math.ceil(math.log(1.0 / eps) / math.log(1.0 / cert.best_rate))
    print(f"nu={fmt(nu)} L={fmt(lip)} kappa={fmt(cert.condition_number)}")
    print(
        f"min_nonzero_eig{_is(net.gram_kind, '>=')}{fmt(cert.min_pos_eig_gram)}"
        f" max_metric_eig{_is(net.metric_kind, '<=')}{fmt(cert.max_eig_metric)}"
    )
    print(f"penalty_star={fmt(cert.best_penalty)}")
    print(f"balance_star={fmt(cert.best_balance)}")
    print(f"gain_star={fmt(cert.best_gain)}")
    print(f"rate_star={fmt(cert.best_rate)}")
    print(f"certified_iterations_to_{eps:g}={iters}")
    print(f"a(G){_is(net.connectivity_kind, '>=')}{fmt(net.algebraic_connectivity)}")
    print(f"degree_connectivity_coefficient={fmt(net.iteration_coefficient)}")
    # the coefficient rests on complexity_lhs <= complexity_coeff, which fails on sparse graphs
    print(f"network_bounds={'ok' if net.ok else 'violated(' + ','.join(net.violated) + ')'}")
    return 0


def cmd_check(args) -> int:
    return check_experiment(parse_experiment_config(args.config), args.trace)


def check_experiment(cfg: ExperimentConfig, trace_path) -> int:
    table, witness = reporting.read_trace_csv(trace_path)
    lines: list[str] = []
    record = _Recorder(lines)
    if len(table["t"]) != cfg.admm.T:
        record("replay", False, f"trace has {len(table['t'])} rows, config says T={cfg.admm.T}")
    else:
        *_, expected, sublinear, rate = _run_config(cfg, witness=witness)
        worst = reporting.replay_deviation(table, expected)
        record("replay", worst <= analysis.REPLAY_RTOL, f"worst relative deviation {fmt(worst)}")
        for name, v in zip(("objective", "feasibility"), analysis.sublinear_check(table, sublinear)):
            record(f"sublinear_{name}", v.passed, _worst(v))
        if rate is None:
            lines.append("check contraction: SKIP (no curvature metadata)")
        else:
            v = analysis.contraction_check(table, rate)
            record("contraction", v.passed, f"bound {fmt(rate)}, {_worst(v)}")
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 1 if record.failures else 0


def cmd_run(args) -> int:
    out_dir = Path(args.out)
    if args.preset == "figure1":
        return run_figure1(out_dir)
    if args.preset == "estimation":
        cfg = ExperimentConfig()
        if args.n is not None:
            cfg = ExperimentConfig(graph=cfg.graph.__class__(kind="complete", n=args.n))
        return run_experiment(cfg, out_dir)
    if not args.config:
        raise ConfigParseError("run needs --config or --preset")
    return run_experiment(parse_experiment_config(args.config), out_dir)


@functools.cache  # built once per process, on the first call rather than at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="admmnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment, write trace + report and run every check")
    source = p_run.add_mutually_exclusive_group()
    source.add_argument("--config", help="experiment config file")
    source.add_argument("--preset", choices=("estimation", "figure1"))
    p_run.add_argument("--out", default="admmnet-out", help="output directory")
    p_run.add_argument("--check-all", action="store_true", help="accepted and ignored: every check always runs")
    p_run.add_argument("--n", type=int, help="node count for the estimation preset (default 3)")
    p_run.set_defaults(func=cmd_run)

    p_spec = sub.add_parser("spectra", help="print the spectral table for a graph")
    p_cert = sub.add_parser("certify", help="print the linear rate certificate")
    for p in (p_spec, p_cert):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config")
        source.add_argument("--graph-file")
        p.add_argument("--n", type=int, help="complete graph size without --config or --graph-file (default 3)")
    p_spec.add_argument("--csv", help="also write the table as CSV")
    p_spec.set_defaults(func=cmd_spectra)
    p_cert.add_argument("--nu", type=float, help="strong convexity, not with --config (default 1)")
    p_cert.add_argument("--lipschitz", "--L", dest="lipschitz", type=float, help="smoothness, not with --config (default 1)")
    p_cert.set_defaults(func=cmd_certify)

    p_check = sub.add_parser("check", help="replay and verify a trace CSV")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--trace", required=True)
    p_check.set_defaults(func=cmd_check)
    return parser


def _refuse_overridden(parser: argparse.ArgumentParser, args) -> None:
    """Exit 2 on --n, --nu or --L where another input of the command would override it."""
    source = (
        "--config" if getattr(args, "config", None)
        else "--graph-file" if getattr(args, "graph_file", None)
        else "--preset figure1" if getattr(args, "preset", None) == "figure1"
        else None
    )
    if source is None:
        return
    given = {"--n": getattr(args, "n", None)}
    if source == "--config":  # a graph file fixes the graph, not the curvature
        given.update({"--nu": getattr(args, "nu", None), "--L": getattr(args, "lipschitz", None)})
    for option, value in given.items():
        if value is not None:
            parser.error(f"argument {option}: not allowed with argument {source}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _refuse_overridden(parser, args)
    try:
        return args.func(args)
    except (AdmmNetError, OSError, MemoryError) as exc:  # an unwritable output path, arrays too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
