import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest

from admmnet import analysis, cli, reporting
from admmnet.config import ObjectiveSpec, build_problem, parse_experiment_config
from admmnet.errors import ConfigParseError, OptimizationBracketFailureError
from admmnet.graph import generate_graph, write_graph_file
from admmnet.spectral import compute_spectral_data

K3_CONFIG = """
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
"""


README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, text=K3_CONFIG, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_default_estimation_preset(tmp_path, capsys):
    rc = cli.main(["run", "--preset", "estimation", "--out", str(tmp_path / "out"), "--check-all"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "check sublinear: PASS" in out
    assert "check contraction: PASS" in out
    assert "check recurrence: PASS" in out
    assert "check psd: PASS" in out
    table = reporting.read_trace_csv(tmp_path / "out" / "trace.csv")
    assert len(table["t"]) == 200
    assert table["obj_gap"][-1] <= 1e-10
    assert (tmp_path / "out" / "report.txt").exists()


def test_run_config_file(tmp_path):
    cfg = write_config(tmp_path)
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    table = reporting.read_trace_csv(tmp_path / "out" / "trace.csv")
    assert table["t"][0] == 1
    assert table["messages"][0] == 6


def test_run_single_round(tmp_path):
    cfg = write_config(tmp_path, K3_CONFIG.replace("T = 200", "T = 1"))
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    table = reporting.read_trace_csv(tmp_path / "out" / "trace.csv")
    assert len(table["t"]) == 1
    # x(1) = (1/7, 2/7, 3/7) gives a known distance to the optimum
    expect = sum((v - 2.0) ** 2 for v in (1.0 / 7.0, 2.0 / 7.0, 3.0 / 7.0))
    assert table["dist_sq"][0] == pytest.approx(expect, rel=1e-12)


def test_run_auto_penalty_and_edge_engine(tmp_path):
    text = K3_CONFIG.replace("c = 1.0", "c = auto").replace("engine = node", "engine = edge")
    cfg = write_config(tmp_path, text)
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = (tmp_path / "out" / "report.txt").read_text()
    assert "c=0.2581988897471611" in out
    assert "check recurrence: PASS" in out


def test_spectra_table(capsys):
    rc = cli.main(["spectra", "--n", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    header, values = out.strip().splitlines()
    assert header.split()[:4] == ["n", "d_max", "d_min", "a(G)"]
    assert values.split() == ["3", "2", "2", "3", "3", "6", "ok"]


def test_spectra_csv(tmp_path):
    out_csv = tmp_path / "spectra.csv"
    rc = cli.main(["spectra", "--n", "4", "--csv", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "# admmnet-spectra v1"
    assert lines[1].startswith("n,d_max,d_min,a_G")


def test_spectra_graph_file(tmp_path, capsys):
    g = generate_graph("path", 3)
    path = tmp_path / "p3.txt"
    write_graph_file(g, path)
    rc = cli.main(["spectra", "--graph-file", str(path)])
    assert rc == 0
    values = capsys.readouterr().out.strip().splitlines()[1].split()
    assert values[0] == "3" and values[3] == "1"


def test_certify_output(capsys):
    rc = cli.main(["certify", "--n", "3", "--nu", "1", "--L", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "penalty_star=0.2581988897471611" in out
    assert "gain_star=0.38729833462074" in out
    assert "rate_star=0.72082548" in out


def test_check_subcommand_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rc = cli.main(["check", "--config", str(cfg), "--trace", str(tmp_path / "out" / "trace.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "check replay: PASS" in out
    assert "check sublinear_objective: PASS" in out
    assert "check sublinear_feasibility: PASS" in out
    assert "check contraction: PASS" in out


def test_check_detects_tampering(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    trace = tmp_path / "out" / "trace.csv"
    lines = trace.read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = "99.0"  # objective gap that no run of this config produces
    lines[5] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["check", "--config", str(cfg), "--trace", str(trace)])
    assert rc == 1
    assert "check replay: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(("column", "value"), [("t", "1"), ("contraction_ratio", "0.5"), ("messages", "0")])
def test_check_replay_compares_every_column(tmp_path, capsys, column, value):
    # t, contraction_ratio and messages of round 5, each set to a value the
    # bound checks alone would accept
    cfg = write_config(tmp_path)
    cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    trace = tmp_path / "out" / "trace.csv"
    lines = trace.read_text().splitlines()
    fields = lines[6].split(",")
    assert fields[0] == "5"
    fields[reporting.TRACE_COLUMNS.index(column)] = value
    lines[6] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["check", "--config", str(cfg), "--trace", str(trace)])
    assert rc == 1
    assert "check replay: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    ("got", "want", "dev"),
    [
        (2.0, 2.0, 0.0),
        (3.0 + 1e-10, 3.0, 1e-10 / 3.0),
        (0.5, 0.5 + 1e-10, 1e-10),  # max(1, |want|) floors the scale
        (math.nan, math.nan, 0.0),
        (math.inf, math.inf, 0.0),
        (math.nan, 1.0, math.inf),
        (1.0, math.inf, math.inf),
        (-math.inf, math.inf, math.inf),
    ],
)
def test_replay_deviation_rules(got, want, dev):
    def table(value):
        cols = {key: np.arange(1, 4) for key in reporting.INT_COLUMNS}
        cols.update({key: np.full(3, 1.0) for key in reporting.TRACE_COLUMNS if key not in cols})
        cols["gnorm_sq"][1] = value
        return cols

    assert reporting.replay_deviation(table(got), table(want)) == pytest.approx(dev, rel=1e-6)
    shifted = table(want)
    shifted["messages"] = shifted["messages"] + 1
    assert reporting.replay_deviation(shifted, table(want)) == math.inf


def write_trace_csv_by_rows(path, table):
    """The trace CSV written through the csv module, one formatted field at a time."""
    formats = [str if key in reporting.INT_COLUMNS else reporting.fmt for key in reporting.TRACE_COLUMNS]
    columns = [table[key].tolist() for key in reporting.TRACE_COLUMNS]
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(reporting.TRACE_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(reporting.TRACE_COLUMNS)
        for row in zip(*columns):
            writer.writerow([f(v) for f, v in zip(formats, row)])


@pytest.mark.parametrize("rows", [0, 1, 7])
def test_trace_csv_matches_csv_module(tmp_path, rows):
    rng = np.random.default_rng(rows)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.1, 1e-300, -1.7976931348623157e308, 5e-324, 2.0**70]
    table = {key: np.arange(1, rows + 1) * (3 if key == "messages" else 1) for key in reporting.INT_COLUMNS}
    for key in reporting.TRACE_COLUMNS:
        if key not in table:
            table[key] = rng.choice(special + list(rng.normal(size=4) * 10.0 ** rng.integers(-20, 20, 4)), rows)
    reporting.write_trace_csv(tmp_path / "fast.csv", table)
    write_trace_csv_by_rows(tmp_path / "rows.csv", table)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    back = reporting.read_trace_csv(tmp_path / "fast.csv")
    assert reporting.replay_deviation(back, table) == 0.0


@pytest.mark.parametrize("engine", ["node", "edge"])
def test_benchmark_tracer_follows_run_and_check(tmp_path, monkeypatch, engine):
    # the benchmark traces the CLI by wrapping module attributes by name;
    # a renamed entry point or trace field would break it only at bench time
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from spans import Tracer

    cfg = write_config(tmp_path, K3_CONFIG.replace("T = 200", "T = 20").replace("engine = node", f"engine = {engine}"))
    out = tmp_path / "out"
    tracer = Tracer()
    with tracer.installed():
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--check-all"]) == 0
        assert cli.main(["check", "--config", str(cfg), "--trace", str(out / "trace.csv")]) == 0
    assert any(span.name == "admm.run" for span in tracer.spans)
    assert tracer.counts["admm.trace_bytes"] > 0


def test_invalid_graph_file_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 x\n")
    rc = cli.main(["spectra", "--graph-file", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize("case", ["missing trace", "non-ascii trace", "non-utf8 config", "missing graph file"])
def test_unreadable_input_exits_2(tmp_path, capsys, case):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.csv"
    argv = ["check", "--config", str(cfg), "--trace", str(trace)]
    if case == "non-ascii trace":
        trace.write_bytes(b"# admmnet-trace v1\nt,caf\xc3\xa9\n")
    elif case == "non-utf8 config":
        cfg.write_bytes(K3_CONFIG.encode("ascii") + b"; \xff\n")
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    elif case == "missing graph file":
        argv = ["spectra", "--graph-file", str(tmp_path / "missing.txt")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectra", "--n", "3", "--csv", "{tmp}/missing/x.csv"],
        ["run", "--preset", "estimation", "--out", "{tmp}/file/out"],
        ["run", "--preset", "figure1", "--out", "{tmp}/file/out"],
    ],
    ids=["spectra csv in missing dir", "estimation out under file", "figure1 out under file"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_rejects_bad_engine(tmp_path):
    cfg = write_config(tmp_path, K3_CONFIG.replace("engine = node", "engine = ring"))
    with pytest.raises(ConfigParseError):
        parse_experiment_config(cfg)


def test_config_explicit_objective(tmp_path):
    text = """
[graph]
kind = path
n = 3

[objective]
kind = l1_quadratic
a = -1, 0, 2
w = 1
tau = 0.5

[admm]
c = 1.0
T = 50
"""
    cfg = write_config(tmp_path, text)
    parsed = parse_experiment_config(cfg)
    assert parsed.objective.preset is None
    assert parsed.objective.targets == ((-1.0,), (0.0,), (2.0,))
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0


def test_run_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b


def test_missing_config_errors(capsys):
    rc = cli.main(["run", "--out", "unused"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_readme_ini_blocks_parse(tmp_path):
    blocks = README.read_text(encoding="utf-8").split("```ini\n")[1:]
    assert blocks, "README has no ini block"
    for k, block in enumerate(blocks):
        cfg = parse_experiment_config(write_config(tmp_path, block.split("```")[0], f"readme{k}.ini"))
        assert build_problem(cfg).n == cfg.graph.n


EXPLICIT_CONFIG = """
[graph]
kind = path
n = 3

[objective]
kind = l1_quadratic
a = -1, 0, 2
w = 1
tau = 0.5

[admm]
c = 1.0
T = 20
"""


@pytest.mark.parametrize(
    "key,old,new",
    [
        ("w", "w = 1", "w = -1"),
        ("tau", "tau = 0.5", "tau = -1"),
        ("tau", "tau = 0.5", "tau = nan"),
        ("c", "c = 1.0", "c = nan"),
        ("c", "c = 1.0", "c = inf"),
        ("a", "a = -1, 0, 2", "a = -1, nan, 2"),
    ],
    ids=["w=-1", "tau=-1", "tau=nan", "c=nan", "c=inf", "a=nan"],
)
def test_invalid_config_values_exit_2(tmp_path, capsys, key, old, new):
    cfg = write_config(tmp_path, EXPLICIT_CONFIG.replace(old, new))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "objective,key",
    [
        ("kind = quadratic\na = 1, 2, 3, 4, 5\ntau = 0.5", "tau"),
        ("preset = estimation\ntau = 0.5", "tau"),
        ("preset = estimation\ntau = 0", "tau"),
        ("preset = estimation\na = 1, 2, 3, 4, 5", "a"),
        ("preset = estimation\nw = 2", "w"),
        ("preset = estimation\nkind = l1_quadratic", "kind"),
        ("w = 2\ntau = 0.5", "w, tau"),
    ],
    ids=["quadratic-tau", "preset-tau", "preset-tau0", "preset-a", "preset-w", "preset-kind", "no-a-w-tau"],
)
def test_objective_keys_that_would_be_ignored_exit_2(tmp_path, capsys, objective, key):
    # each of these used to run without the key's effect and exit 0
    text = f"[graph]\nkind = cycle\nn = 5\n\n[objective]\n{objective}\n\n[admm]\nc = 1.0\nT = 20\n"
    cfg = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: (\[objective\] )?{key} ", err), err
    assert not (tmp_path / "out").exists()


def test_quadratic_kind_accepts_zero_tau(tmp_path):
    text = "[graph]\nkind = cycle\nn = 5\n\n[objective]\nkind = quadratic\na = 1, 2, 3, 4, 5\ntau = 0\n\n[admm]\nc = 1.0\nT = 20\n"
    cfg = parse_experiment_config(write_config(tmp_path, text))
    assert build_problem(cfg).objectives[0].kind == "quadratic"
    with pytest.raises(ConfigParseError, match="tau"):
        ObjectiveSpec(preset=None, kind="quadratic", targets=((1.0,),), tau=0.5)


@pytest.mark.parametrize(
    "graph,verdict",
    [
        ("kind = circulant\nn = 200\nd = 20", "network_bounds=violated(complexity)"),
        ("kind = complete\nn = 40", "network_bounds=ok"),
    ],
)
def test_certify_states_network_bounds(tmp_path, capsys, graph, verdict):
    # complexity_lhs grows like 1/a(G)^4 and complexity_coeff like 1/a(G)^2,
    # so on sparse graphs the coefficient printed above the line is unchecked
    cfg = write_config(tmp_path, f"[graph]\n{graph}\n")
    assert cli.main(["certify", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("degree_connectivity_coefficient=")
    assert lines[-1] == verdict


def test_certify_computes_spectral_data_once(monkeypatch, capsys):
    calls = []

    def counting(*args):
        calls.append(args)
        return compute_spectral_data(*args)

    monkeypatch.setattr(cli, "compute_spectral_data", counting)
    monkeypatch.setattr(analysis, "compute_spectral_data", counting)
    assert cli.main(["certify", "--n", "5"]) == 0
    assert len(calls) == 1
    assert "rate_star=" in capsys.readouterr().out


def eigen_calls_per_command(tmp_path, monkeypatch, graph: str) -> list:
    """[(eigh, eigvalsh) calls of run --check-all, the same of check] on K3_CONFIG with ``graph``."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name):
        fn = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    cfg = write_config(tmp_path, K3_CONFIG.replace("T = 200", "T = 20").replace("kind = complete\nn = 3", graph))
    out = tmp_path / "out"
    counts = []
    for argv in (["run", "--out", str(out), "--check-all"], ["check", "--trace", str(out / "trace.csv")]):
        calls.update(eigh=0, eigvalsh=0)
        assert cli.main([*argv, "--config", str(cfg)]) == 0
        counts.append((calls["eigh"], calls["eigvalsh"]))
    return counts


def test_eigen_calls_per_command(tmp_path, monkeypatch):
    # W, the metric block and (run only, for the report's a(G)) the Laplacian
    # are circulant on K3: cosine sums, no eigensolver at all
    assert eigen_calls_per_command(tmp_path, monkeypatch, "kind = complete\nn = 3") == [(0, 0), (0, 0)]


def test_eigen_calls_per_command_path(tmp_path, monkeypatch):
    # off the circulant family each of those matrices gets one eigenvalue-only
    # decomposition, no eigenvectors
    assert eigen_calls_per_command(tmp_path, monkeypatch, "kind = path\nn = 5") == [(0, 3), (0, 2)]


@pytest.mark.parametrize("flag,value", [("--nu", "nan"), ("--L", "inf")])
def test_certify_rejects_non_finite_curvature(capsys, flag, value):
    assert cli.main(["certify", "--n", "4", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need 0 < nu <= L")


def test_auto_penalty_needs_curvature(tmp_path, capsys):
    # l1 terms are nonsmooth: no Lipschitz gradient, so no certificate-optimal c
    cfg = write_config(tmp_path, EXPLICIT_CONFIG.replace("c = 1.0", "c = auto"))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "every local objective must declare strong convexity" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize(
    "old,new,named",
    [
        ("engine = node", "engien = edge", "unknown key(s) in [admm]: engien"),
        ("[admm]", "[chekcs]\npsd = false\n\n[admm]", "unknown section [chekcs]"),
        # every check always runs, so the section that switched them off is gone
        ("[admm]", "[checks]\npsd = true\n\n[admm]", "unknown section [checks]"),
    ],
    ids=["key", "section", "checks"],
)
def test_config_rejects_unknown_keys(tmp_path, capsys, old, new, named):
    cfg = write_config(tmp_path, K3_CONFIG.replace(old, new))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("c", ["auto", "1.0"])
def test_one_rate_certificate_per_command(tmp_path, monkeypatch, c):
    # the penalty and the certified rate at it come from one optimize_rate call
    calls = []
    optimize_rate = analysis.optimize_rate

    def counting(*args, **kwargs):
        calls.append(kwargs.get("c"))
        return optimize_rate(*args, **kwargs)

    monkeypatch.setattr(analysis, "optimize_rate", counting)
    cfg = write_config(tmp_path, K3_CONFIG.replace("c = 1.0", f"c = {c}").replace("T = 200", "T = 30"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--check-all"]) == 0
    assert calls == [None if c == "auto" else 1.0]
    calls.clear()
    assert cli.main(["check", "--config", str(cfg), "--trace", str(out / "trace.csv")]) == 0
    assert calls == [None if c == "auto" else 1.0]


def test_explicit_penalty_is_certified_before_the_rounds(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise OptimizationBracketFailureError("closed-form penalty outside the search bracket")

    monkeypatch.setattr(analysis, "optimize_rate", failing)
    cfg = write_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--check-all"]) == 2
    assert "outside the search bracket" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize(
    "argv,clash",
    [
        (["run", "--config", "{cfg}", "--preset", "estimation"], "--preset: not allowed with argument --config"),
        (["run", "--config", "{cfg}", "--n", "9"], "--n: not allowed with argument --config"),
        (["run", "--preset", "figure1", "--n", "9"], "--n: not allowed with argument --preset figure1"),
        (["certify", "--config", "{cfg}", "--nu", "5", "--L", "9"], "--nu: not allowed with argument --config"),
        (["certify", "--config", "{cfg}", "--L", "9"], "--L: not allowed with argument --config"),
        (["certify", "--graph-file", "{graph}", "--n", "9"], "--n: not allowed with argument --graph-file"),
        (["spectra", "--config", "{cfg}", "--graph-file", "/nonexistent"],
         "--graph-file: not allowed with argument --config"),
        (["spectra", "--config", "{cfg}", "--n", "9"], "--n: not allowed with argument --config"),
    ],
    ids=["run-config-preset", "run-config-n", "run-figure1-n", "certify-config-nu-L", "certify-config-L",
         "certify-graph-file-n", "spectra-config-graph-file", "spectra-config-n"],
)
def test_overridden_inputs_exit_2(tmp_path, capsys, argv, clash):
    # each of these inputs used to be dropped without a word
    cfg, graph, out = write_config(tmp_path), tmp_path / "p4.txt", tmp_path / "out"
    write_graph_file(generate_graph("path", 4), graph)
    argv = [a.replace("{cfg}", str(cfg)).replace("{graph}", str(graph)) for a in argv]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + (["--out", str(out)] if argv[0] == "run" else []))
    assert info.value.code == 2
    assert f"argument {clash}" in capsys.readouterr().err
    assert not out.exists()


def test_inputs_that_set_n_nu_and_L(tmp_path, capsys):
    assert cli.main(["run", "--preset", "estimation", "--n", "4", "--out", str(tmp_path / "out")]) == 0
    assert "graph: kind=complete n=4 " in capsys.readouterr().out
    path = tmp_path / "p4.txt"
    write_graph_file(generate_graph("path", 4), path)
    assert cli.main(["certify", "--graph-file", str(path), "--nu", "2", "--L", "3"]) == 0
    assert capsys.readouterr().out.startswith("nu=2 L=3 kappa=1.5\n")
