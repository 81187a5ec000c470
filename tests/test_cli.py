import csv
import importlib
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from admmnet import admm, analysis, cli, graph, reporting, spectral
from admmnet.config import ObjectiveSpec, build_problem, parse_experiment_config
from admmnet.errors import ConfigParseError, InvalidCError
from admmnet.graph import generate_graph, laplacian, neighborhood_slots, write_graph_file
from admmnet.objectives import NetworkProblem
from admmnet.reporting import fmt
from admmnet.spectral import Witness, compute_spectral_data

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


L1_CONFIG = """
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

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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
    table, _ = reporting.read_trace_csv(tmp_path / "out" / "trace.csv")
    assert len(table["t"]) == 200
    assert table["obj_gap"][-1] <= 1e-10
    assert (tmp_path / "out" / "report.txt").exists()


def test_run_config_file(tmp_path):
    cfg = write_config(tmp_path)
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    table, _ = reporting.read_trace_csv(tmp_path / "out" / "trace.csv")
    assert table["t"][0] == 1
    assert table["messages"][0] == 6


def test_run_single_round(tmp_path):
    cfg = write_config(tmp_path, K3_CONFIG.replace("T = 200", "T = 1"))
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    table, _ = reporting.read_trace_csv(tmp_path / "out" / "trace.csv")
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
    assert lines[0] == "# admmnet-spectra v2"
    assert lines[1].startswith("n,d_max,d_min,a_G")
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert (row["a_G"], row["min_nonzero_eig"], row["max_metric_eig"]) == ("4", "4", "12")
    kinds = (row["a_G_kind"], row["min_nonzero_eig_kind"], row["max_metric_eig_kind"])
    assert kinds == (spectral.CLOSED_FORM,) * 3


def test_run_writes_report_v2_and_reads_no_connectivity(tmp_path, monkeypatch, capsys):
    # a(G) enters only the degree/connectivity relations of spectra and
    # certify: the rate and every check of run and check read lam_2(W) and
    # lam_max(M - W), so the v2 report drops it and neither command reads it
    def refuse(self):
        raise AssertionError("a(G) read")

    monkeypatch.setattr(spectral.SpectralData, "connectivity", property(refuse))
    cfg = write_config(tmp_path, K3_CONFIG.replace("kind = complete\nn = 3", "kind = path\nn = 5").replace("T = 200", "T = 20"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["check", "--config", str(cfg), "--trace", str(out / "trace.csv")]) == 0
    lines = (out / "report.txt").read_text().splitlines()
    assert lines[0] == "# admmnet report v2"
    assert re.fullmatch(r"spectral: min_nonzero_eig=\S+ max_metric_eig=\S+", lines[2])
    assert "a(G)" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "graph,kind",
    [("kind = complete\nn = 3", "="), ("kind = erdos_renyi\nn = 600\np = 0.05\nseed = 1", ">=")],
    ids=["closed-form", "certified"],
)
def test_spectra_and_certify_print_connectivity_with_kind(tmp_path, capsys, graph, kind):
    cfg = write_config(tmp_path, f"[graph]\n{graph}\n")
    assert cli.main(["spectra", "--config", str(cfg)]) == 0
    header, values = (line.split() for line in capsys.readouterr().out.strip().splitlines())
    a = values[header.index("a(G)")]
    assert cli.main(["certify", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    (line,) = (line for line in lines if line.startswith("a(G)"))
    assert re.fullmatch(r"a\(G\)" + kind + r"\d\S*", line)
    assert float(line[len("a(G)") + len(kind) :]) == pytest.approx(float(a.removeprefix(">=")), rel=1e-11)
    assert a.startswith(">=") == (kind == ">=")


def test_spectra_marks_certified_bounds(tmp_path, capsys):
    # above the size crossover the table marks each bound's side, as the
    # run report's spectral: line does, and the CSV names each kind
    cfg = write_config(tmp_path, "[graph]\nkind = erdos_renyi\nn = 600\np = 0.05\nseed = 1\n")
    out_csv = tmp_path / "spectra.csv"
    assert cli.main(["spectra", "--config", str(cfg), "--csv", str(out_csv)]) == 0
    values = capsys.readouterr().out.strip().splitlines()[1].split()
    assert [v[:2] for v in values[3:6]] == [">=", ">=", "<="]
    lines = out_csv.read_text().splitlines()
    assert lines[1] == (
        "n,d_max,d_min,a_G,a_G_kind,min_nonzero_eig,min_nonzero_eig_kind,max_metric_eig,max_metric_eig_kind,psd"
    )
    row = lines[2].split(",")
    assert row[3:9:2] == [v[2:] for v in values[3:6]]
    assert row[4:10:2] == [spectral.CERTIFIED] * 3


@pytest.mark.parametrize(
    "graph,marks,kind",
    [
        ("kind = erdos_renyi\nn = 600\np = 0.05\nseed = 1", (">=", "<="), spectral.CERTIFIED),
        ("kind = complete\nn = 5", ("=", "="), spectral.CLOSED_FORM),
    ],
    ids=["certified", "exact"],
)
def test_certify_marks_certified_scalars(tmp_path, capsys, graph, marks, kind):
    # certify marks each spectral scalar with the side of its bound, as the
    # run report and spectra do, and prints = where it is known exactly
    cfg = write_config(tmp_path, f"[graph]\n{graph}\n")
    assert cli.main(["certify", "--config", str(cfg)]) == 0
    (line,) = (ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("min_nonzero_eig"))
    found = re.fullmatch(r"min_nonzero_eig(>=|=)(\S+) max_metric_eig(<=|=)(\S+)", line)
    assert found and found.group(1, 3) == marks
    sd = compute_spectral_data(build_problem(parse_experiment_config(cfg)).comm)
    assert (sd.eig_gram.kind, sd.eig_metric.kind) == (kind, kind)
    assert (float(found[2]), float(found[4])) == (sd.min_pos_eig_gram, sd.max_eig_metric)


@pytest.mark.xfail(
    strict=True,
    reason="at c = auto the one-step contraction ratio on complete n=50 exceeds the certified rate "
    "(bound 0.90987372600773719, worst margin 0.051040137061109214 at t=50), far above the rounding floor",
)
def test_contraction_holds_on_complete_50_at_auto_penalty(tmp_path, capsys):
    text = "[graph]\nkind = complete\nn = 50\n\n[objective]\npreset = estimation\n\n[admm]\nc = auto\nT = 50\n"
    rc = cli.main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "out")])
    assert "check contraction: PASS" in capsys.readouterr().out
    assert rc == 0


def test_figure1_rate_is_certified_at_the_penalty_in_use(tmp_path):
    # figure1 runs at a quarter of the certificate-optimal penalty; each
    # line's rate is the certificate at that line's c, not the optimum's rate
    assert cli.run_figure1(tmp_path) == 0
    lines = [ln for ln in (tmp_path / "figure1_report.txt").read_text().splitlines() if ln.startswith("d=")]
    assert len(lines) == len(cli.FIGURE1_DEGREES)
    rates = []
    for line, d in zip(lines, cli.FIGURE1_DEGREES):
        parts = dict(p.split("=", 1) for p in line.replace(":", "").split())
        assert int(parts["d"]) == d
        g = generate_graph("circulant", cli.FIGURE1_N, d=d)
        cert = analysis.optimize_rate(1.0, 1.0, compute_spectral_data(laplacian(g)), c=float(parts["c"]))
        assert float(parts["rate"]) == cert.rate > cert.best_rate
        rates.append(cert.rate)
    assert rates == pytest.approx([0.99856, 0.98728, 0.97225], abs=5e-6)


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


def test_main_builds_the_parser_once(monkeypatch, capsys):
    # the parser is built on the first call and reused by every later command in the process
    built = cli.build_parser()
    monkeypatch.setattr(cli.argparse, "ArgumentParser", None)  # building another would fail
    for _ in range(2):
        assert cli.main(["certify", "--n", "3"]) == 0
    assert cli.build_parser() is built
    capsys.readouterr()


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
    back, _ = reporting.read_trace_csv(tmp_path / "fast.csv")
    assert reporting.replay_deviation(back, table) == 0.0


@pytest.mark.parametrize(
    "damage",
    [
        lambda rows: rows,
        lambda rows: [rows[0], rows[1].replace(",", ",x", 1), *rows[2:]],
        lambda rows: [rows[0], rows[1].rsplit(",", 1)[0], *rows[2:]],
        lambda rows: [rows[0], "", *rows[1:]],
        lambda rows: [rows[0], rows[1] + "\r", *rows[2:]],
        lambda rows: [rows[0], "99999999999999999999" + rows[1][rows[1].index(",") :], *rows[2:]],
        lambda rows: ['"' + row.replace(",", '","') + '"' for row in rows],
        lambda rows: [row.replace(",", ", ") for row in rows],
    ],
    ids=["intact", "bad-float", "short-row", "blank-line", "stray-cr", "int-overflow", "quoted", "spaced"],
)
@pytest.mark.parametrize("ends", ["\r\n", "\n"])
def test_trace_read_by_columns_matches_the_csv_rows(tmp_path, damage, ends):
    # the column-wise read gives the csv module's table bit for bit, or its
    # ConfigParseError with the same message and line number
    table = {key: np.arange(1, 6) * (7 if key == "messages" else 1) for key in reporting.INT_COLUMNS}
    rng = np.random.default_rng(0)
    for key in reporting.TRACE_COLUMNS:
        table.setdefault(key, rng.normal(size=5) * 10.0 ** rng.integers(-300, 300, 5))
    reporting.write_trace_csv(tmp_path / "intact.csv", table)
    schema, header, body = (tmp_path / "intact.csv").read_bytes().decode("ascii").split("\n", 2)
    body = ends.join(damage(body.split("\r\n")[:-1])) + ends
    path = tmp_path / "trace.csv"
    path.write_bytes(f"{schema}\n{header}\n{body}".encode("ascii"))

    def outcome(read):
        try:
            return {key: (col.dtype, col.tobytes()) for key, col in read().items()}
        except ConfigParseError as exc:
            return str(exc), exc.lineno

    assert outcome(lambda: reporting.read_trace_csv(path)[0]) == outcome(lambda: reporting._columns_by_rows(body))


@pytest.mark.parametrize(
    "witness",
    [
        Witness(),
        Witness(gram_ritz=(0.1, 2.0**70)),
        Witness(metric_ritz=5e-324),
        Witness(gram_ritz=(1 / 3, 2 / 3), metric_ritz=1e300),
    ],
)
def test_trace_witness_round_trips(tmp_path, witness):
    table = {key: np.arange(1, 4, dtype=np.int64 if key in reporting.INT_COLUMNS else float) for key in reporting.TRACE_COLUMNS}
    reporting.write_trace_csv(tmp_path / "trace.csv", table, witness)
    back, got = reporting.read_trace_csv(tmp_path / "trace.csv")
    assert got == witness and reporting.replay_deviation(back, table) == 0.0
    first = (tmp_path / "trace.csv").read_bytes().split(b"\n", 1)[0].decode("ascii")
    assert first == reporting.schema_line(witness) and first.startswith("# admmnet-trace v2")


def with_first_line(trace: Path, line: str, name: str) -> Path:
    """A copy of ``trace``, named ``name``, whose first line is ``line``."""
    copy = trace.with_name(name)
    copy.write_bytes(line.encode("ascii") + b"\n" + trace.read_bytes().split(b"\n", 1)[1])
    return copy


def er_run(tmp_path, capsys, n: int) -> tuple[Path, Path, Witness]:
    """(config, trace, witness of its spectral data) of an Erdos-Renyi run at c = auto, T=5, past the size crossover."""
    graph = f"kind = erdos_renyi\nn = {n}\np = 0.05\nseed = 1"
    cfg = write_config(tmp_path, K3_CONFIG.replace("kind = complete\nn = 3", graph).replace("c = 1.0", "c = auto").replace("T = 200", "T = 5"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    return cfg, out / "trace.csv", compute_spectral_data(build_problem(parse_experiment_config(cfg)).comm).witness


def check_stdout(cfg: Path, trace: Path, capsys) -> str:
    assert cli.main(["check", "--config", str(cfg), "--trace", str(trace)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("n", [600, 800])
def test_check_proves_from_the_trace_witness(tmp_path, monkeypatch, capsys, n):
    # run records the Ritz values it proved from; check proves from them with
    # no Lanczos run, and a v1 copy of the trace searches again, with the same output
    cfg, trace, w = er_run(tmp_path, capsys, n)
    first = trace.read_bytes().split(b"\n", 1)[0].decode("ascii")
    assert first == f"# admmnet-trace v2 gram_ritz={fmt(w.gram_ritz[0])},{fmt(w.gram_ritz[1])} metric_ritz={fmt(w.metric_ritz)}"
    runs = []
    fn = spectral._ritz_ends
    monkeypatch.setattr(spectral, "_ritz_ends", lambda *args, **kwargs: runs.append(1) or fn(*args, **kwargs))
    out = check_stdout(cfg, trace, capsys)
    assert runs == []
    assert check_stdout(cfg, with_first_line(trace, "# admmnet-trace v1", "v1.csv"), capsys) == out
    assert len(runs) == 2
    assert "check replay: PASS (worst relative deviation 0)" in out


@pytest.mark.parametrize(
    "spoil",
    [
        lambda theta, top, tm: f"gram_ritz={fmt(theta * (1 + 1e-6))},{fmt(top)} metric_ritz={fmt(tm * (1 - 1e-6))}",
        lambda theta, top, tm: f"gram_ritz=nan,{fmt(top)} metric_ritz=inf",
        lambda theta, top, tm: f"gram_ritz=0,{fmt(top)} metric_ritz=-0",
        lambda theta, top, tm: f"gram_ritz={fmt(-theta)},{fmt(top)} metric_ritz={fmt(-tm)}",
        lambda theta, top, tm: f"gram_ritz={fmt(theta)},{fmt(theta / 2)} metric_ritz={fmt(tm)}",
    ],
    ids=["past-the-eigenvalues", "non-finite", "zero", "negative", "top-below-theta"],
)
def test_check_falls_back_on_a_bad_witness(tmp_path, capsys, spoil):
    cfg, trace, w = er_run(tmp_path, capsys, 600)
    want = check_stdout(cfg, with_first_line(trace, "# admmnet-trace v1", "v1.csv"), capsys)
    bad = with_first_line(trace, "# admmnet-trace v2 " + spoil(*w.gram_ritz, w.metric_ritz), "bad.csv")
    assert check_stdout(cfg, bad, capsys) == want


@pytest.mark.parametrize("top", ["theta", "1000"])
def test_check_searches_again_for_a_top_outside_its_bracket(tmp_path, capsys, top):
    # a recorded top below max_i W_ii (here theta_2 itself) or above W's
    # Gershgorin row bound is not used; the search gives the run's spectra,
    # so the replay is exact
    graph = "kind = erdos_renyi\nn = 800\np = 0.05\nseed = 1"
    cfg = write_config(tmp_path, K3_CONFIG.replace("kind = complete\nn = 3", graph).replace("c = 1.0", "c = auto").replace("T = 200", "T = 30"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    w = compute_spectral_data(build_problem(parse_experiment_config(cfg)).comm).witness
    theta = fmt(w.gram_ritz[0])
    line = f"# admmnet-trace v2 gram_ritz={theta},{theta if top == 'theta' else top} metric_ritz={fmt(w.metric_ritz)}"
    assert "check replay: PASS (worst relative deviation 0)" in check_stdout(cfg, with_first_line(out / "trace.csv", line, "top.csv"), capsys)


@pytest.mark.parametrize(
    "line",
    [
        "# admmnet-trace v2 gram_ritz=1,2 rate=0.5",
        "# admmnet-trace v2 metric_ritz=1.0x",
        "# admmnet-trace v2 gram_ritz=1",
        "# admmnet-trace v2 gram_ritz=1,2,3",
        "# admmnet-trace v2 metric_ritz",
        "# admmnet-trace v2 metric_ritz=1 metric_ritz=1",
        "# admmnet-trace v1 metric_ritz=1",
        "# admmnet-trace v2x",
        "# admmnet-trace v3",
    ],
)
def test_bad_trace_first_line_exits_2_at_line_1(tmp_path, capsys, line):
    cfg = write_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    bad = with_first_line(tmp_path / "out" / "trace.csv", line, "bad.csv")
    capsys.readouterr()
    assert cli.main(["check", "--config", str(cfg), "--trace", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


@pytest.mark.parametrize("engine", ["node", "edge"])
def test_benchmark_tracer_follows_run_and_check(tmp_path, monkeypatch, engine):
    # the benchmark traces the CLI by wrapping module attributes by name;
    # a renamed entry point would break it only at bench time. The commands
    # stream their rounds through admm.rounds, so the admm.run span is never
    # entered and its counters read 0, while the recurrence keeps its span,
    # one per block
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from spans import Tracer

    cfg = write_config(tmp_path, K3_CONFIG.replace("T = 200", "T = 20").replace("engine = node", f"engine = {engine}"))
    out = tmp_path / "out"
    tracer = Tracer()
    with tracer.installed():
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--check-all"]) == 0
        assert cli.main(["check", "--config", str(cfg), "--trace", str(out / "trace.csv")]) == 0
    names = {span.name for span in tracer.spans}
    assert {"spectral.compute", "objectives.f_value", "admm.recurrence", "reporting.trace_rows"} <= names
    assert "admm.run" not in names and tracer.counts["admm.trace_bytes"] == 0
    assert tracer.nesting_problems(math.inf) == []


def test_benchmark_span_targets_exist(monkeypatch):
    # every (owner, attribute) the benchmark wraps by name is still there
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from spans import SPAN_TARGETS

    def owner(name):
        return NetworkProblem if name == "NetworkProblem" else importlib.import_module(f"admmnet.{name}")

    assert [(o, attr) for o, attr, _ in SPAN_TARGETS if attr not in vars(owner(o))] == []


@pytest.mark.parametrize("text,judged", [(K3_CONFIG, True), (L1_CONFIG, False)], ids=["curved", "no-curvature"])
def test_run_and_check_judge_through_the_two_checks(tmp_path, monkeypatch, capsys, text, judged):
    # each command takes every certificate's verdict from its one check:
    # sublinear_check once, contraction_check once unless contraction reads SKIP
    calls = []

    def counting(name):
        check = getattr(analysis, name)

        def wrapper(*args):
            calls.append(name)
            return check(*args)

        return wrapper

    for name in ("sublinear_check", "contraction_check"):
        monkeypatch.setattr(analysis, name, counting(name))
    cfg = write_config(tmp_path, text.replace("T = 200", "T = 30"))
    out = tmp_path / "out"
    want = ["sublinear_check", "contraction_check"] if judged else ["sublinear_check"]
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == want
    calls.clear()
    assert cli.main(["check", "--config", str(cfg), "--trace", str(out / "trace.csv")]) == 0
    assert calls == want
    assert ("check contraction: SKIP" in capsys.readouterr().out) is not judged


def test_analysis_takes_one_w_product_per_round(tmp_path, monkeypatch):
    # W products of (k, n, d) blocks of the iterate stack, counted in rounds:
    # one sweep gives every W-form, the recurrence's W part included, so
    # `run` and `check` each take one product per round; products with one
    # (n, d) operand are not counted. Whole-stack products took 4 and 3 stacks.
    # (the circulant route's W x is its Fourier product, bound when the route is made)
    rounds = []
    fourier = graph._fourier

    def counting(x, gain, n):
        if x.ndim == 3:
            rounds.append(x.shape[0])
        return fourier(x, gain, n)

    monkeypatch.setattr(graph, "_fourier", counting)
    T = 3 * admm.SWEEP_ROUNDS + 7
    topology = "kind = circulant\nn = 20\nd = 4"
    cfg = write_config(tmp_path, K3_CONFIG.replace("kind = complete\nn = 3", topology).replace("T = 200", f"T = {T}"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert sum(rounds) <= T + 1 and max(rounds) <= admm.SWEEP_ROUNDS
    rounds.clear()
    assert cli.main(["check", "--config", str(cfg), "--trace", str(out / "trace.csv")]) == 0
    assert sum(rounds) <= T + 1 and max(rounds) <= admm.SWEEP_ROUNDS


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
    cfg = write_config(tmp_path, L1_CONFIG)
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

        ("dimension", "tau = 0.5", "tau = 0.5\ndimension = 0"),
        ("dimension", "tau = 0.5", "tau = 0.5\ndimension = -2"),
        ("seed", "kind = path", "kind = erdos_renyi\np = 0.9\nseed = -3"),
    ],
    ids=["w=-1", "tau=-1", "tau=nan", "c=nan", "c=inf", "a=nan", "dimension=0", "dimension=-2", "seed=-3"],
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


@pytest.mark.parametrize(
    "graph,keys",
    [
        ("kind = complete\nn = 5\nd = 4\np = 0.3\nseed = 9\npath = /nonexistent", "d, p, path, seed"),
        ("kind = circulant\nn = 5\nd = 2\np = 0.9", "p"),
        ("kind = file\npath = {graph_file}\nn = 99", "n"),
        ("n = 5\nseed = 1", "seed"),
    ],
    ids=["complete-d-p-seed-path", "circulant-p", "file-n", "default-kind-seed"],
)
def test_graph_keys_that_would_be_ignored_exit_2(tmp_path, capsys, graph, keys):
    # each of these used to run the graph without the key's effect and exit 0
    graph_file = tmp_path / "k3.txt"
    write_graph_file(generate_graph("complete", 3), graph_file)
    text = f"[graph]\n{graph.format(graph_file=graph_file)}\n\n[objective]\npreset = estimation\n\n[admm]\nc = 1.0\nT = 20\n"
    cfg = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [graph] {keys} cannot go with kind = "), err
    assert not (tmp_path / "out").exists()


def test_quadratic_kind_accepts_zero_tau(tmp_path):
    text = "[graph]\nkind = cycle\nn = 5\n\n[objective]\nkind = quadratic\na = 1, 2, 3, 4, 5\ntau = 0\n\n[admm]\nc = 1.0\nT = 20\n"
    cfg = parse_experiment_config(write_config(tmp_path, text))
    assert build_problem(cfg).objectives.tau is None  # plain quadratic rows, no l1 term
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
    assert cli.main(["certify", "--n", "5"]) == 0
    assert len(calls) == 1
    assert "rate_star=" in capsys.readouterr().out


def test_certify_config_builds_the_laplacian_once(monkeypatch, tmp_path, capsys):
    # the network bounds read the problem's own communication matrix
    calls = []
    monkeypatch.setattr("admmnet.graph.neighborhood_slots", lambda g: calls.append(g) or neighborhood_slots(g))
    cfg = write_config(tmp_path, "[graph]\nkind = erdos_renyi\nn = 40\np = 0.2\nseed = 1\n")
    assert cli.main(["certify", "--config", str(cfg)]) == 0
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
    # W and the metric block are circulant on K3: spectra from the symbol, no eigensolver at all
    assert eigen_calls_per_command(tmp_path, monkeypatch, "kind = complete\nn = 3") == [(0, 0), (0, 0)]


@pytest.mark.parametrize("n", [20, 400], ids=["dense-p", "slots"])
def test_circulant_commands_never_form_w(tmp_path, monkeypatch, n):
    # every spectrum, W product and W^+ of a circulant comes from its symbol
    seen = []
    spectral_data = cli.compute_spectral_data

    def recording(comm, *args):
        seen.append(comm)
        return spectral_data(comm, *args)

    monkeypatch.setattr(cli, "compute_spectral_data", recording)
    graph = f"kind = circulant\nn = {n}\nd = 6"
    cfg = write_config(tmp_path, K3_CONFIG.replace("kind = complete\nn = 3", graph).replace("c = 1.0", "c = auto").replace("T = 200", "T = 70"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--check-all"]) == 0
    assert cli.main(["check", "--config", str(cfg), "--trace", str(out / "trace.csv")]) == 0
    assert cli.main(["spectra", "--config", str(cfg)]) == 0
    assert len(seen) == 3 and all(comm.route.spectra is not None and "W" not in vars(comm) for comm in seen)


@pytest.mark.parametrize(
    "topology",
    ["kind = circulant\nn = 20\nd = 4", "kind = erdos_renyi\nn = 40\np = 0.2\nseed = 1", "kind = erdos_renyi\nn = 800\np = 0.05\nseed = 1"],
    ids=["dense-symbol", "dense-exact", "slots-certified"],
)
def test_one_route_choice_per_matrix_through_a_run(tmp_path, monkeypatch, topology):
    # the product crossover and circulance are each decided once, when the
    # matrix's route is made; spectra, engine, sweep and recurrence take its kernels
    made = []
    for name in ("dense_products_are_cheaper", "_circulant"):
        fn = getattr(graph, name)
        monkeypatch.setattr(graph, name, lambda comm, _fn=fn, _name=name: made.append(_name) or _fn(comm))
    cfg = write_config(tmp_path, K3_CONFIG.replace("kind = complete\nn = 3", topology).replace("c = 1.0", "c = auto").replace("T = 200", "T = 70"))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--check-all"]) == 0
    assert made == ["dense_products_are_cheaper", "_circulant"]


def test_eigen_calls_per_command_path(tmp_path, monkeypatch):
    # off the circulant family each of those matrices gets one eigenvalue-only
    # decomposition, no eigenvectors; neither command reads a(G), so the
    # Laplacian gets none
    assert eigen_calls_per_command(tmp_path, monkeypatch, "kind = path\nn = 5") == [(0, 2), (0, 2)]


def test_certified_spectra_need_no_full_eigendecomposition(tmp_path, monkeypatch, capsys):
    # Erdos-Renyi n=800 lies above the size crossover: Lanczos and Cholesky
    # bound every scalar, so no n x n matrix reaches an eigensolver (only
    # Lanczos's small tridiagonals do), and the report says which values are bounds
    shapes = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda S, _fn=fn: shapes.append(np.shape(S)) or _fn(S))
    graph = "kind = erdos_renyi\nn = 800\np = 0.05\nseed = 1"
    cfg = write_config(tmp_path, K3_CONFIG.replace("kind = complete\nn = 3", graph).replace("c = 1.0", "c = auto").replace("T = 200", "T = 5"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--check-all"]) == 0
    report = capsys.readouterr().out
    assert cli.main(["check", "--config", str(cfg), "--trace", str(out / "trace.csv")]) == 0
    assert shapes and all(shape[0] <= spectral.LANCZOS_STEPS for shape in shapes)
    assert re.search(r"^spectral: min_nonzero_eig>=\S+ max_metric_eig<=\S+$", report, re.M)
    assert re.search(r"^check psd: PASS \(min eigs >=\S+, >=\S+\)$", report, re.M)


def traced_peak_in_dense_arrays(tmp_path, command: str) -> float:
    """Peak of the array bytes one command allocates, in units of one n x n float array.

    The command runs on Erdos-Renyi n=400, p=0.05 (past the slot crossover),
    c=auto, T=20. numpy reports its array buffers to tracemalloc; the copies
    LAPACK makes inside eigvalsh and solve are allocated outside numpy and do
    not show.
    """
    n = 400
    cfg = write_config(
        tmp_path,
        K3_CONFIG.replace("kind = complete\nn = 3", f"kind = erdos_renyi\nn = {n}\np = 0.05\nseed = 1")
        .replace("c = 1.0", "c = auto")
        .replace("T = 200", "T = 20"),
    )
    out = tmp_path / "out"
    if command == "check":
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    argv = {"run": ["run", "--out", str(out)], "check": ["check", "--trace", str(out / "trace.csv")]}[command]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rc = cli.main([argv[0], "--config", str(cfg), *argv[1:]])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak / (8 * n * n)


def test_run_holds_at_most_two_traced_dense_arrays(tmp_path, capsys):
    """The traced ceiling is W and one numpy transient (D^(-1/2) P while W is
    formed, or W + 11'/n, since conjugate gradients cost more than the dense
    solve at this size): two n x n arrays. P is kept as slots, M - W is built
    in W's storage, and a(G) is not read. Everything else adds about 0.39
    more here. The rounds stream through blocks of at most SWEEP_ROUNDS + 1
    rows, so the peak reads 2.73 at T=64 and at T=300; the 0.35 this
    allowance once held counted (T+1, n, 1) trace stacks, which took the
    peak to 4.79 at T=300. A run that keeps a dense P reads 3.33, and one that also
    stores M - W and builds a second Laplacian for a(G) reads 4.5.
    """
    assert traced_peak_in_dense_arrays(tmp_path, "run") <= 2.75, capsys.readouterr().out


def test_check_holds_at_most_two_traced_dense_arrays(tmp_path, capsys):
    """The same ceiling as ``run``: W and one transient (D^(-1/2) P or W + 11'/n)."""
    assert traced_peak_in_dense_arrays(tmp_path, "check") <= 2.75, capsys.readouterr().out


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
        raise InvalidCError("penalty 1 is too extreme for the rate certificate")

    monkeypatch.setattr(analysis, "optimize_rate", failing)
    cfg = write_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--check-all"]) == 2
    assert "too extreme for the rate certificate" in capsys.readouterr().err
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


OVERFLOW_CONFIG = K3_CONFIG.replace("preset = estimation", "kind = quadratic\na = 1e300 2 3").replace("T = 200", "T = 5")


def test_non_finite_distances_fail_contraction_in_run_and_check(tmp_path, capsys):
    # x* = 3.3e299 overflows every squared metric distance to nan: each
    # ratio is judged as inf and fails, instead of reading as converged.
    # The parser refuses these targets, so the config is built past it.
    cfg = replace(
        parse_experiment_config(write_config(tmp_path, K3_CONFIG.replace("T = 200", "T = 5"))),
        objective=ObjectiveSpec(preset=None, targets=((1e300,), (2.0,), (3.0,)), weights=(1.0,)),
    )
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.run_experiment(cfg, out) == 1
        run_out = capsys.readouterr().out
        assert cli.check_experiment(cfg, out / "trace.csv") == 1
        check_out = capsys.readouterr().out
    assert "check contraction: FAIL (bound 0.84210526315789469, checked 5, worst margin inf at t=1)" in run_out
    assert "check replay: PASS" in check_out
    assert "check contraction: FAIL (bound 0.84210526315789469, worst margin inf at t=1)" in check_out
    assert np.all(reporting.read_trace_csv(out / "trace.csv")[0]["contraction_ratio"] == np.inf)


def test_overflowing_targets_exit_2_naming_a(tmp_path, capsys):
    # a_1^2 = 1e600 is not a float: the config is refused before any array is built
    cfg = write_config(tmp_path, OVERFLOW_CONFIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: a is too large: the objective sum_i w_i |x - a_i|^2 / 2 overflows at x = 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1e-200", "1e200"])
def test_extreme_curvature_exits_2_naming_nu_and_l(capsys, value):
    # nu L underflows to 0 or overflows to inf: the certificate's penalty cannot be formed
    assert cli.main(["certify", "--n", "5", "--nu", value, "--L", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: nu={float(value)} and L={float(value)} are too extreme")
    assert "Traceback" not in err


def certified_iterations(capsys) -> int:
    (line,) = (ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("certified_iterations_to_1e-06="))
    return int(line.split("=")[1])


def test_certified_iterations_divide_by_log1p_of_the_gain(tmp_path, capsys):
    # log(1 / rate) = log1p(gain): at gain 1e-20 the rate rounds to 1.0, and
    # near 1 the subtraction loses digits (path n=300 at nu = L = 1)
    assert cli.main(["certify", "--n", "5", "--nu", "1e-20", "--L", "1e20"]) == 0
    assert 0 < certified_iterations(capsys) < math.inf
    cfg = write_config(tmp_path, "[graph]\nkind = path\nn = 300\n")
    assert cli.main(["certify", "--config", str(cfg)]) == 0
    cert = analysis.optimize_rate(1.0, 1.0, compute_spectral_data(build_problem(parse_experiment_config(cfg)).comm))
    assert certified_iterations(capsys) == math.ceil(math.log(1e6) / math.log1p(cert.best_gain))


def test_certify_exits_2_where_the_best_gain_underflows(tmp_path, capsys):
    # on path n=200 at kappa = 1e308, lam_min^2 / kappa underflows to 0: no finite iteration count
    path = tmp_path / "p200.txt"
    write_graph_file(generate_graph("path", 200), path)
    assert cli.main(["certify", "--graph-file", str(path), "--nu", "1e-154", "--L", "1e154"]) == 2
    assert capsys.readouterr().err == "error: nu=1e-154 and L=1e+154 are too extreme for this graph: the best gain underflows to 0\n"


@pytest.mark.parametrize("c", ["1e-300", "1e300"])
def test_extreme_penalty_exits_2_naming_the_penalty(tmp_path, capsys, c):
    # c^2 underflows to 0 or overflows to inf in the certificate's balance
    cfg = write_config(tmp_path, K3_CONFIG.replace("c = 1.0", f"c = {c}"))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: penalty {float(c):g} is too extreme for the rate certificate\n"


def test_unallocatable_run_exits_2(tmp_path, capsys):
    # (T+1, n, 1) trace stacks of 24 PB: more than any address space holds
    cfg = write_config(tmp_path, K3_CONFIG.replace("T = 200", "T = 1000000000000000"))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
