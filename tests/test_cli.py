import math
from pathlib import Path

import numpy as np
import pytest

from admmnet import cli, reporting
from admmnet.config import build_problem, parse_experiment_config
from admmnet.errors import ConfigParseError
from admmnet.graph import generate_graph, write_graph_file

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
