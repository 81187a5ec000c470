"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s to see them). Tolerances are pinned here, not configurable.
"""

import math

import numpy as np
import pytest

from admmnet import admm, analysis, cli, reporting
from admmnet.graph import generate_graph, laplacian
from admmnet.objectives import (
    NetworkProblem,
    aggregate,
    central_solve,
    estimation_problem,
    quadratic_rows,
)
from admmnet.spectral import compute_spectral_data
from conftest import random_connected_graph, recurrence_residuals, trace_table


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def estimation_on(kind: str):
    g = generate_graph(kind, 3)
    return estimation_problem(g)


def test_criterion_1_node_edge_equivalence():
    worst = 0.0
    for kind in ("complete", "path"):
        prob = estimation_on(kind)
        for c in (0.25, 1.0, 4.0):
            node = admm.run(prob, admm.RunConfig(c=c, T=100, engine="node"))
            edge = admm.run(prob, admm.RunConfig(c=c, T=100, engine="edge"))
            worst = max(worst, float(np.max(np.abs(node.xs - edge.xs))))
    report(1, "node/edge equivalence", worst <= 1e-9, f"max deviation {worst:.3e}")


def test_criterion_2_recurrence_identity():
    worst = 0.0
    for kind in ("complete", "path"):
        prob = estimation_on(kind)
        sd = compute_spectral_data(prob.comm)
        for c in (0.25, 1.0, 4.0):
            trace = admm.run(prob, admm.RunConfig(c=c, T=100))
            worst = max(worst, float(np.max(recurrence_residuals(trace, prob, sd))))
    report(2, "one-step recurrence identity", worst <= 1e-8, f"max residual {worst:.3e}")


def test_criterion_3_first_iterate():
    prob = estimation_on("complete")
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=1))
    x_exp = np.array([1.0, 2.0, 3.0]) / 7.0
    y_exp = np.array([-1.0, 0.0, 1.0]) / 7.0
    worst = max(
        float(np.max(np.abs(trace.xs[1][:, 0] - x_exp))),
        float(np.max(np.abs(trace.ys[1][:, 0] - y_exp))),
        float(np.max(np.abs(trace.ps[1][:, 0] - y_exp))),
    )
    report(3, "first-iterate ground truth", worst <= 1e-12, f"max deviation {worst:.3e}")


def test_criterion_4_sublinear_bounds():
    prob = estimation_on("complete")
    sd = compute_spectral_data(prob.comm)
    opt = central_solve(prob)
    agg = aggregate(prob, opt)
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=1000))
    bounds = analysis.sublinear_bounds(agg.subgrad_bound, sd, opt.x_star, 1.0)
    obj, feas = analysis.sublinear_check(trace_table(trace, prob, sd, opt), bounds)
    ok = obj.passed and feas.passed
    detail = f"worst margins obj {obj.worst_margin:.3e} (t={obj.worst_t}), feas {feas.worst_margin:.3e} (t={feas.worst_t})"
    for T in range(1, 1001):
        if bounds.objective_bound(T) > 37.34 / T:
            ok, detail = False, f"objective bound exceeds 37.34/T at T={T}"
            break
    report(4, "ergodic O(1/T) bounds", ok, detail)


def test_criterion_5_linear_rate():
    prob = estimation_on("complete")
    sd = compute_spectral_data(prob.comm)
    opt = central_solve(prob)
    cert = analysis.optimize_rate(1.0, 1.0, sd)
    c = cert.best_penalty
    trace = admm.run(prob, admm.RunConfig(c=c, T=250))
    aux = analysis.aux_sequences(trace, prob, sd, opt)
    table = reporting.trace_rows(aux, trace.accounting.messages_per_round)
    v = analysis.contraction_check(table, cert.rate)
    ratios = table["contraction_ratio"]
    ok = v.passed and v.judged > 0
    detail = f"bound {cert.best_rate:.6f}, max ratio {float(np.max(ratios[~np.isnan(ratios)])):.6f}, checked {v.judged}"
    q0 = aux.metric_dist_sq[0]
    dist = np.sum((trace.xs - opt.x_star) ** 2, axis=(1, 2))
    for t in range(trace.T + 1):
        if dist[t] > cert.best_rate**t * q0 + 1e-12:
            ok, detail = False, f"squared distance exceeds rate^t envelope at t={t}"
            break
    report(5, "linear rate certificate", ok, detail)


def test_criterion_6_certificate_consistency():
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    worst_eq = 0.0
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(4, 30)), float(rng.uniform(0.08, 0.6)))
        sd = compute_spectral_data(laplacian(g))
        nu = float(rng.uniform(0.05, 8.0))
        lip = nu * float(rng.uniform(1.0, 80.0))
        cert = analysis.optimize_rate(nu, lip, sd)
        numeric = analysis.contraction_gain(nu, lip, cert.best_penalty, cert.best_balance, sd)
        worst_rel = max(worst_rel, abs(numeric - cert.best_gain) / cert.best_gain)
        for c in (cert.best_penalty, 1.0):
            beta = analysis.balance_star(nu, lip, c, sd)
            lam_min, lam_max = sd.min_pos_eig_gram, sd.max_eig_metric
            t1 = 2.0 * beta * nu / (c * lam_max * (1.0 + 2.0 / lam_min))
            t2 = (1.0 - beta) * c * lam_min / lip
            worst_eq = max(worst_eq, abs(t1 - t2))
    ok = worst_rel <= 1e-6 and worst_eq <= 1e-12
    report(6, "certificate internal consistency", ok, f"gain rel err {worst_rel:.2e}, term gap {worst_eq:.2e}")


def test_criterion_7_spectral_inequalities():
    rng = np.random.default_rng(77)
    count = 0
    ok = True
    detail = ""
    while count < 20:
        n = int(rng.integers(4, 41))
        g = random_connected_graph(rng, n, float(rng.uniform(0.05, 0.6)))
        sd = compute_spectral_data(laplacian(g))
        a, dmax, dmin = sd.algebraic_connectivity, g.d_max, g.d_min
        lam_min, lam_max = sd.min_pos_eig_gram, sd.max_eig_metric
        checks = [
            lam_min >= a * a / (dmax + 1) * (1 - 1e-9),
            lam_min <= a * a / (dmin + 1) * (1 + 1e-9),
            lam_max <= (dmax * (dmax + 1) + 4 * dmax**2 / (dmin + 1)) * (1 + 1e-9),
            lam_max * (2 + lam_min) / lam_min**2 <= 16 * dmax**4 / (dmin * a * a) * (1 + 1e-9),
            sd.eig_gram.min >= -1e-10,
            sd.eig_metric.min >= -1e-10,
        ]
        if not all(checks):
            ok, detail = False, f"violation on n={n} graph (checks {checks})"
            break
        count += 1
    report(7, "spectral inequality battery", ok, detail or f"{count} graphs checked")


def test_criterion_8_figure1_preset(tmp_path):
    rc = cli.run_figure1(tmp_path / "fig1")
    lines = (tmp_path / "fig1" / "figure1_report.txt").read_text().splitlines()
    slopes = []
    r2s = []
    for line in lines:
        if line.startswith("d="):
            parts = dict(p.split("=", 1) for p in line.replace("d=", "d=", 1).split() if "=" in p)
            slopes.append(float(parts["slope"]))
            r2s.append(float(parts["r2"]))
    ok = rc == 0 and len(slopes) == 3 and slopes[2] < slopes[1] < slopes[0] and all(r >= 0.99 for r in r2s)
    report(8, "degree-family qualitative reproduction", ok, f"slopes {slopes}, r2 {r2s}")


class _Row:
    """One row of ``QuadraticRows``, read at one point: value, subgradient (sign(0) = 0) and prox."""

    def __init__(self, target, weight, tau=0.0):
        self.rows, self.tau = quadratic_rows(np.asarray(target)[None, :], weight, tau), tau

    def value(self, x):
        return float(self.rows.values(x[None, :])[0])

    def smooth_gradient(self, x):
        return self.rows.smooth_gradients(x[None, :])[0]

    def gradient(self, x):
        return self.smooth_gradient(x) + self.tau * np.sign(x)

    def prox(self, v, rho):
        return self.rows.bind(np.array([[rho]]))(v[None, :], np.empty((1, v.size)))[0]


def test_criterion_9_objective_layer():
    rng = np.random.default_rng(99)
    ok = True
    detail = ""

    def fail(msg):
        nonlocal ok, detail
        ok, detail = False, msg

    # prox optimality residuals
    for _ in range(200):
        w = float(rng.uniform(0.1, 5.0))
        tau = float(rng.uniform(0.0, 2.0))
        a = rng.normal(size=2)
        v = rng.normal(size=2)
        rho = float(rng.uniform(0.05, 30.0))
        for f in (_Row(a, w), _Row(a, w, tau)):
            p = f.prox(v, rho)
            smooth = f.smooth_gradient(p) + rho * (p - v)
            t = f.tau
            resid = 0.0
            for j in range(2):
                if p[j] != 0.0:
                    resid = max(resid, abs(smooth[j] + t * np.sign(p[j])))
                else:
                    resid = max(resid, max(0.0, abs(smooth[j]) - t))
            if resid > 1e-10 * rho * (1.0 + float(np.linalg.norm(v))):
                fail(f"prox residual {resid:.2e} at tau {t}")

    # gradients against central finite differences
    for _ in range(100):
        f = _Row(rng.normal(size=3), float(rng.uniform(0.1, 5.0)))
        x = rng.normal(size=3)
        g = f.gradient(x)
        fd = np.array(
            [
                (f.value(x + 1e-6 * e) - f.value(x - 1e-6 * e)) / 2e-6
                for e in np.eye(3)
            ]
        )
        if np.linalg.norm(fd - g) > 1e-5 * (1.0 + np.linalg.norm(g)):
            fail("finite-difference gradient mismatch")

    # strong convexity, co-coercivity, subgradient inequality: 1000 pairs each
    w = 1.8
    fq = _Row(np.array([0.4, -0.2]), w)
    fl = _Row(np.array([0.4, -0.2]), w, 0.9)
    for _ in range(1000):
        x, y = rng.normal(size=2), rng.normal(size=2)
        gx, gy = fq.gradient(x), fq.gradient(y)
        inner = float((gx - gy) @ (x - y))
        if inner < w * float((x - y) @ (x - y)) - 1e-10:
            fail("strong convexity inequality violated")
        if inner < float((gx - gy) @ (gx - gy)) / w - 1e-10:
            fail("co-coercivity inequality violated")
        if float(fl.gradient(x) @ (x - y)) < fl.value(x) - fl.value(y) - 1e-10:
            fail("subgradient inequality violated")

    report(9, "objective layer properties", ok, detail)


def test_criterion_10_determinism(tmp_path):
    cli.run_figure1(tmp_path / "a")
    cli.run_figure1(tmp_path / "b")
    same = True
    for d in (10, 20, 30):
        fa = (tmp_path / "a" / f"figure1_d{d}.csv").read_bytes()
        fb = (tmp_path / "b" / f"figure1_d{d}.csv").read_bytes()
        same = same and fa == fb
    same = same and (tmp_path / "a" / "figure1_report.txt").read_bytes() == (
        tmp_path / "b" / "figure1_report.txt"
    ).read_bytes()
    report(10, "byte-identical preset reruns", same)
