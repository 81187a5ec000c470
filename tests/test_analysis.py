import math
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from admmnet import admm, analysis, graph, reporting, spectral
from admmnet.errors import (
    DegenerateSpectrumError,
    InvalidBetaError,
    InvalidCError,
    MissingCurvatureMetadataError,
    NonFiniteIterateError,
)
from admmnet.graph import build_graph, generate_graph, laplacian
from admmnet.objectives import (
    NetworkProblem,
    QuadraticRows,
    aggregate,
    central_solve,
    estimation_problem,
    quadratic_rows,
)
from admmnet.spectral import compute_spectral_data
from conftest import (
    gap_inequality_check,
    implicit_subgradients,
    per_node,
    random_connected_graph,
    recurrence_residuals,
    reference_best_penalty,
    trace_table,
    with_slot_products,
)

# hand-derived constants for the complete triangle with unit weights
K3_BEST_PENALTY = math.sqrt(1.0 / 15.0)
K3_BEST_GAIN = 0.5 * math.sqrt(0.6)
K3_GAIN_AT_C1 = 0.1875


def spectral_stub(lam_min, lam_max):
    return SimpleNamespace(min_pos_eig_gram=lam_min, max_eig_metric=lam_max)


def test_aux_sequences_k3(k3_problem, k3_spectral, k3_optimal):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=10))
    aux = analysis.aux_sequences(trace, k3_problem, k3_spectral, k3_optimal)
    # |r*|^2 = a' W a = 2/3 and the metric part of x* is 72 on this instance
    assert aux.metric_dist_sq[0] == pytest.approx(72.0 + 2.0 / 3.0, abs=1e-10)
    # W = 3I - J on the triangle, so W a = [-1, 0, 1] gives a = [-1, 0, 1]/3
    assert np.allclose(aux.dual_ref[:, 0], np.array([-1.0, 0.0, 1.0]) / 3.0, atol=1e-10)
    assert aux.dual_ref_residual <= 1e-9
    assert aux.span_residual <= 1e-9
    assert aux.recurrence.shape == (10,) and float(np.max(aux.recurrence)) <= 1e-10


def test_aux_dual_ref_zero_for_agreeing_targets(k3):
    prob = NetworkProblem(graph=k3, objectives=quadratic_rows(np.full((3, 1), 2.5)))
    sd = compute_spectral_data(prob.comm)
    opt = central_solve(prob)
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=3))
    aux = analysis.aux_sequences(trace, prob, sd, opt)
    assert np.max(np.abs(aux.dual_ref)) <= 1e-12


def eigh_pinv(W):
    """W^+ from eigh, with the consensus eigenvalue (the smallest; null(W) = span{1}) dropped."""
    vals, vecs = np.linalg.eigh(W)
    inv = np.zeros_like(vals)
    inv[1:] = 1.0 / vals[1:]
    return (vecs * inv) @ vecs.T


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10_000), st.sampled_from([1, 3]))
def test_gram_pinv_apply_matches_eigh(n, seed, d):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_p=float(rng.uniform(0.05, 0.5)))
    sd = compute_spectral_data(laplacian(g))
    B = rng.normal(size=(n, d))
    want = eigh_pinv(sd.comm.W) @ B
    got = sd.comm.route.w_pinv(B, sd.eig_gram.max / sd.min_pos_eig_gram)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@contextmanager
def cg_route():
    """Conjugate gradients for W^+ whatever their cost, and no dense solve to fall back on."""
    refuse = AssertionError("dense solve")
    with mock.patch.object(graph, "conjugate_gradients_are_cheaper", return_value=True):
        with mock.patch.object(np.linalg, "solve", side_effect=refuse):
            yield


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10_000), st.sampled_from([1, 3]))
@example(n=2, seed=334, d=3)  # rounding leaves a consensus part in the residual
def test_cg_pinv_on_slot_products_matches_eigh(n, seed, d):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_p=float(rng.uniform(0.05, 0.5)))
    comm = with_slot_products(laplacian(g))
    sd = compute_spectral_data(comm)
    B = rng.normal(size=(n, d))
    want = eigh_pinv(comm.W) @ B
    with cg_route():
        got = comm.route.w_pinv(B, sd.eig_gram.max / sd.min_pos_eig_gram)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.all(np.abs(got.sum(axis=0)) <= 1e-13 * np.linalg.norm(got, axis=0))  # orthogonal to 1


def test_dual_ref_residual_check_raises_on_doctored_gram(p3_problem, p3_spectral):
    # a Gram matrix that no longer annihilates exactly span{1}: W + 11'/n is
    # still invertible, but its solve is no longer W^+, and the residual,
    # taken by two P products, does not read the doctored W
    optimal = central_solve(p3_problem)
    comm = replace(p3_problem.comm)  # the same slots, with nothing derived yet
    W = vars(comm)["W"] = p3_spectral.comm.W.copy()  # where the cached W would sit
    W[0, 1] += 0.1
    W[1, 0] += 0.1
    trace = admm.run(p3_problem, admm.RunConfig(c=1.0, T=3))
    with pytest.raises(DegenerateSpectrumError):
        analysis.aux_sequences(trace, p3_problem, replace(p3_spectral, comm=comm), optimal)
    aux = analysis.aux_sequences(trace, p3_problem, p3_spectral, optimal)
    assert aux.dual_ref_residual <= analysis.RECON_RTOL * p3_spectral.eig_gram.max * np.linalg.norm(aux.dual_ref)


def test_dual_ref_residual_check_raises_on_doctored_symbol(k3_problem, k3_spectral, k3_optimal):
    # K3 is circulant: W^+ runs by np.fft on P's symbol and reads no W, so
    # one doctored symbol entry gives a wrong W^+, which the residual, taken
    # by two P products, catches
    comm = replace(k3_problem.comm)  # the same slots, with no route chosen yet
    symbol = graph._symbol(comm).copy()
    symbol[1] *= 1.1
    with mock.patch.object(graph, "_symbol", return_value=symbol):
        comm.route  # made from the doctored symbol
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=3))
    with pytest.raises(DegenerateSpectrumError):
        analysis.aux_sequences(trace, k3_problem, replace(k3_spectral, comm=comm), k3_optimal)
    assert "W" not in vars(comm)
    aux = analysis.aux_sequences(trace, k3_problem, k3_spectral, k3_optimal)
    assert aux.dual_ref_residual <= analysis.RECON_RTOL * k3_spectral.eig_gram.max * np.linalg.norm(aux.dual_ref)


def test_contraction_gain_k3(k3_spectral):
    assert analysis.contraction_gain(1.0, 1.0, 1.0, 0.5, k3_spectral) == pytest.approx(0.1, abs=1e-12)
    beta = analysis.balance_star(1.0, 1.0, 1.0, k3_spectral)
    assert beta == pytest.approx(0.9375, abs=1e-13)
    assert analysis.contraction_gain(1.0, 1.0, 1.0, beta, k3_spectral) == pytest.approx(
        K3_GAIN_AT_C1, abs=1e-12
    )


def test_contraction_gain_validation(k3_spectral):
    with pytest.raises(InvalidBetaError):
        analysis.contraction_gain(1.0, 1.0, 1.0, 1.0, k3_spectral)
    with pytest.raises(InvalidCError):
        analysis.contraction_gain(1.0, 1.0, -1.0, 0.5, k3_spectral)


@pytest.mark.parametrize(
    "nu,lip",
    [(math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (math.inf, math.inf), (0.0, 1.0), (2.0, 1.0)],
)
def test_curvature_validation_refuses_nan_and_inf(k3_spectral, nu, lip):
    # nan passes every comparison that guards with `<=`/`<` negated
    for call in (
        lambda: analysis.contraction_gain(nu, lip, 1.0, 0.5, k3_spectral),
        lambda: analysis.optimize_rate(nu, lip, k3_spectral),
    ):
        with pytest.raises(MissingCurvatureMetadataError, match="need 0 < nu <= L"):
            call()


def test_min_terms_equal_at_balance_star(k3_spectral):
    for c in (0.1, 1.0, 7.3):
        beta = analysis.balance_star(1.0, 2.0, c, k3_spectral)
        lam_min = k3_spectral.min_pos_eig_gram
        lam_max = k3_spectral.max_eig_metric
        term1 = 2.0 * beta * 1.0 / (c * lam_max * (1.0 + 2.0 / lam_min))
        term2 = (1.0 - beta) * c * lam_min / 2.0
        assert abs(term1 - term2) <= 1e-12


def test_optimize_rate_k3(k3_spectral):
    cert = analysis.optimize_rate(1.0, 1.0, k3_spectral)
    assert cert.best_penalty == pytest.approx(K3_BEST_PENALTY, rel=1e-10)
    assert cert.best_gain == pytest.approx(K3_BEST_GAIN, rel=1e-12)
    assert cert.best_rate == pytest.approx(1.0 / (1.0 + K3_BEST_GAIN), rel=1e-12)
    assert cert.best_balance == pytest.approx(0.5, abs=1e-10)
    at_c1 = analysis.optimize_rate(1.0, 1.0, k3_spectral, c=1.0)
    assert at_c1.gain == pytest.approx(K3_GAIN_AT_C1, abs=1e-12)
    assert at_c1.rate == pytest.approx(1.0 / 1.1875, abs=1e-12)


def test_optimize_rate_stub_values():
    cert = analysis.optimize_rate(1.0, 1.0, spectral_stub(1.0, 2.0))
    assert cert.best_gain == pytest.approx(0.5 * math.sqrt(2.0 / 6.0), rel=1e-12)
    assert cert.best_rate == pytest.approx(1.0 / (1.0 + 0.28867513459481287), rel=1e-9)


def test_gain_scales_with_condition_number(k3_spectral):
    base = analysis.optimize_rate(1.0, 1.0, k3_spectral).best_gain
    worse = analysis.optimize_rate(1.0, 4.0, k3_spectral).best_gain
    assert worse == pytest.approx(base / 2.0, rel=1e-12)


def test_gain_monotonicity():
    for lam_min in (0.5, 1.0, 2.0):
        gains = [
            analysis.optimize_rate(1.0, kappa, spectral_stub(lam_min, 10.0)).best_gain
            for kappa in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))
    gains = [
        analysis.optimize_rate(1.0, 1.0, spectral_stub(lam_min, 10.0)).best_gain
        for lam_min in (0.25, 0.5, 1.0, 2.0)
    ]
    assert all(a < b for a, b in zip(gains, gains[1:]))


def test_numeric_optimizer_matches_closed_form_random():
    # the closed forms against a golden-section search over log c, with kappa up to 1e6
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 20)), float(rng.uniform(0.1, 0.6)))
        sd = compute_spectral_data(laplacian(g))
        nu = float(rng.uniform(0.05, 5.0))
        lip = nu * 10.0 ** float(rng.uniform(0.0, 6.0))
        cert = analysis.optimize_rate(nu, lip, sd)
        penalty, gain = reference_best_penalty(nu, lip, sd)
        assert gain == pytest.approx(cert.best_gain, rel=1e-12)
        assert math.log(penalty) == pytest.approx(math.log(cert.best_penalty), abs=1e-6)
        num = analysis.contraction_gain(nu, lip, cert.best_penalty, cert.best_balance, sd)
        assert num == pytest.approx(cert.best_gain, rel=1e-9)


def test_sublinear_bounds_k3_constants(k3_spectral, k3_optimal):
    bounds = analysis.sublinear_bounds(math.sqrt(2.0), k3_spectral, k3_optimal.x_star, 1.0)
    assert bounds.x_star_norm_sq == pytest.approx(12.0)
    for T in (1, 10, 313, 1000):
        assert T * bounds.objective_bound(T) == pytest.approx(112.0 / 3.0, rel=1e-12)
        assert T * bounds.feasibility_bound(T) == pytest.approx(113.0 / 3.0, rel=1e-12)


def test_sublinear_bounds_zero_subgradient(k3_spectral, k3_optimal):
    bounds = analysis.sublinear_bounds(0.0, k3_spectral, k3_optimal.x_star, 2.0)
    assert bounds.objective_bound(10) == pytest.approx(2.0 / 20.0 * 12.0 * 6.0)


def test_sublinear_check_k3(k3_problem, k3_spectral, k3_optimal):
    agg = aggregate(k3_problem, k3_optimal)
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=300))
    table = trace_table(trace, k3_problem, k3_spectral, k3_optimal)
    bounds = analysis.sublinear_bounds(agg.subgrad_bound, k3_spectral, k3_optimal.x_star, 1.0)
    obj, feas = analysis.sublinear_check(table, bounds)
    assert obj.passed and feas.passed and obj.judged == feas.judged == 300
    ts = table["t"]
    assert np.all(np.abs(table["ergodic_obj_gap"]) <= bounds.objective_bound(ts) + 1e-9)
    assert np.all(table["feasibility"] <= bounds.feasibility_bound(ts) + 1e-9)


def test_sublinear_check_l1_instance(p3):
    rows = quadratic_rows(np.array([[-1.0], [0.0], [2.0]]), 1.0, tau=0.5)
    prob = NetworkProblem(graph=p3, objectives=rows)
    sd = compute_spectral_data(prob.comm)
    opt = central_solve(prob)
    agg = aggregate(prob, opt)
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=400))
    bounds = analysis.sublinear_bounds(agg.subgrad_bound, sd, opt.x_star, 1.0)
    obj, feas = analysis.sublinear_check(trace_table(trace, prob, sd, opt), bounds)
    assert obj.passed and feas.passed


def test_sublinear_check_detects_violation(k3_problem, k3_spectral, k3_optimal):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=50))
    shrunk = analysis.SublinearBound(
        subgrad_bound=0.0,
        min_pos_eig_gram=k3_spectral.min_pos_eig_gram,
        max_eig_metric=k3_spectral.max_eig_metric,
        x_star_norm_sq=1e-6,
        penalty=1.0,
    )
    obj, _ = analysis.sublinear_check(trace_table(trace, k3_problem, k3_spectral, k3_optimal), shrunk)
    # the worst round is the first, whose ergodic gap is F(x(1)) - F* = 29/7
    assert not obj.passed and obj.worst_t == 1 and obj.value == pytest.approx(29.0 / 7.0, rel=1e-12)


def test_checks_report_worst_rounds(k3_spectral, k3_optimal):
    # K3 envelopes at U = sqrt(2), c = 1: 112/(3t) and 113/(3t)
    bounds = analysis.sublinear_bounds(math.sqrt(2.0), k3_spectral, k3_optimal.x_star, 1.0)
    table = {
        "t": np.arange(1, 5),
        "ergodic_obj_gap": np.array([-1.0, -1.0, -1.0, -20.0]),
        "feasibility": np.ones(4),
        "contraction_ratio": np.array([0.5, math.nan, 0.9, 0.7]),
    }
    obj, feas = analysis.sublinear_check(table, bounds)
    con = analysis.contraction_check(table, 0.8)
    assert not obj.passed and obj.worst_t == 4 and obj.value == 20.0
    assert obj.bound == bounds.objective_bound(4)
    assert feas.passed and feas.worst_t == 4 and feas.worst_margin < 0.0
    # the nan ratio is not judged; t=3 exceeds the bound
    assert not con.passed and con.worst_t == 3 and con.judged == 3
    table["feasibility"][1] = math.nan
    _, nan_feas = analysis.sublinear_check(table, bounds)
    assert not nan_feas.passed and nan_feas.worst_t == 2


def test_gap_inequality_both_references(k3_problem, k3_spectral, k3_optimal):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=120))
    aux = analysis.aux_sequences(trace, k3_problem, k3_spectral, k3_optimal)
    m0 = gap_inequality_check(trace, k3_spectral, k3_optimal, k3_problem, 1.0)
    mref = gap_inequality_check(trace, k3_spectral, k3_optimal, k3_problem, 1.0, r=aux.dual_ref)
    assert np.all(m0 >= -1e-9)
    assert np.all(mref >= -1e-9)


def test_contraction_ratios_judge_every_non_finite_distance():
    # nan only after a finite distance below the floor; a nan or infinite
    # distance on either side of a ratio makes it inf, which is judged and fails
    got = analysis.contraction_ratios(np.array([4.0, 2.0, math.nan, 1.0, math.inf, 0.5]))
    np.testing.assert_array_equal(got, [0.5, math.inf, math.inf, math.inf, 0.0])
    got = analysis.contraction_ratios(np.array([1.0, 1e-30, 0.5, -0.0, math.nan]))
    np.testing.assert_array_equal(got, [1e-30, math.nan, 0.0, math.nan])
    table = {"t": np.arange(1, 6), "contraction_ratio": analysis.contraction_ratios(np.array([1.0, 0.5, math.nan, 1.0, 0.5, 0.2]))}
    v = analysis.contraction_check(table, 0.9)
    assert (v.passed, v.judged, v.worst_t, v.value) == (False, 5, 2, math.inf)


def test_contraction_check_certified_rates(k3_problem, k3_spectral, k3_optimal):
    for c, gain in ((1.0, K3_GAIN_AT_C1), (K3_BEST_PENALTY, K3_BEST_GAIN)):
        cert = analysis.optimize_rate(1.0, 1.0, k3_spectral, c=c)
        assert cert.gain == pytest.approx(gain, rel=1e-9)
        trace = admm.run(k3_problem, admm.RunConfig(c=c, T=150))
        table = trace_table(trace, k3_problem, k3_spectral, k3_optimal)
        assert analysis.contraction_check(table, cert.rate).passed
        ratios = table["contraction_ratio"]
        assert np.all(ratios[~np.isnan(ratios)] <= cert.rate + 1e-9)


def test_contraction_check_skips_at_fixed_point(k3, k3_spectral):
    prob = NetworkProblem(graph=k3, objectives=quadratic_rows(np.full((3, 1), 4.0)))
    opt = central_solve(prob)
    init = (np.full((3, 1), 4.0), np.zeros((3, 1)), np.zeros((3, 1)))
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=10, init=init))
    table = trace_table(trace, prob, k3_spectral, opt)
    cert = analysis.optimize_rate(1.0, 1.0, k3_spectral, c=1.0)
    v = analysis.contraction_check(table, cert.rate)
    assert v.passed and v.judged == 0 and v.worst_t == 0
    assert np.all(np.isnan(table["contraction_ratio"]))


def test_contraction_check_fails_on_absurd_gain(k3_problem, k3_spectral, k3_optimal):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=20))
    table = trace_table(trace, k3_problem, k3_spectral, k3_optimal)
    absurd = 1.0 / (1.0 + 1e6)
    v = analysis.contraction_check(table, absurd)
    assert not v.passed and v.bound == absurd and v.worst_margin > analysis.BOUND_SLACK


def test_laplacian_bounds_k3(k3):
    rep = analysis.laplacian_network_bounds(compute_spectral_data(laplacian(k3)), nu=1.0, lipschitz=1.0)
    assert rep.sandwich_low == pytest.approx(3.0)
    assert rep.sandwich_high == pytest.approx(3.0)
    assert rep.metric_eig_bound == pytest.approx(6.0 + 16.0 / 3.0)
    assert rep.relaxed_metric_eig == pytest.approx(16.0)
    assert rep.complexity_lhs == pytest.approx(10.0 / 3.0)
    assert rep.complexity_coeff == pytest.approx(128.0 / 9.0)
    assert rep.ok and rep.violated == ()


@pytest.mark.parametrize("kind,n,d", [("circulant", 200, 20), ("cycle", 300, None), ("path", 50, None)])
def test_laplacian_bounds_name_the_failing_relation(kind, n, d):
    # lam_max (2 + lam_min)/lam_min^2 grows like 1/a(G)^4, 16 d_max^4/(d_min a(G)^2) like 1/a(G)^2
    rep = analysis.laplacian_network_bounds(compute_spectral_data(laplacian(generate_graph(kind, n, d=d))))
    assert rep.violated == ("complexity",) and not rep.ok
    assert rep.complexity_lhs > rep.complexity_coeff


@pytest.mark.parametrize("d", [20, 100, 300])
def test_relabeled_circulant_keeps_the_network_verdicts(d):
    # a d-regular graph makes both sandwich relations equalities; relabeled,
    # the circulant's spectra are no longer closed forms but bounds (or, where
    # a bound would be looser than BOUND_RTOL, eigvalsh), and no relation flips
    g = generate_graph("circulant", 600, d=d)
    h = build_graph(600, np.random.default_rng(d).permutation(600)[g.edges])
    assert compute_spectral_data(laplacian(g)).eig_gram.kind == spectral.CLOSED_FORM
    relabeled = compute_spectral_data(laplacian(h))
    assert spectral.CLOSED_FORM not in (relabeled.eig_gram.kind, relabeled.eig_metric.kind, relabeled.connectivity[1])
    if d == 300:
        assert relabeled.eig_gram.kind == relabeled.connectivity[1] == spectral.CERTIFIED
    original = compute_spectral_data(laplacian(g))
    assert analysis.laplacian_network_bounds(relabeled).violated == analysis.laplacian_network_bounds(original).violated


def test_laplacian_bounds_p3(p3):
    sd = compute_spectral_data(laplacian(p3))
    rep = analysis.laplacian_network_bounds(sd)
    assert rep.sandwich_low == pytest.approx(1.0 / 3.0)
    assert rep.sandwich_high == pytest.approx(0.5)
    assert sd.min_pos_eig_gram == pytest.approx(0.5, abs=1e-12)
    assert rep.ok


def test_laplacian_bounds_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(4, 30)), float(rng.uniform(0.1, 0.5)))
        assert analysis.laplacian_network_bounds(compute_spectral_data(laplacian(g))).ok


def test_empirical_rate_beats_certificate(k3_problem, k3_spectral, k3_optimal):
    cert = analysis.optimize_rate(1.0, 1.0, k3_spectral)
    trace = admm.run(k3_problem, admm.RunConfig(c=cert.best_penalty, T=120))
    table = trace_table(trace, k3_problem, k3_spectral, k3_optimal)
    assert analysis.contraction_check(table, cert.rate).passed
    ratios = table["contraction_ratio"]
    fitted = float(np.exp(np.mean(np.log(ratios[~np.isnan(ratios)]))))
    assert fitted <= cert.rate + 1e-9


# --- the whole-trace pass against per-round loops --------------------------


def mixed_custom_problem():
    """Quadratic rows at d = 3 with custom per-row weights and per-row taus, some of them 0, on a circulant graph."""
    g = generate_graph("circulant", 7, d=4)
    rng = np.random.default_rng(3)
    rows = QuadraticRows(
        weight=rng.uniform(0.5, 2.0, size=(7, 1)),
        target=rng.normal(scale=2.0, size=(7, 3)),
        tau=np.array([[0.4], [0.0], [0.4], [0.8], [0.0], [0.2], [0.4]]),
    )
    return NetworkProblem(graph=g, objectives=rows)


def gram_sqrt(spectral):
    """Q = W^(1/2) from eigh; the smallest eigenvalue, that of null(W) = span{1}, is zeroed exactly so that Q 1 = 0."""
    vals, vecs = np.linalg.eigh(spectral.comm.W)
    roots = np.sqrt(np.clip(vals, 0.0, None))
    roots[0] = 0.0
    return (vecs * roots) @ vecs.T


def metric_block(spectral):
    """M - W as a dense matrix, built the plain way: the matrix stores only W and diag(M)."""
    return np.diag(spectral.comm.col_norms_sq) - spectral.comm.W


def table_by_rounds(trace, problem, spectral, optimal, aux):
    """The per-round table, one round at a time with scalar objective values."""

    def F(X):
        return sum(f.value(x) for f, x in zip(per_node(problem.objectives), X))

    Q = gram_sqrt(spectral)
    q_ref = Q @ aux.dual_ref
    G = metric_block(spectral)

    def metric_dist_sq(run_sum, x):
        r = run_sum - q_ref
        dx = x - optimal.x_star
        return float(np.sum(r * r)) + float(np.sum(dx * (G @ dx)))

    x_sum = np.zeros_like(trace.xs[0])
    run_sum = Q @ trace.xs[0]
    prev = metric_dist_sq(run_sum, trace.xs[0])
    rows = []
    for t in range(1, trace.T + 1):
        x = trace.xs[t]
        x_sum = x_sum + x
        run_sum = run_sum + Q @ x
        erg = x_sum / t
        dist = metric_dist_sq(run_sum, x)
        rows.append(
            {
                "t": t,
                "obj_gap": F(x) - optimal.f_star,
                "ergodic_obj_gap": F(erg) - optimal.f_star,
                "feasibility": float(np.linalg.norm(Q @ erg)),
                "dist_sq": float(np.sum((x - optimal.x_star) ** 2)),
                "gnorm_sq": dist,
                "contraction_ratio": dist / prev if prev >= analysis.RATIO_FLOOR else math.nan,
                "messages": t * trace.accounting.messages_per_round,
            }
        )
        prev = dist
    return rows


@pytest.mark.parametrize("engine", ["node", "edge"])
def test_trace_table_matches_per_round_loop(engine):
    prob = mixed_custom_problem()
    sd = compute_spectral_data(prob.comm)
    opt = central_solve(prob)
    trace = admm.run(prob, admm.RunConfig(c=0.7, T=30, engine=engine))
    aux = analysis.aux_sequences(trace, prob, sd, opt)
    table = reporting.trace_rows(aux, trace.accounting.messages_per_round)
    rows = table_by_rounds(trace, prob, sd, opt, aux)
    assert tuple(table) == reporting.TRACE_COLUMNS
    for key in reporting.TRACE_COLUMNS:
        want = np.array([row[key] for row in rows])
        if key in reporting.INT_COLUMNS:
            assert table[key].dtype.kind == "i"
            np.testing.assert_array_equal(table[key], want)
        else:
            np.testing.assert_allclose(table[key], want, rtol=1e-12, atol=1e-12, err_msg=key)


# four blocks of rounds, the last one part-full
MULTI_BLOCK_T = 3 * admm.SWEEP_ROUNDS + admm.SWEEP_ROUNDS // 3


def l1_rows_problem():
    """Quadratic rows with an l1 term at d = 3, the closed-form objective of the l1_quadratic config kind."""
    g = generate_graph("circulant", 9, d=4)
    rng = np.random.default_rng(5)
    rows = quadratic_rows(rng.normal(scale=2.0, size=(9, 3)), rng.uniform(0.5, 2.0, size=9), tau=0.4)
    return NetworkProblem(graph=g, objectives=rows)


@pytest.mark.parametrize("engine", ["node", "edge"])
@pytest.mark.parametrize("make_problem", [mixed_custom_problem, l1_rows_problem])
def test_trace_table_across_blocks(make_problem, engine):
    prob = make_problem()
    sd = compute_spectral_data(prob.comm)
    opt = central_solve(prob)
    trace = admm.run(prob, admm.RunConfig(c=0.7, T=MULTI_BLOCK_T, engine=engine))
    aux = analysis.aux_sequences(trace, prob, sd, opt)
    table = reporting.trace_rows(aux, trace.accounting.messages_per_round)
    # the columns without W have the bits of one pass over the whole stack
    np.testing.assert_array_equal(table["obj_gap"], prob.f_value(trace.xs[1:]) - opt.f_star)
    np.testing.assert_array_equal(table["ergodic_obj_gap"], prob.f_value(trace.ergodic[1:]) - opt.f_star)
    dev = trace.xs[1:] - opt.x_star
    dev *= dev
    np.testing.assert_array_equal(table["dist_sq"], dev.sum(axis=(1, 2)))
    rows = table_by_rounds(trace, prob, sd, opt, aux)
    for key in ("gnorm_sq", "feasibility"):
        want = np.array([row[key] for row in rows])
        np.testing.assert_allclose(table[key], want, rtol=1e-12, atol=1e-12, err_msg=key)
    # the recurrence residuals, which check does not ask for, leave the bits of the other columns as they are
    plain = analysis.sweep(admm.trace_blocks(trace), prob, sd, opt, 0.7, trace.T)
    assert plain.recurrence is None
    for key in ("metric_dist_sq", "feasibility", "obj_gap", "ergodic_obj_gap", "dist_sq"):
        np.testing.assert_array_equal(getattr(plain, key), getattr(aux, key), err_msg=key)


BOUNDARY_T = (1, 63, 64, 65, 129)  # one round, a block short of full, full, one past, two blocks and one round


@pytest.mark.parametrize("engine", ["node", "edge"])
@pytest.mark.parametrize("make_problem", [l1_rows_problem, mixed_custom_problem], ids=["closed-form", "mixed-custom"])
def test_streamed_columns_match_the_collector_at_block_boundaries(make_problem, engine):
    # the table and run's recurrence maximum, streamed from admm.rounds,
    # against the same columns of the admm.run collector; the collector's
    # columns without W against one pass over its whole stack
    prob = make_problem()
    sd = compute_spectral_data(prob.comm)
    opt = central_solve(prob)
    for T in BOUNDARY_T:
        config = admm.RunConfig(c=0.7, T=T, engine=engine)
        streamed = analysis.sweep(admm.rounds(prob, config), prob, sd, opt, 0.7, T, recurrence=True)
        trace = admm.run(prob, config)
        collected = analysis.aux_sequences(trace, prob, sd, opt)
        messages = trace.accounting.messages_per_round
        want = reporting.trace_rows(collected, messages)
        for key, got in reporting.trace_rows(streamed, messages).items():
            np.testing.assert_array_equal(got, want[key], err_msg=f"T={T} {key}")
        assert np.max(streamed.recurrence) == np.max(collected.recurrence) <= 1e-8
        np.testing.assert_array_equal(want["obj_gap"], prob.f_value(trace.xs[1:]) - opt.f_star)
        np.testing.assert_array_equal(want["ergodic_obj_gap"], prob.f_value(trace.ergodic[1:]) - opt.f_star)


def poison_prox(monkeypatch, node: int, t: int, value: float = math.nan):
    """Make every prox bound from here on write ``value`` to ``node`` on its t-th call.

    Each engine calls its bound prox once per round, so call t is round t.
    """
    bind = NetworkProblem.bind_prox

    def binding(self, rho):
        prox, calls = bind(self, rho), []

        def poisoned(V, out):
            calls.append(1)
            prox(V, out)
            if len(calls) == t:
                out[node] = value
            return out

        return poisoned

    monkeypatch.setattr(NetworkProblem, "bind_prox", binding)


@pytest.mark.parametrize("engine", ["node", "edge"])
@pytest.mark.parametrize("make_problem", [l1_rows_problem, mixed_custom_problem], ids=["closed-form", "mixed-custom"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_round_in_the_second_block_is_named(monkeypatch, make_problem, engine, value):
    # the block is tested once, after its rounds: the error names round 70
    # and its node, and the rounds run past it, where inf - inf would warn,
    # let no warning out
    prob = make_problem()
    poison_prox(monkeypatch, 3, 70, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIterateError) as info:
            for _ in admm.rounds(prob, admm.RunConfig(c=0.7, T=129, engine=engine)):
                pass
    assert (info.value.node, info.value.t) == (3, 70)


def recurrence_by_rounds(trace, spectral):
    hs = implicit_subgradients(trace, spectral.comm)
    Minv = 1.0 / spectral.comm.col_norms_sq[:, None]
    W = spectral.comm.W
    x_sum = np.zeros_like(trace.xs[0])
    out = []
    for t in range(trace.T):
        x_sum = x_sum + trace.xs[t]
        pred = -(1.0 / trace.c) * Minv * hs[t] + trace.xs[t] - Minv * (W @ trace.xs[t]) - Minv * (W @ x_sum)
        out.append(float(np.max(np.abs(trace.xs[t + 1] - pred))))
    return np.array(out)


def assert_recurrence_matches_per_round_loop(trace, problem, spectral, corrupt_from):
    scale = float(np.max(np.abs(trace.xs)))
    clean = recurrence_residuals(trace, problem, spectral)
    np.testing.assert_allclose(clean, recurrence_by_rounds(trace, spectral), rtol=0, atol=1e-12 * scale)
    trace.xs[corrupt_from:, 2, 1] += 0.05  # residuals of order 0.05 from round corrupt_from - 1 on
    corrupted = recurrence_residuals(trace, problem, spectral)
    assert float(np.max(corrupted)) > 1e-3
    np.testing.assert_allclose(corrupted, recurrence_by_rounds(trace, spectral), rtol=1e-12, atol=1e-12 * scale)


def test_recurrence_residuals_match_per_round_loop():
    prob = mixed_custom_problem()
    sd = compute_spectral_data(prob.comm)
    assert_recurrence_matches_per_round_loop(admm.run(prob, admm.RunConfig(c=0.7, T=30)), prob, sd, 12)


@pytest.mark.parametrize("engine", ["node", "edge"])
def test_recurrence_residuals_across_blocks(engine):
    prob = mixed_custom_problem()
    sd = compute_spectral_data(prob.comm)
    trace = admm.run(prob, admm.RunConfig(c=0.7, T=MULTI_BLOCK_T, engine=engine))
    assert_recurrence_matches_per_round_loop(trace, prob, sd, 2 * admm.SWEEP_ROUNDS - 5)


def test_analysis_holds_no_stack_sized_temporary():
    """The traced peak of streaming a run (engine plus analysis, as `run` takes it), against a ceiling that does not grow with T.

    Circulant n=200, d=1, in units of one (SWEEP_ROUNDS + 1, n, d) block:
    the engine's three x, y and p buffers, the sweep's work array and
    recurrence W part, and the block temporaries of its W product, the
    objective and the recurrence's P' product read 7-8 blocks at both T,
    plus the O(T) columns. W and the kept dense P, made once per matrix,
    exist before the rounds start, as they do in ``run``. Keeping the
    (T+1, n, d) stacks, as the command path did, read 34 blocks at T=500
    and 187 at T=3000.
    """
    prob = estimation_problem(generate_graph("circulant", 200, d=20))
    sd = compute_spectral_data(prob.comm)
    opt = central_solve(prob)
    c = analysis.optimize_rate(1.0, 1.0, sd).penalty
    sd.comm.W, sd.comm.kept_dense
    block_bytes = (admm.SWEEP_ROUNDS + 1) * prob.n * prob.dimension * 8
    for T in (500, 3000):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            blocks = admm.rounds(prob, admm.RunConfig(c=c, T=T))
            aux = analysis.sweep(blocks, prob, sd, opt, c, T, recurrence=True)
            reporting.trace_rows(aux, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        columns = 10 * 8 * (T + 1)  # the six columns of the sweep and the table's own four
        assert peak - columns <= 10 * block_bytes, (T, peak)


def gap_margins_by_rounds(trace, spectral, optimal, problem, c, r):
    """rhs - lhs of the one-step gap inequality, one round at a time."""

    G = metric_block(spectral)

    def metric_sq(rv, x):
        return float(np.sum(rv * rv)) + float(np.sum(x * (G @ x)))

    Q = gram_sqrt(spectral)
    r = Q @ r  # the dual reference of an x-space reference
    running = np.cumsum(Q @ trace.xs, axis=0)
    margins, rhss = [], []
    for t in range(trace.T):
        x0, x1 = trace.xs[t], trace.xs[t + 1]
        dist0 = metric_sq(running[t] - r, x0 - optimal.x_star)
        dist1 = metric_sq(running[t + 1] - r, x1 - optimal.x_star)
        step = metric_sq(running[t] - running[t + 1], x0 - x1)
        f1 = sum(f.value(x) for f, x in zip(per_node(problem.objectives), x1))
        lhs = (2.0 / c) * (f1 - optimal.f_star) + 2.0 * float(np.sum(r * (Q @ x1)))
        rhs = dist0 - dist1 - step
        margins.append(rhs - lhs)
        rhss.append(rhs)
    return np.array(margins), np.array(rhss)


def assert_gap_margins_match_per_round_loop(T, corrupt_from):
    prob = mixed_custom_problem()
    sd = compute_spectral_data(prob.comm)
    opt = central_solve(prob)
    trace = admm.run(prob, admm.RunConfig(c=0.7, T=T))
    aux = analysis.aux_sequences(trace, prob, sd, opt)
    for r in (np.zeros_like(opt.x_star), aux.dual_ref):
        want, rhs = gap_margins_by_rounds(trace, sd, opt, prob, 0.7, r)
        got = gap_inequality_check(trace, sd, opt, prob, 0.7, r=r)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(rhs))))

    # one corrupted node breaks the inequality at several rounds, the first of them negative in the sweep too
    trace.xs[corrupt_from:, 2, 1] += 0.05
    r = np.zeros_like(opt.x_star)
    margins, rhs = gap_margins_by_rounds(trace, sd, opt, prob, 0.7, r)
    violating = np.flatnonzero(margins < -analysis.BOUND_SLACK * np.maximum(1.0, np.abs(rhs)))
    assert violating.size >= 2 and violating[0] != np.argmin(margins)
    got = gap_inequality_check(trace, sd, opt, prob, 0.7, r=r)
    assert np.flatnonzero(got < -analysis.BOUND_SLACK * np.maximum(1.0, np.abs(rhs)))[0] == violating[0]


def test_gap_inequality_matches_per_round_loop():
    assert_gap_margins_match_per_round_loop(30, 12)


def test_gap_inequality_across_blocks():
    # the two block sweeps of conftest.gap_inequality_check stay aligned across block seams and a part-full last block
    assert_gap_margins_match_per_round_loop(MULTI_BLOCK_T, 2 * admm.SWEEP_ROUNDS - 5)


def test_quadratic_forms_are_centered():
    """gnorm_sq and feasibility against |Q v|^2 and |Q v| with Q built from eigh.

    On an irregular graph W 1 = 0 holds only up to rounding, so a form
    v' W v loses digits when v has a large consensus part: here the running
    sums (about t x*, x* = 100.5) and the ergodic means (about x*) dwarf
    their Q parts late in the run. Without removing the node mean first,
    gnorm_sq is off by ~1e-5 and feasibility by ~5e-9 relative.
    """
    g = generate_graph("erdos_renyi", 200, p=0.05, seed=3)
    prob = estimation_problem(g)
    sd = compute_spectral_data(prob.comm)
    opt = central_solve(prob)
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=1000))
    aux = analysis.aux_sequences(trace, prob, sd, opt)
    table = reporting.trace_rows(aux, trace.accounting.messages_per_round)
    Q = gram_sqrt(sd)
    r = np.cumsum(Q @ trace.xs, axis=0)[1:] - Q @ aux.dual_ref
    dx = trace.xs[1:] - opt.x_star
    gnorm_sq = np.sum(r * r, axis=(1, 2)) + np.sum(dx * (metric_block(sd) @ dx), axis=(1, 2))
    feasibility = np.linalg.norm(Q @ trace.ergodic[1:], axis=(1, 2))
    np.testing.assert_allclose(table["gnorm_sq"], gnorm_sq, rtol=analysis.REPLAY_RTOL, atol=0)
    np.testing.assert_allclose(table["feasibility"], feasibility, rtol=analysis.REPLAY_RTOL, atol=0)


@pytest.mark.xfail(
    strict=True,
    reason="the recurrence residual recovers h(x(t+1)) from x(t+1) itself, so a wrong x-update cancels "
    "and reads about 5e-16; it needs a check of the x-update (prox optimality at its center)",
)
def test_recurrence_check_sees_a_wrong_prox(monkeypatch):
    # tripwire: the bound prox replaced by 0.5 prox + 3 must make the recurrence check fail
    bind = QuadraticRows.bind

    def corrupted(self, rho):
        prox = bind(self, rho)

        def wrong(V, out):
            prox(V, out)
            out *= 0.5
            out += 3.0
            return out

        return wrong

    prob = estimation_problem(generate_graph("complete", 5))
    sd, opt = compute_spectral_data(prob.comm), central_solve(prob)
    monkeypatch.setattr(QuadraticRows, "bind", corrupted)
    config = admm.RunConfig(c=1.0, T=50)
    aux = analysis.sweep(admm.rounds(prob, config), prob, sd, opt, config.c, config.T, recurrence=True)
    assert float(np.max(aux.recurrence)) > analysis.RECURRENCE_LIMIT
