import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from admmnet.config import build_problem, parse_experiment_config
from admmnet.errors import DimensionMismatchError, MissingCurvatureMetadataError
from admmnet.graph import generate_graph, laplacian
from admmnet.objectives import (
    NetworkProblem,
    QuadraticRows,
    aggregate,
    central_solve,
    estimation_rows,
    quadratic_rows,
    require_curvature,
    soft_threshold,
)

from conftest import Quadratic, reference_oracle, rows_of


def quad(a, w=1.0):
    return Quadratic(target=np.atleast_1d(np.asarray(a, dtype=float)), weight=w)


def l1quad(a, w=1.0, tau=0.5):
    return Quadratic(target=np.atleast_1d(np.asarray(a, dtype=float)), weight=w, tau=tau)


def prox_residual(f, v, rho, p):
    """First-order optimality violation of a candidate prox point."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    smooth = f.smooth_gradient(p) + rho * (p - v)
    tau = f.tau
    if tau == 0.0:
        return float(np.linalg.norm(smooth))
    worst = 0.0
    for j in range(p.shape[0]):
        if p[j] != 0.0:
            worst = max(worst, abs(smooth[j] + tau * np.sign(p[j])))
        else:
            worst = max(worst, max(0.0, abs(smooth[j]) - tau))
    return worst


def test_quadratic_values():
    f = quad(2.0)
    assert f.value(0.0) == 2.0
    assert f.gradient(0.0) == pytest.approx(-2.0)
    assert f.value(2.0) == 0.0
    assert f.gradient(2.0) == pytest.approx(0.0)


def test_l1_quadratic_values():
    f = l1quad(0.0, w=1.0, tau=0.5)
    assert f.value(1.0) == pytest.approx(1.0)  # 0.5 + 0.5
    assert f.gradient(1.0) == pytest.approx(1.5)


def test_prox_quadratic_closed_form():
    f = quad(2.0)
    assert f.prox(0.0, 6.0) == pytest.approx(2.0 / 7.0)


def test_prox_soft_threshold():
    f = l1quad(0.0, w=0.0, tau=0.5)
    assert f.prox(1.0, 1.0) == pytest.approx(0.5)
    assert f.prox(0.2, 1.0) == pytest.approx(0.0)


def test_prox_large_rho_returns_center():
    for f in (quad(2.0), l1quad(1.0), l1quad(-3.0, w=2.0, tau=1.0)):
        v = np.array([0.7])
        assert np.linalg.norm(f.prox(v, 1e8) - v) <= 1e-6


def test_prox_l1_matches_grid_search():
    f = l1quad(1.3, w=2.0, tau=0.7)
    rho = 3.0
    v = np.array([0.4])
    p = f.prox(v, rho)
    grid = np.linspace(-3, 3, 240_001)
    vals = 0.5 * f.weight * (grid - 1.3) ** 2 + f.tau * np.abs(grid) + 0.5 * rho * (grid - 0.4) ** 2
    assert abs(p[0] - grid[np.argmin(vals)]) <= 5e-5


@pytest.mark.parametrize("seed", range(5))
def test_prox_first_order_optimality(seed):
    rng = np.random.default_rng(seed)
    fs = [
        quad(rng.normal(size=3), w=float(rng.uniform(0.1, 4))),
        l1quad(rng.normal(size=3), w=float(rng.uniform(0.1, 4)), tau=float(rng.uniform(0, 2))),
    ]
    for f in fs:
        v = rng.normal(size=3)
        rho = float(rng.uniform(0.05, 20))
        p = f.prox(v, rho)
        assert prox_residual(f, v, rho, p) <= 1e-10 * rho * (1 + np.linalg.norm(v))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        quad([1.0, 2.0]).value(1.0)


@pytest.mark.parametrize(
    "weight,target,tau",
    [
        ((3, 1), (4, 2), None),  # fewer weights than targets: passed, then failed in f_value on numpy's broadcast
        ((4,), (4, 2), None),  # a weight vector, not a column
        ((4, 1), (4,), None),  # a target vector, not (k, d)
        ((4, 1), (4, 2), (4, 2)),  # one tau per entry, not per row
        ((4, 1), (4, 2), (3, 1)),
    ],
)
def test_rows_of_mismatched_shapes_are_refused(weight, target, tau):
    with pytest.raises(DimensionMismatchError):
        QuadraticRows(weight=np.ones(weight), target=np.zeros(target), tau=None if tau is None else np.ones(tau))


def test_problem_refuses_per_node_objectives():
    # QuadraticRows is the only objective model; a sequence is not stacked
    g = generate_graph("path", 3)
    with pytest.raises(TypeError, match="QuadraticRows"):
        NetworkProblem(graph=g, objectives=(quad(1.0), quad(2.0), quad(3.0)))


def test_problem_communicates_over_its_own_graph():
    # P is derived from the graph, not passed in, so no problem can run one
    # graph's rounds while counting another's messages: K3's P has its 9
    # slots, built once and shared by every reader
    k3 = generate_graph("complete", 3)
    prob = NetworkProblem(graph=k3, objectives=estimation_rows(3))
    want = laplacian(k3)
    assert prob.comm is prob.comm
    assert prob.comm.cols.size == k3.n + 2 * k3.m == 9
    for name in ("cols", "starts", "values"):
        assert np.array_equal(getattr(prob.comm, name), getattr(want, name))


def test_aggregate_weights(k3):
    objs = (quad(1.0, 1.0), quad(2.0, 2.0), quad(3.0, 4.0))
    prob = NetworkProblem(graph=k3, objectives=rows_of(objs))
    info = aggregate(prob)
    assert info.strong_convexity == 1.0
    assert info.lipschitz == 4.0
    assert info.condition_number == 4.0


def test_aggregate_subgrad_bound(k3_problem, k3_optimal):
    info = aggregate(k3_problem, k3_optimal)
    assert info.subgrad_bound == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert np.allclose(k3_optimal.subgrad[:, 0], [1.0, 0.0, -1.0], atol=1e-12)


def test_require_curvature_missing(p3):
    objs = (l1quad(1.0), l1quad(2.0), l1quad(3.0))
    prob = NetworkProblem(graph=p3, objectives=rows_of(objs))
    with pytest.raises(MissingCurvatureMetadataError):
        require_curvature(prob)


def test_central_solve_k3(k3_problem, k3_optimal):
    assert np.allclose(k3_optimal.x_star, 2.0, atol=1e-14)
    assert k3_optimal.f_star == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(k3_optimal.x_star - k3_optimal.x_star[0])) == 0.0


def test_central_solve_weighted():
    g = generate_graph("path", 2)
    prob = NetworkProblem(graph=g, objectives=rows_of((quad(0.0, 1.0), quad(4.0, 3.0))))
    opt = central_solve(prob)
    assert opt.x_star[0, 0] == pytest.approx(3.0, abs=1e-14)
    assert opt.f_star == pytest.approx(6.0, abs=1e-14)


def test_central_solve_consensus_trivial(k3):
    objs = tuple(quad(5.0) for _ in range(3))
    prob = NetworkProblem(graph=k3, objectives=rows_of(objs))
    opt = central_solve(prob)
    assert np.allclose(opt.x_star, 5.0)
    assert opt.f_star == 0.0
    assert np.allclose(opt.subgrad, 0.0)


def test_central_solve_l1_hand_case(p3):
    # stationarity of 3 quadratics around (-1, 0, 2) with total l1 weight
    # 1.5: the unpenalized mean 1/3 gives |sum of gradients| = 1 <= 1.5, so
    # the optimum is pinned at 0 with shared sign value 2/3
    objs = (l1quad(-1.0), l1quad(0.0), l1quad(2.0))
    prob = NetworkProblem(graph=p3, objectives=rows_of(objs))
    opt = central_solve(prob)
    assert abs(opt.x_star[0, 0]) <= 1e-13
    assert opt.residual <= 1e-12
    expected = np.array([1.0 + 1.0 / 3.0, 1.0 / 3.0, -2.0 + 1.0 / 3.0])
    assert np.allclose(opt.subgrad[:, 0], expected, atol=1e-10)


def test_central_solve_iterative_matches_closed_form(k3):
    # the oracle's proximal-gradient step must land on the pure-quadratic weighted mean
    objs = (quad(1.0, 2.0), quad(5.0, 1.0), l1quad(-2.0, w=3.0, tau=0.0))
    prob = NetworkProblem(graph=k3, objectives=rows_of(objs))
    opt = central_solve(prob)
    expected = (2.0 * 1.0 + 1.0 * 5.0 + 3.0 * -2.0) / 6.0
    assert opt.x_star[0, 0] == pytest.approx(expected, abs=1e-10)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    f = quad(rng.normal(size=4), w=1.7)
    for _ in range(20):
        x = rng.normal(size=4)
        g = f.gradient(x)
        fd = np.empty(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            fd[j] = (f.value(x + e) - f.value(x - e)) / 2e-6
        assert np.linalg.norm(fd - g) <= 1e-5 * (1 + np.linalg.norm(g))


def test_convexity_inequalities_randomized():
    rng = np.random.default_rng(3)
    f = quad(rng.normal(size=2), w=2.5)
    for _ in range(200):
        x, y = rng.normal(size=2), rng.normal(size=2)
        gx, gy = f.gradient(x), f.gradient(y)
        inner = float((gx - gy) @ (x - y))
        assert inner >= 2.5 * float((x - y) @ (x - y)) - 1e-10
        assert inner >= float((gx - gy) @ (gx - gy)) / 2.5 - 1e-10
        # subgradient inequality on the nonsmooth kind
    h = l1quad(0.3, w=1.0, tau=0.8)
    for _ in range(200):
        x, y = rng.normal(size=1), rng.normal(size=1)
        assert float(h.gradient(x) @ (x - y)) >= h.value(x) - h.value(y) - 1e-10


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-5, 5),
    st.floats(-5, 5),
    st.floats(0.1, 5),
    st.floats(0, 2),
    st.floats(0.05, 10),
)
def test_prox_nonexpansive(v1, v2, w, tau, rho):
    f = l1quad(0.7, w=w, tau=tau)
    p1, p2 = f.prox(np.array([v1]), rho), f.prox(np.array([v2]), rho)
    assert np.linalg.norm(p1 - p2) <= abs(v1 - v2) + 1e-12


def test_soft_threshold_basics():
    assert np.array_equal(soft_threshold(np.array([1.0, -1.0, 0.2]), 0.5), np.array([0.5, -0.5, 0.0]))


def test_estimation_objectives_targets():
    rows = estimation_rows(3, dimension=2)
    assert rows.target.tolist() == [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]] and rows.tau is None
    assert rows.weight.tolist() == [[1.0], [1.0], [1.0]] and len(rows) == 3 and rows.dimension == 2


def _kernel_problem(rng, n, d, kinds):
    """Objectives drawn from ``kinds`` on a circulant graph of n nodes."""
    g = generate_graph("circulant", n, d=2)
    objs = []
    for i in range(n):
        target, weight = rng.normal(scale=3.0, size=d), rng.uniform(0.5, 2.0)
        tau = 0.0 if kinds[i % len(kinds)] == "quadratic" else rng.uniform(0.0, 2.0)
        objs.append(Quadratic(target=target, weight=weight, tau=tau))
    return NetworkProblem(graph=g, objectives=rows_of(objs)), objs


@pytest.mark.parametrize("kinds", [("quadratic",), ("l1",), ("quadratic", "l1")])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("full_width", [False, True])
def test_bound_prox_matches_objective_prox_bitwise(kinds, d, full_width):
    # Quadratic nodes with and without an l1 term share one stacked closed form
    rng = np.random.default_rng(7)
    prob, objs = _kernel_problem(rng, 8, d, kinds)
    rho = rng.uniform(0.1, 10.0, size=(8, 1))
    kernel = prob.bind_prox(np.repeat(rho, d, axis=1) if full_width else rho)
    for _ in range(3):  # the kernel is reused across calls, as across rounds
        V = rng.normal(scale=3.0, size=(8, d))
        V_before = V.copy()
        out = np.full((8, d), np.nan)
        assert kernel(V, out) is out
        assert np.array_equal(V, V_before)
        want = np.array([f.prox(V[i], float(rho[i, 0])) for i, f in enumerate(objs)])
        assert np.array_equal(out, want)
        assert np.array_equal(prob.bind_prox(rho)(V, np.empty_like(V)), want)


def test_bound_prox_writes_only_out():
    rng = np.random.default_rng(3)
    prob, _ = _kernel_problem(rng, 6, 2, ("quadratic", "l1"))
    kernel = prob.bind_prox(np.full((6, 2), 1.5))
    block = rng.normal(size=(3, 6, 2))  # V and out are rows of one block
    before = block.copy()
    kernel(block[0], block[1])
    assert np.array_equal(block[0], before[0])
    assert np.array_equal(block[2], before[2])
    assert not np.array_equal(block[1], before[1])


def test_zero_tau_is_the_plain_quadratic_bitwise():
    # one class: tau = 0 must reproduce the plain quadratic's formulas exactly
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, w, rho = rng.normal(scale=5.0, size=3), float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.05, 30.0))
        x, v = rng.normal(scale=5.0, size=3), rng.normal(scale=5.0, size=3)
        diff = x - a
        for f in (Quadratic(target=a, weight=w), Quadratic(target=a, weight=w, tau=0.0)):
            assert f.kind == "quadratic" and rows_of([f]).curvature() == (w, w)
            assert f.value(x) == 0.5 * w * float(diff @ diff)
            assert np.array_equal(f.gradient(x), w * diff)
            assert np.array_equal(f.prox(v, rho), (w * a + rho * v) / (w + rho))
    assert l1quad(0.0, tau=0.5).kind == "l1_quadratic"


def test_zero_taus_stack_without_threshold_and_mix_into_one_group():
    g = generate_graph("path", 3)
    plain = NetworkProblem(graph=g, objectives=rows_of((quad(1.0), l1quad(2.0, tau=0.0), quad(3.0))))
    assert isinstance(plain.objectives, QuadraticRows) and plain.objectives.tau is None
    mixed = NetworkProblem(graph=g, objectives=rows_of((quad(1.0), l1quad(2.0, tau=0.5), quad(3.0))))
    assert mixed.objectives.tau[:, 0].tolist() == [0.0, 0.5, 0.0]
    # every tau is 0: one step of 1/sum(w) lands on the exact weighted mean
    assert central_solve(plain).x_star[0, 0] == 2.0


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_stacked_rows_match_per_node_objectives_bit_for_bit(tau):
    # the CLI's kinds hand stacked rows to the problem; the per-node
    # reference objectives stacked one row each give the same problem, and
    # the curvature reads the rows in node order
    rng = np.random.default_rng(7)
    g = generate_graph("erdos_renyi", 40, p=0.2, seed=7)
    targets, weights = rng.normal(scale=3.0, size=(40, 3)), rng.uniform(0.5, 2.0, size=40)
    rows = quadratic_rows(targets, weights, tau)
    per_node = tuple(Quadratic(target=a, weight=float(w), tau=tau) for a, w in zip(targets, weights))
    assert rows.curvature() == (min(o.weight for o in per_node), None if tau else max(o.weight for o in per_node))
    stacked, from_nodes = (NetworkProblem(graph=g, objectives=o) for o in (rows, rows_of(per_node)))
    assert stacked.objectives is rows and aggregate(stacked) == aggregate(from_nodes)
    for name in ("weight", "target", "tau"):
        a, b = getattr(stacked.objectives, name), getattr(from_nodes.objectives, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()
    a, b = central_solve(stacked), central_solve(from_nodes)
    assert a.x_star.tobytes() == b.x_star.tobytes() and a.subgrad.tobytes() == b.subgrad.tobytes()
    assert (a.f_star, a.residual) == (b.f_star, b.residual)


def _same_optimum(a, b):
    return (
        a.x_star.tobytes() == b.x_star.tobytes()
        and a.subgrad.tobytes() == b.subgrad.tobytes()
        and a.residual.hex() == b.residual.hex()
        and a.f_star.hex() == b.f_star.hex()
    )


def test_oracle_stops_at_the_rounding_floor():
    # targets of size 1e3 put the rounding floor of the residual's node-sum
    # above 1e-12: the residual of the exact step is rounding, not 0
    rng = np.random.default_rng(0)
    n, tau = 80, 0.5
    targets, weights = rng.normal(0.0, 1e3, size=(n, 3)), rng.uniform(0.5, 2.0, size=n)
    g = generate_graph("circulant", n, d=2)
    rows = quadratic_rows(targets, weights, tau)
    opt = central_solve(NetworkProblem(graph=g, objectives=rows))
    # isotropic smooth parts: the optimum soft-thresholds the weighted mean
    want = soft_threshold(weights @ targets / weights.sum(), n * tau / weights.sum())
    assert np.allclose(opt.x_star, want, rtol=1e-12, atol=0.0)
    assert 1e-12 < opt.residual <= 1e-10


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_oracle_stops_on_offset_targets(tau):
    # targets near 1e4 with a small spread: the residual stays near
    # sum(w) ulp(x*), even though every node gradient w (x - a_i) is small
    n = 20
    targets = 1e4 + 0.1 + 0.37 * np.arange(n)[:, None]
    g = generate_graph("path", n)
    objs = tuple(Quadratic(target=a, weight=1.0, tau=tau) for a in targets)
    opt = central_solve(NetworkProblem(graph=g, objectives=rows_of(objs)))
    want = soft_threshold(targets.mean(axis=0), tau)
    assert np.allclose(opt.x_star, want, rtol=4 * np.finfo(float).eps, atol=0.0)
    assert opt.residual <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.sampled_from([1, 3]), st.sampled_from([0.0, 1e4, -1e6]), st.integers(0, 10_000))
@example(n=30, d=3, offset=-1e6, seed=5445)  # a float node-sum of the gradients missed the bound by 5%
def test_oracle_on_quadratics_is_the_soft_thresholded_weighted_mean(n, d, offset, seed):
    # the smooth part of an all-Quadratic problem is isotropic with curvature
    # sum(w): x* = soft(sum(w a)/sum(w), sum(tau)/sum(w)), l1 terms or not;
    # targets are a common offset plus noise
    rng = np.random.default_rng(seed)
    targets, weights = offset + rng.normal(scale=3.0, size=(n, d)), rng.uniform(0.1, 5.0, size=n)
    taus = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, size=n))
    g = generate_graph("path", n)
    objs = tuple(Quadratic(target=a, weight=w, tau=t) for a, w, t in zip(targets, weights, taus))
    opt = central_solve(NetworkProblem(graph=g, objectives=rows_of(objs)))
    w_sum, tau_sum = math.fsum(weights), math.fsum(taus)
    mean = np.array([math.fsum(weights * targets[:, j]) for j in range(d)]) / w_sum
    eps = np.finfo(float).eps
    ulp = eps * (weights @ np.abs(targets) + tau_sum) / w_sum  # eps times the summed term sizes, over sum(w)
    assert np.all(opt.x_star == opt.x_star[0])
    assert np.all(np.abs(opt.x_star[0] - soft_threshold(mean, tau_sum / w_sum)) <= 4.0 * ulp)
    # the node-sum of the recorded subgradients is the reported residual
    size = float(np.abs(opt.subgrad).sum()) + tau_sum
    assert abs(float(np.linalg.norm(opt.subgrad.sum(axis=0))) - opt.residual) <= 4.0 * eps * size


@settings(max_examples=120, deadline=None)
@given(
    st.integers(2, 40),
    st.sampled_from([1, 3]),
    st.sampled_from([0.0, 1e4, -1e6, 1e8]),
    st.sampled_from(["none", "some", "all"]),
    st.booleans(),
    st.integers(0, 10_000),
)
@example(n=40, d=3, offset=1e8, zero_weights="some", with_tau=True, seed=0)
@example(n=7, d=1, offset=-1e6, zero_weights="all", with_tau=True, seed=1)
@example(n=2, d=3, offset=1e4, zero_weights="all", with_tau=False, seed=2)
def test_oracle_is_the_reference_loop_bit_for_bit(n, d, offset, zero_weights, with_tau, seed):
    # the closed-form step against the proximal-gradient loop it replaced:
    # the loop stops after its first step, whose arithmetic the step repeats
    rng = np.random.default_rng(seed)
    targets, weights = offset + rng.normal(scale=3.0, size=(n, d)), rng.uniform(0.1, 5.0, size=n)
    if zero_weights == "all":
        weights[:] = 0.0
    elif zero_weights == "some":
        weights[rng.random(n) < 0.3] = 0.0
    taus = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, size=n)) if with_tau else np.zeros(n)
    objs = tuple(Quadratic(target=a, weight=w, tau=t) for a, w, t in zip(targets, weights, taus))
    g = generate_graph("path", n)
    prob = NetworkProblem(graph=g, objectives=rows_of(objs))
    want, steps = reference_oracle(prob)
    assert steps == (1 if weights.any() else 0)
    assert _same_optimum(central_solve(prob), want)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["circulant-long", "dense-spectral", "edge-l1"])
def test_oracle_is_the_reference_loop_on_the_workloads(tmp_path, monkeypatch, workload, seed):
    # the benchmark's problems: one step of the reference loop, the same bits
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import config_text

    cfg = tmp_path / f"{workload}.ini"
    cfg.write_text(config_text(workload, seed))
    prob = build_problem(parse_experiment_config(cfg))
    want, steps = reference_oracle(prob)
    assert steps == 1 and _same_optimum(central_solve(prob), want)
