import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admmnet import admm, analysis, graph, reporting
from admmnet.errors import AdmmError, NonFiniteIterateError
from admmnet.graph import generate_graph, stack_apply
from admmnet.objectives import NetworkProblem, QuadraticRows, central_solve, estimation_problem, quadratic_rows
from admmnet.spectral import compute_spectral_data
from conftest import Quadratic, dense, implicit_subgradients, per_node, random_connected_graph, recurrence_residuals, rows_of

FIRST_X = np.array([1.0 / 7.0, 2.0 / 7.0, 3.0 / 7.0])
FIRST_Y = np.array([-1.0 / 7.0, 0.0, 1.0 / 7.0])


def test_first_round_k3(k3_problem):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=1))
    assert trace.T == 1
    assert np.max(np.abs(trace.xs[1][:, 0] - FIRST_X)) <= 1e-15
    assert np.max(np.abs(trace.ys[1][:, 0] - FIRST_Y)) <= 1e-15
    assert np.max(np.abs(trace.ps[1][:, 0] - FIRST_Y)) <= 1e-15


def test_consensus_fixed_point(k3):
    objs = tuple(Quadratic(target=np.array([4.0]), weight=1.0) for _ in range(3))
    prob = NetworkProblem(graph=k3, objectives=rows_of(objs))
    x0 = np.full((3, 1), 4.0)
    init = (x0, np.zeros((3, 1)), np.zeros((3, 1)))
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=20, init=init))
    assert np.max(np.abs(trace.xs - 4.0)) <= 1e-13


def test_p3_converges_to_mean(p3):
    objs = tuple(Quadratic(target=np.array([v]), weight=1.0) for v in (0.0, 0.0, 3.0))
    prob = NetworkProblem(graph=p3, objectives=rows_of(objs))
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=300))
    assert np.max(np.abs(trace.xs[-1] - 1.0)) <= 1e-4


def test_stacked_identities(p3_problem):
    trace = admm.run(p3_problem, admm.RunConfig(c=0.7, T=60))
    P = dense(p3_problem.comm)
    Dinv = np.diag(1.0 / np.array([2.0, 3.0, 2.0]))
    for t in range(1, trace.T + 1):
        assert np.max(np.abs(trace.ys[t] - Dinv @ P @ trace.xs[t])) <= 1e-12
    # zero dual init: p(t) = c * sum of y up to t
    acc = np.zeros_like(trace.ys[0])
    for t in range(1, trace.T + 1):
        acc = acc + trace.ys[t]
        assert np.max(np.abs(trace.ps[t] - 0.7 * acc)) <= 1e-10


def test_ergodic_and_xsum_recursions(k3_problem):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=40))
    ergodic, x_sums = trace.ergodic, trace.x_sums
    assert np.all(ergodic[0] == 0.0)
    for t in range(1, trace.T + 1):
        assert np.allclose(ergodic[t], trace.xs[1 : t + 1].mean(axis=0), atol=1e-13)
        assert np.allclose(x_sums[t], trace.xs[: t + 1].sum(axis=0), atol=1e-12)


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_node_edge_equivalence(k3_problem, c):
    node = admm.run(k3_problem, admm.RunConfig(c=c, T=100, engine="node"))
    edge = admm.run(k3_problem, admm.RunConfig(c=c, T=100, engine="edge"))
    assert np.max(np.abs(node.xs - edge.xs)) <= 1e-9


def test_node_edge_equivalence_custom_init(p3_problem):
    rng = np.random.default_rng(11)
    init = tuple(rng.normal(size=(3, 1)) for _ in range(3))
    node = admm.run(p3_problem, admm.RunConfig(c=0.8, T=50, init=init))
    edge = admm.run(p3_problem, admm.RunConfig(c=0.8, T=50, engine="edge", init=init))
    assert np.max(np.abs(node.xs - edge.xs)) <= 1e-9


def test_recurrence_residuals_small(k3_problem, k3_spectral):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=30))
    resid = recurrence_residuals(trace, k3_problem, k3_spectral)
    assert float(np.max(resid)) <= 1e-10


def test_recurrence_detects_corruption(k3_problem, k3_spectral):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=30))
    # corrupt one node only; a constant shift would hide in the consensus
    # null space of the Gram matrix
    trace.xs[10:, 0, :] += 0.05
    resid = recurrence_residuals(trace, k3_problem, k3_spectral)
    assert float(np.max(resid)) > 1e-6


def test_implicit_subgradients_match_quadratic_gradient(k3_problem, k3_spectral):
    trace = admm.run(k3_problem, admm.RunConfig(c=1.0, T=20))
    hs = implicit_subgradients(trace, k3_spectral.comm)
    for t in range(20):
        for i, f in enumerate(per_node(k3_problem.objectives)):
            assert np.max(np.abs(hs[t, i] - f.gradient(trace.xs[t + 1][i]))) <= 1e-10


@pytest.mark.parametrize("n,d", [(3, 1), (7, 3), (100, 3)])
def test_running_sums_block_by_block_keep_the_bits_of_cumsum(n, d):
    xs = np.random.default_rng(n).normal(scale=10.0, size=(2 * admm.SWEEP_ROUNDS + 9, n, d))
    got = xs.copy()
    carry = None
    for lo in range(0, len(xs), admm.SWEEP_ROUNDS):
        carry = admm.running_sums(got[lo : lo + admm.SWEEP_ROUNDS], carry)[-1]
    np.testing.assert_array_equal(got, np.cumsum(xs, axis=0))


def test_account_counts(k3, p3):
    a3 = admm.account(k3)
    assert a3.storage_vectors == 9
    assert a3.storage_scalars == 9
    assert a3.messages_per_round == 6  # two broadcast phases over |E| = 3
    ap = admm.account(p3, dimension=2)
    assert ap.messages_per_round == 4  # |E| = 2 per phase
    assert ap.storage_scalars == 18


def test_determinism(k3_problem):
    t1 = admm.run(k3_problem, admm.RunConfig(c=0.3, T=50))
    t2 = admm.run(k3_problem, admm.RunConfig(c=0.3, T=50))
    assert np.array_equal(t1.xs, t2.xs)
    assert np.array_equal(t1.ys, t2.ys)
    assert np.array_equal(t1.ps, t2.ps)
    assert np.array_equal(t1.ergodic, t2.ergodic)


def test_vector_dimension_runs(k3):
    targets = [np.array([1.0, -2.0]), np.array([2.0, 0.5]), np.array([3.0, 1.5])]
    objs = tuple(Quadratic(target=t, weight=1.0) for t in targets)
    prob = NetworkProblem(graph=k3, objectives=rows_of(objs))
    node = admm.run(prob, admm.RunConfig(c=1.0, T=200))
    edge = admm.run(prob, admm.RunConfig(c=1.0, T=200, engine="edge"))
    assert np.max(np.abs(node.xs - edge.xs)) <= 1e-9
    sd = compute_spectral_data(prob.comm)
    assert float(np.max(recurrence_residuals(node, prob, sd))) <= 1e-10
    mean = np.mean(targets, axis=0)
    assert np.max(np.abs(node.xs[-1] - mean)) <= 1e-8


@pytest.mark.parametrize("kwargs", [dict(c=1.0, T=0), dict(c=0.0, T=5), dict(c=1.0, T=5, engine="ring")])
def test_run_rejects_bad_config(k3_problem, kwargs):
    with pytest.raises(AdmmError):
        admm.run(k3_problem, admm.RunConfig(**kwargs))


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_run_rejects_non_finite_penalty(k3_problem, c):
    # refused before the first round, not reported as a non-finite estimate
    with pytest.raises(AdmmError, match="positive and finite"):
        admm.run(k3_problem, admm.RunConfig(c=c, T=3))


@pytest.mark.parametrize("engine", ["node", "edge"])
def test_non_finite_iterate_raises(k3_problem, engine):
    # c m overflows to inf, so the first prox returns nan on every node
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIterateError) as info:
            admm.run(k3_problem, admm.RunConfig(c=1e308, T=5, engine=engine))
    assert (info.value.node, info.value.t) == (0, 1)


@pytest.mark.parametrize("engine", ["node", "edge"])
def test_error_trapped_in_a_block_warns_or_raises_from_its_round(k3_problem, engine):
    # c m overflows to inf, so round 1's prox takes inf * 0; the block runs
    # with that error trapped and is replayed round by round under the
    # caller's settings, so the round warns, or raises, as it does unblocked
    config = admm.RunConfig(c=1e308, T=5, engine=engine)
    with np.errstate(over="ignore"):
        with pytest.warns(RuntimeWarning, match="invalid value"), pytest.raises(NonFiniteIterateError) as info:
            admm.run(k3_problem, config)
        assert (info.value.node, info.value.t) == (0, 1)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            admm.run(k3_problem, config)


@pytest.mark.parametrize("engine", ["node", "edge"])
def test_non_finite_iterate_names_node(p3_problem, engine):
    x0 = np.zeros((3, 1))
    x0[2] = np.inf  # path 0-1-2: only node 2 reads its own estimate back
    init = (x0, np.zeros((3, 1)), np.zeros((3, 1)))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteIterateError) as info:
            admm.run(p3_problem, admm.RunConfig(c=1.0, T=5, engine=engine, init=init))
    assert (info.value.node, info.value.t) == (2, 1)


def _mixed_problem(rng, n, d):
    g = random_connected_graph(rng, n)
    objs = []
    for _ in range(n):
        target, weight = rng.normal(scale=3.0, size=d), rng.uniform(0.5, 2.0)
        if rng.random() < 0.5:
            objs.append(Quadratic(target=target, weight=weight))
        else:
            objs.append(Quadratic(target=target, weight=weight, tau=rng.uniform(0.0, 1.0)))
    return NetworkProblem(graph=g, objectives=rows_of(objs))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.sampled_from([1, 2, 3]), st.integers(0, 10_000))
def test_vectorized_round_properties(n, d, seed):
    rng = np.random.default_rng(seed)
    prob = _mixed_problem(rng, n, d)
    c = rng.uniform(0.3, 3.0)
    init = tuple(rng.normal(size=(n, d)) for _ in range(3))
    node = admm.run(prob, admm.RunConfig(c=c, T=30, init=init))
    edge = admm.run(prob, admm.RunConfig(c=c, T=30, engine="edge", init=init))
    assert np.max(np.abs(node.xs - edge.xs)) <= 1e-9

    # the recurrence eliminates p = c * sum_s D^-1 P x(s), so start on it
    x0 = init[0]
    y0 = (dense(prob.comm) @ x0) / (np.array(prob.graph.degrees) + 1.0)[:, None]
    trace = admm.run(prob, admm.RunConfig(c=c, T=30, init=(x0, y0, c * y0)))
    sd = compute_spectral_data(prob.comm)
    assert float(np.max(recurrence_residuals(trace, prob, sd))) <= 1e-8


def _reference_prox(problem, V, rho):
    return np.array([f.prox(v, float(r)) for f, v, r in zip(per_node(problem.objectives), V, rho[:, 0])])


def closed_neighborhood_slots(g):
    """(rows, cols) of the slots (i, j), j in N(i), in row-major order, read off an n x n pattern."""
    pattern = np.eye(g.n, dtype=bool)
    pattern[g.edges[:, 0], g.edges[:, 1]] = pattern[g.edges[:, 1], g.edges[:, 0]] = True
    return np.nonzero(pattern)


def _reference_run(problem, c, T, init, engine):
    """Both engines' rounds as plain array expressions, one node prox at a time.

    ``admm.run`` evaluates the same expressions in the same operand order on
    preallocated buffers, so its trace must agree bit for bit.
    """
    P, n, d = dense(problem.comm), problem.n, problem.dimension
    inv_size = 1.0 / (np.array(problem.graph.degrees, dtype=float) + 1.0)[:, None]
    rho = c * np.einsum("ji,ji->i", P, P)[:, None]
    x0, y0, p0 = init
    xs = np.empty((T + 1, n, d))
    xs[0] = x0
    if engine == "node":
        ys, ps = np.empty_like(xs), np.empty_like(xs)
        ys[0], ps[0] = y0, p0
        for t in range(1, T + 1):
            v = xs[t - 1] - (P.T @ (ps[t - 1] + c * ys[t - 1])) / rho
            xs[t] = _reference_prox(problem, v, rho)
            ys[t] = (P @ xs[t]) * inv_size
            ps[t] = ps[t - 1] + c * ys[t]
        return xs, ys, ps, None, None
    rows, cols = closed_neighborhood_slots(problem.graph)
    starts = np.searchsorted(rows, np.arange(n))
    by_col = np.lexsort((rows, cols))
    Pij = P[rows, cols][:, None]
    zs = np.empty((T + 1, rows.size, d))
    lams = np.empty_like(zs)
    zs[0], lams[0] = Pij * x0[cols] - y0[rows], p0[rows]
    for t in range(1, T + 1):
        z, lam = zs[t - 1], lams[t - 1]
        w = Pij * (c * z - lam)
        xs[t] = _reference_prox(problem, np.add.reduceat(w[by_col], starts) / rho, rho)
        Px = Pij * xs[t][cols]
        u = Px + lam / c
        zs[t] = u - (inv_size * np.add.reduceat(u, starts))[rows]
        lams[t] = lam + c * (Px - zs[t])
    return xs, stack_apply(P, xs) * inv_size, lams[:, rows == cols], zs, lams


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.sampled_from([1, 3]), st.integers(0, 10_000))
def test_rounds_bit_identical_to_reference(n, d, seed):
    rng = np.random.default_rng(seed)
    prob = _mixed_problem(rng, n, d)
    c = rng.uniform(0.3, 3.0)
    init = tuple(rng.normal(size=(n, d)) for _ in range(3))
    for engine in ("node", "edge"):
        trace = admm.run(prob, admm.RunConfig(c=c, T=15, engine=engine, init=init))
        xs, ys, ps, *_ = _reference_run(prob, c, 15, init, engine)
        assert np.array_equal(trace.xs, xs)
        assert np.array_equal(trace.ys, ys)
        assert np.array_equal(trace.ps, ps)


@pytest.mark.parametrize("T", [65, 129])
def test_edge_y_rebuild_keeps_the_bits_of_one_whole_stack_product(T):
    # the last block holds one round; a two-row GEMM for its y took BLAS's
    # small-matrix kernel and moved the last bits (Erdos-Renyi n=80, d=3)
    g = generate_graph("erdos_renyi", 80, p=0.15, seed=0)
    prob = estimation_problem(g, dimension=3)
    init = tuple(np.random.default_rng(T).normal(size=(80, 3)) for _ in range(3))
    trace = admm.run(prob, admm.RunConfig(c=0.7, T=T, engine="edge", init=init))
    xs, ys, ps, *_ = _reference_run(prob, 0.7, T, init, "edge")
    assert np.array_equal(trace.xs, xs) and np.array_equal(trace.ps, ps)
    assert np.array_equal(trace.ys, ys)


def test_edge_gathers_keep_the_reference_bits_at_workload_scale():
    # the edge-l1 benchmark shape: Erdos-Renyi n=80 (1050 slots), l1 rows at
    # d = 3, zero start, c = 1; T = 130 runs three blocks
    g = generate_graph("erdos_renyi", 80, p=0.15, seed=0)
    targets = np.random.default_rng(1).normal(0.0, 3.0, size=(80, 3))
    prob = NetworkProblem(graph=g, objectives=quadratic_rows(targets, 1.0, 0.5))
    init = tuple(np.zeros((80, 3)) for _ in range(3))
    trace = admm.run(prob, admm.RunConfig(c=1.0, T=130, engine="edge"))
    xs, ys, ps, *_ = _reference_run(prob, 1.0, 130, init, "edge")
    assert np.array_equal(trace.xs, xs)
    assert np.array_equal(trace.ys, ys)
    assert np.array_equal(trace.ps, ps)


EDGE_GATHERS = ("by_col", "cols", "rows", "diag")  # in the order the edge engine makes their indices


@pytest.mark.parametrize("gather", range(4), ids=EDGE_GATHERS)
def test_edge_gather_index_out_of_range_raises_before_the_first_round(monkeypatch, k3_problem, gather):
    # the gathers clip, so an index one past the end would read the last
    # element; the kernels refuse it when they are built, not in a round
    made = []
    flat_rows = admm._flat_rows

    def one_past_the_end(idx, d):
        flat = flat_rows(idx, d)
        if len(made) == gather:
            flat[np.argmax(flat)] += 1  # every gather's largest index is the last element it reads
        made.append(flat)
        return flat

    monkeypatch.setattr(admm, "_flat_rows", one_past_the_end)
    with pytest.raises(AdmmError, match=f"'{EDGE_GATHERS[gather]}'"):
        admm.rounds(k3_problem, admm.RunConfig(c=1.0, T=3, engine="edge"))
    assert len(made) == 4


@st.composite
def _mixed_runs(draw):
    """(problem, c, init) of a random mixed problem with random initial state."""
    n, d, seed = draw(st.integers(2, 9)), draw(st.sampled_from([1, 2, 3])), draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    prob = _mixed_problem(rng, n, d)
    return prob, rng.uniform(0.3, 3.0), tuple(rng.normal(size=(n, d)) for _ in range(3))


def _check_slot_identities(prob, c, T, init):
    # the engine stores no slot history, so the identities are read off the
    # reference, which it matches bit for bit
    node = admm.run(prob, admm.RunConfig(c=c, T=T, init=init))
    edge = admm.run(prob, admm.RunConfig(c=c, T=T, engine="edge", init=init))
    xs, _, ps, zs, lams = _reference_run(prob, c, T, init, "edge")
    assert np.array_equal(edge.xs, xs)
    assert np.array_equal(edge.ps, ps)
    rows, cols = closed_neighborhood_slots(prob.graph)
    assert zs.shape == lams.shape == (T + 1, prob.n + 2 * prob.graph.m, prob.dimension)
    P = dense(prob.comm)[rows, cols][:, None]
    assert np.max(np.abs(lams - node.ps[:, rows])) <= 1e-10  # lambda_ij = p_i
    assert np.max(np.abs(zs - (P * node.xs[:, cols] - node.ys[:, rows]))) <= 1e-10  # z_ij = P_ij x_j - y_i
    for i in range(prob.n):
        assert np.max(np.abs(zs[1:, rows == i].sum(axis=1))) <= 1e-12  # sum_{j in N(i)} z_ij = 0


@settings(max_examples=60, deadline=None)
@given(_mixed_runs())
def test_edge_slot_identities(case):
    # irregular graphs tell a slot (i, j) from (j, i): z_ij = P_ij x_j - y_i differs from z_ji
    prob, c, init = case
    _check_slot_identities(prob, c, 12, init)


def test_reduction_identities(k3_problem):
    _check_slot_identities(k3_problem, 1.0, 12, tuple(np.zeros((3, 1)) for _ in range(3)))


def test_edge_z_rows_sum_to_zero(p3_problem):
    _check_slot_identities(p3_problem, 1.3, 12, tuple(np.zeros((3, 1)) for _ in range(3)))


def test_edge_run_stores_no_slot_history():
    # one (T+1, n + 2|E|, d) stack of slot values is 3.39 MB here; z and lambda
    # histories would cost two of them
    g = generate_graph("circulant", 200, d=20)
    prob = estimation_problem(g)
    T = 100
    stack_bytes = (T + 1) * (g.n + 2 * g.m) * 8  # d = 1
    tracemalloc.start()
    try:
        admm.run(prob, admm.RunConfig(c=1.0, T=T, engine="edge"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes


@pytest.mark.parametrize("engine", ["node", "edge"])
def test_engines_never_form_w(engine):
    """Peak traced bytes of a run, in units of one n x n float array, with the problem built beforehand.

    The node engine reads about 0.08 (its slot products' buffers) and the edge
    engine about 0.35 (its slot buffers and flat index arrays); forming W, or
    D^(-1/2) P on the way to it, adds at least 1.
    """
    n = 1200
    g = generate_graph("erdos_renyi", n, p=20 / n, seed=1)
    prob = estimation_problem(g)
    tracemalloc.start()
    try:
        admm.run(prob, admm.RunConfig(c=1.0, T=5, engine=engine))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * n) < 0.5


@pytest.mark.parametrize("engine", ["node", "edge"])
def test_run_reuses_the_column_norms_of_the_spectral_data(monkeypatch, engine):
    # m and the crossover belong to the matrix: a run after
    # compute_spectral_data on the same problem makes neither again
    prob = estimation_problem(generate_graph("erdos_renyi", 30, p=0.2, seed=1))
    made = []
    for owner, name in ((np, "bincount"), (graph, "dense_products_are_cheaper")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _fn=fn, _name=name, **k: made.append(_name) or _fn(*a, **k))
    read = []
    prox_weights = admm._prox_weights
    monkeypatch.setattr(admm, "_prox_weights", lambda comm, *a: read.append(comm.col_norms_sq) or prox_weights(comm, *a))
    sd = compute_spectral_data(prob.comm)
    # the route, chosen as the spectra ask whether it knows them, and m, for the diagonal of M - W
    assert made == ["dense_products_are_cheaper", "bincount"]
    for _ in range(2):
        trace = admm.run(prob, admm.RunConfig(c=1.0, T=3, engine=engine))
        assert float(np.max(recurrence_residuals(trace, prob, sd))) <= 1e-8
    assert made == ["dense_products_are_cheaper", "bincount"]
    # each run; the recurrence check reads comm.col_norms_sq directly, and bincount counts no second m
    assert len(read) == 2 and all(m is sd.comm.col_norms_sq for m in read)


@pytest.mark.parametrize("kind", ["estimation", "l1"])
def test_each_run_binds_the_prox_once(monkeypatch, kind):
    # the module's contract: the prox is bound once per run, on both engines,
    # and the analysis binds none; T spans more than one block of rounds
    g = generate_graph("circulant", 12, d=4)
    if kind == "estimation":
        prob = estimation_problem(g, dimension=2)
    else:
        objs = tuple(Quadratic(target=np.array([i - 5.0, 0.5 * i]), tau=0.3) for i in range(12))
        prob = NetworkProblem(graph=g, objectives=rows_of(objs))
    sd = compute_spectral_data(prob.comm)
    binds = []
    fn = QuadraticRows.bind
    monkeypatch.setattr(QuadraticRows, "bind", lambda rows, rho: binds.append(rho.shape) or fn(rows, rho))
    optimal = central_solve(prob)
    T = admm.SWEEP_ROUNDS + 6
    for engine in ("node", "edge"):
        binds.clear()
        trace = admm.run(prob, admm.RunConfig(c=1.0, T=T, engine=engine))
        aux = analysis.aux_sequences(trace, prob, sd, optimal)
        assert len(reporting.trace_rows(aux, trace.accounting.messages_per_round)["t"]) == T
        assert float(np.max(aux.recurrence)) <= 1e-8
        assert binds == [(12, 2)]
