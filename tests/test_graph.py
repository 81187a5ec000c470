import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admmnet.errors import (
    ConnectivityRetryExhaustedError,
    DisconnectedError,
    DuplicateEdgeError,
    GraphError,
    GraphFileError,
    InfeasibleParamsError,
    NodeOutOfRangeError,
    SelfLoopError,
)
from admmnet.graph import (
    _upper_pairs,
    build_graph,
    generate_graph,
    laplacian,
    neighborhood_slots,
    read_graph_file,
    write_graph_file,
)
from conftest import dense, random_connected_graph


def closed_neighborhoods(g):
    """[N(0), ..., N(n-1)] as ascending lists, read from the communication matrix's slots."""
    rows, cols, _ = neighborhood_slots(g)
    return [cols[rows == i].tolist() for i in range(g.n)]


def test_build_k3():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert np.array_equal(g.degrees, [2, 2, 2])
    assert g.d_max == g.d_min == 2
    assert np.array_equal(g.edges, [(0, 1), (0, 2), (1, 2)])


def test_build_p3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert np.array_equal(g.degrees, [1, 2, 1])
    assert closed_neighborhoods(g) == [[0, 1], [0, 1, 2], [1, 2]]


def test_build_disconnected():
    with pytest.raises(DisconnectedError):
        build_graph(4, [(0, 1), (2, 3)])


def build_graph_by_loop(n, edges):
    """(edges, degrees) as tuples, checked one edge at a time, or the exception it raises.

    The loop the array version replaced; an invalid edge raises at its
    position in the input, the range check first.
    """
    if n < 2:
        raise InfeasibleParamsError(f"need at least 2 nodes, got n={n}")
    normalized, seen = [], set()
    for index, (i, j) in enumerate(edges):
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise NodeOutOfRangeError(f"edge ({i},{j}) outside 0..{n - 1}", index=index)
        if i == j:
            raise SelfLoopError(f"self-loop at node {i}", index=index)
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            raise DuplicateEdgeError(f"duplicate edge {pair}", index=index)
        seen.add(pair)
        normalized.append(pair)
    normalized.sort()
    adj = [[] for _ in range(n)]
    for i, j in normalized:
        adj[i].append(j)
        adj[j].append(i)
    reached, queue = {0}, deque([0])
    while queue:
        for v in adj[queue.popleft()]:
            if v not in reached:
                reached.add(v)
                queue.append(v)
    if len(reached) != n:
        missing = [v for v in range(n) if v not in reached]
        raise DisconnectedError(f"graph is disconnected; unreachable nodes {missing[:5]}")
    return tuple(normalized), tuple(len(lst) for lst in adj)


def outcome(make):
    """The graph ``make()`` returns as (edges, degrees) tuples, or (type, message, index) of its error."""
    try:
        got = make()
    except GraphError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    if isinstance(got, tuple):
        return got
    return tuple(map(tuple, got.edges.tolist())), tuple(got.degrees.tolist())


@st.composite
def edge_lists(draw):
    """(n, edges): distinct pairs in either orientation, with a few arbitrary pairs
    inserted that may leave the range, loop or repeat; the graph may be disconnected."""
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(j, i) if flip else (i, j) for (i, j), flip in zip(edges, flips)]
    inside = st.integers(0, n - 1)
    node = st.one_of(inside, inside, st.sampled_from([-1, n, n + 1, 2**63, -(10**30)]))
    for _ in range(draw(st.integers(0, 3))):
        edges.insert(draw(st.integers(0, len(edges))), (draw(node), draw(node)))
    return n, edges


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_build_matches_edge_loop(case):
    n, edges = case
    want = outcome(lambda: build_graph_by_loop(n, edges))
    assert outcome(lambda: build_graph(n, edges)) == want
    if all(abs(v) < 2**62 for pair in edges for v in pair):
        assert outcome(lambda: build_graph(n, np.array(edges, dtype=np.intp).reshape(-1, 2))) == want


@pytest.mark.parametrize("cut", [None, 0, 1234, 2998])
def test_connectivity_on_shuffled_long_path(cut):
    """A path through the nodes in random order: deep pointer trees, many components when cut."""
    order = np.random.default_rng(5).permutation(3000)
    edges = np.column_stack((order[:-1], order[1:]))
    if cut is not None:
        edges = np.delete(edges, [cut, cut // 2], axis=0)
    assert outcome(lambda: build_graph(3000, edges)) == outcome(lambda: build_graph_by_loop(3000, edges.tolist()))


def test_build_reports_first_invalid_edge():
    with pytest.raises(SelfLoopError, match="node 1") as exc:
        build_graph(3, [(0, 1), (1, 1), (0, 1), (0, 7)])
    assert exc.value.index == 1
    with pytest.raises(NodeOutOfRangeError) as exc:
        build_graph(3, [(0, 1), (3, 3), (2, 2)])  # out of range before self-loop on one edge
    assert exc.value.index == 1
    with pytest.raises(DuplicateEdgeError, match=r"\(0, 1\)") as exc:
        build_graph(3, [(1, 0), (1, 2), (0, 1), (2, 2)])
    assert exc.value.index == 2


def test_build_rejects_non_pairs():
    with pytest.raises(ValueError, match="pairs"):
        build_graph(4, [(0, 1, 2), (1, 2, 3)])


def test_graph_arrays_are_read_only():
    g = generate_graph("cycle", 5)
    assert g.edges.dtype == g.degrees.dtype == np.intp
    assert g.edges.shape == (5, 2) and g.degrees.shape == (5,)
    for arr in (g.edges, g.degrees):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    assert type(g.d_max) is type(g.d_min) is type(g.m) is int


@pytest.mark.parametrize(
    "edges,err",
    [
        ([(0, 0)], SelfLoopError),
        ([(0, 1), (1, 0)], DuplicateEdgeError),
        ([(0, 3)], NodeOutOfRangeError),
    ],
)
def test_build_invalid_edges(edges, err):
    with pytest.raises(err):
        build_graph(3, edges)


def test_generate_complete():
    g = generate_graph("complete", 3)
    assert np.array_equal(g.edges, [(0, 1), (0, 2), (1, 2)])


def test_circulant_d2_is_cycle():
    g = generate_graph("circulant", 5, d=2)
    cyc = generate_graph("cycle", 5)
    assert np.array_equal(g.edges, cyc.edges)


def test_circulant_d4_n7():
    g = generate_graph("circulant", 7, d=4)
    assert np.array_equal(g.degrees, [4] * 7)
    # node 0 adjacent to offsets +-1, +-2
    assert closed_neighborhoods(g)[0] == [0, 1, 2, 5, 6]


@pytest.mark.parametrize("kwargs", [dict(d=3), dict(d=8), dict(d=0)])
def test_circulant_infeasible(kwargs):
    with pytest.raises(InfeasibleParamsError):
        generate_graph("circulant", 7, **kwargs)


def test_erdos_renyi_deterministic():
    g1 = generate_graph("erdos_renyi", 12, p=0.3, seed=7)
    g2 = generate_graph("erdos_renyi", 12, p=0.3, seed=7)
    assert np.array_equal(g1.edges, g2.edges)
    g3 = generate_graph("erdos_renyi", 12, p=0.3, seed=8)
    assert not np.array_equal(g3.edges, g1.edges)  # overwhelmingly likely for this family


def generate_by_loop(kind, n, d=None):
    """The path, cycle, complete and circulant edge lists, built one pair at a time."""
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sorted({tuple(sorted((i, (i + k) % n))) for k in range(1, d // 2 + 1) for i in range(n)})


@pytest.mark.parametrize(
    ("kind", "n", "d"),
    [("path", 2, None), ("path", 300, None), ("cycle", 3, None), ("cycle", 41, None),
     ("complete", 2, None), ("complete", 60, None), ("circulant", 5, 4), ("circulant", 200, 20),
     ("circulant", 41, 40)],
)
def test_generators_match_pair_loops(kind, n, d):
    assert outcome(lambda: generate_graph(kind, n, d=d)) == build_graph_by_loop(n, generate_by_loop(kind, n, d))


@pytest.mark.parametrize("n", [2, 3, 17, 800])
def test_upper_pairs_matches_triu_indices(n):
    want = np.column_stack(np.triu_indices(n, 1))
    assert np.array_equal(_upper_pairs(n, np.arange(len(want))), want)
    k = np.sort(np.random.default_rng(n).choice(len(want), size=(len(want) + 1) // 2, replace=False))
    assert np.array_equal(_upper_pairs(n, k), want[k])


def erdos_renyi_by_scalar_draws(n, p, seed):
    """(graph, attempt): one rng.random() per pair i < j in row-major order, retried until connected."""
    for attempt in range(1000):
        rng = np.random.default_rng([seed, attempt])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        try:
            return build_graph(n, edges), attempt
        except DisconnectedError:
            continue
    raise AssertionError("no connected draw")


@pytest.mark.parametrize(
    ("n", "p", "seed", "retried"),
    [(2, 1.0, 0, False), (10, 0.25, 0, True), (12, 0.3, 7, False), (80, 0.15, 0, False), (200, 0.05, 3, False),
     (800, 0.05, 1, False), (800, 0.05, 8, False)],
)
def test_erdos_renyi_matches_scalar_draws(n, p, seed, retried):
    want, attempt = erdos_renyi_by_scalar_draws(n, p, seed)
    assert (attempt > 0) == retried
    assert np.array_equal(generate_graph("erdos_renyi", n, p=p, seed=seed).edges, want.edges)


def erdos_renyi_one_shot(n, p, seed):
    """(graph, attempt): every pair draw of an attempt taken as one rng.random(n(n-1)/2) array."""
    i, j = np.triu_indices(n, 1)  # row-major pair order
    for attempt in range(1000):
        keep = np.random.default_rng([seed, attempt]).random(i.size) < p
        try:
            return build_graph(n, np.column_stack((i[keep], j[keep]))), attempt
        except DisconnectedError:
            continue
    raise AssertionError("no connected draw")


@pytest.mark.parametrize(
    ("n", "p", "seed", "retried"),
    [(10, 0.25, 0, True), (363, 0.05, 2, False), (400, 0.013, 1, True), (400, 0.013, 4, True),
     (800, 0.05, 1, False), (1200, 20 / 1200, 1, False)],
)
def test_erdos_renyi_chunked_draws_match_one_shot(n, p, seed, retried):
    # 363 nodes give 65703 pairs, just past one chunk of draws; 1200 give 11 chunks
    want, attempt = erdos_renyi_one_shot(n, p, seed)
    assert (attempt > 0) == retried
    assert np.array_equal(generate_graph("erdos_renyi", n, p=p, seed=seed).edges, want.edges)


def test_erdos_renyi_draws_hold_no_pair_length_array():
    """Peak traced bytes of generating ER n=1200, p=20/n, in units of one n x n float array.

    One draw of all n(n-1)/2 pairs and its mask read 0.56 here; chunked
    draws read about 0.2, most of it the edge arrays of build_graph.
    """
    n = 1200
    tracemalloc.start()
    try:
        generate_graph("erdos_renyi", n, p=20 / n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * n) < 0.3


def test_erdos_renyi_low_p_retry_exhausted():
    with pytest.raises(ConnectivityRetryExhaustedError):
        generate_graph("erdos_renyi", 40, p=0.001, seed=0)


def test_laplacian_k3(k3):
    P = dense(laplacian(k3))
    assert np.array_equal(P, np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float))


def test_laplacian_p3(p3):
    P = dense(laplacian(p3))
    assert np.array_equal(P, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float))


def test_laplacian_c4():
    g = generate_graph("cycle", 4)
    P = dense(laplacian(g))
    assert np.array_equal(np.diag(P), np.full(4, 2.0))
    assert P[0, 1] == P[1, 2] == P[2, 3] == P[0, 3] == -1.0
    assert P[0, 2] == P[1, 3] == 0.0


def laplacian_by_edges(g):
    """The Laplacian filled one diagonal entry and one edge at a time."""
    P = np.zeros((g.n, g.n))
    for i, deg in enumerate(g.degrees):
        P[i, i] = float(deg)
    for i, j in g.edges:
        P[i, j] = -1.0
        P[j, i] = -1.0
    return P


@pytest.mark.parametrize(
    ("kind", "kwargs"),
    [("path", {}), ("complete", {}), ("circulant", dict(d=6)), ("erdos_renyi", dict(p=0.05, seed=1))],
)
def test_laplacian_matches_edge_loop(kind, kwargs):
    g = generate_graph(kind, 120, **kwargs)
    comm = laplacian(g)
    assert np.array_equal(dense(comm), laplacian_by_edges(g))
    assert np.array_equal(comm.kept_dense, laplacian_by_edges(g))
    assert comm.values.dtype == np.float64 and not comm.values.flags.writeable
    assert not comm.kept_dense.flags.writeable


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10_000))
def test_neighborhood_slots_are_the_closed_neighborhoods_in_row_major_order(n, seed):
    g = random_connected_graph(np.random.default_rng(seed), n, 0.3)
    pattern = np.eye(n, dtype=bool)
    pattern[g.edges[:, 0], g.edges[:, 1]] = pattern[g.edges[:, 1], g.edges[:, 0]] = True
    rows, cols, starts = neighborhood_slots(g)
    want_rows, want_cols = np.nonzero(pattern)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert np.array_equal(starts, np.searchsorted(rows, np.arange(n)))
    comm = laplacian(g)
    assert np.array_equal(comm.rows, rows) and np.array_equal(comm.cols, cols)
    transpose = comm.transpose
    assert np.array_equal(rows[transpose], cols) and np.array_equal(cols[transpose], rows)
    assert np.array_equal(transpose, np.lexsort((rows, cols)))  # the slots grouped by column
    assert not transpose.flags.writeable


def test_laplacian_writes_no_dense_array():
    # the slot arrays and their construction take about 0.1 n x n here; a dense Laplacian alone is 1
    n = 1200
    g = generate_graph("erdos_renyi", n, p=20 / n, seed=1)
    tracemalloc.start()
    try:
        comm = laplacian(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * n) < 0.25
    assert comm.values.size == n + 2 * g.m


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 25), st.integers(0, 10_000), st.floats(0.0, 0.8))
def test_laplacian_slot_invariants_on_random_graphs(n, seed, extra_p):
    # what P being the Laplacian gives every product and check, exactly: P' = P
    # on the slots, P 1 = 0, and m = d (d + 1) >= 2, so every prox weight is positive
    g = random_connected_graph(np.random.default_rng(seed), n, extra_p)
    comm = laplacian(g)
    assert np.array_equal(comm.values, comm.values[comm.transpose])
    assert np.all(np.add.reduceat(comm.values, comm.starts) == 0.0)
    assert np.array_equal(comm.values[comm.rows == comm.cols], g.degrees.astype(float))
    d = g.degrees.astype(float)
    assert np.array_equal(comm.col_norms_sq, d * (d + 1.0))


def test_graph_file_roundtrip(tmp_path, k3):
    path = tmp_path / "g.txt"
    write_graph_file(k3, path)
    assert np.array_equal(read_graph_file(path).edges, k3.edges)


def test_graph_file_bad_edge_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 two\n")
    with pytest.raises(GraphFileError) as exc:
        read_graph_file(path)
    assert exc.value.lineno == 3


def test_graph_file_header_mismatch(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 5\n0 1\n1 2\n")
    with pytest.raises(GraphFileError):
        read_graph_file(path)


@pytest.mark.parametrize(
    ("text", "lineno", "message"),
    [
        ("3 2\n0 1\n1 1\n", 3, "self-loop at node 1"),
        ("3 3\n0 1\n\n1 2\n\n2 1\n", 6, "duplicate edge (1, 2)"),  # blank lines skipped
        ("3 2\n0 1\n1 5\n", 3, "edge (1,5) outside 0..2"),
        ("4 2\n0 1\n2 3\n", 1, "graph is disconnected; unreachable nodes [2, 3]"),
        ("1 0\n", 1, "need at least 2 nodes, got n=1"),
    ],
)
def test_graph_file_invalid_graph_names_line(tmp_path, text, lineno, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(GraphFileError) as exc:
        read_graph_file(path)
    assert exc.value.lineno == lineno
    assert str(exc.value) == f"line {lineno}: {message}"
