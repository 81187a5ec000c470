"""Network topologies and the communication matrix.

A :class:`Graph` is an undirected, connected topology on nodes 0..n-1.
Throughout the package the neighborhood N(i) of a node always includes the
node itself, so |N(i)| = degree(i) + 1.

A :class:`CommunicationMatrix` is an n x n matrix P whose sparsity follows
the neighborhoods and whose null space is exactly span{1}. The canonical
instance is the graph Laplacian.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    CommMatrixError,
    ConnectivityRetryExhaustedError,
    DisconnectedError,
    DuplicateEdgeError,
    GraphFileError,
    InfeasibleParamsError,
    NodeOutOfRangeError,
    SelfLoopError,
)

ROW_SUM_RTOL = 1e-12  # |P 1|_inf <= ROW_SUM_RTOL * max|P_ij|
RANK_RTOL = 1e-9  # second-smallest singular value > RANK_RTOL * largest


@dataclass(frozen=True)
class Graph:
    """Connected undirected graph with per-node degree bookkeeping.

    ``edges`` holds normalized (i < j) pairs in lexicographic order;
    ``neighbors[i]`` is the ascending open neighborhood of node i.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]
    neighbors: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def d_max(self) -> int:
        return max(self.degrees)

    @property
    def d_min(self) -> int:
        return min(self.degrees)

    @property
    def m(self) -> int:
        return len(self.edges)

    def closed_neighbors(self, i: int) -> tuple[int, ...]:
        """N(i) = neighbors of i together with i itself, ascending."""
        return tuple(sorted((*self.neighbors[i], i)))


@dataclass(frozen=True)
class CommunicationMatrix:
    """Dense n x n communication matrix with a provenance tag."""

    P: np.ndarray = field(repr=False)
    source: str  # "laplacian" | "custom"

    @property
    def n(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class Violation:
    kind: str  # "SparsityViolation" | "NullSpaceViolation" | "ZeroColumn"
    index: tuple[int, ...] | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def build_graph(n: int, edges) -> Graph:
    """Build a connected graph from an edge list.

    Raises NodeOutOfRangeError, SelfLoopError, DuplicateEdgeError or
    DisconnectedError on invalid input.
    """
    if n < 2:
        raise InfeasibleParamsError(f"need at least 2 nodes, got n={n}")
    normalized: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise NodeOutOfRangeError(f"edge ({i},{j}) outside 0..{n - 1}")
        if i == j:
            raise SelfLoopError(f"self-loop at node {i}")
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            raise DuplicateEdgeError(f"duplicate edge {pair}")
        seen.add(pair)
        normalized.append(pair)
    normalized.sort()

    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in normalized:
        adj[i].append(j)
        adj[j].append(i)
    for lst in adj:
        lst.sort()

    # BFS reachability from node 0 must cover all nodes.
    seen_nodes = [False] * n
    seen_nodes[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen_nodes[v]:
                seen_nodes[v] = True
                count += 1
                queue.append(v)
    if count != n:
        missing = [v for v in range(n) if not seen_nodes[v]]
        raise DisconnectedError(f"graph is disconnected; unreachable nodes {missing[:5]}")

    return Graph(
        n=n,
        edges=tuple(normalized),
        degrees=tuple(len(lst) for lst in adj),
        neighbors=tuple(tuple(lst) for lst in adj),
    )


def generate_graph(kind: str, n: int, *, d: int | None = None, p: float | None = None, seed: int | None = None) -> Graph:
    """Deterministic graph generators: path, cycle, complete, circulant, erdos_renyi.

    circulant: each node i is adjacent to i +- 1, ..., i +- d/2 (mod n); d must
    be even and < n, producing a d-regular graph.
    erdos_renyi: edge probability p, rejection-sampled on connectivity with a
    counter-advanced seeded generator (same (n, p, seed) always yields the
    same graph).
    """
    if kind == "path":
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise InfeasibleParamsError("cycle needs n >= 3")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "circulant":
        if d is None:
            raise InfeasibleParamsError("circulant requires d")
        if d % 2 != 0 or d < 2:
            raise InfeasibleParamsError(f"circulant requires positive even d, got {d}")
        if d >= n:
            raise InfeasibleParamsError(f"circulant requires d < n, got d={d}, n={n}")
        # offsets k and n-k never coincide because d < n, so no duplicates
        pairs = set()
        for k in range(1, d // 2 + 1):
            for i in range(n):
                j = (i + k) % n
                pairs.add((min(i, j), max(i, j)))
        return build_graph(n, sorted(pairs))
    if kind == "erdos_renyi":
        if p is None or not (0.0 < p <= 1.0):
            raise InfeasibleParamsError(f"erdos_renyi requires p in (0,1], got {p}")
        base_seed = 0 if seed is None else int(seed)
        rows, cols = np.triu_indices(n, 1)  # the pairs (i, j > i) in row-major order
        for attempt in range(1000):
            rng = np.random.default_rng([base_seed, attempt])
            keep = rng.random(rows.size) < p  # one draw per pair, in pair order
            edges = list(zip(rows[keep].tolist(), cols[keep].tolist()))
            try:
                return build_graph(n, edges)
            except DisconnectedError:
                continue
        raise ConnectivityRetryExhaustedError(
            f"no connected graph in 1000 attempts (n={n}, p={p}, seed={base_seed})"
        )
    raise InfeasibleParamsError(f"unknown graph kind {kind!r}")


def laplacian(g: Graph) -> CommunicationMatrix:
    """Graph Laplacian: diagonal = degrees, -1 on edges, 0 elsewhere."""
    P = np.zeros((g.n, g.n))
    P[np.diag_indices(g.n)] = g.degrees
    i, j = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp, count=2 * g.m).reshape(-1, 2).T
    P[i, j] = P[j, i] = -1.0
    P.flags.writeable = False
    return CommunicationMatrix(P=P, source="laplacian")


def validate_comm_matrix(P, g: Graph) -> ValidationReport:
    """Check a candidate communication matrix against the graph.

    ok iff: sparsity respects the closed neighborhoods, row sums vanish
    (|P 1|_inf <= 1e-12 max|P_ij|), the second-smallest singular value
    exceeds 1e-9 times the largest (null space is one-dimensional), and no
    column is identically zero.
    """
    if isinstance(P, CommunicationMatrix):
        P = P.P
    P = np.asarray(P, dtype=float)
    if P.shape != (g.n, g.n):
        raise InfeasibleParamsError(f"P has shape {P.shape}, expected ({g.n},{g.n})")
    violations: list[Violation] = []

    allowed = np.zeros((g.n, g.n), dtype=bool)
    for i in range(g.n):
        allowed[i, i] = True
        for j in g.neighbors[i]:
            allowed[i, j] = True
    bad = np.argwhere((~allowed) & (P != 0.0))
    for i, j in bad[:10]:
        violations.append(
            Violation("SparsityViolation", (int(i), int(j)), f"P[{i},{j}] nonzero but {j} not in N({i})")
        )

    scale = float(np.max(np.abs(P)))
    row_sums = P @ np.ones(g.n)
    worst = int(np.argmax(np.abs(row_sums)))
    if np.abs(row_sums[worst]) > ROW_SUM_RTOL * scale:
        violations.append(
            Violation(
                "NullSpaceViolation",
                (worst,),
                f"row {worst} sums to {row_sums[worst]:.3e}, so P@1 != 0",
            )
        )

    sv = np.linalg.svd(P, compute_uv=False)  # descending
    if sv[-2] <= RANK_RTOL * sv[0] or sv[0] == 0.0:
        violations.append(
            Violation(
                "NullSpaceViolation",
                None,
                f"rank deficiency: singular values {sv[-2]:.3e} vs largest {sv[0]:.3e}",
            )
        )

    col_mags = np.max(np.abs(P), axis=0)
    for j in np.nonzero(col_mags == 0.0)[0]:
        violations.append(Violation("ZeroColumn", (int(j),), f"column {j} is all zeros"))

    return ValidationReport(ok=not violations, violations=tuple(violations))


def custom_comm_matrix(P, g: Graph) -> CommunicationMatrix:
    """Wrap a user-supplied P, raising CommMatrixError if validation fails."""
    report = validate_comm_matrix(P, g)
    if not report.ok:
        raise CommMatrixError(report)
    P = np.array(P, dtype=float)
    P.flags.writeable = False
    return CommunicationMatrix(P=P, source="custom")


def write_graph_file(g: Graph, path) -> None:
    """Write the 'n m' header then one 'i j' line per edge."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for i, j in g.edges:
            fh.write(f"{i} {j}\n")


def read_graph_file(path) -> Graph:
    """Read the format written by :func:`write_graph_file`."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFileError(f"cannot read graph file: {exc}") from exc
    if not lines:
        raise GraphFileError("empty graph file", lineno=1)
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFileError(f"expected 'n m', got {lines[0]!r}", lineno=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFileError(f"non-integer header {lines[0]!r}", lineno=1) from None
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFileError(f"expected 'i j', got {line!r}", lineno=lineno)
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFileError(f"non-integer edge {line!r}", lineno=lineno) from None
    if len(edges) != m:
        raise GraphFileError(f"header promised {m} edges, file has {len(edges)}", lineno=1)
    try:
        return build_graph(n, edges)
    except (NodeOutOfRangeError, SelfLoopError, DuplicateEdgeError, DisconnectedError) as exc:
        raise GraphFileError(str(exc), lineno=1) from exc
