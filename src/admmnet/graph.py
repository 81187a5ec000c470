"""Network topologies and the communication matrix.

A :class:`Graph` is an undirected, connected topology on nodes 0..n-1, held
as numpy arrays: its edge list and its degrees. Throughout the package the
neighborhood N(i) of a node always includes the node itself, so
|N(i)| = degree(i) + 1. Building, validating and generating graphs are array
operations with no loop over edges or nodes; only the connectivity check
loops, over a few rounds of hooking and pointer jumping.

A :class:`CommunicationMatrix` is the communication matrix P of the
algorithm, which is always the graph Laplacian here: its sparsity follows
the neighborhoods and its null space is exactly span{1}, and it is
symmetric, so P' = P. It is stored as its values on the n + 2|E| slots
(i, j), j in N(i), in the row-major order of ``neighborhood_slots``, and
holds everything derived from them, each made at most once: the column
norms m (``col_norms_sq``), |N(i)| (``nbhd_sizes``), the Gram matrix
W = P' D^-1 P and its ``Route``, the one place where P's structure is
decided: the kernels of P x, P'v, W x and W^+ B, and the spectra known in
closed form. Outside this module only ``spectral`` reads a dense P or W,
for their eigenvalues.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import (
    ConnectivityRetryExhaustedError,
    DisconnectedError,
    DuplicateEdgeError,
    EdgeError,
    GraphFileError,
    InfeasibleParamsError,
    NodeOutOfRangeError,
    SelfLoopError,
)

_ER_CHUNK = 1 << 16  # Erdos-Renyi pair draws held at once, so no (n(n-1)/2)-long array is built
# Cost of a slot product in dense GEMV entries: per slot, and fixed per call
# (see ``dense_products_are_cheaper``)
SLOT_COST, SLOT_FIXED = 10, 40_000
_BLOCK_ENTRIES = 1 << 13  # entries per temporary block of the symbol's sine sums
SOLVE_DIV = 8  # the dense solve for W^+ costs about n^3 / SOLVE_DIV of those entries (see ``conjugate_gradients_are_cheaper``)
CG_RTOL = 1e-14  # conjugate gradients for W^+ B stop at this residual, relative to the centered right-hand side


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected undirected graph with per-node degree bookkeeping.

    ``edges`` is a read-only (m, 2) intp array of normalized (i < j) pairs in
    lexicographic order; ``degrees`` is a read-only (n,) intp array.
    """

    n: int
    edges: np.ndarray = field(repr=False)
    degrees: np.ndarray = field(repr=False)

    @property
    def d_max(self) -> int:
        return int(self.degrees.max())

    @property
    def d_min(self) -> int:
        return int(self.degrees.min())

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class ClosedForm:
    """Every eigenvalue, ascending, of a circulant P (``laplacian``), of its W (``gram``) and of M - W (``metric``).

    D = |N(0)| I, so W = P^2 / |N(0)| and M - W = m_0 I - W are circulant
    too, and each spectrum is unfolded from its symbol: lam_k(P) (``_symbol``),
    lam_k(P)^2 / |N(0)| and m_0 - lam_k(W). They are the eigenvalues of the
    exact W to a few ulps, as no W is formed for them.
    """

    laplacian: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    metric: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class Route:
    """How one ``CommunicationMatrix`` takes its products and which spectra it knows, bound once (``CommunicationMatrix.route``).

    ``p(x, out=None)`` and ``pt(v, out=None)`` are P x and P'v of an (n,)
    or (n, d) operand, into ``out`` if given, or of an (..., n, d) stack; P
    is symmetric, so over the slots they are one kernel, while the dense
    GEMV with P' sums in its own order. ``w(x)`` is W x of the same
    operands, and ``w_pinv(B, kappa)`` is W^+ B of an (n, d) B, orthogonal
    to the consensus direction, for W's condition number ``kappa`` on 1's
    complement. ``spectra`` is a circulant's ``ClosedForm``, else None.
    The matrix keeps its route, so the route holds the matrix only weakly,
    in the W kernels of a matrix that is not circulant: a strong reference
    back would be a cycle that keeps W until the garbage collector runs.
    Those two kernels work while their matrix lives.
    """

    p: Callable[..., np.ndarray]
    pt: Callable[..., np.ndarray]
    w: Callable[[np.ndarray], np.ndarray]
    w_pinv: Callable[[np.ndarray, float], np.ndarray]
    spectra: ClosedForm | None


@dataclass(frozen=True, eq=False)
class CommunicationMatrix:
    """The graph Laplacian P on the closed-neighborhood slots of its graph, and its products.

    ``cols`` and ``values`` are read-only (n + 2|E|,) arrays: slot k holds
    P[rows[k], cols[k]], in the row-major order of ``neighborhood_slots``,
    and ``starts[i]`` is the first slot of row i. Every entry of P off the
    slots is zero. ``rows`` is derived from ``starts`` on each read; every
    other derived quantity on first read, and kept.

    W is formed on first read, as one syrk of D^(-1/2) P written straight
    from the slots.
    """

    n: int
    cols: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), np.diff(self.starts, append=self.cols.size))

    @cached_property
    def transpose(self) -> np.ndarray:
        """transpose[k] is the slot (j, i) of slot k = (i, j).

        Row j's slots (j, i) are ascending in i, and so are the slots (i, j)
        of column j in row-major order, so a stable sort by column lists
        them in row j's places. Only the edge engine reads it.
        """
        transpose = np.argsort(self.cols, kind="stable")
        transpose.flags.writeable = False
        return transpose

    @cached_property
    def kept_dense(self) -> np.ndarray:
        """P as an n x n array from its slots, built by the dense-product route and kept, read-only, as long as the matrix.

        Its first entry sits on a 64-byte boundary, where its GEMVs measured
        faster (README, Performance).
        """
        size = self.n * self.n
        buf = np.zeros(size + 8)
        start = -buf.ctypes.data % 64 // 8
        P = buf[start : start + size].reshape(self.n, self.n)
        P[self.rows, self.cols] = self.values
        P.flags.writeable = False
        return P

    @cached_property
    def col_norms_sq(self) -> np.ndarray:
        """m_i = sum_{j in N(i)} P_ji^2, the diagonal of M: one ``bincount`` over the slots."""
        return np.bincount(self.cols, weights=self.values * self.values, minlength=self.n)

    @cached_property
    def nbhd_sizes(self) -> np.ndarray:
        """|N(i)|, the number of row i's slots: the diagonal of D."""
        return np.diff(self.starts, append=self.cols.size).astype(float)

    @cached_property
    def route(self) -> Route:
        """This matrix's ``Route``, made on first read: the product crossover and circulance are each decided here, once.

        The two are independent. Below the crossover
        (``dense_products_are_cheaper``) P x and P'v are ``np.matmul`` with
        the kept dense P and P' (``stack_apply`` on a stack); above it they
        run over the slots (``_slot_apply``). A circulant P (``_circulant``)
        takes W x and W^+ B by ``np.fft`` on W's symbol, never forms W, and
        carries its ``ClosedForm`` spectra; any other takes W x with the
        dense W and W^+ B by ``_solved_pinv``, and knows no spectrum.
        """
        dense = dense_products_are_cheaper(self)
        if dense:
            P = self.kept_dense
            p, pt = partial(_apply, P), partial(_apply, P.T)
        else:
            p = pt = partial(_slot_apply, self.cols, self.starts, self.values)
        if not _circulant(self):
            me = weakref.proxy(self)  # see ``Route``
            return Route(p, pt, lambda x: _apply(me.W, x), lambda B, kappa: me._solved_pinv(B, kappa, not dense), None)
        n, symbol = self.n, _symbol(self)
        gram = symbol * symbol / self.nbhd_sizes[0]
        spectra = ClosedForm(*(_unfolded(half, n) for half in (symbol, gram, self.col_norms_sq[0] - gram)))
        gain = np.zeros(symbol.size)  # 1 / lam_k(W), and 0 on the k = 0 mode: the consensus direction, W's null space
        np.divide(1.0, gram[1:], out=gain[1:])
        return Route(p, pt, partial(_fourier, gain=gram, n=n), lambda B, kappa: _fourier(B, gain, n), spectra)

    @cached_property
    def W(self) -> np.ndarray:
        """P' D^-1 P, formed on first read and kept: B = D^(-1/2) P written straight from the slots, then one syrk, ``_syrk``."""
        B = np.zeros((self.n, self.n))
        rows = self.rows
        B[rows, self.cols] = self.values * (1.0 / np.sqrt(self.nbhd_sizes))[rows]
        W = np.empty((self.n, self.n))
        _syrk(B, W)
        return W

    def w_by_products(self, x: np.ndarray) -> np.ndarray:
        """W x = P'(D^-1 (P x)) of an (n,) or (n, d) operand, by two P products and no W."""
        route = self.route
        y = route.p(x)
        y /= self.nbhd_sizes if x.ndim == 1 else self.nbhd_sizes[:, None]
        return route.pt(y)

    def _solved_pinv(self, B: np.ndarray, kappa: float, slots: bool) -> np.ndarray:
        """W^+ B off the circulant family: by conjugate gradients over the slots where they cost less, else by one dense solve.

        ``kappa`` bounds the conjugate-gradient steps (``cg_step_bound``; inf
        sends B to the dense solve). Where P's products run over the
        ``slots`` and ``conjugate_gradients_are_cheaper`` says so for B's d
        columns, ``_cg_pinv`` solves with no n x n array; if it misses CG_RTOL
        within the bound, the dense solve runs instead: null(W) = span{1}, so
        W + 11'/n is invertible with inverse W^+ + 11'/n, and removing the
        column means of its solve drops the 11'/n B part exactly.
        """
        steps = cg_step_bound(kappa)
        if slots and conjugate_gradients_are_cheaper(self, steps, B.shape[1]):
            X = self._cg_pinv(B, steps)
            if X is not None:
                return X
        X = np.linalg.solve(self.W + 1.0 / self.n, B)
        return X - X.mean(axis=0)

    def _cg_pinv(self, B: np.ndarray, steps: int) -> np.ndarray | None:
        """W^+ B by conjugate gradients on 1's complement, one column of B at a time; None if a column misses CG_RTOL.

        Each step takes W q by ``w_by_products``. The residual is centered
        after each update: rounding leaves a consensus part in it, which W^+
        drops and no step can remove, and which on a two-node graph can exceed
        CG_RTOL on its own. A column is done once its residual is within
        CG_RTOL of its centered right-hand side; it gives up after ``steps``
        or on a direction with no positive curvature.
        """
        X = np.empty(B.shape)
        for j in range(B.shape[1]):
            r = B[:, j] - B[:, j].mean()
            x = np.zeros(self.n)
            q = r.copy()  # the search direction
            rr = r @ r
            goal = CG_RTOL * CG_RTOL * rr
            for _ in range(steps):
                if rr <= goal:
                    break
                wq = self.w_by_products(q)
                curvature = q @ wq
                if not curvature > 0.0:
                    return None
                step = rr / curvature
                x += step * q
                r -= step * wq
                r -= r.mean()
                rr_next = r @ r
                q *= rr_next / rr
                q += r
                rr = rr_next
            if rr > goal:
                return None
            X[:, j] = x - x.mean()
        return X


def _circulant(comm: CommunicationMatrix) -> bool:
    """Whether P is circulant: every row holds row 0's offsets (j - i) mod n, with row 0's values on them.

    Then every row has |N(0)| slots, so D is a multiple of I, and W and
    M - W are circulant too. The values must be equal exactly. A row's
    offsets are distinct, so a row of |N(0)| slots whose every offset is one
    of row 0's holds all of them.
    """
    if np.any(comm.nbhd_sizes != comm.nbhd_sizes[0]):
        return False
    offsets = (comm.cols - comm.rows) % comm.n
    first = np.full(comm.n, np.nan)  # row 0 by offset; nan off its slots, equal to no value
    first[offsets[: comm.starts[1]]] = comm.values[: comm.starts[1]]
    return bool(np.all(first[offsets] == comm.values))


def _symbol(comm: CommunicationMatrix) -> np.ndarray:
    """P's eigenvalues lam_k(P), k = 0..n/2 in ``np.fft.rfft`` order, of a circulant P; lam_(n-k) = lam_k.

    A symmetric circulant is diagonal in the Fourier basis (Davis,
    *Circulant Matrices*, 1979): lam_k = sum_j P_0j cos(2 pi j k / n) over
    row 0's slots, taken as sum_j P_0j + sum_(j != 0) (-2 P_0j) sin^2(pi r / n)
    with r = min(jk mod n, n - jk mod n) in integers. So every angle lies
    in [0, pi/2], and for the Laplacian, whose rows sum to 0 exactly and
    whose off-diagonal entries are -1, lam_k = 2 sum_(j != 0) sin^2(pi r / n)
    is a sum of terms >= 0, correct to a few ulps even where cosines near
    1 would cancel, or angles near pi lose digits: lam_2(W) of circulant
    n=1600 and n=10^4, degree 20, lies within 4e-17 and 4e-16 of an
    mpmath value, relative (2.5e-14 and 1.2e-13 with angles in [0, pi)).
    Taken over blocks of k, so the temporaries stay small on dense rows.
    """
    row = slice(0, comm.starts[1])
    j, values = comm.cols[row], comm.values[row]
    off = j != 0
    j, weights = j[off], -2.0 * values[off]
    n = comm.n
    k = np.arange(n // 2 + 1)
    lam = np.empty(k.size)
    step = max(1, _BLOCK_ENTRIES // max(1, j.size))
    for k0 in range(0, k.size, step):
        jk = np.outer(k[k0 : k0 + step], j) % n
        lam[k0 : k0 + step] = np.sin(np.minimum(jk, n - jk) * (np.pi / n)) ** 2 @ weights
    lam += math.fsum(values.tolist())
    lam.flags.writeable = False
    return lam


def _unfolded(half: np.ndarray, n: int) -> np.ndarray:
    """Every eigenvalue, ascending, of an n x n symmetric circulant from its symbol at k = 0..n/2: lam_(n-k) = lam_k."""
    return np.sort(np.concatenate((half, half[1 : (n + 1) // 2])))


def _syrk(B: np.ndarray, W: np.ndarray) -> None:
    """W = B' B into W: numpy runs it as one BLAS syrk, half a GEMM, exactly symmetric, and allocates nothing."""
    np.matmul(B.T, B, out=W)


def _slot_apply(cols, starts, values, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P x over P's slots ``cols``, ``starts`` and ``values``, into ``out`` if given.

    An (n,) operand is one ``_slot_product``; an (n, d) operand or an
    (..., n, d) stack is one per (n,) column, which sums each row in the
    order an (n, d) ``reduceat`` would, so the bits agree; column by
    column is the faster of the two.
    """
    if x.ndim == 1:
        return _slot_product(cols, starts, values, x, out)
    res = np.empty(x.shape) if out is None else out
    for *lead, j in np.ndindex(*x.shape[:-2], x.shape[-1]):
        column = (*lead, slice(None), j)
        _slot_product(cols, starts, values, x[column], res[column])
    return res


def _slot_product(cols, starts, values, x: np.ndarray, out=None) -> np.ndarray:
    """sum_{j in N(i)} P_ij x_j for every row i of an (n,) operand, into ``out`` if given.

    x is gathered to one entry per slot by fancy indexing (cast to float, a
    no-op for a float x), scaled in place by the slot values and summed over
    each row's slots with ``np.add.reduceat``.
    """
    buf = x[cols].astype(float, copy=False)
    buf *= values
    return np.add.reduceat(buf, starts, out=out)


def _fourier(x: np.ndarray, gain: np.ndarray, n: int) -> np.ndarray:
    """irfft(rfft(x) gain) along x's node axis, axis 0 of an (n,) operand and -2 otherwise, for a gain per mode k = 0..n/2."""
    axis = 0 if x.ndim == 1 else -2
    modes = np.fft.rfft(x, axis=axis)
    modes *= gain if x.ndim == 1 else gain[:, None]
    return np.fft.irfft(modes, n=n, axis=axis)


def _apply(A: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A v: ``np.matmul`` of an (n,) or (n, d) operand, into ``out`` if given; ``stack_apply`` of an (..., n, d) stack."""
    return np.matmul(A, v, out=out) if v.ndim <= 2 else stack_apply(A, v)


def stack_apply(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for every (n, d) entry of an (..., n, d) stack, as one GEMM of rows (A v)' = v' A'.

    For d = 1 the rows are a free reshape; for d > 1 the stack is transposed
    first. The result is C-contiguous, as every route's stacks are: for d = 1
    the GEMM's own array, for d > 1 one transposing copy of it. Its swapped
    view steps (n d, 1, n) entries along its axes, and every ufunc that met
    it ran 9-10x slower than on a contiguous array (README, Performance).
    """
    rows = np.swapaxes(v, -1, -2)  # (..., d, n)
    return np.ascontiguousarray(np.swapaxes((rows.reshape(-1, v.shape[-2]) @ A.T).reshape(rows.shape), -1, -2))


def cg_step_bound(kappa: float) -> float:
    """Conjugate-gradient steps that bring a residual within CG_RTOL of the right-hand side: inf unless 1 <= kappa < inf.

    After k steps on a matrix of condition number kappa the energy-norm error
    falls by 2 ((sqrt kappa - 1) / (sqrt kappa + 1))^k <= 2 exp(-2k / sqrt kappa)
    (Hestenes & Stiefel 1952), and the residual by at most sqrt kappa times
    that, so k = (1/2) sqrt(kappa) ln(2 / eps) with eps = CG_RTOL / sqrt(kappa)
    steps suffice in exact arithmetic.
    """
    if not 1.0 <= kappa < math.inf:
        return math.inf
    root = math.sqrt(kappa)
    return math.ceil(0.5 * root * math.log(2.0 * root / CG_RTOL))


def conjugate_gradients_are_cheaper(comm: CommunicationMatrix, steps: float, d: int) -> bool:
    """Whether ``steps`` conjugate-gradient steps on each of d columns, two slot products each, cost less than the dense solve for W^+.

    The dense solve forms W + 11'/n and LU-factors it: about n^3 / SOLVE_DIV
    dense GEMV entries, whatever d (its d triangular solves add 2 n^2 d);
    SOLVE_DIV leaves the dense solve a margin where the two routes cross
    (README, Performance). ``_cg_pinv`` takes one column at a time, so d
    columns cost d times one. The vector updates of a step cost O(n),
    little next to its two products.
    """
    return 2.0 * steps * d * (SLOT_COST * comm.cols.size + SLOT_FIXED) < comm.n**3 / SOLVE_DIV


def dense_products_are_cheaper(comm: CommunicationMatrix) -> bool:
    """Whether P x costs less as a dense GEMV than over the n + 2|E| slots.

    A dense GEMV costs n^2 entries. A slot product costs about SLOT_COST
    entries per slot (its gather, scale and sum) plus SLOT_FIXED per call
    (its three numpy calls), fitted to one-thread d = 1 timings (README,
    Performance). Near the crossover the two cost about the same, and the
    slots keep no n x n array.
    """
    return comm.n * comm.n <= SLOT_COST * comm.cols.size + SLOT_FIXED


def build_graph(n: int, edges) -> Graph:
    """Build a connected graph from a sequence of (i, j) pairs or an (m, 2) array.

    Raises NodeOutOfRangeError, SelfLoopError or DuplicateEdgeError, each
    carrying the input position ``index`` of the offending edge, or
    DisconnectedError. Of several invalid edges the first in input order is
    reported, and on one edge the range check comes before the self-loop check.
    """
    if n < 2:
        raise InfeasibleParamsError(f"need at least 2 nodes, got n={n}")
    try:
        raw = np.asarray(edges, dtype=np.intp)
    except OverflowError:  # a node id beyond intp, out of range in any case
        raw = np.asarray(edges, dtype=object)
    if raw.size == 0:
        raw = raw.reshape(0, 2)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError(f"edges must be (i, j) pairs, got an array of shape {raw.shape}")

    outside = (raw < 0) | (raw >= n)
    outside = outside[:, 0] | outside[:, 1]
    first_outside = int(np.argmax(outside)) if outside.any() else len(raw)
    # only the edges before the first out-of-range one can raise ahead of it
    pairs = raw[:first_outside].astype(np.intp, copy=False)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    key = lo * n + hi
    order = np.argsort(key, kind="stable")  # equal keys stay in input order
    sorted_key = key[order]
    repeats = order[1:][sorted_key[1:] == sorted_key[:-1]]  # all but the first of each pair
    loops = np.flatnonzero(lo == hi)
    first_loop = int(loops[0]) if loops.size else first_outside
    first_repeat = int(repeats.min()) if repeats.size else first_outside
    if first_loop < first_outside and first_loop <= first_repeat:
        raise SelfLoopError(f"self-loop at node {lo[first_loop]}", index=first_loop)
    if first_repeat < first_outside:
        k = first_repeat
        raise DuplicateEdgeError(f"duplicate edge ({lo[k]}, {hi[k]})", index=k)
    if first_outside < len(raw):
        i, j = raw[first_outside].tolist()
        raise NodeOutOfRangeError(f"edge ({i},{j}) outside 0..{n - 1}", index=first_outside)

    normalized = np.column_stack((lo, hi))[order]
    degrees = np.bincount(normalized.ravel(), minlength=n)
    unreachable = _unreachable_from_0(n, normalized)
    if unreachable.size:
        raise DisconnectedError(f"graph is disconnected; unreachable nodes {unreachable[:5].tolist()}")
    normalized.flags.writeable = False
    degrees.flags.writeable = False
    return Graph(n=n, edges=normalized, degrees=degrees)


def _unreachable_from_0(n: int, edges: np.ndarray) -> np.ndarray:
    """Ascending nodes outside node 0's connected component.

    Every node points at a node of smaller or equal label, so the pointers
    form a forest; its roots label the components found so far. Each round
    hooks every root onto the smallest root across the edges of its tree,
    then jumps pointers until each node points at its root. While an edge
    joins two trees some root hooks, so the loop ends. On paths, trees and
    grids of up to 10^4 nodes in random order it took at most 9 rounds,
    where a breadth-first search loops once per level: n - 1 times on a path.
    """
    u = np.concatenate((edges[:, 0], edges[:, 1]))
    v = np.concatenate((edges[:, 1], edges[:, 0]))
    root = np.arange(n)
    while True:
        np.minimum.at(root, root[u], root[v])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        if np.array_equal(root[u], root[v]):  # every edge inside one tree
            return np.flatnonzero(root)  # root 0 labels node 0's component


def _upper_pairs(n: int, k: np.ndarray) -> np.ndarray:
    """The pairs (i, j > i) at positions k of the row-major order of all such pairs.

    Row i starts at position i (2n - i - 1) / 2, so no (n(n-1)/2)-long index
    arrays are built.
    """
    rows = np.arange(n)
    row_start = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(row_start, k, side="right") - 1
    return np.column_stack((i, k - row_start[i] + i + 1))


def generate_graph(kind: str, n: int, *, d: int | None = None, p: float | None = None, seed: int | None = None) -> Graph:
    """Deterministic graph generators: path, cycle, complete, circulant, erdos_renyi.

    circulant: each node i is adjacent to i +- 1, ..., i +- d/2 (mod n); d must
    be even and < n, producing a d-regular graph.
    erdos_renyi: edge probability p, rejection-sampled on connectivity with a
    counter-advanced seeded generator (same (n, p, seed) always yields the
    same graph).
    """
    num_pairs = max(n, 0) * max(n - 1, 0) // 2  # pairs i < j
    if kind == "path":
        v = np.arange(n - 1)
        return build_graph(n, np.column_stack((v, v + 1)))
    if kind == "cycle":
        if n < 3:
            raise InfeasibleParamsError("cycle needs n >= 3")
        v = np.arange(n)
        return build_graph(n, np.column_stack((v, (v + 1) % n)))
    if kind == "complete":
        return build_graph(n, _upper_pairs(n, np.arange(num_pairs)))
    if kind == "circulant":
        if d is None:
            raise InfeasibleParamsError("circulant requires d")
        if d % 2 != 0 or d < 2:
            raise InfeasibleParamsError(f"circulant requires positive even d, got {d}")
        if d >= n:
            raise InfeasibleParamsError(f"circulant requires d < n, got d={d}, n={n}")
        # offsets k and n-k never coincide because d < n, so no duplicates
        i = np.tile(np.arange(n), d // 2)
        j = (i + np.repeat(np.arange(1, d // 2 + 1), n)) % n
        return build_graph(n, np.column_stack((i, j)))
    if kind == "erdos_renyi":
        if p is None or not (0.0 < p <= 1.0):
            raise InfeasibleParamsError(f"erdos_renyi requires p in (0,1], got {p}")
        base_seed = 0 if seed is None else int(seed)
        for attempt in range(1000):
            rng = np.random.default_rng([base_seed, attempt])
            # one draw per pair, in row-major pair order, taken in chunks of the same stream
            chunks = range(0, max(num_pairs, 1), _ER_CHUNK)
            keep = [np.flatnonzero(rng.random(min(_ER_CHUNK, num_pairs - lo)) < p) + lo for lo in chunks]
            try:
                return build_graph(n, _upper_pairs(n, np.concatenate(keep)))
            except DisconnectedError:
                continue
        raise ConnectivityRetryExhaustedError(
            f"no connected graph in 1000 attempts (n={n}, p={p}, seed={base_seed})"
        )
    raise InfeasibleParamsError(f"unknown graph kind {kind!r}")


def neighborhood_slots(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, starts) of the slots (i, j), j in N(i), in row-major order.

    There are n + 2|E| slots; those of row i are contiguous from
    ``starts[i]``, |N(i)| long and ascending in j, and include the diagonal
    slot (i, i). Row i holds, in order, its edges (j, i) with j < i, then
    (i, i), then its edges (i, j) with j > i. Each slot's position is
    computed from degree counts, so no array of n + 2|E| keys is sorted:
    only the m edges, by (j, edge position). Each array is read-only.
    """
    n, m = g.n, g.m
    node, edge = np.arange(n), np.arange(m)
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    below = np.bincount(hi, minlength=n)  # neighbors j < i of each node i
    above = g.degrees - below
    starts = np.cumsum(g.degrees + 1) - (g.degrees + 1)
    diag = starts + below
    # g.edges is sorted by (i, j): the edges (i, .) are a run starting at cumsum(above) - above
    upper = diag[lo] + 1 + edge - (np.cumsum(above) - above)[lo]  # slot (i, j) of edge (i, j)
    # sorted by (j, edge position), the edges (., j) are a run starting at cumsum(below) - below
    by_hi = np.argsort(hi * m + edge)
    lower = np.empty(m, dtype=np.intp)  # slot (j, i) of edge (i, j)
    lower[by_hi] = starts[hi[by_hi]] + edge - (np.cumsum(below) - below)[hi[by_hi]]
    rows, cols = np.empty(n + 2 * m, dtype=np.intp), np.empty(n + 2 * m, dtype=np.intp)
    rows[diag], rows[upper], rows[lower] = node, lo, hi
    cols[diag], cols[upper], cols[lower] = node, hi, lo
    for a in (rows, cols, starts):
        a.flags.writeable = False
    return rows, cols, starts


def laplacian(g: Graph) -> CommunicationMatrix:
    """Graph Laplacian on g's closed-neighborhood slots: the degree |N(i)| - 1 on row i's diagonal slot, -1 on its others."""
    rows, cols, starts = neighborhood_slots(g)
    values = np.where(rows == cols, np.diff(starts, append=cols.size)[rows] - 1, -1.0)
    values.flags.writeable = False
    return CommunicationMatrix(n=g.n, cols=cols, starts=starts, values=values)


def write_graph_file(g: Graph, path) -> None:
    """Write the 'n m' header then one 'i j' line per edge."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.m}\n")
        fh.write(("%d %d\n" * g.m) % tuple(g.edges.ravel().tolist()))


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
    edges, linenos = [], []
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
        linenos.append(lineno)
    if len(edges) != m:
        raise GraphFileError(f"header promised {m} edges, file has {len(edges)}", lineno=1)
    try:
        return build_graph(n, edges)
    except EdgeError as exc:
        raise GraphFileError(str(exc), lineno=linenos[exc.index]) from exc
    except (DisconnectedError, InfeasibleParamsError) as exc:  # the whole graph, so the header line
        raise GraphFileError(str(exc), lineno=1) from exc
