"""Laplacian spectra of percolation clusters and the finite-volume spectral
count.

The central estimator accumulates, for one bond realization, the spectral
mass of every open cluster meeting a counting window, normalized by the
window volume.  Mass is localized with eigenfunction weights: an eigenpair
(E_k, phi_k) of a cluster contributes sum_{v in window} |phi_k(v)|^2 to the
count at E_k, so each window vertex carries total mass exactly one and
clusters straddling the window edge enter with the correct partial weight.
Clusters wholly inside the window contribute unit mass per eigenvalue and
need no eigenvectors at all.

Spectra depend only on the combinatorial shape of a cluster, so eigensolves
are cached under a translation-invariant shape key; in the subcritical
regime a handful of shapes covers almost every cluster and the cache turns
the per-realization cost into bookkeeping.  Realizations are counted in
batches: one block-diagonal decomposition, one keying pass (one
``np.bitwise_or.at`` that sets each open edge's bit in its cluster's
adjacency words, then one ``np.unique`` per word count) and one stacked
eigensolve per cluster size serve every realization of a batch, so the
Python-level work grows with the number of distinct shapes, not with the
number of clusters or realizations.  The array work grows with the
open edges: only the vertices they touch are decomposed and counted, and
the isolated window vertices, each a size-1 cluster, are counted by
subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import EmbeddedGraph, norm_sign
from .percolation import (
    BondConfiguration,
    ClusterDecomposition,
    PercolationParams,
    _decompose,
    _sem,
    _stable_order,
    cluster_size_statistic,
    decompose,  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
    realization_batches,
    sample,  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
)

__all__ = [
    "SNAP_TOL",
    "laplacian_from_edges",
    "eigenvalues",
    "eigensystem",
    "ChainSpectrum",
    "chain_spectrum",
    "CheegerReport",
    "cheeger_check",
    "IdsTable",
    "ids_estimate",
    "bruteforce_ids_oracle",
]


# eigenvalues this close to zero are the kernel of a cluster Laplacian; the
# smallest genuine positive eigenvalue of a connected cluster on s vertices
# is at least 1/s^2, far above this for any cluster we ever solve
SNAP_TOL = 1e-9

# an eigenpair is accepted when its residual ||M v - lambda v|| is at most
# this times max(1, ||M||)
_RESIDUAL_TOL = 1e-8

# the estimator and the gap check solve clusters of at most this many
# vertices; a larger one means the run is not subcritical
_MAX_CLUSTER_SIZE = 2000


def laplacian_from_edges(n: int, edges: np.ndarray) -> np.ndarray:
    """Dense combinatorial Laplacian D - A on n vertices."""
    a, b = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    lap = np.zeros((n, n))
    np.add.at(lap, (a, b), -1.0)
    np.add.at(lap, (b, a), -1.0)
    diagonal = np.arange(n)
    lap[diagonal, diagonal] = np.bincount(np.concatenate([a, b]), minlength=n)
    return lap


def _laplacian_stack(size: int, words: np.ndarray) -> np.ndarray:
    """Dense Laplacians D - A, stacked, of the graphs on ``size`` vertices
    whose adjacency bits are the rows of ``words`` (see ``_key_shapes``).

    The off-diagonal entries are zero minus the adjacency, so a non-edge is
    +0.0, never -0.0, and every entry is an integer: each matrix has the
    bytes of ``laplacian_from_edges`` on the same edges."""
    pairs = size * (size - 1) // 2
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         axis=1, count=pairs, bitorder="little")
    # a mask is read in row-major order, the order of np.triu_indices
    vertex = np.arange(size)
    upper = vertex[:, None] < vertex
    adj = np.zeros((words.shape[0], size, size))
    adj[:, upper] = bits
    adj.transpose(0, 2, 1)[:, upper] = bits
    degrees = adj.sum(axis=2)
    lap = np.subtract(0.0, adj, out=adj)
    lap[:, vertex, vertex] = degrees
    return lap


def _snap(vals: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals, dtype=float).copy()
    vals[np.abs(vals) <= SNAP_TOL] = 0.0
    return vals


def eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, kernel snapped to zero,
    with an a-posteriori residual check on every eigenpair."""
    vals, vecs = eigensystem(mat)
    return vals


def eigensystem(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (snapped) and orthonormal eigenvectors, verified: the
    residual ||M v - lambda v|| must not exceed _RESIDUAL_TOL * max(1, ||M||).

    ``mat`` may also be a stack (c, n, n) of matrices, solved in one call
    and each checked against its own norm; a matrix gets the same
    eigenpairs alone or in a stack."""
    mat = np.asarray(mat, dtype=float)
    vals, vecs = np.linalg.eigh(mat)
    scale = np.maximum(1.0, np.linalg.norm(mat, axis=(-2, -1)))
    resid = np.linalg.norm(mat @ vecs - vecs * vals[..., None, :], axis=-2)
    worst = resid.max(axis=-1, initial=0.0)
    over = worst / (_RESIDUAL_TOL * scale)
    if np.any(over > 1.0):
        i = np.unravel_index(np.argmax(over), over.shape)
        raise ArithmeticError(
            f"eigenpair residual {float(worst[i]):.3e} exceeds {_RESIDUAL_TOL:.1e} * "
            f"{float(scale[i]):.3e}"
        )
    return _snap(vals), vecs


# ---------------------------------------------------------------------------
# chains


@dataclass(frozen=True)
class ChainSpectrum:
    """Closed-form spectrum of the open chain (path graph) on l vertices.

    Eigenvalues E_k = 4 sin^2(pi k / (2 l)) for k = 0, ..., l-1, with
    eigenvectors phi_0 = l^{-1/2} and
    phi_k(j) = sqrt(2/l) cos(pi k (j - 1/2) / l) at vertex j = 1, ..., l.
    """

    energies: np.ndarray
    vectors: np.ndarray  # column k is phi_k


def chain_spectrum(l: int) -> ChainSpectrum:
    if l < 1:
        raise ValueError("chain length must be positive")
    k = np.arange(l)
    energies = 4.0 * np.sin(math.pi * k / (2.0 * l)) ** 2
    j = np.arange(1, l + 1)
    vectors = np.sqrt(2.0 / l) * np.cos(
        math.pi * np.outer(j - 0.5, k) / l
    )
    vectors[:, 0] = 1.0 / math.sqrt(l)
    return ChainSpectrum(energies=energies, vectors=vectors)


# ---------------------------------------------------------------------------
# cluster shape cache


# matrix entries that one stacked eigensolve holds at most
_SOLVE_ENTRIES = 1 << 18


def _count_grid(energies: Sequence[float]) -> np.ndarray:
    """The estimator's energy grid: the requested energies and zero, sorted
    and without repeats."""
    # a plain sort and dedupe: np.unique with no index output imports
    # numpy.ma on its first call
    grid = np.sort(np.concatenate([[0.0], np.asarray(list(energies), dtype=float)]))
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    if grid[0] < 0.0:
        raise ValueError("energies must be nonnegative")
    return grid


def _stacks(keys: Sequence[tuple]) -> Iterator[tuple[int, list[int], np.ndarray, np.ndarray]]:
    """Eigensystems of the shapes ``keys``, solved in stacks of one size and
    at most ``_SOLVE_ENTRIES`` matrix entries: yields each stack's size, the
    positions of its shapes in ``keys``, its eigenvalues and eigenvectors."""
    by_size: dict[int, list[int]] = {}
    for j, key in enumerate(keys):
        by_size.setdefault(key[0], []).append(j)
    for size, members in by_size.items():
        step = max(1, _SOLVE_ENTRIES // (size * size))
        for c0 in range(0, len(members), step):
            chunk = members[c0 : c0 + step]
            words = np.array([keys[j] for j in chunk], dtype=np.uint64)[:, 1:]
            yield size, chunk, *eigensystem(_laplacian_stack(size, words))


class _ShapeCache:
    """Eigen-data per combinatorial cluster shape, bound to one energy grid.

    A shape key is the tuple (size, w_0, w_1, ...) of ``_key_shapes``: the
    cluster's vertex count and the words of its adjacency bits in local
    vertex order.  Local indices follow the global vertex order, which is a
    translation-invariant ordering of the coefficient rows, so translated
    copies of a cluster share a key.  ``counts[key]`` holds the shape's
    cumulative eigenvalue counts at each grid energy.  ``vectors[key]``
    holds its eigenvectors, kept only for shapes that a cluster straddling
    the counting window needed; a straddler's window weights are computed
    from them, so no (shape, window) pair is solved on its own.  Misses are
    solved in stacks of one size, each built straight from the keys' bits.
    A shape is solved once, or a second time when it first straddles after
    a solve that kept no eigenvectors.
    """

    def __init__(self, energies: Sequence[float]):
        self.grid = _count_grid(energies)
        self.counts: dict = {}
        self.vectors: dict = {}

    def solve(self, keys: list, with_vectors: np.ndarray) -> None:
        """Give every shape its counts, and its eigenvectors where
        ``with_vectors`` asks for them."""
        missing = [j for j, key in enumerate(keys)
                   if key not in self.counts or (with_vectors[j] and key not in self.vectors)]
        for _, chunk, vals, vecs in _stacks([keys[j] for j in missing]):
            # vals ascend, so this is searchsorted(vals, grid, "right")
            counts = (vals[:, :, None] <= self.grid).sum(axis=1).astype(float)
            for i, j in enumerate(missing[c] for c in chunk):
                self.counts.setdefault(keys[j], counts[i])
                if with_vectors[j]:
                    # a copy, so the stack is not kept alive
                    self.vectors[keys[j]] = vecs[i].copy()


def _window_weighted(vectors: np.ndarray, inside: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Cumulative window-weighted counts of clusters of one size: row i
    sums, over cluster i's eigenpairs with E_k <= E, the mass of phi_k on
    its ``inside`` vertices.  ``vectors`` (c, s, s) are the eigenvectors in
    local vertex order, ``counts`` (c, grid) the shapes' cumulative counts.
    The masked sum adds the inside rows in vertex order, as summing only
    those rows would."""
    weights = (vectors**2 * inside[:, :, None]).sum(axis=1)
    cum = np.zeros((weights.shape[0], weights.shape[1] + 1))
    np.cumsum(weights, axis=1, out=cum[:, 1:])
    return np.take_along_axis(cum, counts.astype(np.intp), axis=1)


# the pair bits of a one-word cluster: 11 vertices have 55 pairs, 12 have 66
_PAIR_BITS = np.uint64(55)


@dataclass
class _Shapes:
    """Shape keys of some clusters.

    ``labels`` lists the keyed clusters in ascending order; cluster
    ``labels[i]`` has the shape ``keys[index[i]]`` and owns the vertices
    ``vertices[starts[i]:starts[i + 1]]`` in ascending (local) order.  Each
    distinct shape appears once in ``keys``.
    """

    labels: np.ndarray
    index: np.ndarray
    keys: list[tuple[int, ...]]
    vertices: np.ndarray
    starts: np.ndarray


def _key_shapes(
    edges: np.ndarray, labels: np.ndarray, sizes: np.ndarray, chosen: np.ndarray
) -> _Shapes:
    """Exact shape keys of the chosen clusters (a mask over labels; every
    chosen cluster has at least one open edge), built in one batch.

    ``edges`` are the open edges as rows (u, v), u < v (as
    ``EmbeddedGraph.edges`` keeps them).  A vertex's local index is its
    rank inside its cluster in ascending vertex order, which keeps the
    vertex order, so an edge is a local pair (lo, hi), lo < hi.  A cluster
    of s vertices keys as (s, w_0, ..., w_{n-1}): bit k of its words, the
    k-th pair of ``np.triu_indices(s, 1)``, is set when that pair is an
    edge, and n = ceil(s (s - 1) / 128) words hold the s (s - 1) / 2 pairs
    (one word up to 11 vertices, two up to 16).  On a simple graph the
    pairs are the sorted edge list, so the keys split the clusters exactly
    as their edge lists would.

    One ``np.bitwise_or.at`` sets every edge's bit in a flat word array,
    where the clusters lie ordered by word count, so the clusters of each
    width are one contiguous (clusters, 1 + width) block, ranked by one
    ``np.unique``.  No row is padded to a wider cluster's width, so a
    capped 2,000-vertex cluster takes its own 31,235 words and no more.
    Every temporary is sized by the chosen clusters and their edges, except
    one int32 array over the vertices that ``labels`` covers.
    """
    chosen_labels = np.flatnonzero(chosen)
    chosen_sizes = sizes[chosen_labels]
    vertices = np.flatnonzero(chosen[labels])
    vertices = vertices[_stable_order(labels[vertices])]
    starts = np.concatenate([[0], np.cumsum(chosen_sizes)])
    local = np.empty(labels.size, dtype=np.int32)
    local[vertices] = np.arange(vertices.size) - np.repeat(starts[:-1], chosen_sizes)

    owner = labels[edges[:, 0]]
    keep = np.flatnonzero(chosen[owner])
    # each kept edge's cluster, as a position in chosen_labels
    which = (np.cumsum(chosen) - 1)[owner[keep]]
    widths = (chosen_sizes * (chosen_sizes - 1) // 2 + 63) // 64
    by_width = np.argsort(widths, kind="stable")
    offsets = np.empty(chosen_labels.size, dtype=np.int64)
    offsets[by_width] = np.cumsum(widths[by_width]) - widths[by_width]
    lo = local[edges[keep, 0]].astype(np.int64)
    hi = local[edges[keep, 1]]
    size = chosen_sizes[which]
    bit = lo * (2 * size - lo - 1) // 2 + hi - lo - 1
    words = np.zeros(int(widths.sum()), dtype=np.uint64)
    np.bitwise_or.at(words, offsets[which] + (bit >> 6),
                     np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)))

    grouped = widths[by_width]
    cuts = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), chosen_labels.size]
    index = np.empty(chosen_labels.size, dtype=np.int64)
    keys: list[tuple[int, ...]] = []
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        members = by_width[c0:c1]
        width, first = int(grouped[c0]), int(offsets[members[0]])
        block = np.empty((members.size, 1 + width), dtype=np.uint64)
        block[:, 0] = chosen_sizes[members]
        block[:, 1:] = words[first : first + members.size * width].reshape(-1, width)
        if width == 1:
            # a one-word cluster has at most 11 vertices and 55 pair bits,
            # so its size folds in above them and np.unique sorts numbers
            distinct, inverse = np.unique(block[:, 0] << _PAIR_BITS | block[:, 1],
                                          return_inverse=True)
            distinct = np.column_stack([distinct >> _PAIR_BITS,
                                        distinct & (1 << _PAIR_BITS) - 1])
        else:
            # one opaque item per row: np.unique compares them bytewise,
            # which is exact and much faster than np.unique(..., axis=0)
            distinct, inverse = np.unique(block.view(f"V{8 * (1 + width)}")[:, 0],
                                          return_inverse=True)
            distinct = distinct.view(np.uint64).reshape(-1, 1 + width)
        index[members] = len(keys) + inverse
        keys.extend(map(tuple, distinct.tolist()))
    return _Shapes(labels=chosen_labels, index=index, keys=keys,
                   vertices=vertices, starts=starts)


# ---------------------------------------------------------------------------
# the finite-volume estimator


@dataclass
class IdsTable:
    """Per-realization spectral counts N(E) on a fixed energy grid.

    ``rows`` holds one realization per row (already divided by the window
    volume); summaries average across rows.  ``tail`` subtracts the mass at
    zero realization by realization, so its spread reflects the actual
    estimator noise of N(E) - N(0).  ``chi``, when the run asked for it,
    holds the mean cluster size of every requested realization, kept or
    truncated, one (1,)-row each, in realization order.
    """

    energies: np.ndarray
    rows: np.ndarray
    volume: float
    window_vertices: int
    truncated_realizations: int
    chi: np.ndarray | None = None

    @property
    def realizations(self) -> int:
        return self.rows.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return self.rows.mean(axis=0)

    @property
    def stderr(self) -> np.ndarray:
        return _sem(self.rows)

    @property
    def zero_index(self) -> int:
        return int(np.searchsorted(self.energies, 0.0))

    def tail(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard error of N(E) - N(0) on the energy grid."""
        t = self.rows - self.rows[:, self.zero_index][:, None]
        return t.mean(axis=0), _sem(t)


def _shape_rows(
    cache: _ShapeCache,
    edges: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    in_count: np.ndarray,
    inside: np.ndarray,
    chosen: np.ndarray,
) -> np.ndarray:
    """Count vectors of the chosen clusters, in label order: a cluster
    wholly inside the window adds its shape's counts, one straddling it the
    window-weighted counts of its ``inside`` vertices."""
    shapes = _key_shapes(edges, labels, sizes, chosen)
    straddle = in_count[shapes.labels] < sizes[shapes.labels]
    with_vectors = np.zeros(len(shapes.keys), dtype=bool)
    with_vectors[shapes.index[straddle]] = True
    cache.solve(shapes.keys, with_vectors)
    rows = np.array([cache.counts[key] for key in shapes.keys])[shapes.index]
    cut = np.flatnonzero(straddle)
    cut_sizes = sizes[shapes.labels[cut]]
    for size in sorted(set(cut_sizes.tolist())):
        some = cut[cut_sizes == size]
        members = shapes.vertices[shapes.starts[some][:, None] + np.arange(size)]
        vectors = np.array([cache.vectors[shapes.keys[j]] for j in shapes.index[some]])
        rows[some] = _window_weighted(vectors, inside[members], rows[some])
    return rows


def _add_in_order(acc: np.ndarray, block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """acc[k] plus the rows of block k, added one at a time in row order:
    the same float additions as adding each cluster's vector to its
    realization's running sum in turn.  ``block`` ascends."""
    per_block = np.bincount(block, minlength=acc.shape[0])
    start = np.cumsum(per_block) - per_block
    grid = acc.shape[1]
    # numpy sums an axis in order when it is not the innermost one, so the
    # grid axis gets a spare column when it has one point; trailing zero
    # rows leave a sum unchanged
    padded = np.zeros((acc.shape[0], int(per_block.max()) + 1, max(grid, 2)))
    padded[:, 0, :grid] = acc
    padded[block, np.arange(block.size) - start[block] + 1, :grid] = rows
    return padded.sum(axis=1)[:, :grid]


def ids_estimate(
    g: EmbeddedGraph,
    params: PercolationParams,
    energies: Sequence[float],
    counting_radius: float | None = None,
    flag_boundary: bool = True,
    realization_offset: int = 0,
    chi_margin: float | None = None,
) -> IdsTable:
    """Monte Carlo table of the finite-volume spectral count.

    With a counting radius, mass is collected over the open ball of that
    radius at the origin and divided by its area; without one the whole
    patch is counted with volume one (raw eigenvalue counts).  Realizations
    in which a counted cluster comes at most l_max from the patch boundary are
    dropped and tallied in ``truncated_realizations`` (the cluster could
    extend beyond the generated patch, so its spectrum is not trustworthy);
    pass flag_boundary=False to keep every realization, e.g. when comparing
    whole-patch counts against exact enumeration.

    ``realization_offset`` shifts the realization indices to
    offset .. offset + realizations - 1.  Because every realization is keyed
    by its absolute index, splitting a run into contiguous chunks and
    stacking the resulting rows reproduces the single-call run exactly.

    Realizations are counted in the batches of ``realization_batches``:
    one decomposition, one shape-keying pass and one stacked eigensolve per
    cluster size serve a whole batch, and each realization's clusters are
    still added in label order, so a row does not depend on the batching.
    Each call solves its shapes in a cache of its own.  With ``chi_margin``
    the table's ``chi`` holds each realization's mean cluster size over the
    vertices farther than that from the patch boundary.  A run that keeps
    no realization returns a table with no rows that still holds the
    truncation count and the chi rows.
    """
    cache = _ShapeCache(energies)
    grid = cache.grid
    if counting_radius is None:
        in_ball = np.ones(g.n_vertices, dtype=bool)
        volume = 1.0
    else:
        in_ball = norm_sign(g.basis, g.coeffs, g.embed, counting_radius) < 0
        volume = math.pi * counting_radius**2
    window = int(in_ball.sum())
    # a window vertex at most l_max from the boundary is a counted cluster
    # touching it, isolated or not, so it drops every realization
    near_window = bool((in_ball & g.near_boundary).any())
    chi_row = None if chi_margin is None else cluster_size_statistic(g, chi_margin)

    # the keys of _key_shapes: one vertex, and two joined by an edge
    single, pair = (1,), (2, 1)
    cache.solve([single, pair], [False, True])
    vec_single, vec_pair = cache.counts[single], cache.counts[pair]
    vec_pair_half = _window_weighted(cache.vectors[pair][None], np.array([[True, False]]),
                                     vec_pair[None])[0]

    def count(dec: ClusterDecomposition) -> tuple[np.ndarray, np.ndarray | None, int]:
        """One batch's kept rows, its chi rows and its truncation count."""
        labels, sizes, owner = dec.labels, dec.sizes, dec.cluster_block
        k = dec.realizations
        chi = None if chi_row is None else chi_row(dec)
        # every count below runs over the touched vertices and the
        # nontrivial clusters; the isolated window vertices are the rest
        inside = in_ball[dec.vertex]
        in_count = np.bincount(labels[inside], minlength=sizes.size)
        counted = in_count > 0
        dropped = np.zeros(k, dtype=bool)
        if flag_boundary:
            dropped[:] = near_window
            dropped[owner[counted & dec.boundary_touching]] = True
            counted &= ~dropped[owner]
        big = counted & (sizes > _MAX_CLUSTER_SIZE)
        if bool(big.any()):
            # the message names the first kept realization with such a cluster
            big &= owner == owner[big].min()
            raise RuntimeError(
                f"a counted cluster has {int(sizes[big].max())} vertices "
                f"(cap {_MAX_CLUSTER_SIZE}); this estimator assumes the "
                "subcritical regime"
            )
        acc = np.zeros((k, grid.size))
        # vectorized shapes: singletons, counted by subtraction, and single edges
        acc += vec_single * (window - np.bincount(dec.block[inside], minlength=k))[:, None]
        size2 = counted & (sizes == 2)
        acc += vec_pair * np.bincount(owner[size2 & (in_count == 2)], minlength=k)[:, None]
        acc += vec_pair_half * np.bincount(owner[size2 & (in_count == 1)], minlength=k)[:, None]
        larger = counted & (sizes >= 3)
        if larger.any():
            cluster_rows = _shape_rows(cache, dec.edges, labels, sizes, in_count, inside, larger)
            acc = _add_in_order(acc, owner[larger], cluster_rows)
        return acc[~dropped] / volume, chi, int(dropped.sum())

    # through map, not a loop variable, so no batch's arrays are alive
    # while the next is sampled
    stop = realization_offset + params.realizations
    rows, chi, truncated = zip(*map(count, realization_batches(g, params, realization_offset, stop)))

    return IdsTable(
        energies=grid,
        rows=np.concatenate(rows),
        volume=volume,
        window_vertices=window,
        truncated_realizations=sum(truncated),
        chi=None if chi_row is None else np.concatenate(chi),
    )


# the exact oracles enumerate all 2^m bond configurations for m up to this
_MAX_ENUMERATED_EDGES = 20


def bruteforce_ids_oracle(
    g: EmbeddedGraph,
    p: float,
    energies: Sequence[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact mean and variance of the whole-patch eigenvalue count.

    Enumerates all bond configurations, solving the full open-subgraph
    Laplacian each time (an independent route from the per-cluster assembly
    in the estimator).  Returns (grid, mean, variance) over the same grid
    convention as ids_estimate: the zero energy is always included.
    """
    from itertools import product

    m = g.n_edges
    if m > _MAX_ENUMERATED_EDGES:
        raise ValueError(f"{m} edges exceeds the enumeration cap {_MAX_ENUMERATED_EDGES}")
    grid = _count_grid(energies)
    mean = np.zeros(grid.size)
    second = np.zeros(grid.size)
    for bits in product((False, True), repeat=m):
        mask = np.array(bits, dtype=bool)
        k = int(mask.sum())
        w = (p**k) * ((1.0 - p) ** (m - k))
        vals = eigenvalues(laplacian_from_edges(g.n_vertices, g.edges[mask]))
        counts = np.searchsorted(vals, grid, side="right").astype(float)
        mean += w * counts
        second += w * counts * counts
    var = np.maximum(second - mean * mean, 0.0)
    return grid, mean, var


# ---------------------------------------------------------------------------
# spectral-gap check


@dataclass
class CheegerReport:
    """Spectral gaps of nontrivial clusters against the 1/|C|^2 floor."""

    checked: int
    violations: int
    min_margin: float  # min over clusters of E_1 * |C|^2 (>= 1 when the bound holds)
    largest_cluster: int

    @property
    def all_hold(self) -> bool:
        return self.violations == 0


def cheeger_check(
    g: EmbeddedGraph,
    configurations: Sequence[BondConfiguration],
) -> CheegerReport:
    """Verify E_1(C) >= 1/|C|^2 for every nontrivial cluster of each
    configuration (E_1 = smallest nonzero Laplacian eigenvalue).  The
    configurations are decomposed and shape-keyed together, and each
    distinct shape is solved once."""
    masks = np.array([cfg.open_mask for cfg in configurations], dtype=bool)
    dec = _decompose(g, masks.reshape(-1, g.n_edges))
    sizes = dec.sizes
    if not sizes.size:
        return CheegerReport(checked=0, violations=0, min_margin=math.inf, largest_cluster=0)
    over = np.flatnonzero(sizes > _MAX_CLUSTER_SIZE)
    if over.size:
        raise RuntimeError(
            f"cluster of {int(sizes[over[0]])} vertices exceeds the cap {_MAX_CLUSTER_SIZE}"
        )
    shapes = _key_shapes(dec.edges, dec.labels, sizes, np.ones(sizes.size, dtype=bool))
    copies = np.bincount(shapes.index, minlength=len(shapes.keys))
    margins = np.empty(len(shapes.keys))
    for size, chunk, vals, _ in _stacks(shapes.keys):
        margins[chunk] = vals[:, 1] * size * size
    return CheegerReport(
        checked=int(copies.sum()),
        violations=int(copies[margins < 1.0].sum()),
        min_margin=float(margins.min()),
        largest_cluster=int(sizes.max()),
    )
