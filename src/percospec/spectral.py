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
batches: one block-diagonal decomposition, one keying pass (one sort of
the open edges, then one ``np.unique`` per cluster size and edge count) and
one stacked eigensolve per cluster size serve every realization of a batch,
so the Python-level work grows with the number of distinct shapes, not
with the number of clusters or realizations.  The array work grows with the
open edges: only the vertices they touch are decomposed and counted, and
the isolated window vertices, each a size-1 cluster, are counted by
subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import EmbeddedGraph, norm_sign
from .percolation import (
    BondConfiguration,
    ClusterDecomposition,
    PercolationParams,
    _decompose,
    _sem,
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
    return _laplacians(n, [np.asarray(edges, dtype=np.int64).reshape(-1, 2)])[0]


def _laplacians(size: int, shapes: Sequence[np.ndarray]) -> np.ndarray:
    """Dense Laplacians D - A, stacked, of graphs on ``size`` vertices given
    by their edge lists."""
    lap = np.zeros((len(shapes), size, size))
    which = np.repeat(np.arange(len(shapes)), [e.shape[0] for e in shapes])
    a, b = np.concatenate(shapes).T
    np.add.at(lap, (which, a, b), -1.0)
    np.add.at(lap, (which, b, a), -1.0)
    degrees = np.bincount(np.concatenate([which * size + a, which * size + b]),
                          minlength=len(shapes) * size)
    diagonal = np.arange(size)
    lap[:, diagonal, diagonal] = degrees.reshape(len(shapes), size)
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


class _ShapeCache:
    """Eigen-data per combinatorial cluster shape, bound to one energy grid.

    A shape key is (size, bytes of the locally indexed edge list); local
    indices follow the global vertex order, which is a translation-invariant
    ordering of the coefficient rows, so translated copies of a cluster
    share a key.  ``counts[key]`` holds the shape's cumulative eigenvalue
    counts at each grid energy.  ``vectors[key]`` holds its eigenvectors,
    kept only for shapes that a cluster straddling the counting window
    needed; a straddler's window weights are computed from them, so no
    (shape, window) pair is solved on its own.  Misses are solved in one
    stacked eigensolve per cluster size.  A shape is solved once, or a
    second time when it first straddles after a solve that kept no
    eigenvectors.
    """

    def __init__(self, energies: Sequence[float]):
        self.grid = _count_grid(energies)
        self.counts: dict = {}
        self.vectors: dict = {}

    def solve(self, keys: list, edges: list, with_vectors: np.ndarray) -> None:
        """Give every shape its counts, and its eigenvectors where
        ``with_vectors`` asks for them."""
        by_size: dict[int, list[int]] = {}
        for j, key in enumerate(keys):
            if key not in self.counts or (with_vectors[j] and key not in self.vectors):
                by_size.setdefault(key[0], []).append(j)
        for size, missing in by_size.items():
            step = max(1, _SOLVE_ENTRIES // (size * size))
            for c0 in range(0, len(missing), step):
                chunk = missing[c0 : c0 + step]
                vals, vecs = eigensystem(_laplacians(size, [edges[j] for j in chunk]))
                # vals ascend, so this is searchsorted(vals, grid, "right")
                counts = (vals[:, :, None] <= self.grid).sum(axis=1).astype(float)
                for i, j in enumerate(chunk):
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


@dataclass
class _Shapes:
    """Shape keys of some clusters.

    ``labels`` lists the keyed clusters in ascending order; cluster
    ``labels[i]`` has the shape ``keys[index[i]]``, whose local edge list is
    ``edges[index[i]]``, and owns the vertices
    ``vertices[starts[i]:starts[i + 1]]`` in ascending (local) order.  Each
    distinct shape appears once in ``keys``.
    """

    labels: np.ndarray
    index: np.ndarray
    keys: list[tuple[int, bytes]]
    edges: list[np.ndarray]
    vertices: np.ndarray
    starts: np.ndarray


def _key_shapes(
    edges: np.ndarray, labels: np.ndarray, sizes: np.ndarray, chosen: np.ndarray
) -> _Shapes:
    """Exact shape keys of the chosen clusters (a mask over labels; every
    chosen cluster has at least one open edge), built in one batch.

    ``edges`` are the open edges as rows (u, v), u < v, in ascending order
    (as ``EmbeddedGraph.edges`` keeps them).  A vertex's local index is its
    rank inside its cluster in ascending vertex order.  That numbering
    keeps the vertex order, so a cluster's rows are already sorted by local
    (lo, hi), and one stable sort by (group, cluster) lines them up, where
    a group holds the clusters of one size and edge count.  Each group is
    then one contiguous run of equal-width cluster blocks, and one
    ``np.unique`` over those blocks finds the group's distinct shapes.
    Every temporary is sized by the chosen clusters, except one int32
    array over the vertices that ``labels`` covers.
    """
    chosen_labels = np.flatnonzero(chosen)
    chosen_sizes = sizes[chosen_labels]
    vertices = np.flatnonzero(chosen[labels])
    vertices = vertices[np.argsort(labels[vertices], kind="stable")]
    starts = np.concatenate([[0], np.cumsum(chosen_sizes)])
    local = np.empty(labels.size, dtype=np.int32)
    local[vertices] = np.arange(vertices.size) - np.repeat(starts[:-1], chosen_sizes)

    owner = labels[edges[:, 0]]
    keep = np.flatnonzero(chosen[owner])
    e = edges.take(keep, axis=0)
    # each kept edge's cluster, as a position in chosen_labels
    which = (np.cumsum(chosen) - 1)[owner[keep]]
    n_edges = np.bincount(which, minlength=chosen_labels.size)
    group = chosen_sizes * (e.shape[0] + 1) + n_edges
    by_group = np.argsort(group, kind="stable")
    rank = np.empty(chosen_labels.size, dtype=np.int64)
    rank[by_group] = np.arange(chosen_labels.size)
    by_row = np.argsort(rank[which], kind="stable")
    rows = local[e.take(by_row, axis=0)].astype(np.int64)

    grouped = group[by_group]
    cuts = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), chosen_labels.size]
    index = np.empty(chosen_labels.size, dtype=np.int64)
    keys: list[tuple[int, bytes]] = []
    shapes: list[np.ndarray] = []
    row = 0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        members = by_group[c0:c1]
        size, m = int(chosen_sizes[members[0]]), int(n_edges[members[0]])
        blocks = rows[row : row + members.size * m].reshape(members.size, 2 * m)
        row += members.size * m
        # one opaque item per block: np.unique compares them bytewise, which
        # is exact and much faster than np.unique(..., axis=0)
        distinct, inverse = np.unique(blocks.view(f"V{blocks.itemsize * 2 * m}")[:, 0],
                                      return_inverse=True)
        index[members] = len(keys) + inverse
        for block in distinct.view(np.int64).reshape(-1, 2 * m):
            shape = block.reshape(m, 2)
            keys.append((size, shape.tobytes()))
            shapes.append(shape)
    return _Shapes(labels=chosen_labels, index=index, keys=keys, edges=shapes,
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
    cache.solve(shapes.keys, shapes.edges, with_vectors)
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

    single, pair = (1, b""), (2, np.array([[0, 1]], dtype=np.int64).tobytes())
    cache.solve([single, pair], [np.empty((0, 2), np.int64), np.array([[0, 1]])], [False, True])
    vec_single, vec_pair = cache.counts[single], cache.counts[pair]
    vec_pair_half = _window_weighted(cache.vectors[pair][None], np.array([[True, False]]),
                                     vec_pair[None])[0]

    def count(dec: ClusterDecomposition) -> tuple[np.ndarray, np.ndarray | None, int]:
        """One batch's kept rows, its chi rows and its truncation count."""
        labels, sizes, first = dec.labels, dec.sizes, dec.first
        k = first.size - 1
        chi = None if chi_row is None else chi_row(dec)

        def blocks(clusters: np.ndarray) -> np.ndarray:
            # the realization of each cluster a mask over labels selects
            return np.searchsorted(first, np.flatnonzero(clusters), side="right") - 1

        # every count below runs over the touched vertices and the
        # nontrivial clusters; the isolated window vertices are the rest
        inside = in_ball[dec.vertex]
        in_count = np.bincount(labels[inside], minlength=sizes.size)
        counted = in_count > 0
        dropped = np.zeros(k, dtype=bool)
        if flag_boundary:
            dropped[:] = near_window
            dropped[blocks(counted & dec.boundary_touching)] = True
            counted &= np.repeat(~dropped, np.diff(first))
        big = counted & (sizes > _MAX_CLUSTER_SIZE)
        if bool(big.any()):
            # the message names the first kept realization with such a cluster
            own = slice(*first[blocks(big)[0] :][:2])
            raise RuntimeError(
                f"a counted cluster has {int(sizes[own][big[own]].max())} vertices "
                f"(cap {_MAX_CLUSTER_SIZE}); this estimator assumes the "
                "subcritical regime"
            )
        acc = np.zeros((k, grid.size))
        # vectorized shapes: singletons, counted by subtraction, and single edges
        acc += vec_single * (window - np.bincount(dec.block[inside], minlength=k))[:, None]
        size2 = counted & (sizes == 2)
        acc += vec_pair * np.bincount(blocks(size2 & (in_count == 2)), minlength=k)[:, None]
        acc += vec_pair_half * np.bincount(blocks(size2 & (in_count == 1)), minlength=k)[:, None]
        larger = counted & (sizes >= 3)
        if larger.any():
            cluster_rows = _shape_rows(cache, dec.edges, labels, sizes, in_count, inside, larger)
            acc = _add_in_order(acc, blocks(larger), cluster_rows)
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
    margins = np.array([
        float(eigenvalues(laplacian_from_edges(s, edges))[1]) * s * s
        for (s, _), edges in zip(shapes.keys, shapes.edges)
    ])
    return CheegerReport(
        checked=int(copies.sum()),
        violations=int(copies[margins < 1.0].sum()),
        min_margin=float(margins.min()),
        largest_cluster=int(sizes.max()),
    )
