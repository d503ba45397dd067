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
the per-realization cost into bookkeeping.  The keys of a realization are
built in one batch (one sort of its open edges, then one ``np.unique`` per
cluster size and edge count), so the Python-level work per realization
grows with the number of distinct shapes, not with the number of clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import Ball, EmbeddedGraph
from .percolation import (
    BondConfiguration,
    ClusterDecomposition,
    PercolationParams,
    _sem,
    decompose,
    sample,
)

__all__ = [
    "SNAP_TOL",
    "AllRealizationsTruncated",
    "laplacian_from_edges",
    "full_laplacian",
    "eigenvalues",
    "eigensystem",
    "ChainSpectrum",
    "chain_spectrum",
    "chain_gap_bound",
    "CheegerReport",
    "cheeger_check",
    "IdsTable",
    "ids_estimate",
    "bruteforce_ids_oracle",
]


class AllRealizationsTruncated(RuntimeError):
    """Every realization of a run (or chunk of one) was dropped because a
    counted cluster reached the patch boundary."""

    def __init__(self, message: str = "every realization had a counted cluster near the "
                 "patch boundary; enlarge the patch or reduce the counting radius"):
        super().__init__(message)


# eigenvalues this close to zero are the kernel of a cluster Laplacian; the
# smallest genuine positive eigenvalue of a connected cluster on s vertices
# is at least 1/s^2, far above this for any cluster we ever solve
SNAP_TOL = 1e-9


def laplacian_from_edges(n: int, edges: np.ndarray) -> np.ndarray:
    """Dense combinatorial Laplacian D - A on n vertices."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a, b = edges[:, 0], edges[:, 1]
    lap = np.diag(np.bincount(edges.ravel(), minlength=n).astype(float))
    np.add.at(lap, (a, b), -1.0)
    np.add.at(lap, (b, a), -1.0)
    return lap


def full_laplacian(g: EmbeddedGraph, open_mask: np.ndarray, max_vertices: int = 4000) -> np.ndarray:
    """Dense Laplacian of the open subgraph of the whole patch.

    Block-diagonal over clusters, so its spectrum equals the union of the
    per-cluster spectra; kept as an independent route for cross-checks.
    Dense, hence capped to small patches.
    """
    if g.n_vertices > max_vertices:
        raise ValueError(
            f"{g.n_vertices} vertices is too large for a dense Laplacian "
            f"(cap {max_vertices})"
        )
    open_mask = np.asarray(open_mask, dtype=bool)
    return laplacian_from_edges(g.n_vertices, g.edges[open_mask])


def _snap(vals: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals, dtype=float).copy()
    vals[np.abs(vals) <= SNAP_TOL] = 0.0
    return vals


def eigenvalues(mat: np.ndarray, residual_tol: float = 1e-8) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, kernel snapped to zero,
    with an a-posteriori residual check on every eigenpair."""
    vals, vecs = eigensystem(mat, residual_tol=residual_tol)
    return vals


def eigensystem(mat: np.ndarray, residual_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (snapped) and orthonormal eigenvectors, verified: the
    residual ||M v - lambda v|| must not exceed residual_tol * max(1, ||M||)."""
    mat = np.asarray(mat, dtype=float)
    vals, vecs = np.linalg.eigh(mat)
    scale = max(1.0, float(np.linalg.norm(mat)) if mat.size else 0.0)
    resid = np.linalg.norm(mat @ vecs - vecs * vals[None, :], axis=0)
    worst = float(resid.max()) if resid.size else 0.0
    if worst > residual_tol * scale:
        raise ArithmeticError(
            f"eigenpair residual {worst:.3e} exceeds {residual_tol:.1e} * {scale:.3e}"
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

    length: int
    energies: np.ndarray
    vectors: np.ndarray  # column k is phi_k

    @property
    def spectral_gap(self) -> float:
        return float(self.energies[1]) if self.length > 1 else math.inf


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
    return ChainSpectrum(length=l, energies=energies, vectors=vectors)


def chain_gap_bound(l: int) -> float:
    """10 / l^2 dominates the chain spectral gap 4 sin^2(pi / 2l)."""
    if l < 1:
        raise ValueError("chain length must be positive")
    return 10.0 / (l * l)


# ---------------------------------------------------------------------------
# cluster shape cache


class _ShapeCache:
    """Eigen-data per combinatorial cluster shape, bound to one energy grid.

    A shape key is (size, bytes of the locally indexed edge list); local
    indices follow the global vertex order, which is a translation-invariant
    ordering of the coefficient rows, so translated copies of a cluster
    share a key.  ``_key_shapes`` builds the keys of a realization in one
    batch and looks each distinct shape up once.  Only eigenvalues and
    reduced grid vectors are retained; eigenvectors are recomputed for the
    rare window-straddling clusters.
    """

    def __init__(self, grid: np.ndarray | None = None):
        self.grid = grid
        self.eigs: dict = {}
        self.grid_counts: dict = {}
        self.partial_counts: dict = {}

    def spectrum(self, key, n, local_edges) -> np.ndarray:
        got = self.eigs.get(key)
        if got is None:
            got = eigenvalues(laplacian_from_edges(n, local_edges))
            self.eigs[key] = got
        return got

    def count_vector(self, key, n, local_edges) -> np.ndarray:
        """Cumulative eigenvalue counts of the shape at each grid energy."""
        got = self.grid_counts.get(key)
        if got is None:
            vals = self.spectrum(key, n, local_edges)
            got = np.searchsorted(vals, self.grid, side="right").astype(float)
            self.grid_counts[key] = got
        return got

    def partial_vector(self, key, n, local_edges, inside_local) -> np.ndarray:
        """Cumulative eigenfunction-weighted counts over the inside vertices."""
        pk = (key, inside_local.tobytes())
        got = self.partial_counts.get(pk)
        if got is None:
            vals, vecs = eigensystem(laplacian_from_edges(n, local_edges))
            self.eigs.setdefault(key, vals)
            weights = (vecs[inside_local] ** 2).sum(axis=0)
            cum = np.concatenate([[0.0], np.cumsum(weights)])
            got = cum[np.searchsorted(vals, self.grid, side="right")]
            self.partial_counts[pk] = got
        return got


@dataclass
class _Shapes:
    """Shape keys of some clusters of one realization.

    ``labels`` lists the keyed clusters in ascending order; cluster
    ``labels[i]`` has the shape ``keys[index[i]]``, whose local edge list is
    ``edges[index[i]]``.  Each distinct shape appears once in ``keys``.
    """

    labels: np.ndarray
    index: np.ndarray
    keys: list[tuple[int, bytes]]
    edges: list[np.ndarray]


def _key_shapes(dec: ClusterDecomposition, open_mask: np.ndarray, chosen: np.ndarray) -> _Shapes:
    """Exact shape keys of the chosen clusters (a mask over labels; every
    chosen cluster has at least one open edge), built in one batch.

    A vertex's local index is its rank inside its cluster in ascending
    vertex order.  The chosen clusters' open edges become (lo, hi) rows in
    local indices.  Clusters of equal size and edge count form a group;
    the rows are sorted by group, cluster, lo and hi, so each group is one
    contiguous run of equal-width cluster blocks, and one ``np.unique``
    over those blocks finds the group's distinct shapes.
    """
    order = dec.vertex_order
    position = np.empty(order.size, dtype=np.int64)
    position[order] = np.arange(order.size)
    e = dec.graph.edges[open_mask]
    owner = dec.labels[e[:, 0]]
    keep = chosen[owner]
    e, owner = e[keep], owner[keep]
    first = dec.vertex_bounds[owner]
    a, b = position[e[:, 0]] - first, position[e[:, 1]] - first
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    n_edges = np.bincount(owner, minlength=dec.n_clusters)
    group = dec.sizes * (e.shape[0] + 1) + n_edges
    by_row = np.lexsort((hi, lo, owner, group[owner]))
    rows = np.column_stack([lo[by_row], hi[by_row]])

    labels = np.flatnonzero(chosen)
    by_group = np.argsort(group[labels], kind="stable")
    grouped = group[labels[by_group]]
    cuts = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), labels.size]

    index = np.empty(labels.size, dtype=np.int64)
    keys: list[tuple[int, bytes]] = []
    edges: list[np.ndarray] = []
    row = 0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        members = by_group[c0:c1]
        label = labels[members[0]]
        size, m = int(dec.sizes[label]), int(n_edges[label])
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
            edges.append(shape)
    return _Shapes(labels=labels, index=index, keys=keys, edges=edges)


# ---------------------------------------------------------------------------
# the finite-volume estimator


@dataclass
class IdsTable:
    """Per-realization spectral counts N(E) on a fixed energy grid.

    ``rows`` holds one realization per row (already divided by the window
    volume); summaries average across rows.  ``tail`` subtracts the mass at
    zero realization by realization, so its spread reflects the actual
    estimator noise of N(E) - N(0).
    """

    energies: np.ndarray
    rows: np.ndarray
    volume: float
    window_vertices: int
    p: float
    master_seed: int
    counting_radius: float | None
    requested_realizations: int
    truncated_realizations: int

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


def ids_estimate(
    g: EmbeddedGraph,
    params: PercolationParams,
    energies: Sequence[float],
    counting_radius: float | None = None,
    flag_boundary: bool = True,
    max_cluster_size: int = 2000,
    realization_offset: int = 0,
    observe: Callable[[BondConfiguration, ClusterDecomposition], None] | None = None,
) -> IdsTable:
    """Monte Carlo table of the finite-volume spectral count.

    With a counting radius, mass is collected over the open ball of that
    radius at the origin and divided by its area; without one the whole
    patch is counted with volume one (raw eigenvalue counts).  Realizations
    in which a counted cluster comes within l_max of the patch boundary are
    dropped and tallied in ``truncated_realizations`` (the cluster could
    extend beyond the generated patch, so its spectrum is not trustworthy);
    pass flag_boundary=False to keep every realization, e.g. when comparing
    whole-patch counts against exact enumeration.

    ``realization_offset`` shifts the realization indices to
    offset .. offset + realizations - 1.  Because every realization is keyed
    by its absolute index, splitting a run into contiguous chunks and
    stacking the resulting rows reproduces the single-call run exactly.

    ``observe(cfg, dec)``, when given, sees every sampled configuration and
    its decomposition, kept or truncated, so callers can take further
    statistics of the same realizations without sampling them again.
    """
    grid = np.unique(np.concatenate([[0.0], np.asarray(list(energies), dtype=float)]))
    if grid[0] < 0.0:
        raise ValueError("energies must be nonnegative")
    n = g.n_vertices
    if counting_radius is None:
        in_ball = np.ones(n, dtype=bool)
        volume = 1.0
    else:
        ball = Ball((0.0, 0.0), counting_radius)
        in_ball = ball.contains(g.embed)
        volume = math.pi * counting_radius**2
    window_vertices = int(in_ball.sum())

    cache = _ShapeCache(grid)
    pair_key = (2, np.array([[0, 1]], dtype=np.int64).tobytes())
    pair_edges = np.array([[0, 1]], dtype=np.int64)
    vec_single = cache.count_vector((1, b""), 1, np.empty((0, 2), np.int64))
    vec_pair = cache.count_vector(pair_key, 2, pair_edges)
    vec_pair_half = cache.partial_vector(pair_key, 2, pair_edges, np.array([0]))

    rows = []
    truncated = 0
    for r in range(realization_offset, realization_offset + params.realizations):
        cfg = sample(g, params, r)
        dec = decompose(g, cfg)
        if observe is not None:
            observe(cfg, dec)
        labels, sizes = dec.labels, dec.sizes
        in_count = np.bincount(labels[in_ball], minlength=dec.n_clusters)
        counted = in_count > 0
        if flag_boundary and bool((counted & dec.boundary_touching).any()):
            truncated += 1
            continue
        big = counted & (sizes > max_cluster_size)
        if bool(big.any()):
            raise RuntimeError(
                f"a counted cluster has {int(sizes[big].max())} vertices "
                f"(cap {max_cluster_size}); this estimator assumes the "
                "subcritical regime"
            )
        acc = np.zeros(grid.size)
        # vectorized shapes: singletons and single edges
        acc += vec_single * int(np.count_nonzero(counted & (sizes == 1)))
        size2 = counted & (sizes == 2)
        acc += vec_pair * int(np.count_nonzero(size2 & (in_count == 2)))
        acc += vec_pair_half * int(np.count_nonzero(size2 & (in_count == 1)))

        larger = counted & (sizes >= 3)
        if larger.any():
            shapes = _key_shapes(dec, cfg.open_mask, larger)
            whole = in_count[shapes.labels] == sizes[shapes.labels]
            vecs = np.empty((shapes.labels.size, grid.size))
            # straddlers first: a shape first met straddling is solved once,
            # with eigenvectors, and its eigenvalues then serve the copies
            # wholly inside the window
            order, bounds = dec.vertex_order, dec.vertex_bounds
            for i in np.flatnonzero(~whole):
                label, j = shapes.labels[i], shapes.index[i]
                members = order[bounds[label] : bounds[label + 1]]
                inside = np.flatnonzero(in_ball[members])
                vecs[i] = cache.partial_vector(shapes.keys[j], members.size, shapes.edges[j], inside)
            # a shape seen only straddling already has its eigenvalues from
            # partial_vector, so its count vector costs no eigensolve
            table = np.array([cache.count_vector(key, key[0], edges)
                              for key, edges in zip(shapes.keys, shapes.edges)])
            vecs[whole] = table[shapes.index[whole]]
            # a running sum down the rows is the same sequence of float
            # additions as adding each cluster's vector to acc in turn
            acc = np.add.accumulate(np.vstack([acc, vecs]), axis=0)[-1]
        rows.append(acc / volume)

    if not rows:
        raise AllRealizationsTruncated()
    return IdsTable(
        energies=grid,
        rows=np.array(rows),
        volume=volume,
        window_vertices=window_vertices,
        p=params.p,
        master_seed=params.master_seed,
        counting_radius=counting_radius,
        requested_realizations=params.realizations,
        truncated_realizations=truncated,
    )


def bruteforce_ids_oracle(
    g: EmbeddedGraph,
    p: float,
    energies: Sequence[float],
    max_edges: int = 20,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact mean and variance of the whole-patch eigenvalue count.

    Enumerates all bond configurations, solving the full open-subgraph
    Laplacian each time (an independent route from the per-cluster assembly
    in the estimator).  Returns (grid, mean, variance) over the same grid
    convention as ids_estimate: the zero energy is always included.
    """
    from itertools import product

    m = g.n_edges
    if m > max_edges:
        raise ValueError(f"{m} edges exceeds the enumeration cap {max_edges}")
    grid = np.unique(np.concatenate([[0.0], np.asarray(list(energies), dtype=float)]))
    mean = np.zeros(grid.size)
    second = np.zeros(grid.size)
    for bits in product((False, True), repeat=m):
        mask = np.array(bits, dtype=bool)
        k = int(mask.sum())
        w = (p**k) * ((1.0 - p) ** (m - k))
        vals = eigenvalues(full_laplacian(g, mask))
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
    max_cluster_size: int = 2000,
) -> CheegerReport:
    """Verify E_1(C) >= 1/|C|^2 for every nontrivial cluster of each
    configuration (E_1 = smallest nonzero Laplacian eigenvalue)."""
    cache = _ShapeCache()
    checked = 0
    violations = 0
    min_margin = math.inf
    largest = 0
    for cfg in configurations:
        dec = decompose(g, cfg)
        sizes = dec.sizes
        nontrivial = sizes >= 2
        if not nontrivial.any():
            continue
        over = np.flatnonzero(nontrivial & (sizes > max_cluster_size))
        if over.size:
            raise RuntimeError(
                f"cluster of {int(sizes[over[0]])} vertices exceeds the cap {max_cluster_size}"
            )
        shapes = _key_shapes(dec, cfg.open_mask, nontrivial)
        copies = np.bincount(shapes.index, minlength=len(shapes.keys))
        for key, edges, n_copies in zip(shapes.keys, shapes.edges, copies.tolist()):
            s = key[0]
            margin = float(cache.spectrum(key, s, edges)[1]) * s * s
            checked += n_copies
            min_margin = min(min_margin, margin)
            if margin < 1.0:
                violations += n_copies
        largest = max(largest, int(sizes.max()))
    return CheegerReport(
        checked=checked,
        violations=violations,
        min_margin=min_margin,
        largest_cluster=largest,
    )
