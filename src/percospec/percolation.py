"""Bernoulli bond percolation on a patch: sampling, clusters, decay statistics.

Each edge of the patch is kept open with probability p, independently.  The
randomness comes from a counter-based generator keyed on (master seed,
realization index), so any realization can be regenerated in isolation, in
any order, on any number of workers, with identical output.  Sharing the
per-edge uniforms across p gives the standard monotone coupling: the open
set at p is contained in the open set at p' >= p, edge by edge.

Cluster statistics are averaged over interior vertices only (far enough from
the patch boundary that the relevant events are decided inside the patch)
and over independent realizations; standard errors come from the spread of
the per-realization means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .graphs import EmbeddedGraph

__all__ = [
    "PercolationParams",
    "BondConfiguration",
    "ClusterDecomposition",
    "TailEstimate",
    "TailStatistic",
    "BoundsReport",
    "edge_uniforms",
    "sample",
    "decompose",
    "realization_batches",
    "per_realization_rows",
    "cluster_size_tail_statistic",
    "cluster_size_tail",
    "boundary_path_statistic",
    "boundary_path_probability",
    "boundary_path_bound",
    "cluster_size_statistic",
    "chi_estimate",
    "mean_cluster_size",
    "gamma_rate",
    "psi_rate",
    "bounds_report",
    "bruteforce_cluster_oracle",
]


@dataclass(frozen=True)
class PercolationParams:
    """Bond probability, seed, and realization budget for an experiment."""

    p: float
    master_seed: int
    realizations: int = 1

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"bond probability must lie in [0, 1], got {self.p}")
        if self.realizations < 1:
            raise ValueError("need at least one realization")


def edge_uniforms(n_edges: int, master_seed: int, realization_index: int) -> np.ndarray:
    """The uniform variables attached to the edges of one realization.

    Counter-based (Philox) and keyed on (master_seed, realization_index):
    the full vector is a pure function of the key, independent of evaluation
    order or thread placement.
    """
    bits = np.random.Philox(key=np.array([master_seed, realization_index], dtype=np.uint64))
    return np.random.Generator(bits).random(n_edges)


@dataclass
class BondConfiguration:
    """One sampled colouring of the patch edges (True = open)."""

    graph: EmbeddedGraph
    open_mask: np.ndarray
    p: float
    master_seed: int
    realization_index: int


def sample(
    g: EmbeddedGraph, params: PercolationParams, realization_index: int = 0
) -> BondConfiguration:
    u = edge_uniforms(g.n_edges, params.master_seed, realization_index)
    return BondConfiguration(
        graph=g,
        open_mask=u < params.p,
        p=params.p,
        master_seed=params.master_seed,
        realization_index=realization_index,
    )


@dataclass
class ClusterDecomposition:
    """Connected components of the open subgraphs of K realizations, taken
    together as one block-diagonal graph in which vertex v of realization k
    is k n + v (n the patch's vertex count).

    Only the vertices an open edge touches are held: ``touched`` lists their
    block ids in ascending order and ``labels`` their cluster ids.  Every
    other vertex is an isolated size-1 cluster and stays implicit, so the
    clusters numbered here are the nontrivial ones: ``sizes`` counts their
    vertices, realization k owns the clusters ``first[k]:first[k + 1]``, and
    ``edges`` are the open edges as rows of positions in ``touched``,
    ascending as ``EmbeddedGraph.edges``.  ``boundary_touching`` flags the
    clusters owning a vertex within l_max of the patch boundary (the
    finite-patch proxy for "possibly cut off").
    """

    graph: EmbeddedGraph
    touched: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray
    edges: np.ndarray
    first: np.ndarray

    @cached_property
    def block(self) -> np.ndarray:
        """The realization of each touched vertex."""
        return self.touched // self.graph.n_vertices

    @cached_property
    def vertex(self) -> np.ndarray:
        """The patch vertex of each touched vertex."""
        return self.touched - self.block * self.graph.n_vertices

    @cached_property
    def boundary_touching(self) -> np.ndarray:
        touching = np.zeros(self.sizes.size, dtype=bool)
        touching[self.labels[self.graph.near_boundary[self.vertex]]] = True
        return touching

    def cells(self, vertices: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The touched vertices among ``vertices`` (distinct patch ids):
        their positions in ``touched`` and their (realization, column)
        cells in a (K, ``vertices.size``) array."""
        column = np.full(self.graph.n_vertices, -1, dtype=np.intp)
        column[vertices] = np.arange(vertices.size)
        columns = column[self.vertex]
        chosen = np.flatnonzero(columns >= 0)
        return chosen, (self.block[chosen], columns[chosen])

    def sizes_at(self, vertices: np.ndarray) -> np.ndarray:
        """|C_v| for each of the ``vertices`` in every realization, as
        (K, ``vertices.size``) rows; an isolated vertex has size 1."""
        out = np.ones((self.first.size - 1, vertices.size), dtype=np.int64)
        chosen, cells = self.cells(vertices)
        out[cells] = self.sizes[self.labels[chosen]]
        return out


def _decompose(g: EmbeddedGraph, masks: np.ndarray) -> ClusterDecomposition:
    """Clusters of the K realizations whose open edges are the rows of
    ``masks`` (K x n_edges), found among the touched vertices only.  They
    are renumbered by rank, which keeps their order, and
    ``connected_components`` numbers clusters in the order of their lowest
    vertex, so block k holds realization k's clusters after those of the
    blocks before it."""
    k, n = masks.shape[0], g.n_vertices
    if k == 1:
        edges = g.edges.take(np.flatnonzero(masks[0]), axis=0)
    else:
        block, edge = np.nonzero(masks)
        edges = g.edges.take(edge, axis=0)
        edges += (block * n)[:, None]
    hit = np.zeros(k * n, dtype=bool)
    hit[edges] = True
    touched = np.flatnonzero(hit)
    # int32 ranks: no vertex-sized int64 copy when every vertex is touched
    rank = np.empty(k * n, dtype=np.int32)
    rank[touched] = np.arange(touched.size, dtype=np.int32)
    edges = rank[edges]
    if edges.shape[0]:
        t = touched.size
        m = coo_matrix((np.ones(edges.shape[0]), (edges[:, 0], edges[:, 1])), shape=(t, t))
        n_clusters, labels = connected_components(m, directed=False)
    else:
        n_clusters, labels = 0, np.empty(0, dtype=np.int32)
    # the first cluster of each block is that of its first touched vertex,
    # or, for a block with none, the first cluster of a later block
    starts = np.searchsorted(touched, n * np.arange(k))
    first = np.append(np.append(labels, n_clusters)[starts], n_clusters)
    return ClusterDecomposition(
        graph=g,
        touched=touched,
        labels=labels,
        sizes=np.bincount(labels, minlength=n_clusters),
        edges=edges,
        first=first,
    )


def decompose(g: EmbeddedGraph, omega: BondConfiguration | np.ndarray) -> ClusterDecomposition:
    """Cluster decomposition of one realization's open subgraph (isolated
    vertices are implicit size-1 clusters)."""
    open_mask = omega.open_mask if isinstance(omega, BondConfiguration) else np.asarray(omega, dtype=bool)
    if open_mask.shape != (g.n_edges,):
        raise ValueError("bond configuration does not match the edge count")
    return _decompose(g, open_mask[None])


# realization-times-vertex slots that one batch holds: a patch of n
# vertices is sampled and decomposed max(1, _BATCH_VERTEX_SLOTS // n)
# realizations at a time
_BATCH_VERTEX_SLOTS = 1 << 15


def realization_batches(
    g: EmbeddedGraph, params: PercolationParams, start: int, stop: int
) -> Iterator[ClusterDecomposition]:
    """Realizations ``start`` .. ``stop - 1``, sampled one at a time and
    decomposed a batch at a time, in order: one decomposition per batch."""
    per_batch = max(1, _BATCH_VERTEX_SLOTS // max(g.n_vertices, 1))
    for b0 in range(start, stop, per_batch):
        batch = range(b0, min(b0 + per_batch, stop))
        yield _decompose(g, np.array([sample(g, params, r).open_mask for r in batch]))


# ---------------------------------------------------------------------------
# interior statistics


@dataclass
class TailEstimate:
    """Monte Carlo estimates of a decay statistic over a ladder of scales."""

    stat: str
    n_values: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    realizations: int
    interior_vertices: int
    p: float
    master_seed: int
    warnings: list[str] = field(default_factory=list)


def _interior_indices(g: EmbeddedGraph, margin: float) -> np.ndarray:
    if g.box is None:
        raise ValueError("patch has no box; interior margin undefined")
    interior = np.flatnonzero(g.box.boundary_distance(g.embed) > margin)
    if interior.size == 0:
        raise ValueError("no interior vertices at this margin; enlarge the patch")
    return interior


# maps the decomposition of K realizations to their (K, width) rows
Statistic = Callable[[ClusterDecomposition], np.ndarray]


def per_realization_rows(
    g: EmbeddedGraph, params: PercolationParams, stats: Sequence[Statistic]
) -> list[np.ndarray]:
    """Sample and decompose each realization once and evaluate every
    statistic on that decomposition; one (realizations, width) array of
    rows per statistic."""
    rows: list[list[np.ndarray]] = [[] for _ in stats]
    for dec in realization_batches(g, params, 0, params.realizations):
        for stat_rows, stat in zip(rows, stats):
            stat_rows.append(stat(dec))
    return [np.concatenate(stat_rows) for stat_rows in rows]


def _fraction_at_least(x: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Row by row, the fraction of the entries of ``x`` (K, m) at or above
    each of the ascending ``thresholds``.  The counts are exact integers,
    so count / m has the bits of the mean of the 0/1 indicators."""
    k, m = x.shape
    width = thresholds.size + 1
    # how many thresholds each entry reaches
    reached = np.searchsorted(thresholds, x, side="right") + width * np.arange(k)[:, None]
    counts = np.bincount(reached.ravel(), minlength=k * width).reshape(k, width)
    return counts[:, :0:-1].cumsum(axis=1)[:, ::-1] / m


@dataclass(frozen=True)
class TailStatistic:
    """A decay statistic over a ladder of scales, ready to evaluate:
    calling it on a decomposition gives one row per realization, and
    ``estimate`` reduces the stacked rows to a ``TailEstimate``."""

    stat: str
    n_values: np.ndarray
    interior_vertices: int
    row: Statistic
    warnings: tuple[str, ...] = ()

    def __call__(self, dec: ClusterDecomposition) -> np.ndarray:
        return self.row(dec)

    def estimate(self, rows: np.ndarray, params: PercolationParams) -> TailEstimate:
        return TailEstimate(
            stat=self.stat,
            n_values=self.n_values,
            estimates=rows.mean(axis=0),
            stderrs=_sem(rows),
            realizations=params.realizations,
            interior_vertices=self.interior_vertices,
            p=params.p,
            master_seed=params.master_seed,
            warnings=list(self.warnings),
        )


def cluster_size_tail_statistic(
    g: EmbeddedGraph, n_values: Sequence[int], margin: float | None = None
) -> TailStatistic:
    """P(|C_v| >= n) for each n, averaged over interior vertices.

    Interior means farther than max(n) * l_max from the patch boundary, so
    the first n vertices of any counted cluster are certainly inside the
    patch and the indicator is exact.
    """
    n_values = np.asarray(sorted(int(n) for n in n_values))
    if n_values.size == 0 or n_values[0] < 1:
        raise ValueError("cluster sizes must be positive integers")
    if margin is None:
        margin = float(n_values.max()) * g.l_max
    interior = _interior_indices(g, margin)

    def row(dec: ClusterDecomposition) -> np.ndarray:
        return _fraction_at_least(dec.sizes_at(interior), n_values)

    return TailStatistic("cluster_size_tail", n_values.astype(float), int(interior.size), row)


def cluster_size_tail(
    g: EmbeddedGraph,
    params: PercolationParams,
    n_values: Sequence[int],
    margin: float | None = None,
) -> TailEstimate:
    """``cluster_size_tail_statistic`` estimated over ``params``'s realizations."""
    stat = cluster_size_tail_statistic(g, n_values, margin)
    (rows,) = per_realization_rows(g, params, [stat])
    return stat.estimate(rows, params)


# (vertex, member) pairs that _cluster_reach holds at once
_REACH_BLOCK = 1 << 20


def _cluster_reach(dec: ClusterDecomposition, interior: np.ndarray) -> np.ndarray:
    """Largest distance from each ``interior`` vertex to a member of its
    own cluster, as (K, interior) rows, one per realization.  An isolated
    vertex has reach 0, so only the touched ones are computed.

    Those are grouped by cluster size, so a group's clusters are one
    (clusters, size) block of the touched vertices sorted by cluster.  Each
    group is evaluated in blocks of at most ``_REACH_BLOCK`` (vertex,
    member) pairs, so a giant cluster costs memory linear in its size; a
    group with a single cluster broadcasts its members against every vertex
    rather than copying them once per vertex.
    """
    emb = dec.graph.embed
    chosen, cells = dec.cells(interior)
    labels = dec.labels[chosen]
    sizes = dec.sizes[labels]
    # touched vertices grouped by cluster: cluster c owns
    # members[bounds[c]:bounds[c + 1]]
    members = np.argsort(dec.labels, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(dec.sizes)])
    by_size = np.argsort(sizes, kind="stable")
    grouped = sizes[by_size]
    # a cut where the size changes; none when no interior vertex is touched
    cuts = [*np.flatnonzero(np.diff(grouped, prepend=-1)).tolist(), sizes.size]
    reach = np.empty(chosen.size)
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        group = by_size[c0:c1]
        clusters, which = np.unique(labels[group], return_inverse=True)
        owned = members[bounds[clusters][:, None] + np.arange(grouped[c0])]
        pts = emb[dec.vertex[owned]]
        step = max(1, _REACH_BLOCK // int(grouped[c0]))
        for b0 in range(0, group.size, step):
            block = slice(b0, b0 + step)
            near = pts[which[block]] if clusters.size > 1 else pts
            diff = emb[dec.vertex[chosen[group[block]]]][:, None, :] - near
            reach[group[block]] = np.sqrt((diff[..., 0] ** 2 + diff[..., 1] ** 2).max(axis=1))
    out = np.zeros((dec.first.size - 1, interior.size))
    out[cells] = reach
    return out


def boundary_path_statistic(
    g: EmbeddedGraph, n_values: Sequence[float], margin: float | None = None
) -> TailStatistic:
    """P(an open path leaves the ball B_n(v)) for each n, over interior v.

    The event is decided by the maximal Euclidean displacement within the
    cluster of v: the cluster exits B_n(v) iff it owns a vertex at distance
    >= n from v.
    """
    n_values = np.asarray(sorted(float(n) for n in n_values))
    if n_values.size == 0 or n_values[0] <= 0:
        raise ValueError("ball radii must be positive")
    if margin is None:
        margin = float(n_values.max()) * max(g.l_max, 1.0)
    interior = _interior_indices(g, margin)
    warnings = ()
    usable = 2.0 * g.box.radius
    if n_values.max() > usable:
        warnings = (
            f"ball radius {n_values.max():g} exceeds the patch reach {usable:g}; "
            "estimates beyond it are truncated to zero",
        )

    def row(dec: ClusterDecomposition) -> np.ndarray:
        return _fraction_at_least(_cluster_reach(dec, interior), n_values)

    return TailStatistic("boundary_path", n_values, int(interior.size), row, warnings)


def boundary_path_probability(
    g: EmbeddedGraph,
    params: PercolationParams,
    n_values: Sequence[float],
    margin: float | None = None,
) -> TailEstimate:
    """``boundary_path_statistic`` estimated over ``params``'s realizations."""
    stat = boundary_path_statistic(g, n_values, margin)
    (rows,) = per_realization_rows(g, params, [stat])
    return stat.estimate(rows, params)


def cluster_size_statistic(
    g: EmbeddedGraph, margin: float
) -> Callable[[ClusterDecomposition], np.ndarray]:
    """The per-realization rows of chi: mean |C_v| over the vertices farther
    than ``margin`` from the patch boundary, one (1,)-row per realization."""
    interior = _interior_indices(g, margin)
    is_interior = np.zeros(g.n_vertices, dtype=bool)
    is_interior[interior] = True

    def row(dec: ClusterDecomposition) -> np.ndarray:
        # each isolated interior vertex adds 1; the sums are of integers,
        # so they are exact in any order
        k = dec.first.size - 1
        sel = is_interior[dec.vertex]
        block = dec.block[sel]
        sums = np.bincount(block, weights=dec.sizes[dec.labels[sel]], minlength=k)
        isolated = interior.size - np.bincount(block, minlength=k)
        return ((sums + isolated) / interior.size)[:, None]

    return row


def chi_estimate(rows: np.ndarray) -> tuple[float, float]:
    """chi_hat and its standard error from the (realizations, 1) rows."""
    return float(rows.mean()), float(_sem(rows)[0])


def mean_cluster_size(
    g: EmbeddedGraph, params: PercolationParams, margin: float
) -> tuple[float, float]:
    """chi_hat: average |C_v| over the vertices farther than ``margin`` from
    the patch boundary and over realizations, with its standard error."""
    (rows,) = per_realization_rows(g, params, [cluster_size_statistic(g, margin)])
    return chi_estimate(rows)


def _sem(rows: np.ndarray) -> np.ndarray:
    """Standard error of the mean over realization rows."""
    r = rows.shape[0]
    if r < 2:
        return np.zeros(rows.shape[1])
    return rows.std(axis=0, ddof=1) / math.sqrt(r)


# ---------------------------------------------------------------------------
# rigorous-constant report


def gamma_rate(p: float, d_max: int) -> float:
    """Chain-prescription cost rate gamma(p) = -ln p - d_max ln(1 - p).

    The probability that a given self-avoiding chain of l edges is open and
    isolated is at least e^{-gamma l}.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("gamma is defined for 0 < p < 1")
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    return -math.log(p) - d_max * math.log(1.0 - p)


def psi_rate(p: float, d_max: int, l_max: float = 1.0) -> float:
    """Spatial decay rate of the boundary-path probability; positive iff
    p (d_max - 1) < 1."""
    if not (0.0 < p <= 1.0):
        raise ValueError("psi is defined for 0 < p <= 1")
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    if l_max <= 0:
        raise ValueError("l_max must be positive")
    return math.log(1.0 / (p * (d_max - 1))) / l_max


def boundary_path_bound(n: float, p: float, d_max: int, l_max: float = 1.0) -> float:
    """Rigorous bound 2 e^{-n psi(p)} on the probability that an open path
    leaves the ball of radius n around a vertex."""
    if n < 0:
        raise ValueError("radius must be nonnegative")
    return 2.0 * math.exp(-n * psi_rate(p, d_max, l_max))


@dataclass
class BoundsReport:
    """Decay constants implied by the patch geometry and bond probability.

    ``p_c_lower`` and ``psi_decay`` are rigorous consequences of d_max and
    l_max; ``gamma`` controls the low-energy tail bounds; ``lambda_decay``
    is computed from the measured mean cluster size and is labelled
    empirical because no rigorous finite chi bound accompanies it.
    """

    p: float
    d_max: int
    l_max: float
    p_c_lower: float
    psi_decay: float
    gamma: float
    chi_hat: float | None
    chi_stderr: float | None
    lambda_decay: float | None
    lambda_source: str
    holds_subcritical: bool

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "d_max": self.d_max,
            "l_max": self.l_max,
            "p_c_lower": self.p_c_lower,
            "psi_decay": self.psi_decay,
            "gamma": self.gamma,
            "chi_hat": self.chi_hat,
            "chi_stderr": self.chi_stderr,
            "lambda_decay": self.lambda_decay,
            "lambda_source": self.lambda_source,
            "holds_subcritical": self.holds_subcritical,
        }


def bounds_report(
    p: float,
    d_max: int,
    l_max: float,
    chi_hat: float | None = None,
    chi_stderr: float | None = None,
) -> BoundsReport:
    """Evaluate the decay constants at bond probability p.

    p_c_lower = 1 / (d_max - 1): below this, open paths die off exponentially.
    psi = ln(1 / (p (d_max - 1))) / l_max: spatial decay rate of the
    probability that an open path leaves a ball, positive iff subcritical.
    gamma = -ln p - d_max ln(1 - p): cost rate of prescribing a chain.
    lambda = 1 / (2 chi^2): cluster-size decay rate from the measured chi.
    """
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    if not (0.0 < p < 1.0):
        raise ValueError("bounds need 0 < p < 1")
    p_c_lower = 1.0 / (d_max - 1)
    subcritical = p * (d_max - 1) < 1.0
    psi = psi_rate(p, d_max, l_max) if l_max > 0 else math.inf
    gamma = gamma_rate(p, d_max)
    lam = None
    if chi_hat is not None:
        if chi_hat < 1.0:
            raise ValueError("mean cluster size cannot be below 1")
        lam = 1.0 / (2.0 * chi_hat * chi_hat)
    return BoundsReport(
        p=p,
        d_max=d_max,
        l_max=l_max,
        p_c_lower=p_c_lower,
        psi_decay=psi,
        gamma=gamma,
        chi_hat=chi_hat,
        chi_stderr=chi_stderr,
        lambda_decay=lam,
        lambda_source="empirical mean cluster size" if lam is not None else "unavailable",
        holds_subcritical=subcritical,
    )


# ---------------------------------------------------------------------------
# exact enumeration oracle


# the exact oracles enumerate all 2^m bond configurations for m up to this
_MAX_ENUMERATED_EDGES = 20


def bruteforce_cluster_oracle(
    g: EmbeddedGraph,
    p: float,
    vertex: int,
    n_values: Sequence[int] = (),
) -> dict:
    """Exact expectations by enumerating all 2^m bond configurations.

    Returns P(|C_v| >= n) for each requested n, E|C_v|, and the expected
    number of clusters, each as an exact weighted sum with weights
    p^(#open) (1-p)^(#closed).  Only feasible for small patches.
    """
    m = g.n_edges
    if m > _MAX_ENUMERATED_EDGES:
        raise ValueError(f"{m} edges exceeds the enumeration cap {_MAX_ENUMERATED_EDGES}")
    n_values = [int(n) for n in n_values]
    tail = {n: 0.0 for n in n_values}
    mean_size = 0.0
    mean_clusters = 0.0
    for bits in product((False, True), repeat=m):
        mask = np.array(bits, dtype=bool)
        k = int(mask.sum())
        w = (p**k) * ((1.0 - p) ** (m - k))
        dec = decompose(g, mask)
        size_v = int(dec.sizes_at(np.array([vertex]))[0, 0])
        for n in n_values:
            if size_v >= n:
                tail[n] += w
        mean_size += w * size_v
        mean_clusters += w * (dec.sizes.size + g.n_vertices - dec.touched.size)
    return {
        "tail": tail,
        "mean_cluster_size": mean_size,
        "expected_cluster_count": mean_clusters,
    }
