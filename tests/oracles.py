"""Hand-built patches and the exact cluster oracle, for the tests only.

``from_coeffs`` builds a patch straight from coefficient rows and edges, so
a test can delete an edge or leave a vertex isolated; the patch carries its
family's declared constants, and ``geometry_report`` measures them.
``restrict`` cuts a patch down to a smaller open ball about the origin,
the patch a census within that ball would see.  ``validate`` checks a
patch's structural invariants and its family's declared constants.
``bruteforce_cluster_oracle`` enumerates every bond configuration of a
small patch.  ``pattern_by_centre`` builds one r-pattern the way the
census once built each: a float scan of every vertex proposes,
``norm_sign`` decides, and the whole edge list is scanned for the induced
edges.  ``cut_and_project_candidates`` is the Ammann-Beenker candidate
enumeration as one box over every (k0, k1) row, the reference for the
generator's bounded-memory one.
"""

import math
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from percospec import graphs
from percospec.graphs import (
    FAMILIES,
    Ball,
    EmbeddedGraph,
    GraphGenerationError,
    norm_sign,
)
from percospec.patterns import CanonicalPattern, canonicalize
from percospec.percolation import decompose
from percospec.spectral import _MAX_ENUMERATED_EDGES


def from_coeffs(
    basis_id: str,
    coeffs: Iterable[Sequence[int]],
    edges: Iterable[Sequence[int]] = (),
    box: Ball | None = None,
) -> EmbeddedGraph:
    """Build a patch directly from coefficient rows."""
    if basis_id not in FAMILIES:
        raise GraphGenerationError(f"unknown basis id: {basis_id!r}")
    basis = FAMILIES[basis_id]
    coeffs = np.asarray(list(coeffs), dtype=np.int64).reshape(-1, basis.rank)
    edges = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    # sort vertices lexicographically, remap and sort edges
    order = np.lexsort(coeffs.T[::-1])
    inv = np.empty(len(order), dtype=np.int64)
    inv[order] = np.arange(len(order))
    if edges.shape[0]:
        edges = np.unique(np.sort(inv[edges], axis=1), axis=0)
    return EmbeddedGraph(basis=basis, coeffs=coeffs[order], edges=edges, box=box)


def induced_edges(g: EmbeddedGraph, members: np.ndarray) -> np.ndarray:
    """Edges of ``g`` with both ends in ``members`` (ascending vertex ids),
    in ``g``'s edge order, renumbered to positions in ``members``."""
    mask = np.zeros(g.n_vertices, dtype=bool)
    mask[members] = True
    return np.searchsorted(members, g.edges[mask[g.edges[:, 0]] & mask[g.edges[:, 1]]])


def restrict(g: EmbeddedGraph, radius: float) -> EmbeddedGraph:
    """Induced subgraph on the vertices in the open ball of ``radius`` about
    the origin.

    The result's box is that ball; restricting a patch to its own radius is
    the identity.  Restriction only ever removes data, so the caller is
    trusted not to pass a radius larger than the patch's known extent.
    """
    members = np.flatnonzero(norm_sign(g.basis, g.coeffs, g.embed, radius) < 0)
    return EmbeddedGraph(
        basis=g.basis,
        coeffs=g.coeffs[members],
        edges=induced_edges(g, members),
        box=Ball((0.0, 0.0), radius),
    )


def validate(g: EmbeddedGraph) -> None:
    """Check the structural invariants, then the family's declared d_max
    and l_max; raise ValueError on violation."""
    if g.coeffs.ndim != 2 or g.coeffs.shape[1] != g.basis.rank:
        raise ValueError("coefficient array shape does not match basis rank")
    e = g.edges
    if g.n_edges:
        if np.any(e[:, 0] >= e[:, 1]):
            raise ValueError("edges must satisfy i < j (no self-loops)")
        if np.any(e < 0) or np.any(e >= g.n_vertices):
            raise ValueError("edge endpoint out of range")
        if np.unique(e, axis=0).shape[0] != g.n_edges:
            raise ValueError("duplicate edges")
    if np.unique(g.coeffs, axis=0).shape[0] != g.n_vertices:
        raise ValueError("duplicate vertex coefficients")
    deg = g.degrees()
    if deg.size and int(deg.max()) > g.d_max:
        raise ValueError("vertex degree exceeds declared d_max")
    lengths = np.linalg.norm(g.embed[e[:, 0]] - g.embed[e[:, 1]], axis=1)
    if np.any(lengths > g.l_max + 1e-9):
        raise ValueError("edge longer than declared l_max")


def pattern_by_centre(g: EmbeddedGraph, center: int, radius: float) -> CanonicalPattern:
    """The induced r-pattern around one vertex, from that vertex alone."""
    d = g.embed - g.embed[center]
    widened = radius + graphs._BAND * (1.0 + radius)
    members = np.flatnonzero(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= widened * widened)
    rows = g.coeffs[members]
    inside = norm_sign(g.basis, rows - g.coeffs[center], d[members], radius) < 0
    return canonicalize(g.basis.id, rows[inside], induced_edges(g, members[inside]))


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


def cut_and_project_candidates(radius: float) -> np.ndarray:
    """The Ammann-Beenker candidate rows, every (k2, k3) box of every
    (k0, k1) row in the coefficient box enumerated as one array, then cut
    to the physical disc and the octagon window."""
    phys, internal = graphs._OCTAGONAL, graphs._OCTAGONAL_STAR
    shift = np.asarray(graphs._WINDOW_SHIFT, dtype=float)
    center = internal.sum(axis=0) / 2.0
    apothem = (1.0 + math.sqrt(2.0)) / 2.0

    def window_accept(y: np.ndarray) -> np.ndarray:
        z = y - center + shift
        dist = apothem - np.abs(z @ phys.T).max(axis=1)
        if np.any(np.abs(dist) < 1e-9):
            raise GraphGenerationError(
                "window shift puts lattice points on the window boundary; "
                "perturb window_shift"
            )
        return dist > 0.0

    minv = np.linalg.inv(np.vstack([phys.T, internal.T]))
    bound = np.abs(minv) @ np.array([radius + 1.0, radius + 1.0, 2.2, 2.2])
    kmax = int(math.ceil(bound.max()))
    ks = np.arange(-kmax, kmax + 1)
    k01 = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
    binv = np.linalg.inv(internal[2:].T)
    mid = (center - shift - k01 @ internal[:2]) @ binv.T
    half = apothem / math.cos(math.pi / 8.0) * np.linalg.norm(binv, axis=1) + 1.0
    steps = np.arange(int(math.ceil(2.0 * half.max())) + 1)
    low = np.floor(mid - half).astype(np.int64)
    k = np.empty((len(k01), len(steps), len(steps), 4), dtype=np.int64)
    k[..., :2] = k01[:, None, None, :]
    k[..., 2] = low[:, 0, None, None] + steps[:, None]
    k[..., 3] = low[:, 1, None, None] + steps
    k = k.reshape(-1, 4)
    k = k[np.abs(k[:, 2:]).max(axis=1) <= kmax]
    x = k @ phys
    k = k[x[:, 0] ** 2 + x[:, 1] ** 2 < (radius + 1.0) ** 2]
    return k[window_accept(k @ internal)]
