"""Hand-built patches and the exact cluster oracle, for the tests only.

``from_coeffs`` builds a patch straight from coefficient rows and edges, so
a test can delete an edge or leave a vertex isolated; the patch carries its
family's declared constants, and ``geometry_report`` measures them.
``validate`` checks a patch's structural invariants and its family's
declared constants.  ``bruteforce_cluster_oracle`` enumerates every bond
configuration of a small patch.
"""

from itertools import product
from typing import Iterable, Sequence

import numpy as np

from percospec.graphs import FAMILIES, Ball, EmbeddedGraph, GraphGenerationError
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
