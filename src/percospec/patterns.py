"""Local pattern census, occurrence counting, and vertex densities.

An r-pattern is the induced subgraph on the vertices within distance r of a
center vertex, stored translation-invariantly: coordinates are integer
coefficient vectors relative to the lexicographically least vertex, so two
patterns are equal (as dictionary keys) iff they are exact translates of each
other.  Occurrence counting uses subgraph containment: a translate x + P sits
inside G when every pattern vertex lands on a graph vertex and every pattern
edge (with its colour, if any) is present.

The census is the empirical face of finite local complexity; an occurrence
plan counts the translates of a pattern, coloured by a bond configuration or
not, inside a counting ball; the density report gives the vertex densities
the bracket certification uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Ball, EmbeddedGraph, _lookup, ball_volume, induced_edges, radix_weights
from .percolation import decompose

__all__ = [
    "CanonicalPattern",
    "PatternCensus",
    "DensityReport",
    "extract_r_patterns",
    "pattern_at",
    "occurrence_plan",
    "density_report",
]


@dataclass(frozen=True)
class CanonicalPattern:
    """A finite pattern in translation-normal form.

    ``coords`` are integer coefficient tuples sorted lexicographically with
    the least one at the origin; ``edges`` are index pairs into ``coords``
    (i < j, sorted); ``colours`` optionally labels each edge (aligned with
    ``edges``).  Hashable, so patterns can key dictionaries directly.
    """

    basis_id: str
    coords: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    colours: tuple[int, ...] | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.coords)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def uncoloured(self) -> "CanonicalPattern":
        if self.colours is None:
            return self
        return CanonicalPattern(self.basis_id, self.coords, self.edges, None)

    def with_colours(self, colours: Sequence[int]) -> "CanonicalPattern":
        if len(colours) != len(self.edges):
            raise ValueError("need one colour per edge")
        return CanonicalPattern(
            self.basis_id, self.coords, self.edges, tuple(int(c) for c in colours)
        )


def canonicalize(
    basis_id: str,
    coords: Iterable[Sequence[int]],
    edges: Iterable[Sequence[int]] = (),
    colours: Sequence[int] | None = None,
) -> CanonicalPattern:
    """Normalize: sort vertices, anchor the lex-least at the origin, remap
    and sort edges (colours follow their edges)."""
    rows = [tuple(int(c) for c in row) for row in coords]
    order = sorted(range(len(rows)), key=lambda i: rows[i])
    inv = {old: new for new, old in enumerate(order)}
    anchor = rows[order[0]] if rows else ()
    normed = tuple(
        tuple(c - a for c, a in zip(rows[i], anchor)) for i in order
    )
    edge_list = []
    for k, (i, j) in enumerate(edges):
        a, b = inv[int(i)], inv[int(j)]
        if a > b:
            a, b = b, a
        edge_list.append(((a, b), None if colours is None else int(colours[k])))
    edge_list.sort(key=lambda t: t[0])
    return CanonicalPattern(
        basis_id=basis_id,
        coords=normed,
        edges=tuple(e for e, _ in edge_list),
        colours=None if colours is None else tuple(c for _, c in edge_list),
    )


def pattern_at(g: EmbeddedGraph, center: int, radius: float) -> CanonicalPattern:
    """Induced r-pattern around one vertex (the caller guarantees that the
    ball lies inside the patch)."""
    members = np.sort(g.vertex_tree.query_ball_point(g.embed[center], radius))
    # strict hypot test: the pattern ball is open (Ball.contains compares
    # squared distances and rounds differently at exact-distance ties)
    d = g.embed[members] - g.embed[center]
    members = members[np.hypot(d[:, 0], d[:, 1]) < radius]
    return canonicalize(g.basis.id, g.coeffs[members], induced_edges(g, members))


@dataclass
class PatternCensus:
    radius: float
    counts: dict[CanonicalPattern, int]
    eligible_centers: int

    @property
    def distinct(self) -> int:
        return len(self.counts)

    def most_common(self) -> list[tuple[CanonicalPattern, int]]:
        return sorted(
            self.counts.items(), key=lambda kv: (-kv[1], kv[0].coords, kv[0].edges)
        )


def extract_r_patterns(g: EmbeddedGraph, radius: float) -> PatternCensus:
    """Census of r-patterns over all centers whose pattern ball lies fully
    inside the patch (interior centers only, so no pattern is truncated)."""
    if g.box is None:
        raise ValueError("patch has no box; cannot determine interior centers")
    if radius <= 0.0:
        raise ValueError("pattern radius must be positive")
    margin = g.box.boundary_distance(g.embed)
    eligible = np.flatnonzero(margin > radius)
    counts: dict[CanonicalPattern, int] = {}
    for center in eligible:
        p = pattern_at(g, int(center), radius)
        counts[p] = counts.get(p, 0) + 1
    return PatternCensus(radius=radius, counts=counts, eligible_centers=len(eligible))


# ---------------------------------------------------------------------------
# occurrence counting


def _resolve_translates(
    g: EmbeddedGraph, p: CanonicalPattern, anchors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map the pattern anchor onto each of ``anchors`` at once.  For the
    translates that embed as subgraphs, in anchor order, return the graph
    vertex ids of the pattern vertices and the graph edge indices hit by the
    pattern edges, one row per translate."""
    rel = np.array(p.coords, dtype=np.int64).reshape(-1, g.basis.rank)
    low = g.coeffs.min(axis=0, initial=0) + rel.min(axis=0, initial=0)
    weights = radix_weights(low, g.coeffs.max(axis=0, initial=0) + rel.max(axis=0, initial=0))
    targets = g.coeffs[anchors][:, None, :] + rel
    vids, found = _lookup((g.coeffs - low) @ weights, (targets - low) @ weights)
    vids = vids[found.all(axis=1)]
    pe = np.array(p.edges, dtype=np.int64).reshape(-1, 2)
    u, v = vids[:, pe[:, 0]], vids[:, pe[:, 1]]
    n = g.n_vertices
    hits, found = _lookup(
        g.edges[:, 0] * n + g.edges[:, 1], np.minimum(u, v) * n + np.maximum(u, v)
    )
    embeds = found.all(axis=1)
    return vids[embeds], hits[embeds]


@dataclass
class OccurrencePlan:
    """Pre-resolved uncoloured occurrences of a pattern inside a counting
    ball: one row of graph edge indices per translate.  Colour tests against
    a bond configuration then reduce to indexed comparisons."""

    pattern: CanonicalPattern
    counting_radius: float
    edge_hits: np.ndarray  # (T, n_edges) int64, n_edges may be 0
    n_translates: int

    def coloured_count(self, open_mask: np.ndarray, colours: Sequence[int]) -> int:
        if self.n_translates == 0 or self.pattern.n_edges == 0:
            return self.n_translates
        want = np.asarray(colours, dtype=bool)
        got = open_mask[self.edge_hits]
        return int(np.all(got == want[None, :], axis=1).sum())


def occurrence_plan(
    p: CanonicalPattern, g: EmbeddedGraph, counting_radius: float
) -> OccurrencePlan:
    """Enumerate the exact translates x with x + P inside the patch and all
    pattern vertices inside the open counting ball at the origin."""
    pu = p.uncoloured()
    if pu.basis_id != g.basis.id:
        return OccurrencePlan(pu, counting_radius, np.empty((0, pu.n_edges), np.int64), 0)
    inside = Ball((0.0, 0.0), counting_radius).contains(g.embed)
    vids, hits = _resolve_translates(g, pu, np.flatnonzero(inside))
    # all vertices of the translate must lie in the counting ball
    edge_hits = hits[inside[vids].all(axis=1)]
    return OccurrencePlan(pu, counting_radius, edge_hits, len(edge_hits))


# ---------------------------------------------------------------------------
# densities


@dataclass
class DensityReport:
    radii: list[float]
    rho: list[float]
    rho_infinity: list[float]
    rho_hat: float
    rho_infinity_hat: float


def density_report(
    g: EmbeddedGraph, radii: Sequence[float]
) -> DensityReport:
    """Vertex density and density of vertices in unbounded clusters.

    "Unbounded" is proxied on the finite patch by components that come
    within l_max of the patch boundary; for a patch with no edges nothing
    touches, so the unbounded density is zero.
    """
    if g.box is None:
        raise ValueError("patch has no box")
    radii = sorted(float(r) for r in radii)
    dec = decompose(g, np.ones(g.n_edges, dtype=bool))
    # an isolated vertex is unbounded iff it is near the boundary itself
    vertex_unbounded = g.near_boundary.copy()
    vertex_unbounded[dec.touched] = dec.boundary_touching[dec.labels]

    dist0 = np.hypot(g.embed[:, 0], g.embed[:, 1])
    rho, rho_inf = [], []
    for r in radii:
        inside = dist0 < r
        vol = ball_volume(r)
        rho.append(float(inside.sum()) / vol)
        rho_inf.append(float((inside & vertex_unbounded).sum()) / vol)
    q = max(1, len(radii) // 4)
    return DensityReport(
        radii=radii,
        rho=rho,
        rho_infinity=rho_inf,
        rho_hat=float(np.mean(rho[-q:])),
        rho_infinity_hat=float(np.mean(rho_inf[-q:])),
    )
