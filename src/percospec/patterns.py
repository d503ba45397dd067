"""Local pattern census, occurrence counting, and vertex densities.

An r-pattern is the induced subgraph on the vertices within distance r of a
center vertex, stored translation-invariantly: coordinates are integer
coefficient vectors relative to the lexicographically least vertex, so two
patterns are equal (as dictionary keys) iff they are exact translates of each
other.  Occurrence counting uses subgraph containment: a translate x + P sits
inside G when every pattern vertex lands on a graph vertex and every pattern
edge (with its colour, if any) is present.

The census is the empirical face of finite local complexity, and it is
built once per patch and radius, not once per centre: a cell grid proposes
every vertex pair within r, ``norm_sign`` decides on the coefficient
differences, and each vertex is keyed by which of the offsets found hold a
vertex and which offset pairs an edge of the patch joins.  Vertices with
one key share one pattern, so ``canonicalize`` runs once per distinct key
and ``pattern_at`` is a lookup in the table the patch keeps; the census
within a smaller ball about the origin reads the same table.  An occurrence
plan counts the translates of a pattern, coloured by a bond configuration or
not, inside a counting ball; the density report counts the vertices of one
ball, the density the bracket certification weights both bounds with.  Every
family is a connected infinite graph, so each of its vertices lies in the
infinite cluster of the all-open graph and that density is also rho_inf.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import (
    _BAND,
    EmbeddedGraph,
    _lookup,
    ball_volume,
    norm_sign,
    radix_weights,
)

__all__ = [
    "CanonicalPattern",
    "PatternCensus",
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
    def n_edges(self) -> int:
        return len(self.edges)

    def uncoloured(self) -> "CanonicalPattern":
        if self.colours is None:
            return self
        return CanonicalPattern(self.basis_id, self.coords, self.edges, None)


def canonicalize(
    basis_id: str,
    coords: Iterable[Sequence[int]],
    edges: Iterable[Sequence[int]] = (),
    colours: Sequence[int] | None = None,
) -> CanonicalPattern:
    """Normalize: sort vertices, anchor the lex-least at the origin, remap
    and sort edges (colours follow their edges)."""
    rows = [tuple(row) for row in np.asarray(coords, dtype=np.int64).tolist()]
    order = sorted(range(len(rows)), key=rows.__getitem__)
    inv = {old: new for new, old in enumerate(order)}
    anchor = rows[order[0]] if rows else ()
    normed = tuple(
        tuple(c - a for c, a in zip(rows[i], anchor)) for i in order
    )
    edge_list = []
    for k, (i, j) in enumerate(np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist()):
        a, b = inv[i], inv[j]
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


@dataclass
class _Neighbourhoods:
    """The r-neighbourhood of every vertex of a patch as a key: which
    offsets of ``offsets`` lead to a vertex in the open r-ball, and which
    offset pairs of ``pairs`` a patch edge joins, one bit each in 64-bit
    words.  Vertices with one key share one pattern, canonicalized when it
    is first asked for."""

    offsets: np.ndarray  # (D, rank) coefficient offsets |d| < r between vertices
    pairs: np.ndarray  # (P, 2) offset indices whose offsets differ as an edge's ends do
    keys: np.ndarray  # (K, words) uint64: D member bits, then P joined bits
    key_of: list  # key index of each vertex
    classes: list  # CanonicalPattern of each key, None until asked for

    def pattern(self, basis_id: str, key: int) -> CanonicalPattern:
        if self.classes[key] is None:
            bits = (self.keys[key][:, None] >> np.arange(64, dtype=np.uint64)) & 1
            bits = bits.ravel().astype(bool)
            d = len(self.offsets)
            members, joined = bits[:d], bits[d : d + len(self.pairs)]
            position = np.cumsum(members) - 1
            self.classes[key] = canonicalize(
                basis_id, self.offsets[members], position[self.pairs[joined]]
            )
        return self.classes[key]


def _inside_pairs(
    g: EmbeddedGraph, radius: float, weights: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The pairs (i, j) of vertices with |x_j - x_i| < radius, exactly, in
    blocks of centres i, with the coefficient difference rows x_j - x_i and
    their radix keys under ``weights``."""
    # float pairs propose, within a radius widened past any rounding of the
    # embedding; norm_sign decides on the exact difference rows
    for i, j in g.near_pairs(radius + _BAND * (1.0 + radius)):
        diff = g.coeffs.take(j, axis=0) - g.coeffs.take(i, axis=0)
        points = g.embed.take(j, axis=0) - g.embed.take(i, axis=0)
        inside = norm_sign(g.basis, diff, points, radius) < 0
        yield i[inside], j[inside], diff[inside], diff[inside] @ weights


def _neighbourhoods(g: EmbeddedGraph, radius: float) -> _Neighbourhoods:
    """Key every vertex of ``g`` by its open r-neighbourhood, a block of
    centres at a time: one pass finds the offsets, a second sets the bits."""
    # digits in [-2 span, 2 span] key every offset plus an edge's step;
    # radix keys are linear, so offset d + step s has the key of d plus s's
    span = g.coeffs.max(axis=0, initial=0) - g.coeffs.min(axis=0, initial=0)
    weights = radix_weights(-2 * span, 2 * span)
    keys, rows = [], []
    for _, _, diff, key in _inside_pairs(g, radius, weights):
        key, first = np.unique(key, return_index=True)
        keys.append(key)
        rows.append(diff[first])
    offset_keys, first = np.unique(np.concatenate(keys), return_index=True)
    offsets = np.concatenate(rows)[first]
    # the steps of the patch's edges, read from its edge list, so that a
    # patch with an edge missing keeps its own patterns: along[a, t] when
    # vertex a has an edge to a + step t, and pair_of[s, t] is the index of
    # the offset pair (s, s + step t), or -1 when s + step t is no offset
    steps = g.coeffs[g.edges[:, 1]] - g.coeffs[g.edges[:, 0]]
    step_keys, step_of = np.unique(steps @ weights, return_inverse=True)
    along = np.zeros((g.n_vertices, len(step_keys)), dtype=bool)
    along[g.edges[:, 0], step_of] = True
    at, hit = _lookup(offset_keys, offset_keys[:, None] + step_keys)
    s, t = np.nonzero(hit)
    pairs = np.stack([s, at[s, t]], axis=1)
    pair_of = np.full(hit.shape, -1, dtype=np.int64)
    pair_of[s, t] = np.arange(len(s))
    # bit s of a centre: a vertex at offset s; bit D + pair_of[s, t]: that
    # vertex's edge along step t, to a vertex inside the ball too
    words = np.zeros((g.n_vertices, -(-(len(offsets) + len(pairs)) // 64)), dtype=np.uint64)
    for i, j, _, key in _inside_pairs(g, radius, weights):
        slot = np.searchsorted(offset_keys, key)
        joined = pair_of.take(slot, axis=0)
        k, t = np.nonzero(along.take(j, axis=0) & (joined >= 0))
        centre = np.concatenate([i, i[k]])
        bit = np.concatenate([slot, len(offsets) + joined[k, t]])
        np.bitwise_or.at(words, (centre, bit >> 6), np.uint64(1) << (bit & 63).astype(np.uint64))
    # rank the centres' words to find the distinct keys
    order = np.lexsort(words.T)
    ranked = words[order]
    new = np.append(True, (ranked[1:] != ranked[:-1]).any(axis=1))
    key_of = np.empty(g.n_vertices, dtype=np.int64)
    key_of[order] = np.cumsum(new) - 1
    return _Neighbourhoods(offsets, pairs, ranked[new], key_of.tolist(), [None] * int(new.sum()))


def pattern_at(g: EmbeddedGraph, center: int, radius: float) -> CanonicalPattern:
    """Induced r-pattern around one vertex (the caller guarantees that the
    ball lies inside the patch, and r > 0): a lookup in the patch's
    neighbourhood table for ``radius``, built on the first call."""
    table = g.pattern_tables.get(radius)
    if table is None:
        table = g.pattern_tables[radius] = _neighbourhoods(g, radius)
    return table.pattern(g.basis.id, table.key_of[center])


@dataclass
class PatternCensus:
    counts: dict[CanonicalPattern, int]
    eligible_centers: int

    @property
    def distinct(self) -> int:
        return len(self.counts)

    def most_common(self) -> list[tuple[CanonicalPattern, int]]:
        return sorted(
            self.counts.items(), key=lambda kv: (-kv[1], kv[0].coords, kv[0].edges)
        )


def extract_r_patterns(
    g: EmbeddedGraph, radius: float, within: float | None = None
) -> PatternCensus:
    """Census of r-patterns over all centers whose pattern ball lies fully
    inside the open ball of radius ``within`` about the origin, by default
    the patch's box (interior centers only, so no pattern is truncated).
    Within a smaller ball the census is that of the patch cut to it: each
    counted pattern lies inside that ball, so the full patch's table holds
    it."""
    if g.box is None:
        raise ValueError("patch has no box; cannot determine interior centers")
    if radius <= 0.0:
        raise ValueError("pattern radius must be positive")
    if within is None:
        within = g.box.radius
    # |c| < within - r, so the open r-ball about c lies inside that ball
    eligible = np.flatnonzero(norm_sign(g.basis, g.coeffs, g.embed, within - radius) < 0)
    counts = Counter(pattern_at(g, center, radius) for center in eligible.tolist())
    return PatternCensus(counts=counts, eligible_centers=len(eligible))


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
        return OccurrencePlan(pu, np.empty((0, pu.n_edges), np.int64), 0)
    inside = norm_sign(g.basis, g.coeffs, g.embed, counting_radius) < 0
    vids, hits = _resolve_translates(g, pu, np.flatnonzero(inside))
    # all vertices of the translate must lie in the counting ball
    edge_hits = hits[inside[vids].all(axis=1)]
    return OccurrencePlan(pu, edge_hits, len(edge_hits))


# ---------------------------------------------------------------------------
# densities


def density_report(g: EmbeddedGraph, radius: float) -> float:
    """Vertex density of the patch in the open ball of ``radius`` about the
    origin: the vertices inside it per unit area."""
    return float((norm_sign(g.basis, g.coeffs, g.embed, radius) < 0).sum()) / ball_volume(radius)
