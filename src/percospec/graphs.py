"""Finite patches of periodic and aperiodic planar graphs with exact coordinates.

Vertices are stored as integer coefficient vectors in a fixed per-family basis
(Z^2 for the square and triangular lattices, a rank-4 integer module for the
pentagrid rhombus tiling and the octagonal cut-and-project tiling).  The float
embedding into the plane is always a derived view; every structural operation
(translation, pattern matching, deduplication) happens on the integer
coefficients, so two vertices are equal iff their coefficient vectors are
equal.  This keeps long pipelines free of float-comparison drift.

A patch is the restriction of the infinite graph to an open ball.  Generation
is deterministic: the same family and radius produce the same vertex order,
edge order, and embedding, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "Basis",
    "FAMILIES",
    "Ball",
    "norm_sign",
    "EmbeddedGraph",
    "GraphGenerationError",
    "generate",
    "radix_weights",
    "geometry_report",
    "GeometryReport",
    "dumps",
    "ball_volume",
]


class GraphGenerationError(ValueError):
    """Raised when a family or radius is invalid, or a generator degenerate."""


def ball_volume(radius: float) -> float:
    """Area of a disc of the given radius."""
    return math.pi * radius * radius


# ---------------------------------------------------------------------------
# bases


@dataclass(frozen=True)
class Basis:
    """Everything the package knows about one graph family, declared once in
    ``FAMILIES``.

    ``vectors`` has one row per integer coefficient; the embedding of a
    coefficient vector k is sum_j k_j * vectors[j].  For the rank-4 bases the
    rows are linearly independent over the rationals, so the embedding is
    injective on integer vectors and exact equality of coefficients is the
    same as equality of embedded points.

    ``r``, ``l_max`` and ``d_max`` are the declared geometry of the infinite
    graph: half the minimal vertex separation, the maximal edge length and
    the maximal vertex degree.  ``steps`` are the coefficient steps between
    the ends of an edge, one per unit edge direction up to sign: two patch
    vertices are joined iff their coefficient rows differ by one of them.
    ``gram`` is the integer Gram pair (den, d, A, B): the embedding x of a
    coefficient row k has |x|^2 = (k.A.k + sqrt(d) k.B.k) / den with A and B
    integer and d no square.  ``candidates`` maps a radius to the coefficient
    rows that may lie in the open ball of that radius about the origin
    (repeats allowed).
    """

    id: str
    vectors: np.ndarray  # (rank, 2), read-only
    r: float
    l_max: float
    d_max: int
    steps: tuple[tuple[int, ...], ...]
    gram: tuple
    candidates: Callable[[float], np.ndarray]

    def __post_init__(self) -> None:
        self.vectors.flags.writeable = False

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]

    def embed(self, coeffs: np.ndarray) -> np.ndarray:
        """Embed an (N, rank) integer array into the plane, deterministically.

        The sum is accumulated column by column in fixed order so repeated
        calls reproduce identical floats.
        """
        coeffs = np.atleast_2d(np.asarray(coeffs))
        out = np.zeros((coeffs.shape[0], 2))
        for j in range(self.rank):
            out[:, 0] += coeffs[:, j] * self.vectors[j, 0]
            out[:, 1] += coeffs[:, j] * self.vectors[j, 1]
        return out


def _unit_vectors(turn: float, den: float, count: int) -> np.ndarray:
    """Rows (cos a, sin a) at the angles a = turn * pi * j / den, j < count."""
    angles = [turn * math.pi * j / den for j in range(count)]
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


# Relative rounding band of the float test in ``norm_sign``: near the
# sphere, the float |x - c|^2 is within a few ulps of K r of the exact value,
# K the coefficient sum |k|_1 of x plus that of c, so far inside
# 2^-20 (1 + r)^2 of it while K stays below 10^8.
_BAND = 2.0**-20
# Vertex pairs ``EmbeddedGraph.near_pairs`` compares at once, a few MB of
# temporaries; a census at r = 0.9 on a Penrose patch of radius 20 is one
# block, and one at r = 19 on radius 40 is 64.
_PAIR_BLOCK = 1 << 18


def _surd_sign(u: int, v: int, d: int) -> int:
    """Sign of u + v sqrt(d) for integers u, v (d no square, or v = 0)."""
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    return su if u * u > d * v * v else sv


def norm_sign(
    basis: Basis,
    rows: np.ndarray,
    points: np.ndarray,
    radius: float,
) -> np.ndarray:
    """The sign of |x| - radius, exactly, for each coefficient row x of
    ``rows``: the package's one ball test.  ``points`` is the rows' float
    embedding; rows and points that are differences from a centre vertex
    measure the distance from it.

    Rows whose float |x|^2 lies outside the rounding band of radius^2
    are decided in float.  Inside it, |x|^2 = (a + b sqrt d) / den comes
    from the basis's integer Gram pair and is compared with the float
    radius, itself an exact dyadic rational, in integer arithmetic, so
    points at exactly distance ``radius`` give 0.  ``< 0`` selects the open
    ball, ``> 0`` the outside of the closed one; a negative radius leaves
    every row outside.
    """
    if radius < 0.0:
        return np.ones(len(points), dtype=np.int8)
    s = points[:, 0] ** 2 + points[:, 1] ** 2
    r2, tol = radius * radius, _BAND * (1.0 + radius) ** 2
    # -1 below the band, 0 in it, +1 above it
    side = np.subtract(s > r2 + tol, s <= r2 - tol, dtype=np.int8)
    if not side.all():
        band = (side == 0).nonzero()[0]
        den, d, a_form, b_form = basis.gram
        k = rows[band]
        a = np.einsum("ij,jk,ik->i", k, np.array(a_form), k).tolist()
        b = np.einsum("ij,jk,ik->i", k, np.array(b_form), k).tolist()
        # |x|^2 - (n/q)^2 has the sign of q^2 (a + b sqrt d) - den n^2
        n, q = float(radius).as_integer_ratio()
        side[band] = [_surd_sign(q * q * ai - den * n * n, q * q * bi, d) for ai, bi in zip(a, b)]
    return side


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball; a patch's box is the ball about the origin it
    was cut to.  Every ball decision of the package goes through
    ``norm_sign``.  ``contains`` and ``boundary_distance`` are float views
    of the ball for callers that hold only embedded points (the benchmark
    tracer reads them); they round differently at exact-distance ties.
    """

    center: tuple[float, float]
    radius: float

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        dx = points[:, 0] - self.center[0]
        dy = points[:, 1] - self.center[1]
        return dx * dx + dy * dy < self.radius * self.radius

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each (inside) point to the region boundary."""
        points = np.atleast_2d(points)
        dx = points[:, 0] - self.center[0]
        dy = points[:, 1] - self.center[1]
        return self.radius - np.sqrt(dx * dx + dy * dy)


# ---------------------------------------------------------------------------
# graphs


@dataclass
class EmbeddedGraph:
    """A finite patch with exact vertex coordinates and an edge list.

    ``coeffs`` is an (N, rank) int64 array sorted lexicographically by row;
    ``edges`` is an (M, 2) int64 array with each row (i, j), i < j, sorted
    lexicographically.  The geometry constants are those its family
    ``basis`` declares for the infinite graph; ``geometry_report`` measures
    them on the patch itself.
    """

    basis: Basis
    coeffs: np.ndarray
    edges: np.ndarray
    box: Ball | None = None

    @property
    def l_max(self) -> float:
        return self.basis.l_max

    @property
    def d_max(self) -> int:
        return self.basis.d_max

    @property
    def n_vertices(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def embed(self) -> np.ndarray:
        pts = self.basis.embed(self.coeffs)
        pts.flags.writeable = False
        return pts

    def near_pairs(self, radius: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every ordered pair (i, j) of vertex ids, i == j included, whose
        float embeddings lie within ``radius`` (squared distance at most
        radius squared): a candidate query, on which ``norm_sign`` decides
        the census's balls and ``geometry_report`` finds the nearest pair.

        The vertices are binned into square cells a hair wider than
        ``radius`` (which must be positive), so each such pair lies in one
        cell or in two adjacent ones, and only those are compared.  The
        pairs come as (i, j) id arrays in blocks of whole centres i, each
        block from at most ``_PAIR_BLOCK`` compared pairs (or from one
        centre's), so memory stays bounded at any radius.
        """
        side = radius * (1.0 + 2.0**-20)
        cells = np.floor(self.embed / side).astype(np.int64)
        cells -= cells.min(axis=0, initial=0) - 1  # a spare cell on each side
        width = cells[:, 1].max(initial=0) + 2
        key = cells[:, 0] * width + cells[:, 1]
        order = np.argsort(key, kind="stable")
        key = key[order]
        # the three cells of one column about a vertex's cell are one run of
        # keys, so each vertex, taken in key order, queries three runs
        column = key[:, None] + np.arange(-1, 2) * width
        lo = np.searchsorted(key, column - 1, side="left")
        count = np.searchsorted(key, column + 1, side="right") - lo
        compared = np.cumsum(count.sum(axis=1))
        start = 0
        while start < self.n_vertices:
            done = compared[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(compared, done + _PAIR_BLOCK, side="right")))
            c, first = count[start:stop].ravel(), lo[start:stop].ravel()
            i = np.repeat(order[start:stop].repeat(3), c)
            # the k-th pair of a run is its k-th vertex in key order
            j = order[np.repeat(first - (np.cumsum(c) - c), c) + np.arange(c.sum())]
            # take, not fancy indexing: an order of magnitude faster on rows
            d = self.embed.take(j, axis=0) - self.embed.take(i, axis=0)
            d *= d
            near = d[:, 0] + d[:, 1] <= radius * radius
            yield i[near], j[near]
            start = stop

    @cached_property
    def pattern_tables(self) -> dict:
        """The census's neighbourhood tables, one per pattern radius, built
        by ``patterns.pattern_at`` on first use and kept with the patch."""
        return {}

    @cached_property
    def near_boundary(self) -> np.ndarray:
        """Mask of the vertices at most l_max from the patch boundary, the
        closed band |x| >= R - l_max (none without a box): a cluster owning
        one may continue past the patch, since a neighbour up to l_max away
        can sit at |x| >= R, outside the open ball."""
        if self.box is None:
            mask = np.zeros(self.n_vertices, dtype=bool)
        else:
            radius = self.box.radius - self.l_max
            mask = norm_sign(self.basis, self.coeffs, self.embed, radius) >= 0
        mask.flags.writeable = False
        return mask

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        if self.n_edges:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg


# ---------------------------------------------------------------------------
# generation


# The five grid phases of the rhombus-tiling generator: dyadic, so they sum
# to zero exactly.  The generator rejects them where three grid lines meet.
_PENTAGRID_OFFSETS = (0.28125, 0.4375, -0.34375, 0.15625, -0.53125)
# Displaces the acceptance window of the cut-and-project generator away
# from lattice-degenerate positions; the generator rejects a shift that
# puts a lattice point on the window boundary.
_WINDOW_SHIFT = (0.00123291015625, 0.00271484375)


def generate(family: str, radius: float) -> EmbeddedGraph:
    """The patch of ``family`` cut to the open ball of ``radius``.

    The result is the induced subgraph of the infinite graph on the open ball
    of that radius around the origin, with vertices sorted by coefficient
    vector.  Repeated calls return identical graphs.
    """
    if family not in FAMILIES:
        raise GraphGenerationError(
            f"unknown family {family!r}; expected one of {tuple(FAMILIES)}"
        )
    if not (radius > 0.0):
        raise GraphGenerationError("radius must be positive")
    basis = FAMILIES[family]
    return _patch(basis, basis.candidates(radius), radius)


def radix_weights(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Weights of the mixed radix whose digit j ranges over [low_j, high_j]:
    ``(rows - low) @ weights`` gives every integer row in that box a distinct
    int64 key, and key order is lexicographic row order."""
    span = np.asarray(high) - np.asarray(low) + 1
    return np.cumprod(np.append(1, span[:0:-1]))[::-1]


def _lookup(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each query in the ascending distinct ``keys``, and whether
    it is there at all.  The keys of coefficient rows and of edges ascend
    because a patch keeps both sorted lexicographically."""
    if not len(keys):
        return np.zeros(queries.shape, np.int64), np.zeros(queries.shape, bool)
    pos = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return pos, keys[pos] == queries


def _patch(basis: Basis, candidates: np.ndarray, radius: float) -> EmbeddedGraph:
    """Induced patch on the candidate rows inside the open ball of ``radius``.

    The kept rows are sorted lexicographically and deduplicated; two rows are
    joined iff they differ by one of the family's unit steps.  Each row gets an
    int64 key whose radix box leaves one spare value on each side of the
    coefficient box, so adding a step's key offset never wraps into another
    row.
    """
    coeffs = np.asarray(candidates, dtype=np.int64).reshape(-1, basis.rank)
    coeffs = coeffs[norm_sign(basis, coeffs, basis.embed(coeffs), radius) < 0]
    low = coeffs.min(axis=0, initial=0) - 1
    weights = radix_weights(low, coeffs.max(axis=0, initial=0) + 1)
    keys, first = np.unique((coeffs - low) @ weights, return_index=True)
    pairs = []
    for step in np.asarray(basis.steps, dtype=np.int64):
        # every step leads with +1, so its partner has the larger key
        j, found = _lookup(keys, keys + step @ weights)
        i = np.flatnonzero(found)
        pairs.append(np.stack([i, j[i]], axis=1))
    edges = np.concatenate(pairs)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    return EmbeddedGraph(
        basis=basis,
        coeffs=coeffs[first],
        edges=edges,
        box=Ball((0.0, 0.0), radius),
    )


def _lattice_candidates(radius: float) -> np.ndarray:
    # Conservative coefficient range: both basis vectors have unit length and
    # the Gram matrix is well conditioned, so |k| <= 2n + 2 covers the ball.
    kmax = int(math.ceil(2.0 * radius + 2.0))
    ks = np.arange(-kmax, kmax + 1)
    ki, kj = np.meshgrid(ks, ks, indexing="ij")
    return np.stack([ki.ravel(), kj.ravel()], axis=1)


# The five unit vectors zeta^j of the pentagrid.  zeta^4 = -(zeta^0 + ... +
# zeta^3), so the first four are the penrose basis, in which every pentagrid
# vertex has a unique rank-4 coefficient row.
_FIFTH_ROOTS = _unit_vectors(2.0, 5.0, 5)
# Grid-index increments (r, s) of the four corners of a pentagrid rhombus.
_RHOMBUS_STEPS = np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=np.int64)


def _pentagrid_candidates(radius: float) -> np.ndarray:
    """Rhombus corners from a regular pentagrid.

    Five line grids with unit normals at angles 2*pi*j/5 and phases gamma_j
    (``_PENTAGRID_OFFSETS``); each pairwise line intersection is dual to one
    unit-edge rhombus whose four corners are integer combinations of the
    five unit vectors.  For each of the ten grid pairs (r, s), all line
    pairs (kr, ks) within reach of the ball are intersected at once; the
    other three grid indices of a rhombus are the ceilings of its
    intersection's grid coordinates.  Corners are returned as rank-4
    coefficient rows, four per rhombus in (r, s, kr, ks) order, so shared
    corners repeat exactly.
    """
    gamma = np.array(_PENTAGRID_OFFSETS, dtype=float)
    zeta = _FIFTH_ROOTS
    reach = radius + 3.0  # rhombus corners sit within ~2.4 of the grid intersection
    corner_rows: list[np.ndarray] = []
    kmax = int(math.ceil(reach + 1.0))
    ks = np.arange(-kmax, kmax + 1)
    for r in range(5):
        for s in range(r + 1, 5):
            det = zeta[r, 0] * zeta[s, 1] - zeta[r, 1] * zeta[s, 0]
            kr, ks_ = (
                k.ravel()
                for k in np.meshgrid(
                    ks[np.abs(ks + gamma[r]) <= reach],
                    ks[np.abs(ks + gamma[s]) <= reach],
                    indexing="ij",
                )
            )
            cr = kr + gamma[r]
            cs = ks_ + gamma[s]
            # Solve x . zeta_r = cr, x . zeta_s = cs.
            x0 = (cr * zeta[s, 1] - cs * zeta[r, 1]) / det
            x1 = (cs * zeta[r, 0] - cr * zeta[s, 0]) / det
            near = x0 * x0 + x1 * x1 <= reach * reach
            kr, ks_, x0, x1 = kr[near], ks_[near], x0[near], x1[near]
            others = [m for m in range(5) if m not in (r, s)]
            t = np.stack([x0 * zeta[m, 0] + x1 * zeta[m, 1] - gamma[m] for m in others], 1)
            degenerate = np.flatnonzero((np.abs(t - np.round(t)) < 1e-9).any(axis=1))
            if degenerate.size:
                x = (x0[degenerate[0]], x1[degenerate[0]])
                raise GraphGenerationError(
                    "degenerate pentagrid offsets: three grid lines "
                    f"meet near {x}; perturb the offsets"
                )
            base = np.empty((len(kr), 5), dtype=np.int64)
            base[:, others] = np.ceil(t)
            k5 = np.repeat(base, 4, axis=0)
            k5[:, r] = np.repeat(kr, 4) + np.tile(_RHOMBUS_STEPS[:, 0], len(kr))
            k5[:, s] = np.repeat(ks_, 4) + np.tile(_RHOMBUS_STEPS[:, 1], len(kr))
            # rank-4 coefficients: zeta_4 = -(zeta_0 + ... + zeta_3)
            corner_rows.append(k5[:, :4] - k5[:, 4:])
    return np.concatenate(corner_rows)


# Physical and internal images of the Z^4 basis of the octagonal tiling: the
# eighth roots of unity e^{i pi j/4} and their star images e^{3 i pi j/4}.
_OCTAGONAL = _unit_vectors(1.0, 4.0, 4)
_OCTAGONAL_STAR = _unit_vectors(3.0, 4.0, 4)
# Z^4 points the cut-and-project generator enumerates at once.  One box
# over every (k0, k1) row is a 7.9 MB int64 array at R = 45 (tracemalloc
# peak 14.2 MB, against 1.4 MB in blocks of this size).  Freeing a block
# that large also raises glibc's dynamic mmap threshold, after which the
# estimator's batch temporaries come from the heap and stay resident.
_BOX_POINTS = 1 << 13


def _cut_and_project_candidates(radius: float) -> np.ndarray:
    """Octagonal tiling: the Z^4 points near the ball whose internal image
    falls in a regular-octagon window (their images are joined by a lattice
    unit vector, which has unit physical length).

    The window is solved for directly rather than scanned: the internal
    images i2, i3 of e2, e3 are independent, so for each (k0, k1) the
    (k2, k3) whose image can reach the window's circumscribed disc form one
    small box, found through the inverse of [i2 i3].  Rows whose box cannot
    reach the physical disc are dropped, and the boxes of the rest are
    enumerated ``_BOX_POINTS`` points at a time, in lexicographic order."""
    phys, internal = _OCTAGONAL, _OCTAGONAL_STAR
    shift = np.asarray(_WINDOW_SHIFT, dtype=float)

    # Octagon window: zonotope of the four internal unit vectors, centered.
    center = internal.sum(axis=0) / 2.0
    apothem = (1.0 + math.sqrt(2.0)) / 2.0
    normals = phys  # the octagon's edge normals are the +-e^{i pi j/4}

    def window_accept(y: np.ndarray) -> np.ndarray:
        z = y - center + shift
        proj = np.abs(z @ normals.T)
        dist = apothem - proj.max(axis=1)
        if np.any(np.abs(dist) < 1e-9):
            raise GraphGenerationError(
                "window shift puts lattice points on the window boundary; "
                "perturb window_shift"
            )
        return dist > 0.0

    # Coefficient box: n = M^{-1} (x; y) with M stacking both projections.
    m = np.vstack([phys.T, internal.T])  # maps n -> (x, y)
    minv = np.linalg.inv(m)
    target = np.array([radius + 1.0, radius + 1.0, 2.2, 2.2])
    bound = np.abs(minv) @ target
    kmax = int(math.ceil(bound.max()))

    # (k2, k3) = B^{-1} (y - k0 i0 - k1 i1) with B = [i2 i3], and y lies
    # within the circumradius of center - shift; one spare lattice step on
    # each side keeps every point the window test could find near its
    # boundary, so the boundary check sees what a full scan would.
    ks = np.arange(-kmax, kmax + 1)
    k01 = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
    binv = np.linalg.inv(internal[2:].T)
    mid = (center - shift - k01 @ internal[:2]) @ binv.T
    half = apothem / math.cos(math.pi / 8.0) * np.linalg.norm(binv, axis=1) + 1.0
    steps = np.arange(int(math.ceil(2.0 * half.max())) + 1)
    low = np.floor(mid - half).astype(np.int64)
    # a box's points lie within (steps.size - 1) / 2 * (|e2| + |e3|) of
    # the physical image of its centre, so a box whose centre is farther
    # than radius + steps.size from the origin has no point in the disc
    centre = k01 @ phys[:2] + (low + (steps.size - 1) / 2.0) @ phys[2:]
    near = np.flatnonzero(centre[:, 0] ** 2 + centre[:, 1] ** 2 < (radius + steps.size) ** 2)
    k01, low = k01[near], low[near]
    rows = max(1, _BOX_POINTS // steps.size**2)
    kept = []
    for r0 in range(0, len(k01), rows):
        block = slice(r0, r0 + rows)
        k = np.empty((len(k01[block]), steps.size, steps.size, 4), dtype=np.int64)
        k[..., :2] = k01[block, None, None, :]
        k[..., 2] = low[block, 0, None, None] + steps[:, None]
        k[..., 3] = low[block, 1, None, None] + steps
        k = k.reshape(-1, 4)
        k = k[np.abs(k[:, 2:]).max(axis=1) <= kmax]
        x = k @ phys
        k = k[x[:, 0] ** 2 + x[:, 1] ** 2 < (radius + 1.0) ** 2]
        kept.append(k[window_accept(k @ internal)])
    return np.concatenate(kept)


# ---------------------------------------------------------------------------
# the families
#
# The Gram pairs make |x|^2 exact in Z (square), Z/2 (triangular),
# Z[sqrt 5]/4 (penrose, from 4 cos 72 = sqrt 5 - 1 and 4 cos 144 =
# -sqrt 5 - 1) and Z[sqrt 2]/2 (ammann_beenker, from 2 cos 45 = sqrt 2).
# The ten penrose unit edge vectors are the +-zeta^k, so the step along
# zeta^4 = -(e0 + e1 + e2 + e3) is (1, 1, 1, 1) up to sign.

FAMILIES: dict[str, Basis] = {
    basis.id: basis
    for basis in (
        Basis(
            id="square",
            vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
            r=0.5, l_max=1.0, d_max=4,
            steps=((1, 0), (0, 1)),
            gram=(1, 2, ((1, 0), (0, 1)), ((0, 0), (0, 0))),
            candidates=_lattice_candidates,
        ),
        Basis(
            id="triangular",
            vectors=np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]),
            r=0.5, l_max=1.0, d_max=6,
            steps=((1, 0), (0, 1), (1, -1)),
            gram=(2, 2, ((2, 1), (1, 2)), ((0, 0), (0, 0))),
            candidates=_lattice_candidates,
        ),
        Basis(
            id="penrose",
            vectors=_FIFTH_ROOTS[:4],
            r=math.sin(math.pi / 10.0), l_max=1.0, d_max=7,
            steps=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)),
            gram=(
                4,
                5,
                ((4, -1, -1, -1), (-1, 4, -1, -1), (-1, -1, 4, -1), (-1, -1, -1, 4)),
                ((0, 1, -1, -1), (1, 0, 1, -1), (-1, 1, 0, 1), (-1, -1, 1, 0)),
            ),
            candidates=_pentagrid_candidates,
        ),
        Basis(
            id="ammann_beenker",
            vectors=_OCTAGONAL,
            r=math.sin(math.pi / 8.0), l_max=1.0, d_max=8,
            steps=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
            gram=(
                2,
                2,
                ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)),
                ((0, 1, 0, -1), (1, 0, 1, 0), (0, 1, 0, 1), (-1, 0, 1, 0)),
            ),
            candidates=_cut_and_project_candidates,
        ),
    )
}


# ---------------------------------------------------------------------------
# geometry


@dataclass
class GeometryReport:
    vertex_count: int
    edge_count: int
    min_pairwise_distance: float
    r: float
    l_max: float
    d_max: int
    degree_histogram: dict[int, int]


def geometry_report(g: EmbeddedGraph) -> GeometryReport:
    """Measure the patch geometry: minimal vertex separation (the nearest
    pair of the float embedding), maximal edge length, degree statistics.

    A single-vertex patch reports r = +inf and l_max = 0."""
    if g.n_edges:
        lengths = np.linalg.norm(g.embed[g.edges[:, 0]] - g.embed[g.edges[:, 1]], axis=1)
        l_max = float(lengths.max())
    else:
        l_max = 0.0
    if g.n_vertices >= 2:
        # the longest edge, or with none the first two vertices, is a pair
        # no nearer than the nearest, so the pairs within that reach hold it
        reach = l_max if g.n_edges else float(np.linalg.norm(g.embed[1] - g.embed[0]))
        nearest = math.inf
        for i, j in g.near_pairs(reach * (1.0 + 2.0**-20)):
            d = g.embed.take(j, axis=0) - g.embed.take(i, axis=0)
            s = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
            nearest = min(nearest, float(s[i != j].min(initial=math.inf)))
        min_dist = math.sqrt(nearest)
        r_half = min_dist / 2.0
    else:
        min_dist = math.inf
        r_half = math.inf
    deg = g.degrees()
    values, counts = np.unique(deg, return_counts=True)
    hist = dict(zip(values.tolist(), counts.tolist()))
    return GeometryReport(
        vertex_count=g.n_vertices,
        edge_count=g.n_edges,
        min_pairwise_distance=min_dist,
        r=r_half,
        l_max=l_max,
        d_max=int(deg.max()) if deg.size else 0,
        degree_histogram=hist,
    )


# ---------------------------------------------------------------------------
# serialization


def dumps(g: EmbeddedGraph) -> str:
    """Line format: ``basis <id> d <dim> n <count> m <count>`` header, then
    ``v <index> <coeffs...>`` and ``e <i> <j>`` lines, integer-exact."""
    lines = [f"basis {g.basis.id} d 2 n {g.n_vertices} m {g.n_edges}"]
    for i in range(g.n_vertices):
        coeff_str = " ".join(str(int(c)) for c in g.coeffs[i])
        lines.append(f"v {i} {coeff_str}")
    for a, b in g.edges:
        lines.append(f"e {int(a)} {int(b)}")
    return "\n".join(lines) + "\n"
