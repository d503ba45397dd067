"""Generator, restriction, geometry, and serialization tests.

Expected values are computed by independent in-test enumeration (plain integer
loops over candidate coordinates) or closed-form geometry, never by calling
the code under test twice.
"""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from exact_ball import ball_ids, in_open_ball, norm2, signs
from oracles import cut_and_project_candidates, from_coeffs, restrict, validate
from percospec import graphs
from percospec.graphs import GraphGenerationError


def square_ball_oracle(radius):
    """Vertices of Z^2 in the open ball, by direct enumeration."""
    k = int(math.ceil(radius)) + 1
    pts = [
        (i, j)
        for i in range(-k, k + 1)
        for j in range(-k, k + 1)
        if i * i + j * j < radius * radius
    ]
    edges = 0
    ptset = set(pts)
    for (i, j) in pts:
        if (i + 1, j) in ptset:
            edges += 1
        if (i, j + 1) in ptset:
            edges += 1
    return pts, edges


class TestLattices:
    def test_square_small_ball(self):
        g = graphs.generate("square", 2.5)
        pts, n_edges = square_ball_oracle(2.5)
        assert g.n_vertices == 21
        assert g.n_vertices == len(pts)
        assert g.n_edges == n_edges
        assert sorted(map(tuple, g.coeffs.tolist())) == sorted(pts)

    @pytest.mark.parametrize("radius", [1.0, 3.2, 5.0, 7.5])
    def test_square_matches_enumeration(self, radius):
        g = graphs.generate("square", radius)
        pts, n_edges = square_ball_oracle(radius)
        assert g.n_vertices == len(pts)
        assert g.n_edges == n_edges

    def test_square_geometry(self):
        g = graphs.generate("square", 6.0)
        rep = graphs.geometry_report(g)
        assert rep.d_max == 4
        assert rep.l_max == pytest.approx(1.0, abs=1e-12)
        assert rep.min_pairwise_distance == pytest.approx(1.0, abs=1e-12)
        assert rep.r == pytest.approx(0.5, abs=1e-12)

    def test_triangular_interior_degree_six(self):
        g = graphs.generate("triangular", 8.0)
        deg = g.degrees()
        interior = in_open_ball("triangular", g.coeffs, 8.0 - 1.0)
        assert np.all(deg[interior] == 6)
        assert graphs.geometry_report(g).d_max == 6
        # every edge has unit length
        lengths = np.linalg.norm(g.embed[g.edges[:, 0]] - g.embed[g.edges[:, 1]], axis=1)
        np.testing.assert_allclose(lengths, 1.0, atol=1e-12)


class TestAperiodic:
    def test_penrose_geometry_constants(self):
        g = graphs.generate("penrose", 12.0)
        rep = graphs.geometry_report(g)
        # shortest separation is the short diagonal of the thin rhombus
        assert rep.min_pairwise_distance == pytest.approx(
            2.0 * math.sin(math.pi / 10.0), abs=1e-9
        )
        assert rep.l_max == pytest.approx(1.0, abs=1e-9)
        assert rep.d_max == 7

    def test_penrose_degrees_match_unit_distance_stars(self):
        # Independent degree oracle: in a unit-edge rhombus tiling every pair
        # of vertices at distance exactly 1 is a tile edge.
        g = graphs.generate("penrose", 12.0)
        tree = cKDTree(g.embed)
        pairs = {
            (min(a, b), max(a, b))
            for a, b in tree.query_pairs(1.0 + 1e-9)
            if abs(np.linalg.norm(g.embed[a] - g.embed[b]) - 1.0) <= 1e-9
        }
        assert pairs == {tuple(e) for e in g.edges}

    def test_ammann_beenker_geometry_constants(self):
        g = graphs.generate("ammann_beenker", 9.0)
        rep = graphs.geometry_report(g)
        assert rep.min_pairwise_distance == pytest.approx(
            2.0 * math.sin(math.pi / 8.0), abs=1e-9
        )
        assert rep.l_max == pytest.approx(1.0, abs=1e-9)
        assert rep.d_max == 8

    @pytest.mark.parametrize("family,small,large", [
        ("penrose", 10.0, 20.0),
        ("ammann_beenker", 8.0, 16.0),
    ])
    def test_nested_generation_consistency(self, family, small, large):
        # generating a larger patch and cutting it down reproduces the small
        # patch exactly, vertex order included
        g_large = graphs.generate(family, large)
        g_small = graphs.generate(family, small)
        assert graphs.dumps(restrict(g_large, small)) == graphs.dumps(g_small)

    def test_generation_deterministic(self):
        a = graphs.generate("penrose", 8.0)
        b = graphs.generate("penrose", 8.0)
        assert graphs.dumps(a) == graphs.dumps(b)
        np.testing.assert_array_equal(a.embed, b.embed)

    def test_degenerate_pentagrid_rejected(self, monkeypatch):
        monkeypatch.setattr(graphs, "_PENTAGRID_OFFSETS", (0.0,) * 5)
        with pytest.raises(GraphGenerationError, match="degenerate pentagrid offsets"):
            graphs.generate("penrose", 5.0)

    def test_window_on_lattice_point_rejected(self, monkeypatch):
        # with no shift the window boundary passes through internal images
        monkeypatch.setattr(graphs, "_WINDOW_SHIFT", (0.0, 0.0))
        with pytest.raises(GraphGenerationError, match="window boundary; perturb window_shift"):
            graphs.generate("ammann_beenker", 8.0)

    @pytest.mark.parametrize("radius", [3.0, 16.0, 45.0, 60.0])
    def test_ammann_beenker_candidates_match_one_box(self, radius):
        # the generator enumerates the boxes a block at a time, after
        # dropping (k0, k1) rows whose box cannot reach the disc; the rows
        # must be those of one box over every (k0, k1) row, in order
        want = cut_and_project_candidates(radius)
        got = graphs._cut_and_project_candidates(radius)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_pentagrid_offsets_are_five_summing_to_zero(self):
        # dyadic, so the float sum is exact
        assert len(graphs._PENTAGRID_OFFSETS) == 5
        assert sum(graphs._PENTAGRID_OFFSETS) == 0.0

    def test_unknown_family_rejected(self):
        with pytest.raises(GraphGenerationError, match="unknown family 'kagome'; expected one of"):
            graphs.generate("kagome", 5.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(GraphGenerationError, match="radius must be positive"):
            graphs.generate("square", 0.0)


class TestRestrict:
    def test_idempotent_on_own_box(self):
        g = graphs.generate("square", 5.0)
        assert graphs.dumps(restrict(g, g.box.radius)) == graphs.dumps(g)

    def test_empty_region(self):
        # a patch whose vertices all lie outside the ball
        g = from_coeffs("square", [(2, 0), (2, 1), (0, 2)], [(0, 1)])
        out = restrict(g, 1.5)
        assert out.n_vertices == 0
        assert out.n_edges == 0

    def test_induced_semantics_drops_edges_through_missing_vertices(self):
        # path (1,0)-(1,1)-(0,1): radius 1.2 keeps both ends at distance 1
        # but not the middle at sqrt 2, so two isolated points remain
        g = from_coeffs(
            "square", [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)]
        )
        out = restrict(g, 1.2)
        assert out.n_vertices == 2
        assert out.n_edges == 0

    def test_restriction_composes_as_intersection(self):
        # both radii are triangular lattice distances, so ties are included
        g = graphs.generate("triangular", 6.0)
        for a, b in [(4.0, 3.0), (3.0, 4.0)]:
            twice = restrict(restrict(g, a), b)
            mask = in_open_ball("triangular", g.coeffs, a)
            mask &= in_open_ball("triangular", g.coeffs, b)
            assert twice.n_vertices == int(mask.sum())
            assert set(map(tuple, twice.coeffs.tolist())) == set(
                map(tuple, g.coeffs[mask].tolist())
            )
            assert graphs.dumps(twice) == graphs.dumps(restrict(g, min(a, b)))

    def test_open_ball_excludes_boundary(self):
        # (3, 4) lies at distance exactly 5; the open ball must drop it
        g = graphs.generate("square", 5.0)
        coeffs = set(map(tuple, g.coeffs.tolist()))
        assert (3, 4) not in coeffs
        assert (3, 3) in coeffs


FAMILIES = ["square", "triangular", "penrose", "ammann_beenker"]
GOLDEN_RADII = {
    "square": [40.0, 150.0],
    "triangular": [1.0, 2.0, 8.0, 12.0],
    "penrose": [12.0, 16.0, 20.0, 40.0],
    "ammann_beenker": [9.0, 16.0, 40.0, 45.0, 60.0],
}


def _candidate_rows(family, radius):
    """Rows of the infinite graph that may lie within ``radius``: for the
    lattices every integer row whose float norm is below radius + 1, for
    the tilings the vertices of the patch generated 1.5 further out."""
    if family in ("square", "triangular"):
        k = int(2 * radius) + 3
        ks = np.arange(-k, k + 1)
        rows = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
        c = 0.5 if family == "triangular" else 0.0
        s = math.sqrt(3.0) / 2.0 if family == "triangular" else 1.0
        x, y = rows[:, 0] + c * rows[:, 1], s * rows[:, 1]
        return rows[x * x + y * y < (radius + 1.0) ** 2]
    return graphs.generate(family, radius + 1.5).coeffs


class TestExactOpenBall:
    """Patches, windows and pattern balls are exact open balls: a vertex at
    exactly the radius is outside, whatever its float embedding rounds to."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_oracle_gram_matches_embedding(self, family):
        g = graphs.generate(family, 6.0)
        d = {"penrose": 5}.get(family, 2)
        exact = [float(p) + float(q) * math.sqrt(d) for p, q in norm2(family, g.coeffs)]
        np.testing.assert_allclose(exact, (g.embed**2).sum(axis=1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_patch_is_exact_open_ball(self, family):
        # every radius from 0.5 to 20 in steps of 0.5, and the golden ones
        small = _candidate_rows(family, 20.0)
        large = _candidate_rows(family, max(GOLDEN_RADII[family]))
        for radius in [0.5 * k for k in range(1, 41)] + GOLDEN_RADII[family]:
            pool = small if radius <= 20.0 else large
            want = pool[in_open_ball(family, pool, radius)]
            got = graphs.generate(family, radius).coeffs
            assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist())), radius

    def test_triangular_unit_ball_is_the_origin(self):
        g = graphs.generate("triangular", 1.0)
        assert g.coeffs.tolist() == [[0, 0]]
        assert g.n_edges == 0

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("radius", [0.0, 1.0, 2.0, 1.7320508075688772, 2.5])
    def test_norm_sign_matches_oracle(self, family, radius):
        # the lattice distances 1, 2 and sqrt 3 are ties on the periodic
        # families; every row is measured from the centre vertex
        g = graphs.generate(family, 5.0)
        c = int(np.argmin((g.embed**2).sum(axis=1)))
        got = graphs.norm_sign(g.basis, g.coeffs - g.coeffs[c], g.embed - g.embed[c], radius)
        assert got.tolist() == signs(family, g.coeffs - g.coeffs[c], radius)

    def test_negative_radius_leaves_every_row_outside(self):
        g = graphs.generate("square", 3.0)
        assert (graphs.norm_sign(g.basis, g.coeffs, g.embed, -0.5) > 0).all()
        assert ball_ids(g, -0.5).size == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_near_boundary_is_outside_open_inner_ball(self, family):
        # the band is closed: |x| = R - l_max is a tie on the lattices
        g = graphs.generate(family, 8.0)
        want = np.array(signs(family, g.coeffs, 8.0 - g.l_max)) >= 0
        assert np.array_equal(g.near_boundary, want)

    def test_near_boundary_holds_the_inner_tie(self):
        # (39, 0) lies exactly l_max inside the square patch of radius 40,
        # and its neighbour (40, 0) is outside the open ball
        g = graphs.generate("square", 40.0)
        rows = g.coeffs.tolist()
        assert [40, 0] not in rows
        assert g.near_boundary[rows.index([39, 0])]


class TestNearPairs:
    """The pair query returns, once each, exactly the ordered pairs a scan
    of every pair keeps: squared float distance at most r**2."""

    @staticmethod
    def brute_force(g, radius):
        d = g.embed[:, None, :] - g.embed[None, :, :]
        i, j = np.nonzero(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] <= radius * radius)
        return sorted(zip(i.tolist(), j.tolist()))

    @staticmethod
    def pairs(g, radius):
        blocks = list(g.near_pairs(radius))
        # blocks of whole centres: no centre in two
        centres = [set(i.tolist()) for i, _ in blocks]
        assert sum(map(len, centres)) == len(set().union(*centres))
        return sorted((a, b) for i, j in blocks for a, b in zip(i.tolist(), j.tolist()))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("block", [1 << 18, 1000, 1], ids=["whole", "1000", "1"])
    def test_matches_a_scan_of_every_pair(self, monkeypatch, family, block):
        # blocks of at most `block` compared pairs, or of one centre
        monkeypatch.setattr(graphs, "_PAIR_BLOCK", block)
        g = graphs.generate(family, 8.0)
        # edge length 1 (and 2 on the lattices) are ties; 17 covers the patch
        for radius in [2.0**-20, 0.5, 1.0, 1.0 + 2.0**-20, 2.0, 3.7, 17.0]:
            assert self.pairs(g, radius) == self.brute_force(g, radius), radius
        assert len(self.pairs(g, 17.0)) == g.n_vertices**2

    def test_patch_away_from_the_origin(self):
        # cells are counted from the patch's own corner
        g = from_coeffs("square", [(x, y) for x in range(40, 46) for y in range(-30, -26)])
        assert self.pairs(g, 1.0) == self.brute_force(g, 1.0)


class TestFamilyRecords:
    """Each family record's declared geometry holds on a generated patch."""

    @pytest.mark.parametrize("basis", graphs.FAMILIES.values(), ids=lambda b: b.id)
    def test_record_holds_on_patch(self, basis):
        g = graphs.generate(basis.id, 12.0)
        assert g.basis is basis and g.n_edges > 0
        steps = {tuple(s) for s in basis.steps} | {tuple(-np.array(s)) for s in basis.steps}
        diffs = g.coeffs[g.edges[:, 1]] - g.coeffs[g.edges[:, 0]]
        assert {tuple(d) for d in diffs.tolist()} <= steps
        rep = graphs.geometry_report(g)
        assert rep.l_max <= basis.l_max + 1e-9
        assert rep.d_max <= basis.d_max
        assert rep.min_pairwise_distance >= 2.0 * basis.r - 1e-9


class TestGeometryReport:
    def test_single_vertex_sentinels(self):
        g = from_coeffs("square", [(0, 0)], [])
        rep = graphs.geometry_report(g)
        assert rep.r == math.inf
        assert rep.l_max == 0.0
        assert rep.d_max == 0

    @staticmethod
    def assert_separation_matches_kdtree(g):
        rep = graphs.geometry_report(g)
        if g.n_vertices >= 2:
            dist, _ = cKDTree(g.embed).query(g.embed, k=2)
            want = float(dist[:, 1].min())
        else:
            want = math.inf
        assert rep.min_pairwise_distance == want
        assert rep.r == want / 2.0

    @pytest.mark.parametrize("family", graphs.FAMILIES)
    @pytest.mark.parametrize("radius", [0.6, 1.5, 2.0, 7.0, 20.0])
    def test_separation_matches_kdtree(self, family, radius):
        # the nearest pair from the cell grid, bit for bit that of a KD-tree
        self.assert_separation_matches_kdtree(graphs.generate(family, radius))

    @pytest.mark.parametrize("family", graphs.FAMILIES)
    @pytest.mark.parametrize("stride", [1, 7])
    def test_separation_without_edges_matches_kdtree(self, family, stride):
        # no edge bounds the reach: the first two vertices' distance does
        g = graphs.generate(family, 6.0)
        built = from_coeffs(family, g.coeffs[::stride])
        assert built.n_edges == 0 and built.n_vertices >= 2
        self.assert_separation_matches_kdtree(built)

    @pytest.mark.parametrize("family", graphs.FAMILIES)
    def test_one_vertex_separation_is_inf(self, family):
        g = from_coeffs(family, graphs.generate(family, 3.0).coeffs[:1])
        self.assert_separation_matches_kdtree(g)

    def test_separation_on_large_patch_matches_kdtree(self):
        self.assert_separation_matches_kdtree(graphs.generate("square", 300.0))

    def test_uniform_discreteness_invariant(self):
        # every open ball of radius r contains at most one vertex
        for family, radius in [("square", 5.0), ("penrose", 8.0)]:
            g = graphs.generate(family, radius)
            rep = graphs.geometry_report(g)
            assert rep.min_pairwise_distance >= 2.0 * g.basis.r - 1e-9

    def test_validate_passes_on_generated(self):
        for family in ("square", "triangular", "penrose", "ammann_beenker"):
            g = graphs.generate(family, 6.0)
            validate(g)

    def test_validate_catches_duplicate_vertex(self):
        g = from_coeffs("square", [(0, 0), (1, 0)], [])
        g.coeffs = np.array([[0, 0], [0, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match="duplicate vertex"):
            validate(g)

    def test_validate_catches_duplicate_edge(self):
        g = from_coeffs("square", [(0, 0), (1, 0)], [(0, 1)])
        g.edges = np.array([[0, 1], [0, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="duplicate edges"):
            validate(g)

    def test_validate_catches_edge_longer_than_declared(self):
        g = from_coeffs("square", [(0, 0), (2, 0)], [(0, 1)])
        with pytest.raises(ValueError, match="edge longer than declared l_max"):
            validate(g)

    def test_validate_catches_degree_above_declared(self):
        # the square family declares d_max = 4
        rows = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]
        g = from_coeffs("square", rows, [(0, k) for k in range(1, 6)])
        with pytest.raises(ValueError, match="degree exceeds declared d_max"):
            validate(g)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_hand_built_patch_carries_declared_constants(self, family):
        # one vertex and no edge measures l_max 0 and d_max 0
        g = graphs.generate(family, 6.0)
        built = from_coeffs(family, g.coeffs[:1])
        assert (built.l_max, built.d_max) == (g.l_max, g.d_max)
        assert (g.l_max, g.d_max) == (g.basis.l_max, g.basis.d_max)


class TestSerialization:
    def test_header_format(self):
        g = graphs.generate("square", 2.5)
        first = graphs.dumps(g).splitlines()[0]
        assert first == f"basis square d 2 n {g.n_vertices} m {g.n_edges}"


class TestBallVolume:
    def test_plane(self):
        assert graphs.ball_volume(2.0) == pytest.approx(4.0 * math.pi)
