"""Tests for local pattern extraction, counting, frequencies, and densities."""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from exact_ball import ball_ids, in_open_ball
from oracles import from_coeffs, pattern_by_centre, restrict
from percospec import graphs, patterns
from percospec.cli import main
from percospec.graphs import Ball, ball_volume, generate
from percospec.patterns import (
    canonicalize,
    density_report,
    extract_r_patterns,
    occurrence_plan,
    pattern_at,
)
from percospec.percolation import PercolationParams, sample


def _vertex_ids(g):
    """Vertex id of each coefficient tuple of ``g``."""
    return {tuple(row): v for v, row in enumerate(g.coeffs.tolist())}


@pytest.fixture(scope="module")
def square_20():
    return generate("square", 20.0)


@pytest.fixture(scope="module")
def penrose_20():
    return generate("penrose", 20.0)


class TestCanonicalize:
    def test_translation_invariance(self, square_20):
        idx = _vertex_ids(square_20)
        a = pattern_at(square_20, idx[(0, 0)], 1.2)
        b = pattern_at(square_20, idx[(3, -2)], 1.2)
        assert a == b
        assert hash(a) == hash(b)

    def test_anchor_independent_of_offset(self):
        p1 = canonicalize("square", [(5, 5), (6, 5)], [(0, 1)])
        p2 = canonicalize("square", [(-1, 0), (0, 0)], [(0, 1)])
        assert p1 == p2

    def test_edge_order_is_normalized(self):
        p1 = canonicalize("square", [(0, 0), (1, 0)], [(1, 0)])
        p2 = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)])
        assert p1 == p2

    def test_distinct_shapes_differ(self):
        horizontal = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)])
        vertical = canonicalize("square", [(0, 0), (0, 1)], [(0, 1)])
        assert horizontal != vertical

    def test_colours_distinguish(self):
        edge = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)])
        open_edge = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)], colours=(1,))
        closed_edge = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)], colours=(0,))
        assert open_edge != closed_edge
        assert open_edge.uncoloured() == edge

    @given(
        dx=st.integers(min_value=-40, max_value=40),
        dy=st.integers(min_value=-40, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_canonical_form_shift_invariant(self, dx, dy):
        base = [(0, 0), (1, 0), (0, 1)]
        shifted = [(x + dx, y + dy) for x, y in base]
        edges = [(0, 1), (0, 2)]
        assert canonicalize("square", base, edges) == canonicalize(
            "square", shifted, edges
        )


class TestCensus:
    def test_square_r12_single_cross(self, square_20):
        census = extract_r_patterns(square_20, 1.2)
        assert census.distinct == 1
        pattern, count = census.most_common()[0]
        assert len(pattern.coords) == 5
        assert pattern.n_edges == 4
        assert count == census.eligible_centers

    def test_square_r15_single_block(self, square_20):
        # radius 1.5 also covers the diagonal neighbours (sqrt 2 < 1.5):
        # a 3x3 block of 9 vertices carrying 12 nearest-neighbour edges
        census = extract_r_patterns(square_20, 1.5)
        assert census.distinct == 1
        pattern, _ = census.most_common()[0]
        assert len(pattern.coords) == 9
        assert pattern.n_edges == 12

    def test_counts_sum_to_eligible_centers(self, square_20):
        census = extract_r_patterns(square_20, 1.2)
        total = sum(census.counts.values())
        eligible = ball_ids(square_20, 20.0 - 1.2).size
        assert total == eligible == census.eligible_centers

    @pytest.mark.parametrize(
        "family,r_small,r_large",
        [
            ("square", 12.0, 24.0),
            ("triangular", 12.0, 24.0),
            # rare vertex stars first appear around radius 16; by 20 the
            # census is saturated for both aperiodic families
            ("penrose", 20.0, 40.0),
            ("ammann_beenker", 20.0, 40.0),
        ],
    )
    def test_flc_census_stable_under_patch_growth(self, family, r_small, r_large):
        # finite local complexity: the set of distinct r-patterns stops
        # changing once the patch is large enough
        small = generate(family, r_small)
        large = generate(family, r_large)
        r = 1.1
        assert set(extract_r_patterns(small, r).counts) == set(
            extract_r_patterns(large, r).counts
        )

    def test_penrose_has_several_vertex_stars(self, penrose_20):
        census = extract_r_patterns(penrose_20, 1.1)
        assert census.distinct > 1

    @pytest.mark.parametrize(
        "family,patch_radius,r",
        [("triangular", 12.0, 1.0), ("triangular", 12.0, 2.0), ("penrose", 16.0, 2.0)],
    )
    def test_pattern_at_matches_brute_force_at_ties(self, family, patch_radius, r):
        # at these radii vertices sit at exactly distance r from a centre:
        # the float hypot test disagrees with the exact ball at some
        # centres, and pattern_at must follow the exact ball
        float_disagrees = _pattern_at_matches_exact_ball(family, patch_radius, r)
        assert float_disagrees > 0

    @pytest.mark.parametrize(
        "family,patch_radius,r", [("triangular", 12.0, 1.1), ("penrose", 16.0, 0.9)]
    )
    def test_pattern_at_matches_brute_force_off_ties(self, family, patch_radius, r):
        _pattern_at_matches_exact_ball(family, patch_radius, r)

    @pytest.mark.parametrize("r", ["2.0", "1.0"])
    def test_periodic_census_is_stable_at_tie_radii(self, tmp_path, r):
        # one translation class on a lattice, on the full and half patch
        argv = ["census", "--family", "triangular", "--radius", "12",
                "--pattern-radius", r, "--out", str(tmp_path)]
        assert main(argv) == 0
        verdict = json.loads((tmp_path / "census.json").read_text())
        assert (verdict["distinct"], verdict["distinct_half_radius"]) == (1, 1)

    def test_penrose_census_counts_exact_classes_at_tie_radius(self):
        g = generate("penrose", 16.0)
        full = extract_r_patterns(g, 2.0)
        half = extract_r_patterns(restrict(g, 8.0), 2.0)
        assert (full.distinct, half.distinct) == (154, 94)

    def test_census_hashes_are_distinct(self, square_20):
        census = extract_r_patterns(square_20, 2.1)
        assert len({hash(p) for p in census.counts}) == census.distinct


def _square_without_edge(half_width):
    """The square patch |x|, |y| <= half_width with its edge (0, 0)-(1, 0)
    deleted, boxed by the disc of radius half_width."""
    coeffs = [(x, y) for x in range(-half_width, half_width + 1)
              for y in range(-half_width, half_width + 1)]
    idx = {c: k for k, c in enumerate(coeffs)}
    edges = [
        (k, idx[(x + dx, y + dy)])
        for (x, y), k in idx.items()
        for dx, dy in ((1, 0), (0, 1))
        if (x + dx, y + dy) in idx and ((x, y), (dx, dy)) != ((0, 0), (1, 0))
    ]
    return from_coeffs("square", coeffs, edges, box=Ball((0.0, 0.0), float(half_width)))


# (family, patch radius, pattern radius): off-tie radii on every family,
# then the tie radii, where vertices sit at exactly distance r from a centre
CENSUS_CASES = [
    ("square", 14.0, 1.2), ("square", 14.0, 2.1),
    ("triangular", 12.0, 1.1),
    ("penrose", 16.0, 0.9), ("penrose", 16.0, 1.1),
    ("ammann_beenker", 16.0, 1.1), ("ammann_beenker", 16.0, 1.7),
    ("square", 14.0, 1.0),
    ("triangular", 12.0, 1.0), ("triangular", 12.0, 2.0),
    ("penrose", 16.0, 2.0),
]


class TestCensusOracle:
    """The census table agrees with the pattern built centre by centre, at
    every eligible centre, on generated, restricted and hand-built patches."""

    @staticmethod
    def assert_matches_oracle(g, r):
        census = extract_r_patterns(g, r)
        eligible = ball_ids(g, g.box.radius - r)
        oracle = [pattern_by_centre(g, int(c), r) for c in eligible]
        assert [pattern_at(g, int(c), r) for c in eligible] == oracle
        assert census.counts == Counter(oracle)
        assert census.eligible_centers == len(eligible)
        return census

    @pytest.mark.parametrize("family,patch_radius,r", CENSUS_CASES)
    @pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
    def test_generated_patch(self, family, patch_radius, r, half):
        g = generate(family, patch_radius)
        self.assert_matches_oracle(restrict(g, patch_radius / 2.0) if half else g, r)

    @pytest.mark.parametrize("family,patch_radius,r", CENSUS_CASES)
    def test_census_within_half_is_that_of_the_half_patch(self, family, patch_radius, r):
        # the full patch's table holds every pattern of the cut-down patch
        g = generate(family, patch_radius)
        within = extract_r_patterns(g, r, within=patch_radius / 2.0)
        half = extract_r_patterns(restrict(g, patch_radius / 2.0), r)
        assert within.counts == half.counts
        assert within.eligible_centers == half.eligible_centers > 0

    def test_table_built_in_blocks(self, monkeypatch):
        # 41 blocks of centres
        monkeypatch.setattr(graphs, "_PAIR_BLOCK", 1000)
        self.assert_matches_oracle(generate("penrose", 16.0), 2.0)

    @pytest.mark.parametrize("block", [1 << 18, 100], ids=["one block", "blocks"])
    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_patch_with_a_deleted_edge(self, monkeypatch, r, block):
        # the missing edge shows in the patterns of the 6 centres whose
        # ball holds both its ends; the full lattice has 1 class.  With
        # blocks of 100 compared pairs the table is built over 33 and 67
        monkeypatch.setattr(graphs, "_PAIR_BLOCK", block)
        census = self.assert_matches_oracle(_square_without_edge(6), r)
        assert census.distinct == 7
        assert extract_r_patterns(generate("square", 6.0), r).distinct == 1


def test_census_canonicalizes_each_distinct_neighbourhood_once(tmp_path, monkeypatch):
    # the census command looks up every centre (the 1720 the benchmark's
    # reference pins), but canonicalizes only the 21 distinct
    # neighbourhoods of its patch: the half-radius census reads the same
    # table
    calls = Counter()

    def spy(name):
        inner = getattr(patterns, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(patterns, name, counted)

    spy("pattern_at")
    spy("canonicalize")
    argv = ["census", "--family", "penrose", "--radius", "20", "--pattern-radius", "0.9",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert calls == {"pattern_at": 1720, "canonicalize": 21}


class TestOccurrences:
    def test_single_vertex_count_is_ball_population(self, square_20):
        pattern = canonicalize("square", [(0, 0)], [])
        plan = occurrence_plan(pattern, square_20, counting_radius=5.0)
        oracle = int((np.linalg.norm(square_20.embed, axis=1) < 5.0).sum())
        assert plan.n_translates == oracle

    def test_edge_pattern_count(self, square_20):
        pattern = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)])
        got = occurrence_plan(pattern, square_20, counting_radius=4.0).n_translates
        emb = square_20.embed
        inside = np.linalg.norm(emb, axis=1) < 4.0
        oracle = 0
        for i, j in square_20.edges:
            if inside[i] and inside[j] and emb[i][1] == emb[j][1]:
                oracle += 1
        assert got == oracle

    def test_cross_pattern_requires_all_vertices(self, square_20):
        idx = _vertex_ids(square_20)
        cross = pattern_at(square_20, idx[(0, 0)], 1.2)
        got = occurrence_plan(cross, square_20, counting_radius=6.0).n_translates
        emb = square_20.embed
        inside = np.linalg.norm(emb, axis=1) < 6.0
        oracle = 0
        for cx, cy in square_20.coeffs:
            cx, cy = int(cx), int(cy)
            star = [(cx, cy), (cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)]
            vids = [idx.get(s) for s in star]
            if all(v is not None and inside[v] for v in vids):
                oracle += 1
        assert got == oracle

    def test_basis_mismatch_counts_zero(self, penrose_20):
        pattern = canonicalize("square", [(0, 0)], [])
        assert occurrence_plan(pattern, penrose_20, counting_radius=5.0).n_translates == 0

    def test_missing_edge_blocks_translate(self):
        # a patch with a deleted edge: the edge pattern must skip that spot
        coeffs = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        idx = {c: k for k, c in enumerate(sorted(coeffs))}
        edges = []
        for (x, y), k in idx.items():
            for dx, dy in ((1, 0), (0, 1)):
                other = (x + dx, y + dy)
                if other in idx and not ((x, y) == (0, 0) and (dx, dy) == (1, 0)):
                    edges.append((k, idx[other]))
        g = from_coeffs("square", sorted(coeffs), edges, box=Ball((0.0, 0.0), 6.0))
        pattern = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)])
        full = 0
        emb_inside = lambda c: (c[0] ** 2 + c[1] ** 2) < 9.0
        for (x, y) in coeffs:
            if (x + 1, y) in idx and emb_inside((x, y)) and emb_inside((x + 1, y)):
                full += 1
        got = occurrence_plan(pattern, g, counting_radius=3.0).n_translates
        assert got == full - 1  # the deleted edge sat inside the counting ball


def _pattern_at_matches_exact_ball(family, patch_radius, r):
    """Assert that pattern_at is the induced pattern on the exact open
    r-ball at every centre whose ball lies inside the patch; return the
    number of centres where the strict float hypot test selects another
    vertex set."""
    g = generate(family, patch_radius)
    eligible = ball_ids(g, patch_radius - r)
    float_disagrees = 0
    for c in eligible:
        members = [int(i) for i in ball_ids(g, r, centre=c)]
        local = {v: k for k, v in enumerate(members)}
        edges = [
            (local[a], local[b])
            for a, b in g.edges.tolist()
            if a in local and b in local
        ]
        oracle = canonicalize(family, [g.coeffs[i] for i in members], edges)
        assert pattern_at(g, int(c), r) == oracle
        d = g.embed - g.embed[c]
        by_hypot = np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) < r)
        float_disagrees += not np.array_equal(by_hypot, members)
    return float_disagrees


def _plan_rows_by_anchor_loop(g, p, counting_radius):
    """Edge hits of the translates of ``p``, resolved anchor by anchor with
    coefficient and edge dictionaries."""
    idx = {tuple(int(c) for c in row): i for i, row in enumerate(g.coeffs)}
    eidx = {(int(a), int(b)): k for k, (a, b) in enumerate(g.edges)}
    inside = in_open_ball(g.basis.id, g.coeffs, counting_radius)
    rows = []
    for anchor in np.flatnonzero(inside):
        base = g.coeffs[anchor]
        vids = [idx.get(tuple(int(b + r) for b, r in zip(base, rel))) for rel in p.coords]
        if None in vids:
            continue
        hits = [eidx.get((min(vids[a], vids[b]), max(vids[a], vids[b]))) for a, b in p.edges]
        if None in hits or not inside[vids].all():
            continue
        rows.append(hits)
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(p.edges))


@pytest.mark.parametrize("family,radius,counting_radius", [
    ("square", 20.0, 15.0),
    ("penrose", 16.0, 12.0),
])
def test_occurrence_plan_matches_anchor_loop(family, radius, counting_radius):
    g = generate(family, radius)
    patterns = [
        pattern for r in (0.9, 1.1, 1.5, 2.0)
        for pattern, _ in extract_r_patterns(g, r).most_common()[:4]
    ]
    # a vertex pair the graph holds but never joins, since e0 + e1 is no
    # unit step: every translate misses its edge
    pair = [(0,) * g.basis.rank, (1, 1) + (0,) * (g.basis.rank - 2)]
    assert occurrence_plan(canonicalize(family, pair), g, counting_radius).n_translates > 0
    patterns.append(canonicalize(family, pair, [(0, 1)]))
    total = 0
    for pattern in patterns:
        plan = occurrence_plan(pattern, g, counting_radius)
        oracle = _plan_rows_by_anchor_loop(g, pattern, counting_radius)
        np.testing.assert_array_equal(plan.edge_hits, oracle)
        assert plan.n_translates == len(oracle)
        total += len(oracle)
    assert total > 0 and len(oracle) == 0


class TestFrequencies:
    def test_vertex_frequency_tends_to_one(self):
        g = generate("square", 100.0)
        pattern = canonicalize("square", [(0, 0)], [])
        frequency = occurrence_plan(pattern, g, 95.0).n_translates / ball_volume(95.0)
        assert frequency == pytest.approx(1.0, abs=0.02)

    def test_horizontal_edge_frequency_tends_to_one(self):
        g = generate("square", 100.0)
        pattern = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)])
        frequency = occurrence_plan(pattern, g, 95.0).n_translates / ball_volume(95.0)
        assert frequency == pytest.approx(1.0, abs=0.03)


class TestDensity:
    def test_square_density_approaches_one(self):
        g = generate("square", 60.0)
        assert density_report(g, 50.0) == pytest.approx(1.0, abs=0.02)

    def test_penrose_density_value(self, penrose_20):
        assert density_report(penrose_20, 19.0) == pytest.approx(1.231, rel=0.02)

    @pytest.mark.parametrize(
        "family,radius",
        [("square", 1.0), ("square", 40.0),
         ("triangular", 1.0), ("triangular", 2.0), ("triangular", 8.0),
         ("triangular", 12.0), ("penrose", 1.0), ("penrose", 12.0),
         ("ammann_beenker", 1.0), ("ammann_beenker", 16.0)],
    )
    def test_every_open_component_reaches_the_band(self, family, radius):
        # why lifshits takes rho_inf = rho: a component of the all-open
        # patch with no near_boundary vertex has every neighbour inside
        # the patch, so it would be a finite component of a connected
        # infinite graph; the lattice radii put vertices on |x| = R - l_max
        g = generate(family, radius)
        adjacency = coo_matrix(
            (np.ones(g.n_edges), tuple(g.edges.T)), shape=(g.n_vertices,) * 2
        )
        labels = connected_components(adjacency, directed=False)[1]
        assert set(labels[g.near_boundary].tolist()) == set(labels.tolist())


class TestColoured:
    def _mc_counts(self, pattern, g, p, seed, realizations, radius):
        params = PercolationParams(p=p, master_seed=seed, realizations=realizations)
        plan = occurrence_plan(pattern, g, radius)
        counts = []
        for r in range(realizations):
            cfg = sample(g, params, r)
            counts.append(plan.coloured_count(cfg.open_mask, pattern.colours))
        return np.asarray(counts, dtype=float)

    def test_all_open_matches_uncoloured(self, square_20):
        pattern = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)])
        coloured = replace(pattern, colours=(1,))
        counts = self._mc_counts(coloured, square_20, 1.0, 3, 2, 10.0)
        base = occurrence_plan(pattern, square_20, counting_radius=10.0).n_translates
        assert np.all(counts == base)

    def test_all_closed_colour_never_matches_at_p_one(self, square_20):
        pattern = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)])
        coloured = replace(pattern, colours=(0,))
        counts = self._mc_counts(coloured, square_20, 1.0, 3, 2, 10.0)
        assert np.all(counts == 0)

    def test_single_open_edge_at_half(self, square_20):
        pattern = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)])
        coloured = replace(pattern, colours=(1,))
        counts = self._mc_counts(coloured, square_20, 0.5, 19, 64, 12.0)
        base = occurrence_plan(pattern, square_20, counting_radius=12.0).n_translates
        sem = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 0.5 * base) < 4.0 * sem + 1e-9

    def test_two_edge_colouring_at_half(self, square_20):
        pattern = canonicalize("square", [(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)])
        coloured = replace(pattern, colours=(1, 0))
        counts = self._mc_counts(coloured, square_20, 0.5, 23, 64, 12.0)
        base = occurrence_plan(pattern, square_20, counting_radius=12.0).n_translates
        sem = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 0.25 * base) < 4.0 * sem + 1e-9

    def test_plan_indicator_matches_manual_loop(self, square_20):
        pattern = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)])
        coloured = replace(pattern, colours=(1,))
        cfg = sample(square_20, PercolationParams(p=0.5, master_seed=101), 0)
        plan = occurrence_plan(pattern, square_20, counting_radius=8.0)
        got = plan.coloured_count(cfg.open_mask, coloured.colours)
        manual = sum(1 for row in plan.edge_hits if cfg.open_mask[row[0]])
        assert got == manual


def test_pattern_at_open_ball_excludes_radius(square_20):
    v = _vertex_ids(square_20)[(0, 0)]
    p = pattern_at(square_20, v, 1.0)
    assert len(p.coords) == 1
    assert p.n_edges == 0
