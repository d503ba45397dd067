"""Tests for bond sampling, cluster decomposition, and decay statistics."""

import functools
import math
import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from exact_ball import ball_ids, in_open_ball, signs
from oracles import bruteforce_cluster_oracle, from_coeffs, vertex_sizes
from percospec.graphs import generate
from percospec import percolation, spectral
from percospec.cli import main
from percospec.percolation import (
    PercolationParams,
    _cluster_reach,
    boundary_path_statistic,
    bounds_report,
    cluster_size_statistic,
    cluster_size_tail_statistic,
    decompose,
    edge_uniforms,
    mean_cluster_size,
    per_realization_rows,
    realization_batches,
    sample,
)
from percospec.spectral import (
    CheegerReport,
    cheeger_check,
    eigenvalues,
    ids_estimate,
    laplacian_from_edges,
)


@pytest.fixture(scope="module")
def square_14():
    return generate("square", 14.0)


def _path_graph(n):
    coeffs = [(k, 0) for k in range(n)]
    edges = [(k, k + 1) for k in range(n - 1)]
    return from_coeffs("square", coeffs, edges, box=None)


class TestSampling:
    def test_params_validate(self):
        with pytest.raises(ValueError):
            PercolationParams(p=1.5, master_seed=0)
        with pytest.raises(ValueError):
            PercolationParams(p=0.5, master_seed=0, realizations=0)

    def test_uniforms_deterministic(self):
        a = edge_uniforms(100, 42, 7)
        b = edge_uniforms(100, 42, 7)
        assert np.array_equal(a, b)

    def test_uniforms_differ_across_realizations(self):
        a = edge_uniforms(100, 42, 0)
        b = edge_uniforms(100, 42, 1)
        assert not np.array_equal(a, b)

    def test_uniforms_differ_across_seeds(self):
        a = edge_uniforms(100, 1, 0)
        b = edge_uniforms(100, 2, 0)
        assert not np.array_equal(a, b)

    def test_prefix_consistency(self):
        # the first k uniforms do not depend on how many are drawn
        a = edge_uniforms(10, 9, 3)
        b = edge_uniforms(200, 9, 3)
        assert np.array_equal(a, b[:10])

    def test_open_fraction_near_p(self, square_14):
        params = PercolationParams(p=0.35, master_seed=5, realizations=50)
        fractions = [
            sample(square_14, params, r).open_mask.mean() for r in range(50)
        ]
        sem = np.std(fractions, ddof=1) / math.sqrt(50)
        assert abs(np.mean(fractions) - 0.35) < 4 * sem

    def test_monotone_coupling_is_exact(self, square_14):
        for r in range(20):
            lo = sample(square_14, PercolationParams(p=0.3, master_seed=8), r)
            hi = sample(square_14, PercolationParams(p=0.7, master_seed=8), r)
            assert np.all(lo.open_mask <= hi.open_mask)

    def test_extreme_probabilities(self, square_14):
        closed = sample(square_14, PercolationParams(p=0.0, master_seed=1), 0)
        assert closed.open_mask.sum() == 0
        opened = sample(square_14, PercolationParams(p=1.0, master_seed=1), 0)
        assert opened.open_mask.sum() == square_14.n_edges


# the bond probabilities at the edges of the raw-word threshold
# ceil(p 2^53) 2^11: no bond, below the smallest nonzero uniform, the
# smallest nonzero uniform, two bench values, one half, the largest uniform
# below 1, and every bond (a threshold of 2^64)
RAW_WORD_PROBABILITIES = (0.0, 2.0**-60, 2.0**-53, 0.1, 0.13, 0.5, 1.0 - 2.0**-53, 1.0)
RAW_WORD_SEEDS = (0, 1, 2**64 - 1)
# Philox emits four words per counter, so counts off a multiple of 4 matter
RAW_WORD_EDGE_COUNTS = (0, 1, 3, 4, 5, 12, 15_124)


@functools.cache
def _edge_count_patch(n_edges):
    return _path_graph(n_edges + 1)


class TestRawWordBondsMatchUniforms:
    """``sample`` thresholds raw Philox words; its bonds are the reference
    ``edge_uniforms(...) < p``, bit for bit."""

    @staticmethod
    def _check(p, seed, index, n_edges):
        g = _edge_count_patch(n_edges)
        assert g.n_edges == n_edges
        got = sample(g, PercolationParams(p=p, master_seed=seed), index).open_mask
        want = edge_uniforms(n_edges, seed, index) < p
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", RAW_WORD_PROBABILITIES)
    def test_listed_probabilities(self, p):
        for seed in RAW_WORD_SEEDS:
            for n_edges in RAW_WORD_EDGE_COUNTS:
                for index in (0, 7, 2**64 - 1):
                    self._check(p, seed, index, n_edges)

    @given(
        p=st.one_of(st.sampled_from(RAW_WORD_PROBABILITIES), st.floats(0.0, 1.0)),
        seed=st.sampled_from(RAW_WORD_SEEDS),
        index=st.integers(0, 2**64 - 1),
        n_edges=st.sampled_from(RAW_WORD_EDGE_COUNTS),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_probabilities(self, p, seed, index, n_edges):
        self._check(p, seed, index, n_edges)


def _bfs_labels(n, edge_list):
    adj = [[] for _ in range(n)]
    for a, b in edge_list:
        adj[a].append(b)
        adj[b].append(a)
    labels = [-1] * n
    next_label = 0
    for s in range(n):
        if labels[s] != -1:
            continue
        stack = [s]
        labels[s] = next_label
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if labels[w] == -1:
                    labels[w] = next_label
                    stack.append(w)
        next_label += 1
    return labels


def _scipy_components(edges, t):
    m = coo_matrix((np.ones(edges.shape[0]), (edges[:, 0], edges[:, 1])), shape=(t, t))
    return connected_components(m, directed=False)


def _full_labels(g, open_mask):
    """Cluster id of every vertex, isolated ones included: scipy's
    components of the open subgraph on the full vertex set."""
    return _scipy_components(g.edges[open_mask], g.n_vertices)[1]


class TestDecompose:
    def test_all_closed_gives_singletons(self, square_14):
        dec = decompose(square_14, np.zeros(square_14.n_edges, dtype=bool))
        # no vertex is touched, so every cluster is an implicit singleton
        assert dec.touched.size == dec.labels.size == dec.sizes.size == 0
        assert dec.edges.shape == (0, 2)
        assert dec.realizations == 1 and dec.cluster_block.size == 0
        assert np.all(vertex_sizes(dec) == 1)

    def test_all_open_gives_one_cluster(self, square_14):
        dec = decompose(square_14, np.ones(square_14.n_edges, dtype=bool))
        assert np.array_equal(dec.touched, np.arange(square_14.n_vertices))
        assert dec.sizes.tolist() == [square_14.n_vertices]
        assert np.all(dec.labels == 0)

    def test_sizes_partition_vertices(self, square_14):
        cfg = sample(square_14, PercolationParams(p=0.4, master_seed=3), 0)
        dec = decompose(square_14, cfg)
        # the touched vertices are exactly the endpoints of open edges
        assert np.array_equal(dec.touched, np.unique(square_14.edges[cfg.open_mask]))
        # the nontrivial clusters hold the touched vertices, the implicit
        # singletons the rest
        assert dec.sizes.sum() == dec.touched.size
        assert np.all(dec.sizes >= 2)
        # every label is one of the clusters, each holding sizes[k] vertices
        assert np.array_equal(np.sort(dec.labels), np.repeat(np.arange(dec.sizes.size), dec.sizes))

    def test_open_edges_join_labels(self, square_14):
        cfg = sample(square_14, PercolationParams(p=0.4, master_seed=3), 0)
        dec = decompose(square_14, cfg)
        # the edges are the open edges, as positions among the touched vertices
        assert np.array_equal(dec.touched[dec.edges], square_14.edges[cfg.open_mask])
        assert np.all(dec.labels[dec.edges[:, 0]] == dec.labels[dec.edges[:, 1]])

    def test_cluster_members_match_full_labels(self, square_14):
        cfg = sample(square_14, PercolationParams(p=0.4, master_seed=4), 0)
        dec = decompose(square_14, cfg)
        full = _full_labels(square_14, cfg.open_mask)
        sizes = vertex_sizes(dec)[0]
        assert np.array_equal(sizes, np.bincount(full)[full])
        for i in (0, 17, dec.touched.size - 1):
            v = dec.touched[i]
            members = dec.touched[dec.labels == dec.labels[i]]
            assert np.array_equal(members, np.flatnonzero(full == full[v]))

    def test_cluster_block_names_each_clusters_realization(self, square_14):
        # a realization with no open edge between two with clusters
        params = PercolationParams(p=0.4, master_seed=6)
        masks = np.array([sample(square_14, params, r).open_mask for r in range(4)])
        masks[1] = False
        dec = percolation._decompose(square_14, masks)
        assert dec.realizations == 4
        counts = [decompose(square_14, mask).sizes.size for mask in masks]
        assert counts[1] == 0 and min(counts[0], counts[2], counts[3]) > 0
        assert np.array_equal(dec.cluster_block, np.repeat(np.arange(4), counts))
        assert np.array_equal(dec.cluster_block[dec.labels], dec.block)

    def test_stable_order_matches_argsort(self):
        # labels up to 2^31 - 1, with repeats and labels at or above 2^16,
        # which no patch of the tests or the benchmark reaches
        rng = np.random.default_rng(5)
        for high in (2**8, 2**16 + 3, 2**20, 2**31 - 1):
            labels = rng.integers(0, high, size=5000, dtype=np.int32)
            labels[::7] = labels[0]
            labels[1::11] = high - 1
            want = np.argsort(labels, kind="stable")
            assert np.array_equal(percolation._stable_order(labels), want)
        assert percolation._stable_order(np.empty(0, dtype=np.int32)).size == 0

    def test_mismatched_mask_rejected(self, square_14):
        with pytest.raises(ValueError):
            decompose(square_14, np.zeros(3, dtype=bool))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_bfs_oracle(self, seed):
        g = generate("square", 6.0)
        cfg = sample(g, PercolationParams(p=0.5, master_seed=seed), 0)
        dec = decompose(g, cfg)
        oracle = _bfs_labels(g.n_vertices, g.edges[cfg.open_mask].tolist())
        # same partition up to relabelling, each isolated vertex its own cluster
        labels = -1 - np.arange(g.n_vertices)
        labels[dec.touched] = dec.labels
        pairs = set(zip(labels.tolist(), oracle))
        n_clusters = dec.sizes.size + g.n_vertices - dec.touched.size
        assert len(pairs) == n_clusters == max(oracle) + 1

    def test_boundary_touching_flags(self):
        g = generate("square", 5.0)
        dec = decompose(g, np.ones(g.n_edges, dtype=bool))
        # the single all-open cluster reaches the boundary
        assert dec.boundary_touching.tolist() == [True]
        assert decompose(g, np.zeros(g.n_edges, dtype=bool)).boundary_touching.size == 0
        near = np.array(signs("square", g.coeffs, 5.0 - g.l_max)) >= 0
        for r in range(5):
            cfg = sample(g, PercolationParams(p=0.4, master_seed=2), r)
            dec = decompose(g, cfg)
            full = _full_labels(g, cfg.open_mask)
            want = np.isin(full[dec.touched], full[near])
            assert np.array_equal(dec.boundary_touching[dec.labels], want)


class TestOracle:
    def test_path3_closed_forms(self):
        g = _path_graph(3)
        p = 0.37
        o = bruteforce_cluster_oracle(g, p, vertex=1, n_values=[1, 2, 3])
        assert o["tail"][1] == pytest.approx(1.0)
        assert o["tail"][2] == pytest.approx(1 - (1 - p) ** 2)
        assert o["tail"][3] == pytest.approx(p * p)
        assert o["mean_cluster_size"] == pytest.approx(1 + 2 * p)
        # a forest: clusters = vertices - open edges
        assert o["expected_cluster_count"] == pytest.approx(3 - 2 * p)

    def test_two_edge_star_cluster_count(self):
        coeffs = [(0, 0), (1, 0), (0, 1)]
        edges = [(0, 1), (0, 2)]
        g = from_coeffs("square", coeffs, edges, box=None)
        p = 0.41
        o = bruteforce_cluster_oracle(g, p, vertex=0)
        assert o["expected_cluster_count"] == pytest.approx(3 - 2 * p)

    def test_square_cycle(self):
        coeffs = [(0, 0), (1, 0), (1, 1), (0, 1)]
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        g = from_coeffs("square", coeffs, edges, box=None)
        p = 0.5
        o = bruteforce_cluster_oracle(g, p, vertex=0, n_values=[4])
        # |C_0| = 4 iff at least 3 of the 4 cycle edges are open
        expect = 4 * p**3 * (1 - p) + p**4
        assert o["tail"][4] == pytest.approx(expect)

    def test_edge_cap_enforced(self, square_14):
        with pytest.raises(ValueError):
            bruteforce_cluster_oracle(square_14, 0.5, vertex=0)


class TestTailStatistics:
    def test_tail_starts_at_one(self, square_14):
        params = PercolationParams(p=0.3, master_seed=21, realizations=30)
        stat = cluster_size_tail_statistic(square_14, [1, 2, 3])
        (rows,) = per_realization_rows(square_14, params, [stat])
        t = stat.estimate(rows)
        assert t.estimates[0] == 1.0
        assert np.all(np.diff(t.estimates) <= 0)

    def test_tail_size2_closed_form(self, square_14):
        # P(|C| >= 2) = 1 - (1-p)^4 on the square lattice
        p = 0.25
        params = PercolationParams(p=p, master_seed=77, realizations=400)
        stat = cluster_size_tail_statistic(square_14, [2])
        (rows,) = per_realization_rows(square_14, params, [stat])
        t = stat.estimate(rows)
        expect = 1 - (1 - p) ** 4
        assert abs(t.estimates[0] - expect) < 4 * t.stderrs[0]

    def test_margin_shrinks_interior(self, square_14):
        # one open edge at the centre: its two ends, of the m interior
        # vertices, reach size 2
        ids = {row: v for v, row in enumerate(map(tuple, square_14.coeffs.tolist()))}
        open_mask = (square_14.edges == sorted([ids[0, 0], ids[1, 0]])).all(axis=1)
        dec = decompose(square_14, open_mask)
        counts = []
        for margin in (2.0, 8.0):
            m = ball_ids(square_14, 14.0 - margin).size
            stat = cluster_size_tail_statistic(square_14, [2], margin=margin)
            assert stat(dec).tolist() == [[2 / m]]
            counts.append(m)
        assert counts[1] < counts[0]

    def test_no_interior_raises(self):
        g = generate("square", 4.0)
        with pytest.raises(ValueError):
            cluster_size_tail_statistic(g, [2], margin=10.0)

    def test_boundary_path_n1_closed_form(self, square_14):
        # the cluster leaves B_1(v) iff some incident edge is open
        p = 0.25
        params = PercolationParams(p=p, master_seed=91, realizations=400)
        stat = boundary_path_statistic(square_14, [1.0])
        (rows,) = per_realization_rows(square_14, params, [stat])
        bp = stat.estimate(rows)
        expect = 1 - (1 - p) ** 4
        assert abs(bp.estimates[0] - expect) < 4 * bp.stderrs[0]

    def test_boundary_path_decreasing_in_n(self, square_14):
        params = PercolationParams(p=0.3, master_seed=5, realizations=50)
        stat = boundary_path_statistic(square_14, [1.0, 2.0, 3.0, 4.0])
        (rows,) = per_realization_rows(square_14, params, [stat])
        bp = stat.estimate(rows)
        assert np.all(np.diff(bp.estimates) <= 0)

    def test_boundary_path_default_margin_sees_every_exit(self):
        # an open path from (7, 3) along y = 3 to (18, 3), up to (18, 7) and
        # out to (19, 7): it leaves B_12((7, 3)) only at (19, 7), which lies
        # at 20.25, outside the patch; the default interior must hold only
        # vertices whose exits the patch decides, as on the infinite lattice
        g = generate("square", 20.0)
        n_values = np.arange(1, 13)
        stat = boundary_path_statistic(g, n_values)
        path = [(x, 3) for x in range(7, 19)] + [(18, y) for y in range(4, 8)]
        outside = (19, 7)
        ids = {row: v for v, row in enumerate(map(tuple, g.coeffs.tolist()))}
        assert outside not in ids
        on_path = np.zeros(g.n_vertices, dtype=bool)
        on_path[[ids[c] for c in path]] = True
        (row,) = stat(decompose(g, on_path[g.edges].all(axis=1)))
        # the default interior is the open ball of radius 20 - (12 + l_max)
        interior = np.zeros(g.n_vertices, dtype=bool)
        interior[ball_ids(g, 20.0 - 12.0 - g.l_max)] = True
        m = int(interior.sum())
        # reach on the infinite lattice, where the path goes on to (19, 7)
        pts = np.array(path + [outside], dtype=float)
        reach = [np.hypot(*(pts - c).T).max() for c in path if interior[ids[c]]]
        want = [sum(r >= n for r in reach) / m for n in n_values]
        assert row.tolist() == want

    def test_mean_cluster_size_subcritical(self, square_14):
        params = PercolationParams(p=0.2, master_seed=13, realizations=100)
        chi, se = mean_cluster_size(square_14, params, margin=6.0)
        assert chi > 1.0
        assert se > 0.0
        # exact low-density expansion gives chi(0.2) around 2.6 on Z^2
        assert 2.0 < chi < 3.5


def _reach_by_cluster_loop(g, full, interior):
    """Largest distance from each interior vertex to its cluster, one
    cluster at a time, from the cluster id of every vertex."""
    emb = g.embed
    reach = np.zeros(interior.size)
    labels = full[interior]
    for label in np.unique(labels):
        block = np.flatnonzero(labels == label)
        pts = emb[np.flatnonzero(full == label)]
        diff = emb[interior[block]][:, None, :] - pts[None, :, :]
        d2 = diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2
        reach[block] = np.sqrt(d2.max(axis=1))
    return reach


class TestReachMatchesPerClusterLoop:
    @pytest.mark.parametrize(
        "family,radius,p",
        [
            ("square", 18.0, 0.3),
            ("triangular", 14.0, 0.2),
            ("penrose", 16.0, 0.2),
            ("ammann_beenker", 16.0, 0.15),
            # supercritical: the interior lies mostly in one giant cluster
            ("square", 14.0, 0.6),
        ],
    )
    def test_reach_and_rows_identical(self, family, radius, p):
        g = generate(family, radius)
        margin = 3.0
        interior = ball_ids(g, radius - margin)
        n_values = np.arange(0.5, 2 * radius, 0.5)
        stat = boundary_path_statistic(g, n_values, margin=margin)
        params = PercolationParams(p=p, master_seed=17)
        for r in range(3):
            cfg = sample(g, params, r)
            dec = decompose(g, cfg)
            want = _reach_by_cluster_loop(g, _full_labels(g, cfg.open_mask), interior)
            # the touched interior vertices are computed, the rest are
            # isolated, with reach 0
            touched = np.isin(interior, dec.touched)
            chosen = np.flatnonzero(np.isin(dec.touched, interior))
            assert _cluster_reach(dec, chosen).tobytes() == want[touched].tobytes()
            assert np.all(want[~touched] == 0.0)
            want_row = np.array([(want >= n).mean() for n in n_values])
            assert stat(dec).tobytes() == want_row.tobytes()

    def test_blocks_of_one_row_change_nothing(self, monkeypatch):
        # supercritical, so one giant cluster is split into many blocks
        g = generate("square", 20.0)
        interior = ball_ids(g, 20.0 - 3.0)
        params = PercolationParams(p=0.6, master_seed=5)
        cfgs = [sample(g, params, r) for r in range(3)]
        decs = [decompose(g, cfg) for cfg in cfgs]
        assert max(int(dec.sizes.max()) for dec in decs) > interior.size / 2
        monkeypatch.setattr(percolation, "_REACH_BLOCK", 1)
        for cfg, dec in zip(cfgs, decs):
            chosen = np.flatnonzero(np.isin(dec.touched, interior))
            assert chosen.size > interior.size / 2
            want = _reach_by_cluster_loop(g, _full_labels(g, cfg.open_mask), dec.touched[chosen])
            assert _cluster_reach(dec, chosen).tobytes() == want.tobytes()


def test_percolate_decomposes_each_realization_once(tmp_path, monkeypatch):
    sampled, decomposed = [], []
    decompose_batch = percolation._decompose

    def counted_sample(g, params, r):
        sampled.append(r)
        return sample(g, params, r)

    def counted_decompose(g, masks):
        decomposed.append(masks.shape[0])
        return decompose_batch(g, masks)

    monkeypatch.setattr(percolation, "sample", counted_sample)
    monkeypatch.setattr(percolation, "_decompose", counted_decompose)
    argv = ["percolate", "--family", "square", "--radius", "30", "--p", "0.2",
            "--realizations", "7", "--n-max", "8", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert sampled == list(range(7))
    # the batched decompositions hold every realization once
    assert sum(decomposed) == 7


# ---------------------------------------------------------------------------
# batches of realizations against one realization at a time


BATCH_SIZES = (1, 2, 5)
BATCH_RUN = 13  # realizations: not a multiple of 2 or 5


@pytest.fixture(
    scope="module",
    params=[
        ("square", 16.0, 0.2),
        ("triangular", 16.0, 0.12),
        ("penrose", 16.0, 0.15),
        ("ammann_beenker", 16.0, 0.15),
        # supercritical: most interior vertices share one giant cluster
        ("square", 14.0, 0.6),
    ],
    ids=lambda case: f"{case[0]}-p{case[2]}",
)
def batch_case(request):
    family, radius, p = request.param
    g = generate(family, radius)
    return g, PercolationParams(p=p, master_seed=6, realizations=BATCH_RUN)


class TestBatchesMatchOneRealizationAtATime:
    """Every batch size gives the rows of the loop that decomposes one
    realization at a time, and the gap check of a list of configurations
    is that of one call per configuration."""

    def test_statistic_rows_identical(self, batch_case, monkeypatch):
        g, params = batch_case
        stats = [
            cluster_size_tail_statistic(g, range(1, 9), margin=4.0),
            boundary_path_statistic(g, np.arange(0.5, 12.0, 0.5), margin=4.0),
            cluster_size_statistic(g, 4.0),
        ]
        decs = [decompose(g, sample(g, params, r)) for r in range(BATCH_RUN)]
        want = [np.concatenate([stat(dec) for dec in decs]) for stat in stats]
        for k in BATCH_SIZES:
            monkeypatch.setattr(percolation, "_BATCH_VERTEX_SLOTS", k * g.n_vertices)
            rows = per_realization_rows(g, params, stats)
            assert [r.shape for r in rows] == [w.shape for w in want]
            assert [r.tobytes() for r in rows] == [w.tobytes() for w in want]

    def test_cheeger_report_identical(self, batch_case):
        g, params = batch_case
        cfgs = [sample(g, params, r) for r in range(BATCH_RUN)]
        alone = [cheeger_check(g, [cfg]) for cfg in cfgs]
        assert cheeger_check(g, cfgs) == CheegerReport(
            checked=sum(rep.checked for rep in alone),
            violations=sum(rep.violations for rep in alone),
            min_margin=min(rep.min_margin for rep in alone),
            largest_cluster=max(rep.largest_cluster for rep in alone),
        )

    def test_cheeger_cap_error_identical(self, batch_case, monkeypatch):
        g, params = batch_case
        cfgs = [sample(g, params, r) for r in range(BATCH_RUN)]
        # the first configuration passes alone, so the error must come
        # from a later one
        monkeypatch.setattr(spectral, "_MAX_CLUSTER_SIZE", cheeger_check(g, cfgs[:1]).largest_cluster)
        messages = []
        for cfg in cfgs:
            try:
                cheeger_check(g, [cfg])
            except RuntimeError as exc:
                messages.append(str(exc))
        assert messages
        with pytest.raises(RuntimeError, match=f"^{re.escape(messages[0])}$"):
            cheeger_check(g, cfgs)


# ---------------------------------------------------------------------------
# the open-edge decomposition against scipy's components of every vertex


ORACLE_ENERGIES = [0.05, 0.5, 1.0, 2.0, 4.5, 9.0]
ORACLE_MARGIN = 4.0


@pytest.fixture(
    scope="module",
    params=[
        ("square", 16.0, 0.2, 12.0),
        ("triangular", 16.0, 0.12, 12.0),
        ("penrose", 16.0, 0.15, 12.0),
        ("ammann_beenker", 16.0, 0.15, 12.0),
        # supercritical: most interior vertices share one giant cluster
        ("square", 14.0, 0.6, 10.0),
        # no touched vertex in any block
        ("square", 16.0, 0.0, 12.0),
        # every vertex touched, one cluster per block
        ("square", 8.0, 1.0, 6.0),
        # the window holds vertices at most l_max from the boundary, some of
        # them isolated in every realization
        ("square", 16.0, 0.2, 15.5),
        # the window holds one such vertex, isolated in some realizations
        ("square-one-near", 16.0, 0.2, 15.04),
    ],
    ids=lambda case: f"{case[0]}-p{case[2]}-w{case[3]:g}",
)
def touched_case(request):
    family, radius, p, window = request.param
    if family == "square-one-near":
        g = _one_near_vertex_patch(radius)
    else:
        g = generate(family, radius)
    return g, PercolationParams(p=p, master_seed=6, realizations=BATCH_RUN), window


def _one_near_vertex_patch(radius):
    """The square patch less every vertex at most l_max from its boundary but
    (radius - 1, 1): a window that holds that vertex drops a realization
    through it alone when it is isolated."""
    g = generate("square", radius)
    keep = ~g.near_boundary | (g.coeffs == (radius - 1, 1)).all(axis=1)
    position = np.cumsum(keep) - 1
    edges = position[g.edges[keep[g.edges].all(axis=1)]]
    patch = from_coeffs("square", g.coeffs[keep], edges, box=g.box)
    assert patch.near_boundary.sum() == 1
    return patch


def _reference_ids(g, params, window, flag_boundary):
    """ids_estimate's rows, chi rows and truncation count, one realization
    at a time, from the cluster id of every vertex: singletons counted one
    by one, the clusters of 3+ vertices added in label order."""
    cache = spectral._ShapeCache(ORACLE_ENERGIES)
    if window is None:
        in_ball, volume = np.ones(g.n_vertices, dtype=bool), 1.0
    else:
        in_ball, volume = in_open_ball(g.basis.id, g.coeffs, window), math.pi * window**2
    single, pair = (1,), (2, 1)
    cache.solve([single, pair], [False, True])
    vec_pair_half = spectral._window_weighted(
        cache.vectors[pair][None], np.array([[True, False]]), cache.counts[pair][None])[0]
    interior = in_open_ball(g.basis.id, g.coeffs, g.box.radius - ORACLE_MARGIN)
    rows, chi, truncated = [], [], 0
    for r in range(params.realizations):
        mask = sample(g, params, r).open_mask
        labels = _full_labels(g, mask)
        sizes = np.bincount(labels)
        chi.append([sizes[labels[interior]].mean()])
        in_count = np.bincount(labels[in_ball], minlength=sizes.size)
        counted = in_count > 0
        touching = np.zeros(sizes.size, dtype=bool)
        touching[labels[g.near_boundary]] = True
        if flag_boundary and (counted & touching).any():
            truncated += 1
            continue
        size2 = counted & (sizes == 2)
        acc = np.zeros(cache.grid.size)
        acc += cache.counts[single] * np.count_nonzero(counted & (sizes == 1))
        acc += cache.counts[pair] * np.count_nonzero(size2 & (in_count == 2))
        acc += vec_pair_half * np.count_nonzero(size2 & (in_count == 1))
        larger = counted & (sizes >= 3)
        if larger.any():
            for row in spectral._shape_rows(cache, g.edges[mask], labels, sizes,
                                            in_count, in_ball, larger):
                acc += row
        rows.append(acc / volume)
    return np.array(rows).reshape(-1, cache.grid.size), np.array(chi), truncated


def _reference_percolate(g, params, size_n, exit_n):
    """The three percolate rows, one realization at a time, from the
    cluster id of every vertex."""
    interior = ball_ids(g, g.box.radius - ORACLE_MARGIN)
    size_rows, exit_rows, chi_rows = [], [], []
    for r in range(params.realizations):
        labels = _full_labels(g, sample(g, params, r).open_mask)
        sizes = np.bincount(labels)[labels[interior]]
        reach = _reach_by_cluster_loop(g, labels, interior)
        size_rows.append([(sizes >= n).mean() for n in size_n])
        exit_rows.append([(reach >= n).mean() for n in exit_n])
        chi_rows.append([sizes.mean()])
    return [np.array(size_rows), np.array(exit_rows), np.array(chi_rows)]


def _reference_margins(g, cfg):
    """E_1 |C|^2 of each cluster of 2+ vertices of one configuration, one
    cluster at a time."""
    labels = _full_labels(g, cfg.open_mask)
    sizes = np.bincount(labels)
    e = g.edges[cfg.open_mask]
    margins = []
    for label in np.flatnonzero(sizes >= 2):
        members = np.flatnonzero(labels == label)
        local = np.searchsorted(members, e[labels[e[:, 0]] == label])
        s = members.size
        margins.append(float(eigenvalues(laplacian_from_edges(s, local))[1]) * s * s)
    return np.array(margins), int(sizes.max(initial=0)) if margins else 0


class TestTouchedVerticesMatchFullLabels:
    """At every batch size, what reads the open-edge decomposition gives the
    bytes of the same quantity computed from scipy's cluster id of every
    vertex, one realization at a time."""

    def test_ids_rows_chi_and_truncations(self, touched_case, monkeypatch):
        g, params, window = touched_case
        want, chi, truncated = _reference_ids(g, params, window, True)
        whole, _, _ = _reference_ids(g, params, None, False)
        for k in BATCH_SIZES:
            monkeypatch.setattr(percolation, "_BATCH_VERTEX_SLOTS", k * g.n_vertices)
            tab = ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=window,
                               chi_margin=ORACLE_MARGIN)
            assert tab.rows.tobytes() == want.tobytes()
            assert tab.chi.tobytes() == chi.tobytes()
            assert tab.truncated_realizations == truncated
            tab = ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=None,
                               flag_boundary=False)
            assert tab.rows.tobytes() == whole.tobytes()

    def test_percolate_rows(self, touched_case, monkeypatch):
        g, params, _ = touched_case
        size_n, exit_n = np.arange(1, 9), np.arange(0.5, 12.0, 0.5)
        stats = [
            cluster_size_tail_statistic(g, size_n, margin=ORACLE_MARGIN),
            boundary_path_statistic(g, exit_n, margin=ORACLE_MARGIN),
            cluster_size_statistic(g, ORACLE_MARGIN),
        ]
        want = _reference_percolate(g, params, size_n, exit_n)
        for k in BATCH_SIZES:
            monkeypatch.setattr(percolation, "_BATCH_VERTEX_SLOTS", k * g.n_vertices)
            rows = per_realization_rows(g, params, stats)
            assert [r.tobytes() for r in rows] == [w.tobytes() for w in want]

    def test_cheeger_report(self, touched_case):
        g, params, _ = touched_case
        cfgs = [sample(g, params, r) for r in range(BATCH_RUN)]
        alone = [_reference_margins(g, cfg) for cfg in cfgs]
        for k in BATCH_SIZES:
            for b0 in range(0, BATCH_RUN, k):
                rep = cheeger_check(g, cfgs[b0 : b0 + k])
                got = (rep.checked, rep.violations, rep.min_margin, rep.largest_cluster)
                margins = np.concatenate([m for m, _ in alone[b0 : b0 + k]])
                want = (margins.size, np.count_nonzero(margins < 1.0),
                        margins.min(initial=math.inf), max(s for _, s in alone[b0 : b0 + k]))
                assert np.array(got).tobytes() == np.array(want).tobytes()


def test_components_run_on_touched_vertices_only(monkeypatch):
    """_components sees the touched vertices and nothing else: a batch
    with no open edge calls it on no vertex."""
    g = generate("square", 10.0)
    calls = []
    components = percolation._components

    def spy(edges, t):
        calls.append(t)
        return components(edges, t)

    monkeypatch.setattr(percolation, "_components", spy)
    params = PercolationParams(p=0.1, master_seed=3, realizations=2)
    masks = [sample(g, params, r).open_mask for r in range(2)]
    touched = [np.unique(g.edges[mask]).size for mask in masks]
    assert 0 < touched[0] < g.n_vertices / 2
    decompose(g, masks[0])
    assert calls == [touched[0]]
    calls.clear()
    # two realizations in one block-diagonal batch
    monkeypatch.setattr(percolation, "_BATCH_VERTEX_SLOTS", 2 * g.n_vertices)
    list(realization_batches(g, params, 0, 2))
    assert calls == [sum(touched)]
    calls.clear()
    decompose(g, np.zeros(g.n_edges, dtype=bool))
    # five realizations in batches of two
    ids_estimate(g, replace(params, p=0.0, realizations=5), [1.0], counting_radius=6.0)
    assert calls == [0] * 4


def test_statistics_hold_no_realization_by_interior_array(monkeypatch):
    """Each percolate statistic reads the touched interior vertices and
    counts the isolated ones: at p = 0.001, where about 0.4% of the
    vertices are touched, an evaluation on one batch of 200 realizations
    peaks below a quarter of one int64 array of a cell per (realization,
    interior vertex)."""
    g = generate("square", 40.0)
    monkeypatch.setattr(percolation, "_BATCH_VERTEX_SLOTS", 200 * g.n_vertices)
    params = PercolationParams(p=0.001, master_seed=3, realizations=200)
    (dec,) = realization_batches(g, params, 0, params.realizations)
    dec.vertex  # the cached per-touched-vertex arrays, built untraced
    cells = params.realizations * ball_ids(g, 40.0 - 2.0).size
    stats = [
        cluster_size_tail_statistic(g, range(1, 21), margin=2.0),
        boundary_path_statistic(g, range(1, 13), margin=2.0),
        cluster_size_statistic(g, 2.0),
    ]
    for stat in stats:
        tracemalloc.start()
        try:
            stat(dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cells * 8 / 4


@st.composite
def multigraphs(draw):
    """(edges, t): up to 60 vertices, with self-loops and repeated edges."""
    t = draw(st.integers(1, 60))
    ends = st.integers(0, t - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * t))
    return np.array(pairs, dtype=np.int32).reshape(-1, 2), t


class TestComponents:
    """``_components`` against scipy's ``connected_components``: the same
    count, the same label bytes and the same dtype."""

    @staticmethod
    def assert_matches_scipy(edges, t):
        n, labels = percolation._components(edges, t)
        want_n, want = _scipy_components(edges, t)
        assert n == want_n
        assert labels.dtype == want.dtype
        assert labels.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_random_multigraphs(self, case):
        self.assert_matches_scipy(*case)

    def test_shuffled_descending_path(self):
        # every edge joins a vertex to the next lower one, in random order
        n = 100_000
        rng = np.random.default_rng(5)
        path = np.stack([np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1)], axis=1)
        edges = path[rng.permutation(n - 1)].astype(np.int32)
        self.assert_matches_scipy(edges, n)
        # the same path through a random relabelling of its vertices
        self.assert_matches_scipy(rng.permutation(n).astype(np.int32)[edges], n)

    def test_star_onto_its_highest_vertex(self):
        # one root meets 2000 smaller ones in one round
        n = 2000
        edges = np.stack([np.arange(n), np.full(n, n)], axis=1).astype(np.int32)
        self.assert_matches_scipy(edges, n + 1)
        self.assert_matches_scipy(edges[:, ::-1], n + 1)


class TestBoundsReport:
    def test_critical_thresholds_are_exact(self):
        assert bounds_report(0.1, 4, 1.0).p_c_lower == pytest.approx(1 / 3)
        assert bounds_report(0.1, 3, 1.0).p_c_lower == pytest.approx(1 / 2)
        assert bounds_report(0.1, 6, 1.0).p_c_lower == pytest.approx(1 / 5)

    def test_gamma_formula(self):
        p, d = 0.1, 4
        rep = bounds_report(p, d, 1.0)
        assert rep.gamma == pytest.approx(-math.log(p) - d * math.log(1 - p))

    def test_psi_positive_iff_subcritical(self):
        sub = bounds_report(0.2, 4, 1.0)
        assert sub.holds_subcritical and sub.psi_decay > 0
        sup = bounds_report(0.5, 4, 1.0)
        assert not sup.holds_subcritical and sup.psi_decay < 0

    def test_lambda_from_chi(self):
        rep = bounds_report(0.2, 4, 1.0, chi_hat=2.5)
        assert rep.lambda_decay == pytest.approx(1.0 / (2 * 2.5**2))
        assert "empirical" in rep.lambda_source

    def test_lambda_absent_without_chi(self):
        rep = bounds_report(0.2, 4, 1.0)
        assert rep.lambda_decay is None

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bounds_report(0.0, 4, 1.0)
        with pytest.raises(ValueError):
            bounds_report(0.5, 1, 1.0)
        with pytest.raises(ValueError):
            bounds_report(0.5, 4, 1.0, chi_hat=0.5)

    def test_round_trips_to_dict(self):
        rep = bounds_report(0.25, 6, 1.0, chi_hat=3.0, chi_stderr=0.1)
        d = asdict(rep)
        assert d["p_c_lower"] == pytest.approx(0.2)
        assert d["lambda_decay"] == rep.lambda_decay
        assert type(rep)(**d) == rep


class TestMonteCarloVsOracle:
    def test_small_patch_tail_matches_enumeration(self):
        # 3x3 grid patch: 9 vertices, 12 edges -> 4096 configurations
        coeffs = [(x, y) for x in range(3) for y in range(3)]
        idx = {c: k for k, c in enumerate(sorted(coeffs))}
        edges = []
        for (x, y), k in idx.items():
            for dx, dy in ((1, 0), (0, 1)):
                if (x + dx, y + dy) in idx:
                    edges.append((k, idx[(x + dx, y + dy)]))
        g = from_coeffs("square", sorted(coeffs), edges, box=None)
        center = idx[(1, 1)]
        p = 0.3
        oracle = bruteforce_cluster_oracle(g, p, vertex=center, n_values=[2, 4, 9])
        reps = 4000
        params = PercolationParams(p=p, master_seed=606, realizations=reps)
        hits = {2: 0, 4: 0, 9: 0}
        for r in range(reps):
            dec = decompose(g, sample(g, params, r))
            size = vertex_sizes(dec)[0, center]
            for n in hits:
                if size >= n:
                    hits[n] += 1
        for n, exact in oracle["tail"].items():
            est = hits[n] / reps
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / reps)
            assert abs(est - exact) < 4 * se
