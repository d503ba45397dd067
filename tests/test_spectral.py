"""Tests for cluster Laplacian spectra and the finite-volume spectral count."""

import math
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from exact_ball import in_open_ball
from oracles import from_coeffs
from percospec import cli, percolation, spectral
from percospec.graphs import generate
from percospec.percolation import (
    PercolationParams,
    cluster_size_statistic,
    decompose,
    per_realization_rows,
    sample,
)
from percospec.spectral import (
    chain_spectrum,
    cheeger_check,
    bruteforce_ids_oracle,
    eigensystem,
    eigenvalues,
    ids_estimate,
    laplacian_from_edges,
)


def _grid_graph(nx, ny):
    coeffs = [(x, y) for x in range(nx) for y in range(ny)]
    idx = {c: k for k, c in enumerate(sorted(coeffs))}
    edges = [
        (k, idx[(x + dx, y + dy)])
        for (x, y), k in idx.items()
        for dx, dy in ((1, 0), (0, 1))
        if (x + dx, y + dy) in idx
    ]
    return from_coeffs("square", sorted(coeffs), edges, box=None)


class TestLaplacian:
    def test_single_edge(self):
        lap = laplacian_from_edges(2, np.array([[0, 1]]))
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_rows_sum_to_zero(self):
        g = _grid_graph(4, 3)
        lap = laplacian_from_edges(g.n_vertices, g.edges)
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.allclose(lap, lap.T)

    def test_diagonal_is_degree(self):
        g = _grid_graph(4, 3)
        lap = laplacian_from_edges(g.n_vertices, g.edges)
        assert np.array_equal(np.diag(lap), g.degrees())


class TestEigen:
    def test_known_spectra(self):
        star = eigenvalues(laplacian_from_edges(5, np.array([[0, 1], [0, 2], [0, 3], [0, 4]])))
        assert np.allclose(star, [0.0, 1.0, 1.0, 1.0, 5.0], atol=1e-12)
        cyc = eigenvalues(laplacian_from_edges(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]])))
        assert np.allclose(cyc, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_kernel_is_snapped_exactly(self):
        vals = eigenvalues(laplacian_from_edges(3, np.array([[0, 1], [1, 2]])))
        assert vals[0] == 0.0

    def test_eigensystem_orthonormal(self):
        lap = laplacian_from_edges(6, np.array([[k, k + 1] for k in range(5)]))
        vals, vecs = eigensystem(lap)
        assert np.allclose(vecs.T @ vecs, np.eye(6), atol=1e-12)
        assert np.allclose(lap @ vecs, vecs * vals[None, :], atol=1e-9)

    def test_residual_check_rejects_asymmetric_garbage(self):
        # eigh silently uses the lower triangle; a grossly asymmetric input
        # yields eigenpairs of a different matrix, which the residual test
        # must expose
        mat = np.array([[0.0, 1000.0], [0.0, 0.0]])
        with pytest.raises(ArithmeticError):
            eigenvalues(mat)


class TestChainSpectrum:
    @pytest.mark.parametrize("l", [1, 2, 3, 5, 17, 50])
    def test_matches_numerical_path(self, l):
        cs = chain_spectrum(l)
        edges = np.array([[k, k + 1] for k in range(l - 1)]).reshape(-1, 2)
        vals = eigenvalues(laplacian_from_edges(l, edges))
        assert np.abs(vals - cs.energies).max() < 1e-9

    def test_small_cases_closed_form(self):
        assert np.allclose(chain_spectrum(2).energies, [0.0, 2.0])
        assert np.allclose(chain_spectrum(3).energies, [0.0, 1.0, 3.0])

    def test_vectors_are_orthonormal_eigenvectors(self):
        l = 9
        cs = chain_spectrum(l)
        lap = laplacian_from_edges(l, np.array([[k, k + 1] for k in range(l - 1)]))
        assert np.allclose(cs.vectors.T @ cs.vectors, np.eye(l), atol=1e-11)
        assert np.abs(lap @ cs.vectors - cs.vectors * cs.energies[None, :]).max() < 1e-11

    @pytest.mark.parametrize("l", [2, 3, 10, 40])
    def test_gap_bound(self, l):
        cs = chain_spectrum(l)
        assert 0 < cs.energies[1] <= 10 / l**2

    def test_single_vertex(self):
        cs = chain_spectrum(1)
        assert np.allclose(cs.energies, [0.0])

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            chain_spectrum(0)


class TestIdsWholePatch:
    def test_single_edge_zero_count(self):
        # E[N(0)] = 2 - p: one zero eigenvalue when the edge is open,
        # two when it is closed
        g = from_coeffs("square", [(0, 0), (1, 0)], [(0, 1)], box=None)
        p = 0.3
        grid, mean, var = bruteforce_ids_oracle(g, p, [1.0, 2.0, 3.0])
        assert mean[0] == pytest.approx(2 - p)
        assert np.all(mean[grid >= 2.0] == pytest.approx(2.0))
        # variance of N(0): Bernoulli between 1 and 2
        assert var[0] == pytest.approx(p * (1 - p))

    def test_oracle_total_mass(self):
        g = _grid_graph(2, 3)
        grid, mean, var = bruteforce_ids_oracle(g, 0.4, [9.0])
        assert mean[-1] == pytest.approx(6.0)
        assert var[-1] == pytest.approx(0.0, abs=1e-12)

    def test_estimator_matches_oracle_3x3(self):
        g = _grid_graph(3, 3)
        p = 0.3
        egrid = [0.013 + 0.35 * k for k in range(20)]
        grid, omean, ovar = bruteforce_ids_oracle(g, p, egrid)
        reps = 2000
        params = PercolationParams(p=p, master_seed=91, realizations=reps)
        tab = ids_estimate(g, params, egrid, counting_radius=None, flag_boundary=False)
        band = 4.0 * np.sqrt(ovar / reps)
        assert np.all(np.abs(tab.mean - omean) <= band + 1e-12)

    def test_disconnected_blocks_equal_full_spectrum(self):
        # per-cluster assembly must agree with the full-patch route
        g = _grid_graph(4, 2)
        params = PercolationParams(p=0.5, master_seed=11)
        cfg = sample(g, params, 0)
        vals_full = eigenvalues(laplacian_from_edges(g.n_vertices, g.edges[cfg.open_mask]))
        dec = decompose(g, cfg)
        # each isolated vertex is a one-vertex cluster with eigenvalue 0
        pieces = [np.zeros(g.n_vertices - dec.touched.size)]
        for k in range(dec.sizes.size):
            members = dec.touched[dec.labels == k]
            assert members.size == dec.sizes[k]
            sub = set(int(v) for v in members)
            local = {v: k for k, v in enumerate(sorted(sub))}
            e = [
                (local[int(a)], local[int(b)])
                for a, b in g.edges[cfg.open_mask]
                if int(a) in sub
            ]
            pieces.append(eigenvalues(laplacian_from_edges(len(sub), np.array(e).reshape(-1, 2))))
        vals_blocks = np.sort(np.concatenate(pieces))
        assert np.allclose(vals_full, vals_blocks, atol=1e-9)


@pytest.fixture(scope="module")
def patch():
    return generate("square", 40.0)


class TestIdsWindowed:
    def test_total_mass_equals_window_population(self, patch):
        params = PercolationParams(p=0.15, master_seed=6, realizations=20)
        tab = ids_estimate(patch, params, [0.5, 2.0, 9.0], counting_radius=30.0)
        top = tab.rows[:, -1] * tab.volume
        assert np.allclose(top, tab.window_vertices)

    def test_zero_index_and_tail(self, patch):
        params = PercolationParams(p=0.15, master_seed=6, realizations=20)
        tab = ids_estimate(patch, params, [0.5, 2.0, 9.0], counting_radius=30.0)
        assert tab.energies[tab.zero_index] == 0.0
        tail_mean, tail_se = tab.tail()
        assert tail_mean[tab.zero_index] == 0.0
        assert np.all(tail_mean >= -1e-15)
        assert np.all(np.diff(tab.mean) >= -1e-12)

    def test_counts_monotone_in_energy(self, patch):
        params = PercolationParams(p=0.2, master_seed=9, realizations=10)
        tab = ids_estimate(patch, params, [0.1, 0.4, 1.7, 4.0, 9.0], counting_radius=30.0)
        diffs = np.diff(tab.rows, axis=1)
        assert np.all(diffs >= -1e-15)

    def test_truncation_guard_fires_when_window_meets_boundary(self, tmp_path, capsys):
        # counting window flush with the patch edge at a supercritical p:
        # spanning clusters touch the boundary, so realizations are dropped
        g = generate("square", 12.0)
        params = PercolationParams(p=0.9, master_seed=2, realizations=4)
        tab = ids_estimate(g, params, [1.0], counting_radius=11.9)
        assert tab.rows.shape[0] == 0
        assert tab.truncated_realizations == 4
        # a run that keeps no realization is a statistical failure; the
        # command keeps its window a margin of 1 inside the patch
        argv = ["ids", "--family", "square", "--radius", "12", "--counting-radius", "11",
                "--p", "0.9", "--seed", "2", "--realizations", "4", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert "statistical failure" in capsys.readouterr().err

    def test_flag_boundary_off_keeps_realizations(self):
        g = generate("square", 12.0)
        params = PercolationParams(p=0.9, master_seed=2, realizations=4)
        tab = ids_estimate(
            g, params, [1.0], counting_radius=11.9, flag_boundary=False
        )
        assert tab.realizations == 4
        assert tab.truncated_realizations == 0

    def test_max_cluster_size_guard(self, monkeypatch):
        g = generate("square", 12.0)
        params = PercolationParams(p=0.95, master_seed=3, realizations=1)
        monkeypatch.setattr(spectral, "_MAX_CLUSTER_SIZE", 10)
        with pytest.raises(RuntimeError, match=r"\(cap 10\); this estimator assumes"):
            ids_estimate(g, params, [1.0], counting_radius=8.0, flag_boundary=False)

    def test_negative_energies_rejected(self, patch):
        params = PercolationParams(p=0.2, master_seed=9)
        with pytest.raises(ValueError):
            ids_estimate(patch, params, [-1.0, 1.0], counting_radius=30.0)

    def test_deterministic_given_seed(self, patch):
        params = PercolationParams(p=0.2, master_seed=77, realizations=5)
        a = ids_estimate(patch, params, [0.5, 2.0], counting_radius=30.0)
        b = ids_estimate(patch, params, [0.5, 2.0], counting_radius=30.0)
        assert np.array_equal(a.rows, b.rows)


class TestCheeger:
    def test_no_violations_on_subcritical_patch(self):
        g = generate("square", 30.0)
        cfgs = [
            sample(g, PercolationParams(p=0.2, master_seed=8), r) for r in range(3)
        ]
        rep = cheeger_check(g, cfgs)
        assert rep.checked > 100
        assert rep.violations == 0
        assert rep.all_hold
        assert rep.min_margin >= 1.0

    def test_chain_margins_approach_pi_squared(self):
        # a long path nearly saturates at E_1 |C|^2 -> pi^2
        l = 40
        cs = chain_spectrum(l)
        assert cs.energies[1] * l * l == pytest.approx(math.pi**2, rel=0.01)

    def test_counts_nontrivial_clusters_only(self):
        g = _grid_graph(3, 3)
        cfgs = [sample(g, PercolationParams(p=0.0, master_seed=1), 0)]
        rep = cheeger_check(g, cfgs)
        assert rep.checked == 0
        assert rep.largest_cluster == 0


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_property_blocks_vs_full(seed):
    g = _grid_graph(3, 4)
    cfg = sample(g, PercolationParams(p=0.45, master_seed=seed), 0)
    vals_full = eigenvalues(laplacian_from_edges(g.n_vertices, g.edges[cfg.open_mask]))
    params = PercolationParams(p=0.45, master_seed=seed, realizations=1)
    # grid energies sit away from eigenvalue atoms (0, 1, 2, ...) so the
    # two routes cannot disagree by rounding at a step
    tab = ids_estimate(g, params, [0.513, 1.013, 2.013, 3.513, 9.0], counting_radius=None, flag_boundary=False)
    grid = tab.energies
    oracle_counts = np.searchsorted(vals_full, grid, side="right")
    assert np.array_equal(tab.rows[0], oracle_counts.astype(float))


# ---------------------------------------------------------------------------
# the estimator and the gap check against a per-cluster reference loop


def _full_labels(g, open_mask):
    """Cluster id of every vertex, isolated ones included: scipy's
    components of the open subgraph on the full vertex set."""
    e = g.edges[open_mask]
    m = coo_matrix((np.ones(e.shape[0]), (e[:, 0], e[:, 1])), shape=(g.n_vertices,) * 2)
    return connected_components(m, directed=False)[1]


def _reference_shape(g, open_mask, labels, label):
    """Shape key of one cluster the slow way: its vertices in ascending
    order, its open edges renumbered locally, rows sorted by (lo, hi).
    ``labels`` holds the cluster id of every vertex."""
    members = np.flatnonzero(labels == label)
    e = g.edges[open_mask]
    e = e[labels[e[:, 0]] == label]
    local = np.searchsorted(members, e)
    lo, hi = local.min(axis=1), local.max(axis=1)
    order = np.lexsort((hi, lo))
    shape = np.column_stack([lo[order], hi[order]])
    return members, shape, (members.size, shape.tobytes())


class _ReferenceCache:
    """The per-cluster cache of the unbatched estimator: eigenvalues kept per
    shape, and a fresh eigensystem for every straddling cluster."""

    def __init__(self, grid):
        self.grid = grid
        self.eigs = {}

    def count_vector(self, key, n, local_edges):
        if key not in self.eigs:
            self.eigs[key] = eigenvalues(laplacian_from_edges(n, local_edges))
        return np.searchsorted(self.eigs[key], self.grid, side="right").astype(float)

    def partial_vector(self, n, local_edges, inside_local):
        vals, vecs = eigensystem(laplacian_from_edges(n, local_edges))
        weights = (vecs[inside_local] ** 2).sum(axis=0)
        cum = np.concatenate([[0.0], np.cumsum(weights)])
        return cum[np.searchsorted(vals, self.grid, side="right")]


def _reference_rows(g, params, energies, counting_radius, flag_boundary, max_cluster_size=2000):
    """ids_estimate rebuilt as one realization at a time and one cache
    lookup per cluster, added in label order.  Returns the rows, the kept
    realization indices and the number of window-straddling clusters of
    3+ vertices."""
    grid = np.unique(np.concatenate([[0.0], np.asarray(energies, dtype=float)]))
    if counting_radius is None:
        in_ball, volume = np.ones(g.n_vertices, dtype=bool), 1.0
    else:
        in_ball = in_open_ball(g.basis.id, g.coeffs, counting_radius)
        volume = math.pi * counting_radius**2
    cache = _ReferenceCache(grid)
    pair = np.array([[0, 1]], dtype=np.int64)
    pair_key = (2, pair.tobytes())
    vec_single = cache.count_vector((1, b""), 1, np.empty((0, 2), np.int64))
    vec_pair = cache.count_vector(pair_key, 2, pair)
    vec_pair_half = cache.partial_vector(2, pair, np.array([0]))
    rows, kept, straddlers = [], [], 0
    for r in range(params.realizations):
        cfg = sample(g, params, r)
        labels = _full_labels(g, cfg.open_mask)
        sizes = np.bincount(labels)
        in_count = np.bincount(labels[in_ball], minlength=sizes.size)
        counted = in_count > 0
        touching = np.zeros(sizes.size, dtype=bool)
        touching[labels[g.near_boundary]] = True
        if flag_boundary and (counted & touching).any():
            continue
        big = counted & (sizes > max_cluster_size)
        if big.any():
            raise RuntimeError(
                f"a counted cluster has {int(sizes[big].max())} vertices "
                f"(cap {max_cluster_size}); this estimator assumes the "
                "subcritical regime"
            )
        acc = np.zeros(grid.size)
        acc += vec_single * int(np.count_nonzero(counted & (sizes == 1)))
        size2 = counted & (sizes == 2)
        acc += vec_pair * int(np.count_nonzero(size2 & (in_count == 2)))
        acc += vec_pair_half * int(np.count_nonzero(size2 & (in_count == 1)))
        for label in np.flatnonzero(counted & (sizes >= 3)):
            members, shape, key = _reference_shape(g, cfg.open_mask, labels, label)
            if in_count[label] == members.size:
                acc += cache.count_vector(key, members.size, shape)
            else:
                straddlers += 1
                inside = np.flatnonzero(in_ball[members])
                acc += cache.partial_vector(members.size, shape, inside)
        rows.append(acc / volume)
        kept.append(r)
    return np.array(rows).reshape(-1, grid.size), kept, straddlers


def _reference_cheeger(g, configurations, max_cluster_size=2000):
    checked = violations = largest = 0
    min_margin = math.inf
    for cfg in configurations:
        labels = _full_labels(g, cfg.open_mask)
        sizes = np.bincount(labels)
        for label in np.flatnonzero(sizes >= 2):
            s = int(sizes[label])
            if s > max_cluster_size:
                raise RuntimeError(f"cluster of {s} vertices exceeds the cap {max_cluster_size}")
            _, shape, key = _reference_shape(g, cfg.open_mask, labels, label)
            margin = float(eigenvalues(laplacian_from_edges(s, shape))[1]) * s * s
            checked += 1
            largest = max(largest, s)
            min_margin = min(min_margin, margin)
            violations += margin < 1.0
    return checked, violations, min_margin, largest


ORACLE_CASES = {
    "square": 0.2,
    "triangular": 0.12,
    "penrose": 0.15,
    "ammann_beenker": 0.15,
}
ORACLE_ENERGIES = [0.05, 0.2, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 9.0]


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def oracle_case(request):
    family = request.param
    g = generate(family, 16.0)
    return g, PercolationParams(p=ORACLE_CASES[family], master_seed=4, realizations=12)


class TestBatchedKeyingMatchesPerClusterLoop:
    def test_windowed_rows_identical(self, oracle_case):
        g, params = oracle_case
        want, _, straddlers = _reference_rows(g, params, ORACLE_ENERGIES, 12.0, True)
        # the partial-weight path must be exercised, not just the whole shapes
        assert straddlers > 0
        tab = ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=12.0)
        assert tab.rows.tobytes() == want.tobytes()

    def test_whole_patch_rows_identical(self, oracle_case):
        g, params = oracle_case
        want, _, _ = _reference_rows(g, params, ORACLE_ENERGIES, None, False)
        tab = ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=None, flag_boundary=False)
        assert tab.rows.tobytes() == want.tobytes()

    def test_cheeger_report_identical(self, oracle_case):
        g, params = oracle_case
        cfgs = [sample(g, params, r) for r in range(4)]
        rep = cheeger_check(g, cfgs)
        want = _reference_cheeger(g, cfgs)
        assert (rep.checked, rep.violations, rep.min_margin, rep.largest_cluster) == want
        assert rep.checked > 0

    def test_tiny_cluster_cap_raises_same_error(self, oracle_case, monkeypatch):
        g, params = oracle_case
        cfgs = [sample(g, params, r) for r in range(2)]
        monkeypatch.setattr(spectral, "_MAX_CLUSTER_SIZE", 3)
        with pytest.raises(RuntimeError) as want:
            _reference_cheeger(g, cfgs, max_cluster_size=3)
        with pytest.raises(RuntimeError, match=f"^{re.escape(str(want.value))}$"):
            cheeger_check(g, cfgs)
        with pytest.raises(RuntimeError) as want:
            _reference_rows(g, params, ORACLE_ENERGIES, 12.0, False, max_cluster_size=3)
        with pytest.raises(RuntimeError, match=f"^{re.escape(str(want.value))}$"):
            ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=12.0, flag_boundary=False)


# ---------------------------------------------------------------------------
# batches of realizations against the one-realization-at-a-time loop


BATCH_SIZES = (1, 2, 5)
BATCH_RUN = 13  # realizations: not a multiple of 2 or 5
CHI_MARGIN = 4.0


def _set_batch_size(monkeypatch, g, k):
    monkeypatch.setattr(percolation, "_BATCH_VERTEX_SLOTS", k * g.n_vertices)


def _chi_rows(g, params):
    """Mean |C_v| over the vertices farther than CHI_MARGIN from the
    boundary, one realization at a time from the cluster id of every vertex."""
    interior = in_open_ball(g.basis.id, g.coeffs, g.box.radius - CHI_MARGIN)
    rows = []
    for r in range(params.realizations):
        labels = _full_labels(g, sample(g, params, r).open_mask)
        rows.append([np.bincount(labels)[labels[interior]].mean()])
    return np.array(rows)


class TestBatchesMatchPerRealizationLoop:
    """Every batch size gives the rows, truncation count and chi rows of
    the loop that counts one realization at a time."""

    def test_windowed_rows_chi_and_truncations(self, oracle_case, monkeypatch):
        g, params = oracle_case
        params = replace(params, realizations=BATCH_RUN)
        # a window close to the patch edge drops many realizations
        want, kept, _ = _reference_rows(g, params, ORACLE_ENERGIES, 13.0, True)
        dropped = set(range(BATCH_RUN)) - set(kept)
        # truncated realizations on both sides of a two-realization batch
        # boundary, and a two-realization batch with none kept
        assert any(b - 1 in dropped and b in dropped for b in range(2, BATCH_RUN, 2))
        assert any({b, b + 1} <= dropped for b in range(0, BATCH_RUN - 1, 2))
        chi = _chi_rows(g, params)
        for k in BATCH_SIZES:
            _set_batch_size(monkeypatch, g, k)
            tab = ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=13.0,
                               chi_margin=CHI_MARGIN)
            assert tab.rows.tobytes() == want.tobytes()
            assert tab.truncated_realizations == len(dropped)
            assert tab.chi.tobytes() == chi.tobytes()

    def test_whole_patch_rows(self, oracle_case, monkeypatch):
        g, params = oracle_case
        params = replace(params, realizations=BATCH_RUN)
        want, _, _ = _reference_rows(g, params, ORACLE_ENERGIES, None, False)
        for k in BATCH_SIZES:
            _set_batch_size(monkeypatch, g, k)
            tab = ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=None,
                               flag_boundary=False)
            assert tab.rows.tobytes() == want.tobytes()
            assert tab.truncated_realizations == 0

    def test_no_open_edges(self, oracle_case, monkeypatch):
        g, params = oracle_case
        params = replace(params, p=0.0, realizations=BATCH_RUN)
        want, _, _ = _reference_rows(g, params, ORACLE_ENERGIES, 12.0, True)
        for k in BATCH_SIZES:
            _set_batch_size(monkeypatch, g, k)
            tab = ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=12.0,
                               chi_margin=CHI_MARGIN)
            assert tab.rows.tobytes() == want.tobytes()
            assert np.all(tab.chi == 1.0)

    def test_cluster_cap_error_from_first_kept_realization(self, oracle_case, monkeypatch):
        g, params = oracle_case
        params = replace(params, realizations=BATCH_RUN)
        with pytest.raises(RuntimeError) as want:
            _reference_rows(g, params, ORACLE_ENERGIES, 13.0, True, max_cluster_size=3)
        monkeypatch.setattr(spectral, "_MAX_CLUSTER_SIZE", 3)
        for k in BATCH_SIZES:
            _set_batch_size(monkeypatch, g, k)
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(want.value))}$"):
                ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=13.0)

    def test_all_truncated_run_keeps_its_table(self, monkeypatch):
        g = generate("square", 12.0)
        params = PercolationParams(p=0.9, master_seed=2, realizations=5)
        _set_batch_size(monkeypatch, g, 2)
        table = ids_estimate(g, params, [1.0], counting_radius=11.9, chi_margin=CHI_MARGIN)
        assert table.realizations == 0
        assert table.rows.shape == (0, 2)
        assert table.truncated_realizations == 5
        assert table.chi.tobytes() == _chi_rows(g, params).tobytes()

    def test_halves_stack_to_the_whole_run(self, oracle_case):
        g, params = oracle_case
        alone = ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=12.0)
        halves = [
            ids_estimate(g, replace(params, realizations=6), ORACLE_ENERGIES,
                         counting_radius=12.0, realization_offset=start)
            for start in (6, 0)
        ]
        assert np.vstack([halves[1].rows, halves[0].rows]).tobytes() == alone.rows.tobytes()


@pytest.mark.parametrize("grid", [1, 2, 60])
def test_add_in_order_matches_sequential_sum(grid):
    # the bytes of adding each row to its block's running sum in turn; a
    # one-point grid is where numpy's pairwise summation would differ
    rng = np.random.default_rng(grid)
    block = np.sort(rng.integers(0, 3, 500))  # block 3 gets no row
    rows = rng.random((500, grid)) * 10.0 ** rng.integers(-3, 4, (500, 1))
    acc = rng.random((4, grid)) * 100.0
    want = acc.copy()
    for b, row in zip(block, rows):
        want[b] = want[b] + row
    assert spectral._add_in_order(acc, block, rows).tobytes() == want.tobytes()


def test_run_ids_under_thread_switching(tmp_path, monkeypatch):
    # eight chunks on eight threads, switching often: no row may change
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    base = ["ids", "--family", "penrose", "--radius", "16", "--counting-radius", "12",
            "--p", "0.15", "--seed", "4", "--realizations", "24"]
    assert cli.main(base + ["--threads", "1", "--out", str(tmp_path / "1")]) == 0
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert cli.main(base + ["--threads", "8", "--out", str(tmp_path / "8")]) == 0
    finally:
        sys.setswitchinterval(switch)
    one, eight = ((tmp_path / d / "ids.csv").read_bytes() for d in ("1", "8"))
    assert one == eight


class TestOneBatchAlive:
    """A run holds one batch at a time: whenever ``_decompose`` is called,
    every decomposition it returned before on the same thread is dead."""

    BATCHES = 4  # per estimator call, two realizations each

    @pytest.fixture
    def spy(self, monkeypatch):
        """The number of earlier decompositions still alive at each call."""
        decompose_batch = percolation._decompose
        refs: dict[int, list] = {}
        alive_at_call: list[int] = []
        lock = threading.Lock()

        def spy(g, masks):
            with lock:
                mine = refs.setdefault(threading.get_ident(), [])
                alive_at_call.append(sum(ref() is not None for ref in mine))
            dec = decompose_batch(g, masks)
            with lock:
                mine.append(weakref.ref(dec))
            return dec

        monkeypatch.setattr(percolation, "_decompose", spy)
        return alive_at_call

    @pytest.fixture
    def case(self, monkeypatch):
        g = generate("penrose", 16.0)
        monkeypatch.setattr(percolation, "_BATCH_VERTEX_SLOTS", 2 * g.n_vertices)
        return g, PercolationParams(p=0.15, master_seed=4, realizations=2 * self.BATCHES)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ids_estimate(self, case, spy, threads):
        g, params = case
        alive_at_call = spy

        def chunk(start):
            return ids_estimate(g, params, ORACLE_ENERGIES, counting_radius=12.0,
                                realization_offset=start, chi_margin=CHI_MARGIN)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(chunk, start) for start in (0, params.realizations)]
            for f in futures:
                f.result(timeout=120)
        assert alive_at_call == [0] * (2 * self.BATCHES)

    def test_per_realization_rows(self, case, spy):
        g, params = case
        alive_at_call = spy
        per_realization_rows(g, params, [cluster_size_statistic(g, CHI_MARGIN)])
        assert alive_at_call == [0] * self.BATCHES
