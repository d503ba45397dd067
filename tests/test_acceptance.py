"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines (add ``-s`` for the detail prints).  The heavyweight
shared run (criteria 7 and 8) is a module fixture: a radius-300 square
patch, bond probability 0.1, 2000 realizations, counting window 280.
"""

import math
import time

import numpy as np
import pytest

from exact_ball import ball_ids
from percospec import cli
from percospec.cli import main
from percospec.graphs import generate
from percospec.lifshits import lower_bound, tail_fit
from percospec.patterns import canonicalize, extract_r_patterns, occurrence_plan
from percospec.percolation import (
    PercolationParams,
    boundary_path_bound,
    boundary_path_statistic,
    bounds_report,
    edge_uniforms,
    gamma_rate,
    per_realization_rows,
    sample,
)
from percospec.spectral import (
    IdsTable,
    bruteforce_ids_oracle,
    chain_spectrum,
    cheeger_check,
    eigensystem,
    ids_estimate,
    laplacian_from_edges,
)

BIG_SEED = 424242


@pytest.fixture(scope="module")
def patch100():
    return generate("square", 100.0)


@pytest.fixture(scope="module")
def big_run():
    """The shared tail experiment: square lattice, radius 300, p = 0.1,
    2000 realizations counted over the open ball of radius 280."""
    g = generate("square", 300.0)
    grid = np.unique(np.concatenate([0.8 * 10 ** (-np.arange(21) / 12.0), [9.0]]))
    params = PercolationParams(p=0.1, master_seed=BIG_SEED, realizations=2000)
    t0 = time.perf_counter()
    table = ids_estimate(g, params, grid, counting_radius=280.0)
    elapsed = time.perf_counter() - t0
    return g, table, elapsed


def test_criterion_01_chain_closed_form():
    """Path-graph spectra match the closed form for every length 2..50."""
    t0 = time.perf_counter()
    worst_e, worst_v = 0.0, 0.0
    for l in range(2, 51):
        edges = np.array([(i, i + 1) for i in range(l - 1)], dtype=np.int64)
        vals, vecs = eigensystem(laplacian_from_edges(l, edges))
        cs = chain_spectrum(l)
        worst_e = max(worst_e, float(np.abs(np.sort(vals) - cs.energies).max()))
        for k in range(l):
            ref, num = cs.vectors[:, k], vecs[:, k]
            worst_v = max(
                worst_v, float(min(np.abs(num - ref).max(), np.abs(num + ref).max()))
            )
    elapsed = time.perf_counter() - t0
    assert worst_e < 1e-9
    assert worst_v < 1e-8
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 1 (chain closed form): PASS — eigenvalue err "
        f"{worst_e:.2e}, eigenvector err {worst_v:.2e}, {elapsed:.2f}s"
    )


def test_criterion_02_estimator_vs_bruteforce():
    """The Monte Carlo estimator agrees with exhaustive enumeration on the
    3x3 patch at every point of a 50-energy grid, within 4 binomial SE."""
    t0 = time.perf_counter()
    g = generate("square", 1.8)
    assert g.n_vertices == 9 and g.n_edges == 12
    grid = [0.013 + 0.2 * k for k in range(50)]  # offsets avoid eigenvalue atoms
    reals = 100_000
    params = PercolationParams(p=0.3, master_seed=7, realizations=reals)
    table = ids_estimate(g, params, grid, flag_boundary=False)
    oracle_grid, oracle_mean, oracle_var = bruteforce_ids_oracle(g, 0.3, grid)
    assert np.array_equal(table.energies, oracle_grid)
    se = np.sqrt(oracle_var / reals)
    diff = np.abs(table.mean - oracle_mean)
    fuzzy = se > 0
    dev = diff[fuzzy] / se[fuzzy]
    assert np.all(dev <= 4.0)
    assert np.all(diff[~fuzzy] < 1e-9)  # deterministic points must be exact
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 2 (estimator vs enumeration): PASS — max deviation "
        f"{dev.max():.2f} sigma over 51 grid points, {elapsed:.1f}s"
    )


def test_criterion_03_cheeger_gate(patch100):
    """No cluster violates the spectral-gap floor E_1 >= 1/|C|^2."""
    params = PercolationParams(p=0.2, master_seed=13, realizations=2)
    configs = [sample(patch100, params, r) for r in range(params.realizations)]
    report = cheeger_check(patch100, configs)
    assert report.checked >= 10_000
    assert report.violations == 0
    print(
        f"\nACCEPTANCE 3 (Cheeger gate): PASS — {report.checked} clusters, "
        f"0 violations, min margin {report.min_margin:.3f}, largest cluster "
        f"{report.largest_cluster}"
    )


def test_criterion_04_boundary_path_decay(patch100):
    """Measured escape probabilities sit below the rigorous exponential
    bound 2 exp(-n ln(1/0.6)) at p = 0.2 for every scale n = 1..20."""
    t0 = time.perf_counter()
    params = PercolationParams(p=0.2, master_seed=17, realizations=5)
    stat = boundary_path_statistic(patch100, range(1, 21))
    (rows,) = per_realization_rows(patch100, params, [stat])
    est = stat.estimate(rows)
    # the default interior: the open ball of radius R - (20 + l_max)
    interior = ball_ids(patch100, patch100.box.radius - 20.0 - patch100.l_max).size
    samples = interior * est.realizations
    assert interior >= 10_000
    bound = 2.0 * np.exp(-est.n_values * math.log(1.0 / 0.6))
    ref = np.array([boundary_path_bound(n, 0.2, 4) for n in est.n_values])
    assert np.allclose(bound, ref, rtol=1e-12)
    assert np.all(est.estimates <= bound + 4.0 * est.stderrs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    margin = (bound + 4.0 * est.stderrs - est.estimates).min()
    print(
        f"\nACCEPTANCE 4 (boundary-path decay): PASS — {samples} interior "
        f"samples, min margin {margin:.3e}, {elapsed:.1f}s"
    )


def test_criterion_05_threshold_closed_form():
    """The subcritical threshold lower bound is exact closed-form arithmetic."""
    got = [bounds_report(0.1, d, 1.0).p_c_lower for d in (4, 3, 6)]
    assert got[0] == 1.0 / 3.0
    assert got[1] == 1.0 / 2.0
    assert got[2] == 1.0 / 5.0
    print(f"\nACCEPTANCE 5 (threshold closed form): PASS — {got}")


def test_criterion_06_coloured_frequency_factorization(patch100):
    """Coloured pattern frequencies factor into geometry times the
    independent-bond probability: one open edge at p = 1/2, and an open
    2-chain against p^2."""
    p, reals, radius = 0.5, 200, 95.0
    params = PercolationParams(p=p, master_seed=23, realizations=reals)

    edge = canonicalize("square", [(0, 0), (1, 0)], [(0, 1)], colours=[1])
    chain2 = canonicalize("square", [(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)], colours=[1, 1])
    results = []
    for pattern, prob in ((edge, p), (chain2, p * p)):
        plan = occurrence_plan(pattern, patch100, radius)
        assert plan.n_translates > 0
        counts = np.array(
            [
                plan.coloured_count(sample(patch100, params, r).open_mask, pattern.colours)
                for r in range(reals)
            ],
            dtype=float,
        )
        expected = prob * plan.n_translates
        sem = counts.std(ddof=1) / math.sqrt(reals)
        dev = abs(counts.mean() - expected) / sem
        assert dev <= 4.0
        results.append(dev)
    print(
        f"\nACCEPTANCE 6 (coloured factorization): PASS — single edge "
        f"{results[0]:.2f} sigma, open 2-chain {results[1]:.2f} sigma"
    )


@pytest.mark.slow
def test_criterion_07_rigorous_lower_bound(big_run):
    """The chain-counting lower bound stays below the measured tail (plus
    4 SE) at every reliable grid point in [0.02, 0.5] — and the check has
    teeth: inflating the bound by cutting gamma to an eighth breaks it."""
    g, table, elapsed = big_run
    assert elapsed < 1800.0
    assert table.realizations >= 500

    analysis = tail_fit(table, e_range=(0.02, 0.5))
    sel = analysis.reliable
    energies = analysis.energies[sel]
    tail = analysis.tail[sel]
    se = analysis.stderr[sel]
    assert energies.size >= 8

    gamma = gamma_rate(0.1, 4)
    lb = np.array([lower_bound(e, 0.1, 4, 1.0) for e in energies])
    margins = tail + 4.0 * se - lb
    assert np.all(margins >= 0.0)

    # mutation: an eighth of gamma inflates the bound far above the tail
    g8 = gamma / 8.0
    x = energies**-0.5
    lb_soft = np.exp(-2.0 * g8) * np.exp(-4.0 * g8 * x) / (2.0 + 4.0 * x)
    assert np.any(tail + 4.0 * se - lb_soft < 0.0)

    print(
        f"\nACCEPTANCE 7 (rigorous lower bound): PASS — {energies.size} "
        f"reliable points in [{energies.min():.3f}, {energies.max():.3f}], "
        f"min margin {margins.min():.3e}, truncated realizations "
        f"{table.truncated_realizations}, run {elapsed:.0f}s"
    )


@pytest.mark.slow
def test_criterion_08_linearized_exponent(big_run):
    """Some decade-wide window of the same run fits the linearized tail law
    at R^2 >= 0.95, and the fit recovers a synthetic slope to 6 digits."""
    _, table, _ = big_run

    full = tail_fit(table, e_range=(0.0, 0.8))
    candidates = full.energies[full.reliable]
    best = None
    for e0 in candidates:
        if 10.0 * e0 > candidates.max() * (1 + 1e-9):
            continue
        fit = tail_fit(table, e_range=(e0 * (1 - 1e-9), 10.0 * e0 * (1 + 1e-9)))
        if fit.decades_spanned < 1.0 - 1e-9:
            continue
        if best is None or fit.r_squared > best.r_squared:
            best = fit
    assert best is not None, "no decade-wide window of reliable points"
    assert best.r_squared >= 0.95

    e = 0.1 * 10 ** (-np.arange(13) / 12.0)
    grid = np.concatenate([[0.0], e[::-1]])
    vals = np.concatenate([[0.0], np.exp(-3.0 * e[::-1] ** -0.5)])
    synth = IdsTable(
        energies=grid,
        rows=np.tile(vals, (200, 1)),
        volume=1e18,
        window_vertices=0,
        truncated_realizations=0,
    )
    self_test = tail_fit(synth)
    assert abs(self_test.slope - 3.0) < 1e-6

    lo, hi = best.fit_range
    print(
        f"\nACCEPTANCE 8 (linearized exponent): PASS — R^2 = "
        f"{best.r_squared:.4f} over [{lo:.3f}, {hi:.3f}] "
        f"({best.decades_spanned:.2f} decades, slope {best.slope:.3f}); "
        f"synthetic slope {self_test.slope:.8f}"
    )


def test_criterion_09_byte_identical_outputs(tmp_path, monkeypatch):
    """CLI reruns with the same seed are byte-identical for CSV and JSON
    outputs, independent of the thread count."""
    # 4 usable CPUs, so 4 threads run 4 chunks whatever the host
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    digests = {}
    for fmt in ("csv", "json"):
        blobs = []
        for tag, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / f"{fmt}_{tag}"
            code = main(
                [
                    "ids", "--family", "square", "--radius", "40",
                    "--counting-radius", "34", "--p", "0.1",
                    "--realizations", "40", "--seed", "31",
                    "--e-min", "0.08", "--e-max", "0.5",
                    "--threads", threads, "--format", fmt, "--out", str(out),
                ]
            )
            assert code == 0
            blobs.append((out / f"ids.{fmt}").read_bytes())
        assert blobs[0] == blobs[1]
        digests[fmt] = len(blobs[0])
    print(
        f"\nACCEPTANCE 9 (byte-identical outputs): PASS — ids.csv "
        f"({digests['csv']} bytes) and ids.json ({digests['json']} bytes) "
        f"identical across 1 and 4 threads"
    )


def test_criterion_10_monotone_coupling():
    """Under shared uniforms, the open set only grows with p — exactly."""
    g = generate("square", 50.0)
    ps = (0.15, 0.45, 0.85)
    for r in range(1000):
        u = edge_uniforms(g.n_edges, 37, r)
        m = [u < p for p in ps]
        assert np.all(m[0] <= m[1])
        assert np.all(m[1] <= m[2])
    print(
        f"\nACCEPTANCE 10 (monotone coupling): PASS — 1000 realizations on "
        f"{g.n_edges} edges, edgewise ordering exact at p = {ps}"
    )


def test_criterion_11_flc_census_stability():
    """The Penrose r = 1.1 pattern census is saturated: generation radii
    20 and 40 expose identical sets of translation classes."""
    t0 = time.perf_counter()
    small = extract_r_patterns(generate("penrose", 20.0), 1.1)
    large = extract_r_patterns(generate("penrose", 40.0), 1.1)
    assert small.distinct == large.distinct
    assert large.distinct == 62  # measured constant of the pentagrid construction
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 11 (FLC census stability): PASS — {small.distinct} "
        f"classes at both radii, {elapsed:.1f}s"
    )
