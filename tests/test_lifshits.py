"""Tests for the tail bounds, the linearized fit, and bracket certification."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from percospec import lifshits
from percospec.cli import _json_text
from percospec.lifshits import (
    MIN_CERTIFY_REALIZATIONS,
    InsufficientTailData,
    certify_bracketing,
    default_energy_range,
    lower_bound,
    reliability_floor,
    tail_fit,
    upper_bound,
)
from percospec.percolation import gamma_rate
from percospec.spectral import IdsTable


def make_table(
    energies,
    tail_values,
    realizations=200,
    volume=1e18,
    n0=0.37,
    rel_noise=None,
):
    """Synthetic IdsTable with prescribed tail values.

    ``rel_noise`` (aligned with energies) injects a +/- relative spread
    across realizations, giving each column a standard error while keeping
    the mean exact.
    """
    energies = np.asarray(energies, dtype=float)
    tails = np.asarray(tail_values, dtype=float)
    grid = np.concatenate([[0.0], energies])
    vals = np.concatenate([[n0], n0 + tails])
    rows = np.tile(vals, (realizations, 1))
    if rel_noise is not None:
        eps = np.concatenate([[0.0], np.asarray(rel_noise, dtype=float)])
        bump = np.concatenate([[0.0], tails]) * eps
        rows[0::2] += bump
        rows[1::2] -= bump
    return IdsTable(
        energies=grid,
        rows=rows,
        volume=volume,
        window_vertices=0,
        truncated_realizations=0,
    )


class TestLowerBound:
    def test_frozen_value(self):
        # e^{-6 gamma} / 6 at p=0.1, d_max=4: three independent
        # arrangements of the arithmetic agree on 1.32944e-8
        assert lower_bound(1.0, 0.1, 4, 1.0) == pytest.approx(
            1.3294407179478606e-08, rel=1e-10
        )

    def test_matches_formula_rearrangement(self):
        p, d = 0.23, 6
        g = gamma_rate(p, d)
        for e in [0.04, 0.3, 1.7]:
            x = e**-0.5
            direct = math.exp(-g * (2.0 + 4.0 * x)) / (2.0 + 4.0 * x)
            assert lower_bound(e, p, d, 1.0) == pytest.approx(direct, rel=1e-12)

    def test_vanishes_without_infinite_clusters(self):
        assert lower_bound(0.5, 0.2, 4, 0.0) == 0.0

    def test_scales_linearly_in_rho_inf(self):
        a = lower_bound(0.5, 0.2, 4, 0.6)
        b = lower_bound(0.5, 0.2, 4, 1.2)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_strictly_increasing_in_energy(self):
        es = np.logspace(-3, 1, 60)
        vals = [lower_bound(e, 0.1, 4, 1.0) for e in es]
        assert np.all(np.diff(vals) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lower_bound(0.0, 0.1, 4, 1.0)
        with pytest.raises(ValueError):
            lower_bound(1.0, 0.0, 4, 1.0)
        with pytest.raises(ValueError):
            lower_bound(1.0, 1.0, 4, 1.0)
        with pytest.raises(ValueError):
            lower_bound(1.0, 0.1, 4, -0.1)
        with pytest.raises(ValueError):
            lower_bound(1.0, 0.1, 1, 1.0)


class TestUpperBound:
    def test_frozen_value(self):
        # rho=1, D=2, lambda=1, E=0.01 -> 2 e^{-10}
        assert upper_bound(0.01, 1.0, lambda_decay=1.0) == pytest.approx(
            9.079985952496971e-05, rel=1e-12
        )

    def test_high_energy_limit_is_rho_d(self):
        v = upper_bound(1e12, 0.7, lambda_decay=1.0)
        assert v == pytest.approx(1.4, rel=1e-5)

    def test_doubling_lambda_doubles_log(self):
        e, rho, d = 0.04, 1.0, 2.0
        v1 = upper_bound(e, rho, lambda_decay=0.8)
        v2 = upper_bound(e, rho, lambda_decay=1.6)
        assert math.log(v2 / (rho * d)) == pytest.approx(
            2 * math.log(v1 / (rho * d)), rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            upper_bound(0.5, 1.0, lambda_decay=0.0)
        with pytest.raises(ValueError):
            upper_bound(-1.0, 1.0, lambda_decay=1.0)


class TestEnergyRange:
    def test_formula(self):
        p, d, reps, vol = 0.1, 4, 2000, math.pi * 280.0**2
        lo = default_energy_range(p, d, reps, vol)
        L = math.log(reps * vol) / gamma_rate(p, d)
        assert lo == pytest.approx(10.0 / L**2)

    def test_more_data_reaches_lower(self):
        lo1 = default_energy_range(0.1, 4, 100, 1e4)
        lo2 = default_energy_range(0.1, 4, 10000, 1e4)
        assert lo2 < lo1

    def test_tiny_run_clamps_length(self):
        lo = default_energy_range(0.1, 4, 1, 1.0)
        assert lo == pytest.approx(10.0 / 4.0)

    def test_floor(self):
        assert reliability_floor(2000, 1e5) == pytest.approx(5e-8)
        with pytest.raises(ValueError):
            reliability_floor(0, 1.0)


class TestTailFit:
    def test_recovers_exact_exponential(self):
        # tail = exp(-3 E^{-1/2}): the fit must return its own model.
        # n0=0 keeps the N(E) - N(0) subtraction free of float cancellation
        # (deep-tail values sit 15 orders below a typical N(0))
        e = 0.1 * 10 ** (-np.arange(13) / 12.0)
        tab = make_table(e, np.exp(-3.0 * e**-0.5), n0=0.0)
        fit = tail_fit(tab)
        assert fit.slope == pytest.approx(3.0, abs=1e-6)
        assert fit.intercept == pytest.approx(0.0, abs=1e-6)
        assert fit.r_squared > 0.999999
        assert fit.n_fit_points == 13

    def test_recovers_intercept(self):
        e = np.array([0.04, 0.05, 0.07, 0.09, 0.12, 0.16, 0.22, 0.3, 0.4])
        tab = make_table(e, 0.05 * np.exp(-2.0 * e**-0.5))
        fit = tail_fit(tab)
        assert fit.slope == pytest.approx(2.0, abs=1e-8)
        assert fit.intercept == pytest.approx(-math.log(0.05), abs=1e-8)

    def test_weights_discount_noisy_points(self):
        e = 0.1 * 10 ** (-np.arange(12) / 11.0)
        tail = np.exp(-3.0 * e**-0.5)
        tail[5] *= 2.7  # corrupted point...
        noise = np.full(e.size, 0.01)
        noise[5] = 0.49  # ...that declares itself untrustworthy
        fit = tail_fit(make_table(e, tail, rel_noise=noise))
        assert fit.slope == pytest.approx(3.0, abs=0.02)

    def test_van_hove_model_reads_nonlinear(self):
        # tail = E (no exponential suppression, the band-edge behaviour of
        # the fully open lattice): the straight-line model in E^{-1/2} must
        # fail the 0.95 threshold once the window is wide enough.  Over a
        # single decade the curvature is too gentle (R^2 = 0.9756); at 1.5
        # decades it crosses to 0.94925, and at 2 decades it is clearly out
        e15 = 0.1 * 10 ** (-np.arange(19) / 12.0)
        fit15 = tail_fit(make_table(e15, e15.copy(), n0=0.0))
        assert fit15.r_squared == pytest.approx(0.949250, abs=5e-4)
        assert fit15.r_squared < 0.95
        e20 = 0.1 * 10 ** (-np.arange(25) / 12.0)
        fit20 = tail_fit(make_table(e20, e20.copy(), n0=0.0))
        assert fit20.r_squared < 0.93

    def test_zero_tail_is_insufficient(self):
        e = 0.1 * 10 ** (-np.arange(10) / 9.0)
        tab = make_table(e, np.zeros_like(e))
        with pytest.raises(InsufficientTailData):
            tail_fit(tab)

    def test_floor_filters_points(self, monkeypatch):
        e = np.array([0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.45, 0.6])
        tail = np.exp(-3.0 * e**-0.5)
        # small volume -> high floor -> deep-tail points unreliable
        tab = make_table(e, tail, realizations=100, volume=1e4)
        floor = reliability_floor(100, 1e4)
        monkeypatch.setattr(lifshits, "_MIN_FIT_POINTS", 4)
        fit = tail_fit(tab)
        assert np.all(fit.tail[fit.reliable] >= floor)
        assert fit.n_fit_points < e.size

    def test_range_restriction(self):
        e = 0.1 * 10 ** (-np.arange(16) / 12.0)
        tail = np.exp(-3.0 * e**-0.5)
        fit = tail_fit(make_table(e, tail), e_range=(0.015, 0.09))
        used = fit.energies[fit.reliable]
        assert used.min() >= 0.015 and used.max() <= 0.09
        with pytest.raises(InsufficientTailData):
            tail_fit(make_table(e, tail), e_range=(0.099, 0.11))

    def test_min_points_enforced(self, monkeypatch):
        e = np.array([0.1, 0.2, 0.3, 0.4])
        tab = make_table(e, np.exp(-2.0 * e**-0.5))
        with pytest.raises(InsufficientTailData, match="need 8$"):
            tail_fit(tab)
        monkeypatch.setattr(lifshits, "_MIN_FIT_POINTS", 4)
        fit = tail_fit(tab)
        assert fit.n_fit_points == 4

    def test_loglog_ratio_reported(self):
        e = 0.1 * 10 ** (-np.arange(10) / 9.0)
        tail = np.exp(-3.0 * e**-0.5)
        fit = tail_fit(make_table(e, tail, n0=0.0))
        e_min = fit.energies[fit.reliable].min()
        t_min = tail[np.argmin(e)]
        assert fit.loglog_ratio == pytest.approx(
            math.log(abs(math.log(t_min))) / math.log(e_min)
        )

    def test_decades_spanned(self):
        e = 0.1 * 10 ** (-np.arange(13) / 12.0)
        fit = tail_fit(make_table(e, np.exp(-3.0 * e**-0.5)))
        assert fit.decades_spanned == pytest.approx(1.0, abs=1e-9)


def _analysis(slope=6.0, scale=0.01, n=14, realizations=500):
    e = 0.5 * 10 ** (-np.arange(n) / 12.0)
    tail = scale * np.exp(-slope * e**-0.5)
    return tail_fit(make_table(e, tail, realizations=realizations))


class TestCertify:
    def test_passes_on_dominating_tail(self):
        fit = _analysis()
        rep = certify_bracketing(fit, rho=1.0, rho_inf=1.0, p=0.1, d_max=4, lambda_emp=0.2)
        assert rep.bracket_pass
        assert np.all(rep.tail + 4 * rep.stderr - rep.lower_bound >= 0)
        assert rep.diagnostic_pass

    def test_rho_inf_zero_trivially_passes(self):
        fit = _analysis()
        rep = certify_bracketing(fit, rho=1.0, rho_inf=0.0, p=0.1, d_max=4, lambda_emp=0.2)
        assert np.all(rep.lower_bound == 0.0)
        assert rep.bracket_pass

    def test_halved_gamma_mutation_fails(self, monkeypatch):
        # the check must have teeth: weaken the prescription rate gamma by
        # half and the (now inflated) lower bound overtakes a tail sitting
        # only 10% above the true bound
        e = 0.5 * 10 ** (-np.arange(14) / 12.0)
        true_lb = np.array([lower_bound(x, 0.1, 4, 1.0) for x in e])
        # the deep-tail bound values are ~1e-27: an enormous synthetic
        # volume keeps every point above the counting floor
        fit = tail_fit(make_table(e, 1.1 * true_lb, realizations=500, volume=1e30))
        rep = certify_bracketing(fit, rho=1.0, rho_inf=1.0, p=0.1, d_max=4, lambda_emp=0.2)
        assert rep.bracket_pass  # 10% headroom: the honest bound holds

        def inflated(energy, p, d_max, rho_inf):
            g = 0.5 * gamma_rate(p, d_max)
            x = energy**-0.5
            return rho_inf * math.exp(-2 * g) * math.exp(-4 * g * x) / (2 + 4 * x)

        monkeypatch.setattr(lifshits, "lower_bound", inflated)
        bad = certify_bracketing(fit, rho=1.0, rho_inf=1.0, p=0.1, d_max=4, lambda_emp=0.2)
        assert not bad.bracket_pass
        assert int((~bad.rigorous_ok).sum()) > bad.rigorous_ok.size // 2

    def test_diagnostic_flag_is_separate(self):
        # an absurdly fast empirical decay rate pushes the upper bound
        # below the fitted curve: diagnostic fails, rigorous gate unaffected
        fit = _analysis()
        rep = certify_bracketing(fit, rho=1.0, rho_inf=1.0, p=0.1, d_max=4, lambda_emp=40.0)
        assert rep.bracket_pass
        assert not rep.diagnostic_pass

    def test_realization_floor(self):
        fit = _analysis(realizations=50)
        with pytest.raises(InsufficientTailData):
            certify_bracketing(fit, rho=1.0, rho_inf=1.0, p=0.1, d_max=4, lambda_emp=0.2)

    def test_one_realization_short_of_the_floor(self):
        # the CLI reports InsufficientTailData as a statistical failure
        assert MIN_CERTIFY_REALIZATIONS == 100
        fit = _analysis(realizations=99)
        with pytest.raises(InsufficientTailData, match=">= 100 realizations, got 99$"):
            certify_bracketing(fit, rho=1.0, rho_inf=1.0, p=0.1, d_max=4, lambda_emp=0.2)
        fit = _analysis(realizations=100)
        rep = certify_bracketing(fit, rho=1.0, rho_inf=1.0, p=0.1, d_max=4, lambda_emp=0.2)
        assert rep.bracket_pass

    def test_report_serializes(self):
        rep = certify_bracketing(
            _analysis(), rho=1.0, rho_inf=1.0, p=0.1, d_max=4, lambda_emp=0.2
        )
        d = json.loads(_json_text(asdict(rep)))
        # the keys lifshits.json carries from the report
        assert set(d) == {
            "energies", "tail", "stderr", "lower_bound", "upper_bound", "rigorous_ok",
            "diagnostic_ok", "bracket_pass", "diagnostic_pass", "p", "d_max", "rho",
            "rho_inf", "lambda_emp",
        }
        assert d["bracket_pass"] is True
        assert d["rigorous_ok"] == rep.rigorous_ok.tolist()
        assert len(d["energies"]) == len(d["lower_bound"])


def test_bracket_consistency_on_grid():
    # wherever both hypotheses hold, the lower bound cannot exceed the
    # upper bound (lambda taken at the scale an acceptance run produces)
    p, d_max = 0.1, 4
    lam = 0.2
    for e in np.logspace(-2, 0.7, 40):
        lb = lower_bound(float(e), p, d_max, 1.0)
        ub = upper_bound(float(e), 1.0, lambda_decay=lam)
        assert lb <= ub
