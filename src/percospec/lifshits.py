"""Low-energy tail extraction and certification of the two-sided bound.

Deep in the subcritical phase the spectral count just above zero is carried
by long open chains: a chain of l vertices contributes its gap
4 sin^2(pi/2l) <= 10/l^2, and prescribing such a chain costs e^{-gamma l}.
Balancing the two gives tails like exp(-c E^{-1/2}) — linear in E^{-1/2}
on a log scale, which is the form the fit below targets.  The rigorous
content certified here is a bracket: an explicit chain-counting lower bound
that the measured tail must dominate (hard gate), and an upper bound driven
by the empirical cluster-size decay rate (diagnostic, because that rate is
itself estimated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .percolation import gamma_rate
from .spectral import IdsTable

__all__ = [
    "InsufficientTailData",
    "MIN_CERTIFY_REALIZATIONS",
    "lower_bound",
    "upper_bound",
    "default_energy_range",
    "reliability_floor",
    "TailAnalysis",
    "tail_fit",
    "BracketReport",
    "certify_bracketing",
]


class InsufficientTailData(ValueError):
    """Raised when too few grid points survive the reliability filter, or
    too few realizations back the bracket certification."""


def lower_bound(energy: float, p: float, d_max: int, rho_inf: float) -> float:
    """Chain-counting lower bound on N(E) - N(0).

    rho_inf e^{-2 gamma} exp(-4 gamma E^{-1/2}) / (2 + 4 E^{-1/2}), with
    gamma(p) = -ln p - d_max ln(1-p).  Valid for every E > 0 and 0 < p < 1;
    vanishes with the unbounded-cluster density rho_inf.
    """
    if energy <= 0.0:
        raise ValueError("the bound needs E > 0")
    if rho_inf < 0.0:
        raise ValueError("rho_inf cannot be negative")
    g = gamma_rate(p, d_max)
    x = energy**-0.5
    return rho_inf * math.exp(-2.0 * g) * math.exp(-4.0 * g * x) / (2.0 + 4.0 * x)


_UPPER_BOUND_D = 2.0

# a grid point enters the tail fit only with a relative standard error below this
_MAX_REL_STDERR = 0.5

# the tail fit needs at least this many reliable grid points
_MIN_FIT_POINTS = 8

# the bracket is certified only on at least this many kept realizations, so
# that 4 SE is a meaningful tolerance
MIN_CERTIFY_REALIZATIONS = 100


def upper_bound(energy: float, rho: float, *, lambda_decay: float) -> float:
    """Cluster-size-decay upper bound rho D exp(-lambda E^{-1/2}).

    The p-dependence enters entirely through lambda(p) (and in principle
    D(p)).
    """
    if energy <= 0.0:
        raise ValueError("the bound needs E > 0")
    if lambda_decay <= 0.0:
        raise ValueError("lambda must be positive")
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    return rho * _UPPER_BOUND_D * math.exp(-lambda_decay * energy**-0.5)


def reliability_floor(realizations: int, volume: float) -> float:
    """Counting-statistics floor: tail estimates below about ten observed
    eigenvalues across the whole run are noise."""
    if realizations < 1 or volume <= 0:
        raise ValueError("need positive realizations and volume")
    return 10.0 / (realizations * volume)


def default_energy_range(
    p: float, d_max: int, realizations: int, volume: float
) -> float:
    """Lowest energy where the run can resolve the tail.

    The longest chain the run expects to observe has length about
    L = ln(realizations * volume) / gamma; chains of that length populate
    energies down to 10 / L^2.
    """
    g = gamma_rate(p, d_max)
    L = max(2.0, math.log(max(realizations * volume, math.e)) / g)
    return 10.0 / (L * L)


# ---------------------------------------------------------------------------
# tail fit


@dataclass
class TailAnalysis:
    """Weighted straight-line fit of -ln(N(E) - N(0)) against E^{-1/2}.

    Grid arrays cover every positive grid energy; ``reliable`` marks the
    points that entered the fit (tail above the counting floor, relative
    standard error under half, inside the requested range).
    """

    energies: np.ndarray
    tail: np.ndarray
    stderr: np.ndarray
    reliable: np.ndarray
    floor: float
    fit_range: tuple[float, float]
    slope: float
    intercept: float
    slope_stderr: float
    intercept_stderr: float
    covariance: float
    r_squared: float
    n_fit_points: int
    loglog_ratio: float
    realizations: int

    @property
    def decades_spanned(self) -> float:
        used = self.energies[self.reliable]
        return float(np.log10(used.max() / used.min())) if used.size else 0.0

    def prediction_log_stderr(self, energy: np.ndarray | float) -> np.ndarray | float:
        """Standard error of the fitted value of -ln(tail) at an energy."""
        x = np.asarray(energy, dtype=float) ** -0.5
        var = (
            x * x * self.slope_stderr**2
            + self.intercept_stderr**2
            + 2.0 * x * self.covariance
        )
        return np.sqrt(np.maximum(var, 0.0))


def tail_fit(
    table: IdsTable,
    e_range: tuple[float, float] | None = None,
) -> TailAnalysis:
    """Fit the linearized tail law over the reliable part of the grid.

    Weights follow the delta method: sigma(-ln t) = stderr(t) / t.  Points
    whose relative error is zero up to float rounding (synthetic tables,
    single realizations) get the weight of the most precise measured point,
    or uniform weights when no point carries a measured error.
    """
    tail_mean, tail_se = table.tail()
    grid = table.energies
    pos = grid > 0.0
    energies = grid[pos]
    tail = tail_mean[pos]
    se = tail_se[pos]
    floor = reliability_floor(table.realizations, table.volume)
    if e_range is None:
        e_range = (float(energies.min()), float(energies.max()))
    lo, hi = float(e_range[0]), float(e_range[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(tail > 0, se / np.where(tail > 0, tail, 1.0), np.inf)
    reliable = (
        (energies >= lo)
        & (energies <= hi)
        & (tail >= floor)
        & (rel < _MAX_REL_STDERR)
    )
    n_fit = int(reliable.sum())
    if n_fit < _MIN_FIT_POINTS:
        raise InsufficientTailData(
            f"only {n_fit} grid points are reliable in [{lo:g}, {hi:g}] "
            f"(floor {floor:.3e}); need {_MIN_FIT_POINTS}"
        )

    x = energies[reliable] ** -0.5
    y = -np.log(tail[reliable])
    # relative errors at the level of float rounding (degenerate synthetic
    # tables, identical realizations) carry no statistical information and
    # would otherwise drive wildly noise-dependent weights
    rel_sig = rel[reliable]
    genuine = rel_sig > 1e-12
    if genuine.any():
        sigma = np.where(genuine, rel_sig, rel_sig[genuine].min())
    else:
        sigma = np.ones_like(x)
    w = 1.0 / (sigma * sigma)

    sw = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    delta = sw * sxx - sx * sx
    slope = (sw * sxy - sx * sy) / delta
    intercept = (sxx * sy - sx * sxy) / delta
    var_slope = sw / delta
    var_intercept = sxx / delta
    cov = -sx / delta
    y_hat = slope * x + intercept
    ss_res = (w * (y - y_hat) ** 2).sum()
    y_bar = sy / sw
    ss_tot = (w * (y - y_bar) ** 2).sum()
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    e_min = float(energies[reliable].min())
    t_min = float(tail[reliable][energies[reliable] == e_min][0])
    loglog = math.log(abs(math.log(t_min))) / math.log(e_min)

    return TailAnalysis(
        energies=energies,
        tail=tail,
        stderr=se,
        reliable=reliable,
        floor=floor,
        fit_range=(lo, hi),
        slope=float(slope),
        intercept=float(intercept),
        slope_stderr=float(math.sqrt(var_slope)),
        intercept_stderr=float(math.sqrt(var_intercept)),
        covariance=float(cov),
        r_squared=float(r2),
        n_fit_points=n_fit,
        loglog_ratio=float(loglog),
        realizations=table.realizations,
    )


# ---------------------------------------------------------------------------
# bracket certification


@dataclass
class BracketReport:
    """Point-by-point verdicts of the two-sided tail bound.

    The rigorous side demands lower_bound(E) <= tail + 4 SE at every
    reliable point — an inequality that must hold up to Monte Carlo noise.
    The diagnostic side compares the fitted curve against the upper bound
    built from the empirical cluster decay rate; it is labelled diagnostic
    because that rate is itself a point estimate.
    """

    energies: np.ndarray
    tail: np.ndarray
    stderr: np.ndarray
    lower_bound: np.ndarray
    upper_bound: np.ndarray
    rigorous_ok: np.ndarray
    diagnostic_ok: np.ndarray
    bracket_pass: bool
    diagnostic_pass: bool
    p: float
    d_max: int
    rho: float
    rho_inf: float
    lambda_emp: float


def certify_bracketing(
    analysis: TailAnalysis,
    rho: float,
    rho_inf: float,
    p: float,
    d_max: int,
    lambda_emp: float,
) -> BracketReport:
    """Evaluate both sides of the tail bracket at the reliable grid points.

    Built for analyses backed by enough realizations that 4 SE is a
    meaningful tolerance; requires at least ``MIN_CERTIFY_REALIZATIONS``.
    """
    if analysis.realizations < MIN_CERTIFY_REALIZATIONS:
        raise InsufficientTailData(
            f"bracket certification needs >= {MIN_CERTIFY_REALIZATIONS} realizations, "
            f"got {analysis.realizations}"
        )
    sel = analysis.reliable
    energies = analysis.energies[sel]
    tail = analysis.tail[sel]
    se = analysis.stderr[sel]
    lower = np.array([lower_bound(e, p, d_max, rho_inf) for e in energies])
    upper = np.array(
        [upper_bound(e, rho, lambda_decay=lambda_emp) for e in energies]
    )
    rigorous_ok = tail + 4.0 * se - lower >= 0.0
    # diagnostic: the fitted curve may not exceed the upper bound by more
    # than its own 4-sigma prediction band (in log space)
    log_fit = -(analysis.slope * energies**-0.5 + analysis.intercept)
    band = 4.0 * np.asarray(analysis.prediction_log_stderr(energies))
    with np.errstate(divide="ignore"):
        log_upper = np.log(upper)
    diagnostic_ok = log_fit <= log_upper + band
    return BracketReport(
        energies=energies,
        tail=tail,
        stderr=se,
        lower_bound=lower,
        upper_bound=upper,
        rigorous_ok=rigorous_ok,
        diagnostic_ok=diagnostic_ok,
        bracket_pass=bool(rigorous_ok.all()),
        diagnostic_pass=bool(diagnostic_ok.all()),
        p=p,
        d_max=d_max,
        rho=rho,
        rho_inf=rho_inf,
        lambda_emp=lambda_emp,
    )
