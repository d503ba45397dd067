"""Reproducible experiment front end.

Subcommands wire the library into file-producing pipelines: ``generate``,
``census``, ``percolate``, ``ids``, ``lifshits``, ``verify``.  Every run
reads an optional INI config overridden by flags, writes its outputs
atomically into one directory, and drops a manifest recording the exact
configuration, the code version, a checksum per output file and, for a
command that samples bonds, the master seed.  All randomness descends from
that single seed, and the realization streams are keyed by absolute index,
so results are byte-identical for any ``--threads`` value.

Exit codes: 0 success, 1 runtime or statistical failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .graphs import (
    FAMILIES,
    EmbeddedGraph,
    dumps,
    generate,
    geometry_report,
    norm_sign,
)
from .lifshits import (
    MIN_CERTIFY_REALIZATIONS,
    InsufficientTailData,
    certify_bracketing,
    default_energy_range,
    lower_bound,
    tail_fit,
    upper_bound,
)
from .patterns import density_report, extract_r_patterns
from .percolation import (
    PercolationParams,
    bounds_report,
    boundary_path_bound,
    boundary_path_statistic,
    chi_estimate,
    cluster_size_statistic,
    cluster_size_tail_statistic,
    edge_uniforms,
    gamma_rate,
    mean_cluster_size,  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
    per_realization_rows,
    psi_rate,
    sample,
)
from .spectral import (
    IdsTable,
    bruteforce_ids_oracle,
    chain_spectrum,
    cheeger_check,
    eigensystem,
    ids_estimate,
    laplacian_from_edges,
)

__all__ = ["ExperimentConfig", "ConfigError", "AllRealizationsTruncated", "RunManifest", "main"]


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


class AllRealizationsTruncated(RuntimeError):
    """Every realization of a run was dropped because a counted cluster
    reached the patch boundary (exit code 1)."""

    def __init__(self):
        super().__init__("every realization had a counted cluster near the patch "
                         "boundary; enlarge the patch or reduce the counting radius")


def _finite_positive(x: float) -> bool:
    # NaN fails both comparisons
    return 0.0 < x < math.inf


# the counting window stays at least this far inside the generated patch
_WINDOW_MARGIN = 1.0
# a grid energy in the bulk that records the total spectral mass
_TOP_ANCHOR = 9.0


@dataclass
class ExperimentConfig:
    """Flat description of one experiment, merged from INI config and flags.

    ``counting_radius`` plus ``_WINDOW_MARGIN`` may not exceed the
    generation ``radius``: the counting window must sit strictly inside the
    generated patch or boundary effects silently corrupt the spectra.
    """

    family: str = "square"
    radius: float = 60.0
    counting_radius: float | None = None
    pattern_radius: float = 1.1
    p: float = 0.2
    realizations: int = 100
    master_seed: int = 1
    n_max: int = 20
    e_min: float | None = None
    e_max: float = 0.5
    per_decade: int = 12
    out_dir: str = "runs/out"
    fmt: str = "csv"
    threads: int = 1

    def validate(self, command: str) -> None:
        """Every input rule that needs no patch, for a run of ``command``."""
        problems: list[str] = []
        # the decay and tail bounds, and the default energy grid of ids,
        # need 0 < p < 1
        if command in ("percolate", "lifshits") or (command == "ids" and self.e_min is None):
            if not (0.0 < self.p < 1.0):
                problems.append(
                    f"percolation.p = {self.p}: {command} needs 0 < p < 1"
                    + (" unless --e-min is given" if command == "ids" else "")
                )
        elif not (0.0 <= self.p <= 1.0):
            problems.append(f"percolation.p = {self.p}: must lie in [0, 1]")
        if not _finite_positive(self.radius):
            problems.append(f"graph.radius = {self.radius}: must be finite and positive")
        if self.counting_radius is not None:
            if not _finite_positive(self.counting_radius):
                problems.append(
                    f"ids.counting_radius = {self.counting_radius}: must be finite and positive"
                )
            elif self.counting_radius + _WINDOW_MARGIN > self.radius:
                problems.append(
                    f"ids.counting_radius = {self.counting_radius}: counting radius "
                    f"+ margin {_WINDOW_MARGIN} exceeds generation radius {self.radius}"
                )
        if not _finite_positive(self.pattern_radius):
            problems.append(
                f"patterns.pattern_radius = {self.pattern_radius}: must be finite and positive"
            )
        if self.realizations < 1:
            problems.append(
                f"percolation.realizations = {self.realizations}: must be >= 1"
            )
        elif command == "lifshits" and self.realizations < MIN_CERTIFY_REALIZATIONS:
            problems.append(
                f"percolation.realizations = {self.realizations}: lifshits certifies "
                f"the bracket only on >= {MIN_CERTIFY_REALIZATIONS} realizations"
            )
        if not (0 <= self.master_seed < 2**64):
            problems.append(
                f"percolation.seed = {self.master_seed}: must lie in [0, 2**64)"
            )
        if self.n_max < 1:
            problems.append(f"percolation.n_max = {self.n_max}: must be >= 1")
        if not _finite_positive(self.e_max):
            problems.append(f"ids.e_max = {self.e_max}: must be finite and positive")
        elif command == "lifshits" and self.e_max >= _TOP_ANCHOR:
            problems.append(
                f"ids.e_max = {self.e_max}: lifshits fits the tail up to e_max, "
                f"which must stay below the top anchor {_TOP_ANCHOR} in the bulk"
            )
        # a bad e_max is named once, above; e_min is then only checked alone
        e_top = self.e_max if _finite_positive(self.e_max) else math.inf
        if self.e_min is not None and not (0.0 < self.e_min < e_top):
            problems.append(
                f"ids.e_min = {self.e_min}: must lie in (0, e_max = {self.e_max})"
            )
        if self.per_decade < 1:
            problems.append(f"ids.per_decade = {self.per_decade}: must be >= 1")
        if self.fmt not in ("csv", "json"):
            problems.append(f"output.format = {self.fmt!r}: must be 'csv' or 'json'")
        if self.threads < 1:
            problems.append(f"run.threads = {self.threads}: must be >= 1")
        if self.family not in FAMILIES:
            problems.append(
                f"graph.family = {self.family!r}: must be one of {', '.join(FAMILIES)}"
            )
        if problems:
            raise ConfigError("\n".join(problems))

    def percolation_params(self) -> PercolationParams:
        return PercolationParams(p=self.p, master_seed=self.master_seed, realizations=self.realizations)

    def energy_grid(self, d_max: int, volume: float) -> np.ndarray:
        """Log grid from e_max down to e_min at per_decade points per decade,
        plus the high anchor that records the total spectral mass, in
        ascending order; the estimator adds zero and drops repeats."""
        e_min = self.e_min
        if e_min is None:
            e_min = min(
                default_energy_range(self.p, d_max, self.realizations, volume),
                self.e_max / 2.0,
            )
        ratio = 10.0 ** (-1.0 / self.per_decade)
        energies = []
        e = self.e_max
        while e >= e_min * (1.0 - 1e-12):
            energies.append(e)
            e *= ratio
        energies.append(_TOP_ANCHOR)
        return np.sort(energies)


# ---------------------------------------------------------------------------
# the settings: INI key, field and flag of each, declared once


class _Setting(NamedTuple):
    section: str
    key: str
    field: str
    type: Callable[[str], object]
    flag: str
    help: str
    commands: tuple[str, ...]


# the commands that read each group of settings; verify reads only --out
_ALL = ("generate", "census", "percolate", "ids", "lifshits", "verify")
_PATCH = ("generate", "census", "percolate", "ids", "lifshits")
_SAMPLED = ("percolate", "ids", "lifshits")
_ESTIMATED = ("ids", "lifshits")

_SETTINGS = [
    _Setting("graph", "family", "family", str, "--family",
             "graph family: " + ", ".join(FAMILIES), _PATCH),
    _Setting("graph", "radius", "radius", float, "--radius", "generation radius of the patch", _PATCH),
    _Setting("patterns", "pattern_radius", "pattern_radius", float, "--pattern-radius",
             "pattern ball radius", ("census",)),
    _Setting("percolation", "p", "p", float, "--p", "bond probability", _SAMPLED),
    _Setting("percolation", "realizations", "realizations", int, "--realizations",
             "number of bond realizations", _SAMPLED),
    _Setting("percolation", "seed", "master_seed", int, "--seed", "master seed for all randomness", _SAMPLED),
    _Setting("percolation", "n_max", "n_max", int, "--n-max", "largest cluster-size scale", ("percolate",)),
    _Setting("ids", "counting_radius", "counting_radius", float, "--counting-radius",
             "radius of the counting window (default: radius minus the escape margin "
             "of the boundary-path bound)", _ESTIMATED),
    _Setting("ids", "e_min", "e_min", float, "--e-min", "lowest grid energy", _ESTIMATED),
    _Setting("ids", "e_max", "e_max", float, "--e-max", "highest grid energy", _ESTIMATED),
    _Setting("ids", "per_decade", "per_decade", int, "--per-decade",
             "grid points per decade of energy", _ESTIMATED),
    _Setting("output", "dir", "out_dir", str, "--out", "output directory", _ALL),
    _Setting("output", "format", "fmt", str, "--format", "primary table format: csv or json", _ESTIMATED),
    _Setting("run", "threads", "threads", int, "--threads",
             "worker cap; results identical for any value", _ESTIMATED),
]


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI experiment file, rejecting unknown sections and keys,
    and any key in ``[DEFAULT]``, which configparser would otherwise copy
    into every section.  Values are taken literally: no ``%`` interpolation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    layout: dict[str, dict[str, _Setting]] = {}
    for s in _SETTINGS:
        layout.setdefault(s.section, {})[s.key] = s
    if parser.defaults():
        raise ConfigError(
            f"{path}: [DEFAULT] may hold no key, got "
            f"{', '.join(map(repr, parser.defaults()))}; put each in its section, "
            f"one of {sorted(layout)}"
        )
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in layout:
            raise ConfigError(
                f"{path}: unknown section [{section}]; "
                f"expected one of {sorted(layout)}"
            )
        for key, raw in parser.items(section):
            if key not in layout[section]:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]; "
                    f"expected one of {sorted(layout[section])}"
                )
            setting = layout[section][key]
            try:
                setattr(cfg, setting.field, setting.type(raw))
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: [{section}] {key} = {raw!r}: {exc}"
                ) from exc
    return cfg


def merge_flags(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Apply command-line overrides; flags win over the config file."""
    for s in _SETTINGS:
        value = getattr(args, s.field, None)
        if value is not None:
            setattr(cfg, s.field, value)
    return cfg


# ---------------------------------------------------------------------------
# atomic outputs and the manifest


@dataclass
class RunManifest:
    """Record of one run: enough to reproduce every output byte-for-byte.

    ``wall_clock_s`` is informational and varies between runs; the contract
    is that re-running with the same config snapshot and seed regenerates
    files matching ``output_sha256`` exactly, regardless of thread count.
    ``master_seed`` is None, and left out of the JSON, for a command that
    samples no bonds.
    """

    command: str
    config: dict
    code_version: str
    master_seed: int | None
    output_sha256: dict[str, str] = field(default_factory=dict)
    wall_clock_s: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "config": self.config,
            "code_version": self.code_version,
            "output_sha256": self.output_sha256,
            "wall_clock_s": {k: round(v, 6) for k, v in self.wall_clock_s.items()},
        }
        if self.master_seed is not None:
            body["master_seed"] = self.master_seed
        return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _atomic_write(out_dir: str, name: str, data: bytes) -> None:
    """Write via a temp file and rename, so readers never see partial files."""
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class OutputWriter:
    """Collects named outputs, writes them atomically, then the manifest,
    whose ``config`` holds the settings ``command`` reads."""

    def __init__(self, command: str, cfg: ExperimentConfig):
        self.out_dir = cfg.out_dir
        self.manifest = RunManifest(
            command=command,
            config={s.field: getattr(cfg, s.field) for s in _SETTINGS
                    if command in s.commands},
            code_version=__version__,
            master_seed=cfg.master_seed if command in _SAMPLED else None,
        )
        self._t0 = time.perf_counter()
        self._stage_start = self._t0

    def stage(self, name: str) -> None:
        now = time.perf_counter()
        self.manifest.wall_clock_s[name] = now - self._stage_start
        self._stage_start = now

    def add(self, name: str, text: str) -> None:
        data = text.encode("utf-8")
        os.makedirs(self.out_dir, exist_ok=True)
        _atomic_write(self.out_dir, name, data)
        self.manifest.output_sha256[name] = hashlib.sha256(data).hexdigest()

    def finish(self) -> None:
        self.manifest.wall_clock_s["total"] = time.perf_counter() - self._t0
        os.makedirs(self.out_dir, exist_ok=True)
        _atomic_write(self.out_dir, "manifest.json", self.manifest.to_json().encode())


def _fmt(value) -> str:
    """Deterministic scalar formatting: repr round-trips floats exactly."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _strict(obj):
    """``obj`` with numpy arrays and scalars as their ``tolist()`` forms and
    each non-finite float as None, so that it is strict JSON."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    """Sorted, indented, strict JSON: a non-finite float is written as
    null."""
    return json.dumps(_strict(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# the chunked estimator run shared by `ids` and `lifshits`


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the system
    does not say (``os.sched_getaffinity`` exists only on some systems)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ids_chunk(cfg: ExperimentConfig, g: EmbeddedGraph, grid: np.ndarray,
               chi_margin: float | None, start: int, stop: int) -> IdsTable:
    """The counting table of realizations ``start`` to ``stop``: one chunk
    of ``run_ids``."""
    params = replace(cfg.percolation_params(), realizations=stop - start)
    return ids_estimate(g, params, grid, counting_radius=cfg.counting_radius,
                        realization_offset=start, chi_margin=chi_margin)


def run_ids(cfg: ExperimentConfig, g: EmbeddedGraph, grid: np.ndarray,
            chi_margin: float | None = None) -> IdsTable:
    """Estimate the spectral counting table, splitting realizations into
    one contiguous chunk per worker thread: ``--threads`` of them, at most
    one per usable CPU and one per realization.

    Realization streams are keyed by absolute index, so stacking the rows of
    the chunks reproduces a one-chunk run exactly; a chunk that kept no
    realization adds no rows, and a run that kept none raises
    ``AllRealizationsTruncated``.  Each chunk solves its shapes in a cache
    of its own.  ``chi_margin`` goes to every chunk's ``ids_estimate``, and
    the chi rows of all chunks are stacked in realization order.
    """
    total = cfg.realizations
    n_chunks = min(cfg.threads, _usable_cpus(), total)
    bounds = np.linspace(0, total, n_chunks + 1).astype(int)
    with ThreadPoolExecutor(max_workers=n_chunks) as pool:
        tables = list(pool.map(partial(_ids_chunk, cfg, g, grid, chi_margin),
                               bounds[:-1], bounds[1:]))
    rows = np.vstack([t.rows for t in tables])
    if rows.shape[0] == 0:
        raise AllRealizationsTruncated()
    chi = None if chi_margin is None else np.vstack([t.chi for t in tables])
    return replace(tables[0], rows=rows, chi=chi, truncated_realizations=total - rows.shape[0])


# the default counting radius keeps the chance that a realization is dropped,
# because a counted cluster reaches the patch boundary, below this
_ESCAPE_TOLERANCE = 0.01


def _escape_margin(cfg: ExperimentConfig, g: EmbeddedGraph) -> float:
    """l_max plus the smallest integer n with
    n_vertices * boundary_path_bound(n) <= _ESCAPE_TOLERANCE: a union bound,
    over every vertex of the patch, on an open path from it leaving the ball
    of radius n around it.  At p = 0, or on a patch with no vertices,
    nothing escapes and the margin is l_max."""
    if cfg.p == 0.0 or g.n_vertices == 0:
        return g.l_max
    if cfg.p * (g.d_max - 1) >= 1.0:
        raise ConfigError(
            f"ids.counting_radius unset at percolation.p = {cfg.p}: p (d_max - 1) = "
            f"{cfg.p * (g.d_max - 1):g} >= 1, so the boundary-path bound gives no "
            "escape margin; pass --counting-radius"
        )
    # the bound is 2 e^{-n psi}: start at the floor of the exact solution
    psi = psi_rate(cfg.p, g.d_max, g.l_max)
    n = math.floor(math.log(2.0 * g.n_vertices / _ESCAPE_TOLERANCE) / psi)
    while g.n_vertices * boundary_path_bound(n, cfg.p, g.d_max, g.l_max) > _ESCAPE_TOLERANCE:
        n += 1
    return g.l_max + n


def _estimate(
    cfg: ExperimentConfig, g: EmbeddedGraph, writer: OutputWriter,
    chi_margin: float | None = None,
) -> IdsTable:
    """The counting table of ``ids`` and ``lifshits``.  Without a counting
    radius the window is the patch less the escape margin (recorded in the
    manifest).  A window that holds no vertex is a configuration error; the
    energy grid follows the window volume."""
    if cfg.counting_radius is None:
        margin = max(_escape_margin(cfg, g), _WINDOW_MARGIN)
        if cfg.radius - margin <= 0.0:
            raise ConfigError(
                f"ids.counting_radius unset and graph.radius = {cfg.radius:g} leaves no "
                f"window: the escape margin at percolation.p = {cfg.p} is {margin:g}, "
                f"so the radius must exceed {margin:g}; pass --counting-radius"
            )
        cfg.counting_radius = cfg.radius - margin
        writer.manifest.config["counting_radius"] = cfg.counting_radius
    if not (norm_sign(g.basis, g.coeffs, g.embed, cfg.counting_radius) < 0).any():
        raise ConfigError(
            f"ids.counting_radius = {cfg.counting_radius:g}: the counting window "
            f"holds no vertex of the {cfg.family} patch"
        )
    volume = math.pi * cfg.counting_radius**2
    grid = cfg.energy_grid(g.d_max, volume)
    return run_ids(cfg, g, grid, chi_margin)


def _chi_margin(cfg: ExperimentConfig, g: EmbeddedGraph) -> float:
    """Boundary margin of the vertices that chi averages over."""
    return min(30.0 * g.l_max, cfg.radius / 2.0)


def _ids_outputs(cfg: ExperimentConfig, table: IdsTable, writer: OutputWriter) -> None:
    tail_mean, tail_se = table.tail()
    if cfg.fmt == "csv":
        rows = [
            (
                e,
                table.mean[i],
                table.stderr[i],
                tail_mean[i],
                tail_se[i],
                table.realizations,
                cfg.counting_radius,
                cfg.p,
                cfg.master_seed,
            )
            for i, e in enumerate(table.energies)
        ]
        writer.add(
            "ids.csv",
            _csv(
                [
                    "E",
                    "N",
                    "N_stderr",
                    "N_minus_N0",
                    "tail_stderr",
                    "realizations",
                    "counting_radius",
                    "p",
                    "seed",
                ],
                rows,
            ),
        )
    else:
        writer.add(
            "ids.json",
            _json_text(
                {
                    "energies": table.energies.tolist(),
                    "mean": table.mean.tolist(),
                    "stderr": table.stderr.tolist(),
                    "tail": tail_mean.tolist(),
                    "tail_stderr": tail_se.tolist(),
                    "volume": table.volume,
                    "window_vertices": table.window_vertices,
                    "realizations": table.realizations,
                    "requested_realizations": cfg.realizations,
                    "truncated_realizations": table.truncated_realizations,
                    "counting_radius": cfg.counting_radius,
                    "p": cfg.p,
                    "seed": cfg.master_seed,
                }
            ),
        )


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg: ExperimentConfig, g: EmbeddedGraph, writer: OutputWriter) -> int:
    report = geometry_report(g)
    writer.stage("geometry")
    writer.add("graph.txt", dumps(g))
    writer.add("geometry.json", _json_text(asdict(report)))
    writer.finish()
    print(
        f"generated {cfg.family} patch radius {cfg.radius:g}: "
        f"{report.vertex_count} vertices, {report.edge_count} edges "
        f"-> {cfg.out_dir}"
    )
    return 0


def cmd_census(cfg: ExperimentConfig, g: EmbeddedGraph, writer: OutputWriter) -> int:
    """Pattern census at the configured radius, plus a finite-local-
    complexity stability verdict: the census within half the radius must
    already contain every translation class seen on the full patch."""
    census = extract_r_patterns(g, cfg.pattern_radius)
    census_half = extract_r_patterns(g, cfg.pattern_radius, within=cfg.radius / 2.0)
    if census_half.eligible_centers == 0:
        raise ConfigError(
            f"patterns.pattern_radius = {cfg.pattern_radius}: no vertex of the "
            f"half-radius patch lies farther than that from its boundary, so "
            "the stability check has no pattern to compare (always the case "
            f"when pattern_radius >= radius/2 = {cfg.radius / 2:g})"
        )
    writer.stage("census")

    area = math.pi * (cfg.radius - cfg.pattern_radius) ** 2
    rows = [
        (cfg.pattern_radius, rank, count, area, count / area)
        for rank, (_, count) in enumerate(census.most_common())
    ]
    writer.add(
        "census.csv", _csv(["radius", "n", "count", "volume", "frequency"], rows)
    )
    writer.add(
        "census.json",
        _json_text(
            {
                "family": cfg.family,
                "pattern_radius": cfg.pattern_radius,
                "generation_radius": cfg.radius,
                "distinct": census.distinct,
                "distinct_half_radius": census_half.distinct,
                "eligible_centers": census.eligible_centers,
                "flc_stable": census.distinct == census_half.distinct,
            }
        ),
    )
    writer.finish()
    verdict = "stable" if census.distinct == census_half.distinct else "UNSTABLE"
    print(
        f"census r={cfg.pattern_radius:g} on {cfg.family}: "
        f"{census.distinct} classes at radius {cfg.radius:g}, "
        f"{census_half.distinct} at radius {cfg.radius / 2:g} ({verdict})"
    )
    return 0 if census.distinct == census_half.distinct else 1


def cmd_percolate(cfg: ExperimentConfig, g: EmbeddedGraph, writer: OutputWriter) -> int:
    """Cluster-size tail, boundary-path probability and chi, all three
    evaluated on one decomposition per realization."""
    params = cfg.percolation_params()
    try:
        size_stat = cluster_size_tail_statistic(g, range(1, cfg.n_max + 1))
        exit_stat = boundary_path_statistic(g, range(1, min(cfg.n_max, 12) + 1))
        chi_stat = cluster_size_statistic(g, _chi_margin(cfg, g))
    except ValueError as exc:
        raise ConfigError(
            f"graph.radius = {cfg.radius}, percolation.n_max = {cfg.n_max}: {exc}"
        ) from exc
    size_rows, exit_rows, chi_rows = per_realization_rows(
        g, params, [size_stat, exit_stat, chi_stat]
    )
    sizes = size_stat.estimate(size_rows)
    exits = exit_stat.estimate(exit_rows)
    chi, chi_se = chi_estimate(chi_rows)
    writer.stage("percolate")

    rows = []
    for est in (sizes, exits):
        for n, v, se in zip(est.n_values, est.estimates, est.stderrs):
            rows.append((est.stat, n, v, se, est.realizations, cfg.master_seed))
    rows.append(("mean_cluster_size", cfg.p, chi, chi_se, cfg.realizations, cfg.master_seed))
    writer.add(
        "clusters.csv",
        _csv(["stat", "n_or_p", "estimate", "stderr", "realizations", "seed"], rows),
    )
    report = bounds_report(cfg.p, g.d_max, g.l_max, chi_hat=chi, chi_stderr=chi_se)
    writer.add("bounds.json", _json_text(asdict(report)))
    writer.finish()
    print(
        f"percolation p={cfg.p:g} on {cfg.family} radius {cfg.radius:g}: "
        f"chi = {chi:.4f} +/- {chi_se:.4f}, "
        f"subcritical regime: {report.holds_subcritical} -> {cfg.out_dir}"
    )
    return 0


def cmd_ids(cfg: ExperimentConfig, g: EmbeddedGraph, writer: OutputWriter) -> int:
    table = _estimate(cfg, g, writer)
    writer.stage("ids")
    _ids_outputs(cfg, table, writer)
    writer.finish()
    print(
        f"spectral count on {cfg.family} radius {cfg.radius:g}, "
        f"window {cfg.counting_radius:g}: {table.realizations} kept, "
        f"{table.truncated_realizations} truncated -> {cfg.out_dir}"
    )
    return 0


def cmd_lifshits(cfg: ExperimentConfig, g: EmbeddedGraph, writer: OutputWriter) -> int:
    """The full pipeline: estimate the counting table, fit the linearized
    tail, and certify the two-sided bound."""
    # chi is taken from the estimator's realizations, row r from realization r
    table = _estimate(cfg, g, writer, _chi_margin(cfg, g))
    writer.stage("ids")

    # the top anchor documents total spectral mass; it sits in the bulk and
    # must not enter the low-energy fit, so validate keeps e_max below it
    analysis = tail_fit(table, e_range=(0.0, cfg.e_max))
    # rho_inf = rho: every family is a connected infinite graph, and on the
    # all-open patch a component with no vertex in the closed band
    # |x| >= R - l_max has all its neighbours inside the patch, so it would
    # be a finite component of that graph
    rho = density_report(g, 0.9 * cfg.radius)
    chi, chi_se = chi_estimate(table.chi)
    bounds = bounds_report(cfg.p, g.d_max, g.l_max, chi_hat=chi, chi_stderr=chi_se)
    report = certify_bracketing(
        analysis,
        rho=rho,
        rho_inf=rho,
        p=cfg.p,
        d_max=g.d_max,
        lambda_emp=bounds.lambda_decay,
    )
    writer.stage("certify")

    _ids_outputs(cfg, table, writer)
    summary = {
        "slope": analysis.slope,
        "slope_stderr": analysis.slope_stderr,
        "intercept": analysis.intercept,
        "intercept_stderr": analysis.intercept_stderr,
        "r_squared": analysis.r_squared,
        "loglog_ratio": analysis.loglog_ratio,
        "n_fit_points": analysis.n_fit_points,
        "decades_spanned": analysis.decades_spanned,
        "reliability_floor": analysis.floor,
        "fit_range": list(analysis.fit_range),
        "gamma": gamma_rate(cfg.p, g.d_max),
        "realizations": table.realizations,
        "truncated_realizations": table.truncated_realizations,
    }
    summary.update(asdict(report))
    writer.add("lifshits.json", _json_text(summary))
    point_rows = [
        (
            report.energies[i],
            report.tail[i],
            report.stderr[i],
            report.lower_bound[i],
            report.upper_bound[i],
            report.rigorous_ok[i],
            report.diagnostic_ok[i],
        )
        for i in range(report.energies.size)
    ]
    writer.add(
        "lifshits.csv",
        _csv(
            [
                "E",
                "tail",
                "tail_stderr",
                "lower_bound",
                "upper_bound",
                "rigorous_ok",
                "diagnostic_ok",
            ],
            point_rows,
        ),
    )
    writer.finish()
    print(
        f"tail fit on {cfg.family} radius {cfg.radius:g}: slope "
        f"{analysis.slope:.4f} +/- {analysis.slope_stderr:.4f}, "
        f"R^2 = {analysis.r_squared:.4f} over {analysis.decades_spanned:.2f} "
        f"decades; rigorous bracket: "
        f"{'PASS' if report.bracket_pass else 'FAIL'} -> {cfg.out_dir}"
    )
    return 0 if report.bracket_pass else 1


# ---------------------------------------------------------------------------
# verify: fast named invariant checks on small instances


def _check_chain_closed_form() -> tuple[bool, str]:
    worst_e, worst_v = 0.0, 0.0
    for l in range(2, 51):
        edges = np.array([(i, i + 1) for i in range(l - 1)], dtype=np.int64)
        lap = laplacian_from_edges(l, edges)
        vals, vecs = eigensystem(lap)
        cs = chain_spectrum(l)
        worst_e = max(worst_e, float(np.abs(np.sort(vals) - cs.energies).max()))
        for k in range(l):
            ref = cs.vectors[:, k]
            num = vecs[:, k]
            worst_v = max(
                worst_v, float(min(np.abs(num - ref).max(), np.abs(num + ref).max()))
            )
    ok = worst_e < 1e-9 and worst_v < 1e-8
    return ok, f"max eigenvalue err {worst_e:.2e}, eigenvector err {worst_v:.2e}"


def _check_threshold_closed_form() -> tuple[bool, str]:
    got = [bounds_report(0.1, d, 1.0).p_c_lower for d in (4, 3, 6)]
    ok = got == [1.0 / 3.0, 1.0 / 2.0, 1.0 / 5.0]
    return ok, f"p_c lower bounds {got}"


def _check_ids_vs_enumeration() -> tuple[bool, str]:
    g = generate("square", 1.8)
    p, reals = 0.3, 1500
    grid = [0.017 + 0.35 * k for k in range(10)]
    params = PercolationParams(p=p, master_seed=11, realizations=reals)
    table = ids_estimate(g, params, grid, flag_boundary=False)
    oracle_grid, oracle_mean, oracle_var = bruteforce_ids_oracle(g, p, grid)
    se = np.sqrt(oracle_var / reals)
    dev = np.abs(table.mean - oracle_mean) / np.where(se > 0, se, 1.0)
    ok = bool(np.all(dev <= 4.0))
    return ok, f"max deviation {dev.max():.2f} sigma over {len(grid)} energies"


def _check_cheeger() -> tuple[bool, str]:
    g = generate("square", 12.0)
    params = PercolationParams(p=0.2, master_seed=3, realizations=30)
    configs = [sample(g, params, r) for r in range(params.realizations)]
    rep = cheeger_check(g, configs)
    return rep.all_hold, f"{rep.checked} clusters, {rep.violations} violations"


def _check_monotone_coupling() -> tuple[bool, str]:
    g = generate("square", 10.0)
    bad = 0
    for r in range(100):
        u = edge_uniforms(g.n_edges, 5, r)
        if not np.all((u < 0.15) <= (u < 0.45)):
            bad += 1
    return bad == 0, f"{bad} of 100 realizations violate edgewise ordering"


def _check_determinism() -> tuple[bool, str]:
    cfg = ExperimentConfig(
        family="square", radius=12.0, counting_radius=8.0, p=0.2,
        realizations=24, master_seed=9,
    )
    g = generate(cfg.family, cfg.radius)
    grid = cfg.energy_grid(g.d_max, math.pi * 64.0)
    serial = run_ids(cfg, g, grid)
    again = run_ids(cfg, g, grid)
    # three chunks whatever the host's CPU count, at uneven offsets
    bounds = (0, 7, 16, 24)
    chunked = np.vstack([_ids_chunk(cfg, g, grid, None, start, stop).rows
                         for start, stop in zip(bounds[:-1], bounds[1:])])
    ok = bool(
        np.array_equal(serial.rows, again.rows)
        and np.array_equal(serial.rows, chunked)
    )
    return ok, (f"{serial.rows.shape[0]} rows, serial == rerun == "
                f"chunks at {bounds}: {ok}")


def _check_total_mass() -> tuple[bool, str]:
    g = generate("square", 10.0)
    cfg = ExperimentConfig(
        family="square", radius=10.0, counting_radius=6.0, p=0.25,
        realizations=20, master_seed=4,
    )
    table = run_ids(cfg, g, np.array([9.0]))
    mass = table.rows[:, -1] * table.volume
    ok = bool(np.allclose(mass, table.window_vertices, atol=1e-8))
    return ok, f"window mass {mass[0]:.6f} vs {table.window_vertices} vertices"


def _check_bracket_consistency() -> tuple[bool, str]:
    worst = np.inf
    for e in np.logspace(-2, 0.7, 30):
        lb = lower_bound(float(e), 0.1, 4, 1.0)
        ub = upper_bound(float(e), 0.1, 1.0, lambda_decay=0.2)
        worst = min(worst, ub / lb)
    return worst >= 1.0, f"min upper/lower ratio {worst:.3e}"


def _check_tail_fit_selftest() -> tuple[bool, str]:
    e = 0.1 * 10 ** (-np.arange(13) / 12.0)
    grid = np.concatenate([[0.0], e[::-1]])
    vals = np.concatenate([[0.0], np.exp(-3.0 * e[::-1] ** -0.5)])
    table = IdsTable(
        energies=grid,
        rows=np.tile(vals, (120, 1)),
        volume=1e18,
        window_vertices=0,
        truncated_realizations=0,
    )
    fit = tail_fit(table)
    ok = abs(fit.slope - 3.0) < 1e-6
    return ok, f"recovered slope {fit.slope:.8f} (target 3 to 6 digits)"


_VERIFY_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("chain-closed-form", _check_chain_closed_form),
    ("threshold-closed-form", _check_threshold_closed_form),
    ("ids-vs-enumeration", _check_ids_vs_enumeration),
    ("cheeger-gate", _check_cheeger),
    ("monotone-coupling", _check_monotone_coupling),
    ("determinism-chunking", _check_determinism),
    ("window-total-mass", _check_total_mass),
    ("bracket-consistency", _check_bracket_consistency),
    ("tail-fit-selftest", _check_tail_fit_selftest),
]


def cmd_verify(cfg: ExperimentConfig, writer: OutputWriter) -> int:
    results = []
    width = max(len(name) for name, _ in _VERIFY_CHECKS)
    all_ok = True
    for name, check in _VERIFY_CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        all_ok &= ok
        results.append({"name": name, "pass": ok, "detail": detail, "seconds": round(dt, 3)})
        print(f"{'ok  ' if ok else 'FAIL'} {name:<{width}}  {detail}  [{dt:.2f}s]")
    writer.stage("checks")
    writer.add("verify.json", _json_text({"all_pass": all_ok, "checks": results}))
    writer.finish()
    print(f"{'all checks passed' if all_ok else 'CHECKS FAILED'} -> {cfg.out_dir}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing and entry point


# name -> (command, help); every command but verify runs on the patch the
# configuration describes
_COMMANDS = {
    "generate": (cmd_generate, "generate a patch and its geometry report"),
    "census": (cmd_census, "r-pattern census and FLC stability verdict"),
    "percolate": (cmd_percolate, "cluster statistics and decay-constant report"),
    "ids": (cmd_ids, "Monte Carlo spectral counting table"),
    "lifshits": (cmd_lifshits, "counting table, tail fit, and bracket certification"),
    "verify": (cmd_verify, "run fast invariant checks and print a table"),
}


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: an abbreviated flag could silently set another
    # setting (census --p would be --pattern-radius)
    parser = argparse.ArgumentParser(
        prog="percospec",
        description="Percolation, pattern, and spectral-tail experiments "
        "on periodic and aperiodic planar graphs.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, hlp) in _COMMANDS.items():
        sp = sub.add_parser(command, help=hlp, allow_abbrev=False)
        sp.add_argument("--config", help="INI experiment file (flags win)")
        for s in _SETTINGS:
            if command in s.commands:
                sp.add_argument(s.flag, dest=s.field, type=s.type, metavar=s.key.upper(),
                                help=f"{s.help} [{s.section}] {s.key}")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg = merge_flags(cfg, args)
        if args.out_dir is None and args.config is None:
            cfg.out_dir = os.path.join("runs", args.command)
        cfg.validate(args.command)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 2
    command, _ = _COMMANDS[args.command]
    try:
        writer = OutputWriter(args.command, cfg)
        if command is cmd_verify:
            return cmd_verify(cfg, writer)
        g = generate(cfg.family, cfg.radius)
        writer.stage("generate")
        return command(cfg, g, writer)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 2
    except (InsufficientTailData, AllRealizationsTruncated) as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
