"""Tests for config handling, the subcommands, and the determinism contract."""

import hashlib
import importlib.util
import json
import math
import os
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from percospec import cli, percolation
from percospec.cli import (
    ConfigError,
    ExperimentConfig,
    build_parser,
    load_config,
    main,
    merge_flags,
)
from percospec.graphs import FAMILIES, generate, geometry_report


def write_config(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


class TestConfig:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_defaults_validate(self, command):
        ExperimentConfig().validate(command)

    def test_load_sections(self, tmp_path):
        path = write_config(
            tmp_path,
            "[graph]\nfamily = penrose\nradius = 25\n"
            "[percolation]\np = 0.15\nrealizations = 40\nseed = 99\n"
            "[ids]\ncounting_radius = 20\ne_max = 0.7\n"
            "[output]\ndir = /tmp/x\nformat = json\n"
            "[run]\nthreads = 3\n",
        )
        cfg = load_config(path)
        assert cfg.family == "penrose"
        assert cfg.radius == 25.0
        assert cfg.p == 0.15
        assert cfg.realizations == 40
        assert cfg.master_seed == 99
        assert cfg.counting_radius == 20.0
        assert cfg.e_max == 0.7
        assert cfg.out_dir == "/tmp/x"
        assert cfg.fmt == "json"
        assert cfg.threads == 3

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path, "[nope]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown section \[nope\]"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "[graph]\nfamly = square\n")
        with pytest.raises(ConfigError, match="unknown key 'famly'"):
            load_config(path)

    def test_bad_value_names_key(self, tmp_path):
        path = write_config(tmp_path, "[graph]\nradius = wide\n")
        with pytest.raises(ConfigError, match=r"\[graph\] radius = 'wide'"):
            load_config(path)

    def test_malformed_file(self, tmp_path):
        path = write_config(tmp_path, "radius without section\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    @pytest.mark.parametrize("text,keys", [
        # alone, configparser would ignore both keys
        ("[DEFAULT]\np = 0.3\nradius = 7\n", ["'p'", "'radius'"]),
        # beside a section, configparser would copy radius into [graph]
        ("[DEFAULT]\nradius = 7\n[graph]\nfamily = square\n", ["'radius'"]),
    ], ids=["alone", "beside-graph"])
    def test_default_section_key_exits_two(self, tmp_path, capsys, text, keys):
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["generate", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[DEFAULT]" in err
        assert all(key in err for key in keys)
        assert not out.exists()

    def test_percent_in_a_value_is_literal(self, tmp_path):
        # with configparser's default interpolation a lone '%' raised
        # InterpolationSyntaxError from parser.items, a traceback for any command
        out = tmp_path / "runs" / "50%done"
        path = write_config(tmp_path, f"[graph]\nradius = 3\n[output]\ndir = {out}\n")
        assert load_config(path).out_dir == str(out)
        assert main(["generate", "--config", path]) == 0
        assert (out / "manifest.json").is_file()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/exp.ini")

    def test_flags_win_over_config(self, tmp_path):
        path = write_config(tmp_path, "[percolation]\np = 0.4\nseed = 1\n")
        args = build_parser().parse_args(
            ["percolate", "--config", path, "--p", "0.2", "--seed", "77"]
        )
        cfg = merge_flags(load_config(path), args)
        assert cfg.p == 0.2
        assert cfg.master_seed == 77

    def test_window_must_fit_inside_patch(self):
        # the window keeps a margin of 1 inside the patch
        cfg = ExperimentConfig(radius=20.0, counting_radius=25.0)
        with pytest.raises(ConfigError, match="exceeds generation radius"):
            cfg.validate("ids")
        cfg = ExperimentConfig(radius=20.0, counting_radius=19.5)
        with pytest.raises(ConfigError, match="exceeds generation radius"):
            cfg.validate("ids")
        ExperimentConfig(radius=20.0, counting_radius=19.0).validate("ids")

    def test_invalid_fields_collected(self):
        cfg = ExperimentConfig(p=1.5, fmt="yaml", threads=0, family="hexagonal")
        with pytest.raises(ConfigError) as err:
            cfg.validate("generate")
        msg = str(err.value)
        for fragment in ("percolation.p", "output.format", "run.threads", "graph.family"):
            assert fragment in msg

    @pytest.mark.parametrize("e_max", [math.inf, -math.inf, math.nan])
    def test_non_finite_e_max_is_named(self, e_max):
        # checked here, not through main: an unchecked e_max = inf would
        # grow the energy grid until memory runs out
        cfg = ExperimentConfig(radius=20.0, counting_radius=15.0, e_min=0.1, e_max=e_max)
        with pytest.raises(ConfigError) as err:
            cfg.validate("ids")
        assert "ids.e_max" in str(err.value)
        assert "ids.e_min" not in str(err.value)

    def test_energy_grid(self):
        # the grid ends in the top anchor 9
        cfg = ExperimentConfig(e_min=0.05, e_max=0.5, per_decade=12)
        grid = cfg.energy_grid(4, 1e4)
        assert grid[-1] == 9.0
        assert grid.max() == 9.0 and grid.min() >= 0.05
        body = grid[:-1]
        assert body[-1] == 0.5
        ratios = body[1:] / body[:-1]
        assert np.allclose(ratios, 10 ** (1 / 12.0))
        assert body.min() == pytest.approx(0.05, rel=0.2)

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["ids", "--wat", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        # each prefix names one flag only, which argparse would pick silently
        ["census", "--p", "0.3"],  # --pattern-radius
        ["percolate", "--n", "5"],  # --n-max
        ["ids", "--count", "5"],  # --counting-radius
    ], ids=lambda argv: argv[1])
    def test_abbreviated_flag_exits_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["generate", "--threads", "2"],
        ["census", "--seed", "3"],
        ["percolate", "--n-max", "5", "--format", "json"],
        ["verify", "--family", "penrose"],
    ], ids=lambda argv: argv[0])
    def test_flag_the_command_does_not_read_exits_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


# an INI value and a different flag value for a setting of each type
SAMPLE_VALUES = {float: ("0.37", 0.41), int: ("7", 11), str: ("from-ini", "from-flag")}


class TestSettings:
    def test_one_row_per_field(self):
        names = [s.field for s in cli._SETTINGS]
        assert sorted(names) == sorted(f.name for f in fields(ExperimentConfig))
        assert len(set(names)) == len(names) == 14
        assert len({(s.section, s.key) for s in cli._SETTINGS}) == 14
        assert len({s.flag for s in cli._SETTINGS}) == 14
        # each command takes only the flags it reads
        assert sum(len(s.commands) for s in cli._SETTINGS) == 39

    @pytest.mark.parametrize("setting", cli._SETTINGS, ids=lambda s: s.flag)
    def test_ini_key_and_flag_set_the_field(self, tmp_path, setting):
        ini_value, flag_value = SAMPLE_VALUES[setting.type]
        path = write_config(tmp_path, f"[{setting.section}]\n{setting.key} = {ini_value}\n")
        from_ini = load_config(path)
        assert getattr(from_ini, setting.field) == setting.type(ini_value)
        for command in cli._COMMANDS:
            # a subcommand has a destination for each flag it takes
            args = build_parser().parse_args([command])
            assert hasattr(args, setting.field) == (command in setting.commands)
        for command in setting.commands:
            args = build_parser().parse_args(
                [command, "--config", path, setting.flag, str(flag_value)]
            )
            cfg = merge_flags(load_config(path), args)
            assert getattr(cfg, setting.field) == flag_value

    # the configuration each benchmark workload runs with, at seed 3
    WORKLOAD_CONFIGS = {
        "census-penrose": {
            "family": "penrose", "radius": 20.0, "counting_radius": None,
            "pattern_radius": 0.9, "p": 0.2, "realizations": 100, "master_seed": 1,
            "n_max": 20, "e_min": None, "e_max": 0.5, "per_decade": 12,
            "out_dir": "out", "fmt": "csv", "threads": 1,
        },
        "ids-ab": {
            "family": "ammann_beenker", "radius": 45.0, "counting_radius": 38.0,
            "pattern_radius": 1.1, "p": 0.13, "realizations": 300, "master_seed": 3,
            "n_max": 20, "e_min": None, "e_max": 0.8, "per_decade": 12,
            "out_dir": "out", "fmt": "csv", "threads": 2,
        },
        "lifshits-square": {
            "family": "square", "radius": 150.0, "counting_radius": 140.0,
            "pattern_radius": 1.1, "p": 0.1, "realizations": 100, "master_seed": 3,
            "n_max": 20, "e_min": 0.05, "e_max": 0.8, "per_decade": 12,
            "out_dir": "out", "fmt": "csv", "threads": 1,
        },
    }

    def test_benchmark_workloads_parse_unchanged(self, monkeypatch):
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        assert sorted(run.WORKLOADS) == sorted(self.WORKLOAD_CONFIGS)
        for workload, expected in self.WORKLOAD_CONFIGS.items():
            args = build_parser().parse_args(run.child_argv(workload, 3, Path("out")))
            assert asdict(merge_flags(ExperimentConfig(), args)) == expected, workload


class TestJsonText:
    """``_json_text`` writes numpy values exactly as their ``tolist()`` and
    ``float`` forms, so a report serialized through ``asdict`` keeps the
    bytes of its hand-converted form, and writes strict JSON."""

    def test_numpy_values_match_their_python_forms(self):
        floats = np.array([0.1, 1.0 / 3.0, 2.5e-300, -0.0, np.inf, 1e22])
        flags = np.array([True, False, True])
        grid = np.arange(6.0).reshape(2, 3) / 7.0
        scalar = np.float64(1.0) / 7.0
        numpy_values = {"floats": floats, "flags": flags, "grid": grid, "scalar": scalar,
                        "count": np.int64(7), "flag": np.bool_(True), "empty": np.empty(0)}
        python_values = {"floats": floats.tolist(), "flags": flags.tolist(),
                         "grid": grid.tolist(), "scalar": float(scalar), "count": 7,
                         "flag": True, "empty": []}
        assert cli._json_text(numpy_values) == cli._json_text(python_values)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("radius", [0.5, 3.0, 12.0])
    def test_geometry_text_as_with_string_degree_keys(self, family, radius):
        # integer degree keys are sorted before they become strings; with
        # one-digit degrees that is the order of the string keys
        fields = asdict(geometry_report(generate(family, radius)))
        keyed = {str(k): v for k, v in sorted(fields["degree_histogram"].items())}
        assert cli._json_text(fields) == cli._json_text({**fields, "degree_histogram": keyed})

    def test_one_vertex_geometry_is_strict_json(self, tmp_path):
        # one vertex has no pair to measure: its separation and r are inf
        # in the report, and null in geometry.json
        assert geometry_report(generate("square", 0.5)).r == math.inf
        assert main(["generate", "--family", "square", "--radius", "0.5",
                     "--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        geometry = json.loads((tmp_path / "geometry.json").read_text(), parse_constant=reject)
        assert geometry["vertex_count"] == 1
        assert geometry["min_pairwise_distance"] is None
        assert geometry["r"] is None


class TestSubcommands:
    def test_generate_writes_graph_and_manifest(self, tmp_path):
        out = tmp_path / "gen"
        code = main(
            ["generate", "--family", "square", "--radius", "6", "--out", str(out)]
        )
        assert code == 0
        graph = (out / "graph.txt").read_bytes()
        assert graph.startswith(b"basis square")
        geometry = json.loads((out / "geometry.json").read_text())
        assert geometry["d_max"] == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["code_version"]
        assert manifest["output_sha256"]["graph.txt"] == hashlib.sha256(graph).hexdigest()
        assert "total" in manifest["wall_clock_s"]

    def test_config_error_exit_code(self, tmp_path):
        code = main(
            [
                "ids", "--family", "square", "--radius", "20",
                "--counting-radius", "25", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_exits_two(self, tmp_path, capsys, seed):
        code = main(
            [
                "ids", "--family", "square", "--radius", "12",
                "--counting-radius", "8", "--realizations", "2",
                "--seed", str(seed), "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "percolation.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,key", [
        (["ids", "--radius", "nan", "--counting-radius", "15"], "graph.radius"),
        (["ids", "--radius", "20", "--counting-radius", "nan"], "ids.counting_radius"),
        (["ids", "--radius", "20", "--counting-radius", "inf"], "ids.counting_radius"),
        (["ids", "--radius", "20", "--counting-radius", "15", "--e-min", "0.1",
          "--e-max", "nan"], "ids.e_max"),
        (["census", "--radius", "12", "--pattern-radius", "nan"], "patterns.pattern_radius"),
        (["census", "--radius", "12", "--pattern-radius", "inf"], "patterns.pattern_radius"),
        (["generate", "--radius", "inf"], "graph.radius"),
        (["generate", "--radius", "nan"], "graph.radius"),
    ])
    def test_non_finite_setting_exits_two(self, tmp_path, capsys, argv, key):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err
        assert not out.exists()

    def test_census_square_stable(self, tmp_path):
        out = tmp_path / "census"
        code = main(
            [
                "census", "--family", "square", "--radius", "16",
                "--pattern-radius", "1.2", "--out", str(out),
            ]
        )
        assert code == 0
        verdict = json.loads((out / "census.json").read_text())
        assert verdict["flc_stable"] is True
        assert verdict["distinct"] == 1
        lines = (out / "census.csv").read_text().strip().splitlines()
        assert lines[0] == "radius,n,count,volume,frequency"
        assert len(lines) == 2

    @pytest.mark.parametrize("radius,pattern_radius", [("1", "1.5"), ("3", "1.6")])
    def test_census_without_half_radius_centres_exits_two(
        self, tmp_path, capsys, radius, pattern_radius
    ):
        # an empty half-radius census would compare 0 classes: "stable" at
        # radius 1 (nothing on either patch), "UNSTABLE" at radius 3
        out = tmp_path / "census"
        code = main(
            [
                "census", "--family", "square", "--radius", radius,
                "--pattern-radius", pattern_radius, "--out", str(out),
            ]
        )
        assert code == 2
        assert "patterns.pattern_radius" in capsys.readouterr().err
        assert not out.exists()

    def test_percolate_outputs(self, tmp_path):
        out = tmp_path / "perc"
        code = main(
            [
                "percolate", "--family", "square", "--radius", "45",
                "--p", "0.2", "--realizations", "20", "--seed", "3",
                "--n-max", "8", "--out", str(out),
            ]
        )
        assert code == 0
        bounds = json.loads((out / "bounds.json").read_text())
        assert bounds["p_c_lower"] == pytest.approx(1 / 3)
        assert bounds["holds_subcritical"] is True
        assert bounds["lambda_decay"] == pytest.approx(
            1.0 / (2.0 * bounds["chi_hat"] ** 2)
        )
        lines = (out / "clusters.csv").read_text().strip().splitlines()
        stats = {line.split(",")[0] for line in lines[1:]}
        assert stats == {"cluster_size_tail", "boundary_path", "mean_cluster_size"}

    @pytest.mark.parametrize(
        "flags,keys",
        [
            (["--radius", "45", "--p", "0"], ["percolation.p"]),
            (["--radius", "45", "--p", "1"], ["percolation.p"]),
            (["--radius", "15"], ["graph.radius", "percolation.n_max"]),
            (["--radius", "30", "--n-max", "40"], ["graph.radius", "percolation.n_max"]),
        ],
    )
    def test_percolate_bad_input_exits_two_before_sampling(
        self, tmp_path, capsys, monkeypatch, flags, keys
    ):
        sampled = []
        monkeypatch.setattr(percolation, "sample", lambda *args: sampled.append(args))
        out = tmp_path / "perc"
        code = main(["percolate", "--family", "square", *flags, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys)
        assert sampled == []
        assert not out.exists()

    def test_ids_csv_structure(self, tmp_path):
        out = tmp_path / "ids"
        code = main(
            [
                "ids", "--family", "square", "--radius", "12",
                "--counting-radius", "8", "--p", "0.2", "--realizations", "12",
                "--seed", "5", "--e-min", "0.1", "--e-max", "0.5", "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "ids.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["E", "N", "N_stderr", "N_minus_N0", "tail_stderr"]
        first = lines[1].split(",")
        assert float(first[0]) == 0.0  # the grid always contains E = 0
        assert float(first[3]) == 0.0  # N(0) - N(0)
        # N is nondecreasing in E (counting function), anchor row included
        ns = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(ns, ns[1:]))

    def test_ids_json_format(self, tmp_path):
        out = tmp_path / "idsj"
        code = main(
            [
                "ids", "--family", "square", "--radius", "12",
                "--counting-radius", "8", "--p", "0.2", "--realizations", "8",
                "--seed", "5", "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        assert not (out / "ids.csv").exists()
        table = json.loads((out / "ids.json").read_text())
        assert table["realizations"] + table["truncated_realizations"] == 8
        assert len(table["energies"]) == len(table["mean"])

    def test_ids_default_counting_radius_keeps_realizations(self, tmp_path):
        # 11277 vertices * 2 e^{-13 ln(10/3)} <= 0.01, so the margin is
        # l_max + 13 = 14; the old default of radius - 1 dropped all 100
        out = tmp_path / "ids"
        code = main(
            [
                "ids", "--family", "square", "--radius", "60", "--p", "0.1",
                "--realizations", "100", "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["counting_radius"] == 46.0
        table = json.loads((out / "ids.json").read_text())
        assert table["counting_radius"] == 46.0
        assert table["truncated_realizations"] == 0
        assert table["realizations"] == 100

    def test_ids_default_counting_radius_without_window_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        sampled = []
        monkeypatch.setattr(percolation, "sample", lambda *args: sampled.append(args))
        out = tmp_path / "ids"
        code = main(
            [
                "ids", "--family", "ammann_beenker", "--radius", "20", "--p", "0.1",
                "--realizations", "10", "--out", str(out),
            ]
        )
        assert code == 2
        assert "ids.counting_radius" in capsys.readouterr().err
        assert sampled == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ids", "lifshits"])
    def test_default_counting_radius_on_empty_patch_exits_two(self, tmp_path, capsys, command):
        # a Penrose patch of radius 0.6 has no vertices
        out = tmp_path / command
        code = main(
            [
                command, "--family", "penrose", "--radius", "0.6", "--p", "0.1",
                "--realizations", "100", "--out", str(out),
            ]
        )
        assert code == 2
        assert "ids.counting_radius" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ids", "lifshits"])
    def test_window_without_vertices_exits_two(self, tmp_path, capsys, monkeypatch, command):
        # no Penrose vertex lies within 0.1 of the origin, so every N(E) would be 0
        sampled = []
        monkeypatch.setattr(percolation, "sample", lambda *args: sampled.append(args))
        out = tmp_path / command
        code = main(
            [
                command, "--family", "penrose", "--radius", "20", "--counting-radius", "0.1",
                "--p", "0.1", "--realizations", "100", "--e-min", "0.05", "--out", str(out),
            ]
        )
        assert code == 2
        assert "ids.counting_radius" in capsys.readouterr().err
        assert sampled == []
        assert not out.exists()

    def test_lifshits_e_max_at_top_anchor_exits_two(self, tmp_path, capsys, monkeypatch):
        # the top anchor E = 9 would otherwise sit among the tail-fit points
        sampled = []
        monkeypatch.setattr(percolation, "sample", lambda *args: sampled.append(args))
        out = tmp_path / "lifshits"
        code = main(
            [
                "lifshits", "--family", "square", "--radius", "40", "--counting-radius", "36",
                "--p", "0.1", "--realizations", "120", "--e-min", "0.1", "--e-max", "12",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 2
        assert "ids.e_max" in capsys.readouterr().err
        assert sampled == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ids", "lifshits"])
    def test_p_zero_without_e_min_exits_two(self, tmp_path, capsys, command):
        out = tmp_path / command
        code = main(
            [
                command, "--family", "square", "--radius", "20", "--counting-radius", "10",
                "--p", "0", "--realizations", "5", "--out", str(out),
            ]
        )
        assert code == 2
        assert "percolation.p" in capsys.readouterr().err
        assert not out.exists()

    def test_ids_p_zero_with_e_min_counts_singletons(self, tmp_path):
        # no open edge in any realization: every window vertex is a
        # singleton, so N(E) is the window density at every energy
        out = tmp_path / "ids"
        code = main(
            [
                "ids", "--family", "square", "--radius", "20", "--counting-radius", "10",
                "--p", "0", "--realizations", "5", "--e-min", "0.1", "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        table = json.loads((out / "ids.json").read_text())
        assert table["realizations"] == 5
        density = table["window_vertices"] / table["volume"]
        assert np.allclose(table["mean"], density)

    def test_lifshits_insufficient_data_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "lifshits", "--family", "square", "--radius", "12",
                "--counting-radius", "8", "--p", "0.1", "--realizations", "100",
                "--seed", "5", "--out", str(tmp_path / "lif"),
            ]
        )
        assert code == 1
        assert "only 4 grid points are reliable" in capsys.readouterr().err

    def test_lifshits_under_certify_floor_exits_two(self, tmp_path, capsys, monkeypatch):
        # the bracket needs 100 realizations: 99 is refused before sampling
        sampled = []
        monkeypatch.setattr(percolation, "sample", lambda *args: sampled.append(args))
        out = tmp_path / "lifshits"
        code = main(
            [
                "lifshits", "--family", "square", "--radius", "60", "--counting-radius", "55",
                "--p", "0.1", "--realizations", "99", "--e-min", "0.05", "--e-max", "0.8",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "percolation.realizations = 99" in capsys.readouterr().err
        assert sampled == []
        assert not out.exists()
        ExperimentConfig(realizations=100).validate("lifshits")
        ExperimentConfig(realizations=99).validate("ids")

    def test_verify_passes(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["all_pass"] is True
        assert len(report["checks"]) >= 8
        assert all(c["pass"] for c in report["checks"])

    # a short passing run of each command
    SHORT_RUNS = {
        "generate": ["--radius", "6"],
        "census": ["--radius", "8", "--pattern-radius", "1.2"],
        "percolate": ["--radius", "45", "--p", "0.15", "--realizations", "2", "--n-max", "6"],
        "ids": ["--radius", "12", "--counting-radius", "8", "--realizations", "2"],
        "lifshits": ["--radius", "40", "--counting-radius", "36", "--p", "0.1",
                     "--realizations", "120", "--e-min", "0.1", "--e-max", "0.8", "--seed", "7"],
        "verify": [],
    }

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_manifest_records_the_settings_the_command_reads(self, tmp_path, command):
        out = tmp_path / command
        assert main([command, *self.SHORT_RUNS[command], "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert set(config) == {s.field for s in cli._SETTINGS if command in s.commands}

    @pytest.mark.parametrize("command", ["generate", "census"])
    def test_manifest_of_a_command_that_samples_no_bonds_has_no_seed(self, tmp_path, command):
        out = tmp_path / command
        assert main([command, *self.SHORT_RUNS[command], "--out", str(out)]) == 0
        assert "master_seed" not in json.loads((out / "manifest.json").read_text())

    def test_ids_manifest_keeps_its_seed(self, tmp_path):
        out = tmp_path / "ids"
        assert main(["ids", *self.SHORT_RUNS["ids"], "--seed", "5", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == 5

    def test_manifest_stage_times_keep_microseconds(self):
        # a census stage of a few ms would otherwise move in 1 ms steps
        manifest = cli.RunManifest("census", {}, "0", None,
                                   wall_clock_s={"census": 0.0054321, "total": 1.25})
        assert json.loads(manifest.to_json())["wall_clock_s"] == {"census": 0.005432,
                                                                  "total": 1.25}

    def test_verify_manifest_leaves_out_unread_ini_settings(self, tmp_path):
        path = write_config(
            tmp_path, "[graph]\nfamily = penrose\nradius = 30\n[run]\nthreads = 4\n"
        )
        out = tmp_path / "verify"
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {"out_dir": str(out)}


class TestDeterminism:
    def test_ids_byte_identical_across_threads(self, tmp_path, monkeypatch):
        # as many usable CPUs as the largest --threads, so each run starts
        # the chunks it names whatever the host
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        ids = [
            "ids", "--family", "square", "--radius", "14",
            "--counting-radius", "10", "--p", "0.25", "--realizations", "30",
            "--seed", "21", "--e-min", "0.08", "--e-max", "0.5",
        ]
        # chi in lifshits.json comes from the estimator's chunks, so it
        # must not depend on the chunking either (5 of 110 are truncated)
        lifshits = [
            "lifshits", "--family", "square", "--radius", "30",
            "--counting-radius", "26", "--p", "0.1", "--realizations", "110",
            "--seed", "7", "--e-min", "0.1", "--e-max", "0.8",
        ]
        for base, names, thread_counts in (
            (ids, ["ids.csv"], ("1", "4", "3")),
            (lifshits, ["ids.csv", "lifshits.json", "lifshits.csv"], ("1", "3")),
        ):
            blobs = []
            for threads in thread_counts:
                out = tmp_path / f"{base[0]}-{threads}"
                assert main(base + ["--threads", threads, "--out", str(out)]) == 0
                blobs.append([(out / name).read_bytes() for name in names])
            assert all(b == blobs[0] for b in blobs[1:])

    def test_thread_count_capped_at_usable_cpus(self, tmp_path, monkeypatch):
        # a serial stand-in for the pool records the worker count without
        # starting any threads, and a spy counts the estimator chunks: one
        # per worker, capped at the usable CPUs and at the realizations
        workers, chunks = [], []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        estimate = cli.ids_estimate

        def spy(*args, **kwargs):
            chunks.append(kwargs["realization_offset"])
            return estimate(*args, **kwargs)

        base = [
            "ids", "--family", "square", "--radius", "12",
            "--counting-radius", "8", "--p", "0.2", "--seed", "9",
        ]
        for name, argv in (("one", ["--threads", "1", "--realizations", "64"]),
                           ("few", ["--threads", "1", "--realizations", "3"])):
            assert main(base + argv + ["--out", str(tmp_path / name)]) == 0
        monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "ids_estimate", spy)
        cpus = cli._usable_cpus()
        assert main(base + ["--threads", "64", "--realizations", "64",
                            "--out", str(tmp_path / "many")]) == 0
        assert workers == [min(64, cpus)]
        assert len(chunks) == min(64, cpus)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
        chunks.clear()
        assert main(base + ["--threads", "4", "--realizations", "3",
                            "--out", str(tmp_path / "capped")]) == 0
        assert workers[-1] == 3
        assert chunks == [0, 1, 2]
        for serial, chunked in (("one", "many"), ("few", "capped")):
            a, b = ((tmp_path / d / "ids.csv").read_bytes() for d in (serial, chunked))
            assert a == b

    @pytest.mark.parametrize("threads", [3, 6])
    def test_wholly_truncated_chunks_stack_between_kept_ones(self, monkeypatch, threads):
        # realizations 0 and 5 are kept and 1-4 truncated, so at 3 threads
        # the middle chunk and at 6 threads four chunks keep no row
        monkeypatch.setattr(cli, "_usable_cpus", lambda: threads)
        cfg = ExperimentConfig(family="square", radius=12.0, counting_radius=9.0, p=0.2,
                               realizations=6, master_seed=1)
        g = generate(cfg.family, cfg.radius)
        grid = cfg.energy_grid(g.d_max, math.pi * 64.0)
        kept = [cli._ids_chunk(cfg, g, grid, None, i, i + 1).realizations for i in range(6)]
        assert kept == [1, 0, 0, 0, 0, 1]
        serial = cli.run_ids(cfg, g, grid, chi_margin=2.0)
        cfg.threads = threads
        chunked = cli.run_ids(cfg, g, grid, chi_margin=2.0)
        assert chunked.rows.shape[0] == 2
        assert chunked.rows.tobytes() == serial.rows.tobytes()
        assert chunked.chi.shape[0] == 6
        assert chunked.chi.tobytes() == serial.chi.tobytes()
        assert chunked.truncated_realizations == serial.truncated_realizations == 4

    def test_threads_where_affinity_is_unknown(self, tmp_path, monkeypatch):
        # os.sched_getaffinity exists only on some systems; elsewhere the
        # worker cap falls back to os.cpu_count()
        monkeypatch.delattr(os, "sched_getaffinity")
        base = [
            "ids", "--family", "square", "--radius", "12",
            "--counting-radius", "8", "--p", "0.2", "--realizations", "16",
            "--seed", "9",
        ]
        for threads in ("1", "2"):
            assert main(base + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
        one, two = ((tmp_path / d / "ids.csv").read_bytes() for d in ("1", "2"))
        assert one == two

    def test_manifest_checksums_match_files(self, tmp_path):
        out = tmp_path / "m"
        assert (
            main(
                [
                    "percolate", "--family", "square", "--radius", "45",
                    "--p", "0.15", "--realizations", "10", "--seed", "8",
                    "--n-max", "6", "--out", str(out),
                ]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["output_sha256"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_seed_changes_output(self, tmp_path):
        base = [
            "ids", "--family", "square", "--radius", "12",
            "--counting-radius", "8", "--p", "0.3", "--realizations", "10",
        ]
        a, b = tmp_path / "s1", tmp_path / "s2"
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert (a / "ids.csv").read_bytes() != (b / "ids.csv").read_bytes()
