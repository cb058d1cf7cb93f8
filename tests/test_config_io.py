"""Config parsing, CSV/manifest emission, scenario runs, and the CLI."""

import csv
import json
import math
import os

import pytest

from cptsim import symmetrizing_detuning
from cptsim.cli import main
from cptsim.config import ConfigError, parse_config, serialize_config
from cptsim.runner import emit_csv, run_scenario
from cptsim.timedomain import integrate_ground_state

TWO_PI = 2.0 * math.pi

BASE_YAML = """
atom:
  omega_g_mhz: 6834.682610904
  omega_e_mhz: 816.656
  gamma_opt_mhz: 330.0
  gamma_g_hz: 300.0
  gamma_e_mhz: 6.0
  delta_l_mhz: -28.0
modulation:
  a: 0.2
  omega_m_hz: 600.0
spectrum:
  m: 2.4
  rabi_khz: 750.0
sweep:
  axis: m
  start: 2.0
  stop: 2.8
  points: 9
  path: linearized
"""


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(BASE_YAML)
        assert cfg.spectrum.k_max == 5
        assert cfg.spectrum.epsilon == 0.0
        assert cfg.atom.dipole_ratio_sq == pytest.approx(1.0 / 3.0)
        assert cfg.modulation.alpha == 0.0
        assert cfg.output.dir == "out"
        assert cfg.output.prefix == "sweep"
        assert cfg.sweep.path == "linearized"
        assert cfg.cell is None

    def test_unit_conversion(self):
        atom = parse_config(BASE_YAML).atom.to_params()
        assert atom.omega_g == pytest.approx(TWO_PI * 6.834682610904e9)
        assert atom.Gamma == pytest.approx(TWO_PI * 330e6)
        assert atom.Gamma_g == pytest.approx(TWO_PI * 300.0)
        assert atom.Delta_L == pytest.approx(-TWO_PI * 28e6)

    def test_null_delta_l_solves_symmetrizing_value(self):
        cfg = parse_config(BASE_YAML.replace("  delta_l_mhz: -28.0\n", ""))
        assert cfg.atom.delta_l_mhz is None
        expected = symmetrizing_detuning(TWO_PI * 330e6, TWO_PI * 816.656e6)
        assert cfg.atom.resolved_delta_l() == pytest.approx(expected, rel=1e-12)

    def test_collects_every_error(self):
        bad = BASE_YAML.replace("gamma_opt_mhz: 330.0", "gamma_opt_mhz: -1.0")
        bad = bad.replace("a: 0.2", "a: -0.5")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        msg = str(err.value)
        assert "atom.gamma_opt_mhz" in msg
        assert "modulation.a" in msg

    @pytest.mark.parametrize(
        "old,new",
        [
            ("a: 0.2", "a: 0.2\n  alpha: .nan"),
            ("a: 0.2", "a: 0.2\n  alpha: .inf"),
            ("a: 0.2", "a: .nan"),
            ("omega_m_hz: 600.0", "omega_m_hz: .inf"),
            ("rabi_khz: 750.0", "rabi_khz: .inf"),
        ],
    )
    def test_rejects_non_finite_floats(self, old, new):
        with pytest.raises(ConfigError, match="finite number"):
            parse_config(BASE_YAML.replace(old, new))

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="omega_q_mhz"):
            parse_config(BASE_YAML + "\n" + "cell:\n  length_m: 0.02\n  omega_q_mhz: 1\n")

    def test_rejects_non_yaml_and_empty(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config("atom: [unclosed")
        with pytest.raises(ConfigError, match="empty configuration"):
            parse_config("")
        with pytest.raises(ConfigError, match="mapping"):
            parse_config("- 1\n- 2\n")

    def test_thick_path_requires_cell(self):
        bad = BASE_YAML.replace("path: linearized", "path: thick")
        with pytest.raises(ConfigError, match="cell block is required"):
            parse_config(bad)

    def test_epsilon_axis_range(self):
        bad = BASE_YAML.replace(
            "axis: m\n  start: 2.0\n  stop: 2.8",
            "axis: epsilon\n  start: -0.5\n  stop: 1.5",
        )
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(bad)

    def test_power_axis_positive(self):
        bad = BASE_YAML.replace(
            "axis: m\n  start: 2.0\n  stop: 2.8",
            "axis: power\n  start: 0.0\n  stop: 2.0",
        )
        with pytest.raises(ConfigError, match="must be > 0"):
            parse_config(bad)

    def test_m_axis_needs_three_points(self):
        bad = BASE_YAML.replace("points: 9", "points: 2")
        with pytest.raises(ConfigError, match="points >= 3"):
            parse_config(bad)

    def test_points_bounded(self):
        assert parse_config(BASE_YAML.replace("points: 9", "points: 1000"))
        with pytest.raises(ConfigError, match="sweep.points"):
            parse_config(BASE_YAML.replace("points: 9", "points: 1001"))

    def test_descending_range_rejected(self):
        bad = BASE_YAML.replace("stop: 2.8", "stop: 1.5")
        with pytest.raises(ConfigError, match="must exceed start"):
            parse_config(bad)

    def test_curves_exactly_one(self):
        extra = (
            "  curves:\n"
            "    omega_m_hz: [300.0, 600.0]\n"
            "    epsilon: [0.0, 0.2]\n"
        )
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(BASE_YAML + extra)
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(BASE_YAML + "  curves:\n    beta_l: []\n")

    def test_beta_curves_require_cell(self):
        with pytest.raises(ConfigError, match="cell block is required"):
            parse_config(BASE_YAML + "  curves:\n    beta_l: [0.0, 0.2]\n")

    def test_serialize_round_trip(self):
        cfg = parse_config(BASE_YAML + "cell:\n  length_m: 0.02\n")
        assert parse_config(serialize_config(cfg)) == cfg


class TestEmitCsv:
    def test_twelve_significant_digits(self, tmp_path):
        path = str(tmp_path / "x.csv")
        emit_csv(path, ["a", "b"], [(math.pi, 1.0 / 3.0)])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["3.14159265359", "0.333333333333"]]

    def test_header_only_and_trailing_newline(self, tmp_path):
        path = str(tmp_path / "x.csv")
        emit_csv(path, ["a", "b"], [])
        with open(path, "rb") as fh:
            data = fh.read()
        assert data == b"a,b\n"

    def test_mixed_cell_types(self, tmp_path):
        path = str(tmp_path / "x.csv")
        emit_csv(path, ["k", "v", "f", "n"], [("IP", True, 2.5, None)])
        _, rows = read_csv(path)
        assert rows == [["IP", "true", "2.5", ""]]

    def test_row_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="row width"):
            emit_csv(str(tmp_path / "x.csv"), ["a", "b"], [(1.0,)])


class TestRunScenario:
    def test_m_sweep_outputs(self, tmp_path):
        cfg = parse_config(BASE_YAML)
        result = run_scenario(cfg, out_dir=str(tmp_path))
        assert result.csv_paths == (str(tmp_path / "sweep.csv"),)
        assert result.roots_paths == (str(tmp_path / "sweep_roots.csv"),)

        header, rows = read_csv(result.csv_paths[0])
        assert header == ["m", "E2", "delta0_hz", "dDelta0_dE2"]
        # refinement may add grid points near the IP, never drop any
        assert len(rows) >= 9
        assert float(rows[0][0]) == pytest.approx(2.0)
        assert float(rows[-1][0]) == pytest.approx(2.8)

        header, rows = read_csv(result.roots_paths[0])
        assert header == ["kind", "m", "delta0_hz", "nearest_pzd_m", "m_gap"]
        kinds = [r[0] for r in rows]
        assert kinds.count("IP") == 1
        assert kinds.count("PZD") == 1
        pzd_m = float(rows[kinds.index("PZD")][1])
        assert pzd_m == pytest.approx(2.404826, abs=1e-2)

    def test_manifest_contents(self, tmp_path):
        cfg = parse_config(BASE_YAML)
        result = run_scenario(cfg, out_dir=str(tmp_path))
        with open(result.manifest_path) as fh:
            manifest = json.load(fh)
        assert set(manifest) == {"version", "config", "resolved", "curves"}
        assert manifest["resolved"]["Delta_L_hz"] == pytest.approx(-28e6)
        assert manifest["config"]["spectrum"]["rabi_khz"] == 750.0
        assert len(manifest["curves"]) == 1
        assert manifest["curves"][0]["records"].endswith("sweep.csv")

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = parse_config(BASE_YAML)
        result = run_scenario(cfg, out_dir=str(tmp_path))
        paths = result.csv_paths + result.roots_paths + (result.manifest_path,)
        first = {}
        for p in paths:
            with open(p, "rb") as fh:
                first[p] = fh.read()
        run_scenario(cfg, out_dir=str(tmp_path))
        for p in paths:
            with open(p, "rb") as fh:
                assert fh.read() == first[p], p

    def test_manifest_does_not_depend_on_out_dir(self, tmp_path):
        # outputs are named relative to the manifest, not by absolute path
        cfg = parse_config(BASE_YAML)
        manifests = []
        for name in ("m1", "m1_longer_dir"):
            result = run_scenario(cfg, out_dir=str(tmp_path / name))
            with open(result.manifest_path, "rb") as fh:
                manifests.append(fh.read())
        assert manifests[0] == manifests[1]
        curve = json.loads(manifests[0])["curves"][0]
        assert (curve["records"], curve["roots"]) == ("sweep.csv", "sweep_roots.csv")

    def test_epsilon_curves_multiplex_files(self, tmp_path):
        yaml_text = BASE_YAML.replace("points: 9", "points: 3")
        yaml_text = yaml_text.replace("axis: m", "axis: power")
        yaml_text = yaml_text.replace("start: 2.0", "start: 0.5")
        yaml_text = yaml_text.replace("stop: 2.8", "stop: 1.5")
        yaml_text += "  curves:\n    epsilon: [0.0, 0.2]\n"
        cfg = parse_config(yaml_text)
        result = run_scenario(cfg, out_dir=str(tmp_path))
        names = [os.path.basename(p) for p in result.csv_paths]
        assert names == ["sweep_eps0.csv", "sweep_eps0.2.csv"]
        assert result.roots_paths == ()
        for p in result.csv_paths:
            header, rows = read_csv(p)
            assert header == ["power_scale", "E2", "delta0_hz", "dDelta0_dE2"]
            assert len(rows) == 3
        with open(result.manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["curves"][1]["curve"] == {"epsilon": 0.2}

    def test_empty_grid_writes_header_only(self, tmp_path):
        cfg = parse_config(BASE_YAML.replace("points: 9", "points: 0"))
        result = run_scenario(cfg, out_dir=str(tmp_path))
        with open(result.csv_paths[0], "rb") as fh:
            assert fh.read() == b"m,E2,delta0_hz,dDelta0_dE2\n"
        with open(result.roots_paths[0], "rb") as fh:
            assert fh.read() == b"kind,m,delta0_hz,nearest_pzd_m,m_gap\n"


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def run_shipped(name, tmp_path):
    with open(os.path.join(CONFIGS, f"{name}.yaml"), encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    return run_scenario(cfg, out_dir=str(tmp_path))


class TestShippedConfigs:
    """The three configs/ scenarios, pinned to the roots they produce."""

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("thin_m_sweep", [[("IP", 2.4285125708), ("PZD", 2.42758193802)]]),
            (
                "thick_beta_curves",
                [
                    [("IP", 2.40482858148), ("PZD", 2.40482858148)],
                    [("IP", 2.35873926901), ("PZD", 2.36004688054)],
                    [("IP", 2.29026406339), ("PZD", 2.29836101753)],
                ],
            ),
        ],
    )
    def test_m_sweep_roots(self, tmp_path, name, expected):
        result = run_shipped(name, tmp_path)
        assert len(result.roots_paths) == len(expected)
        for path, roots in zip(result.roots_paths, expected):
            _, rows = read_csv(path)
            assert [r[0] for r in rows] == [kind for kind, _ in roots]
            for row, (_, m) in zip(rows, roots):
                assert float(row[1]) == pytest.approx(m, abs=1e-6)

    def test_omega_scan_crossings(self, tmp_path):
        result = run_shipped("omega_m_scan", tmp_path)
        header, rows = read_csv(result.csv_paths[0])
        assert header == ["omega_m_hz", "E2", "delta0_hz", "dDelta0_dE2"]
        assert [r[2] for r in rows] == [
            "1.39187309037", "1.36622016828", "1.34006780297", "1.32038599951",
            "1.3022319184", "1.28153080812", "1.25654844192", "1.22672460262",
            "1.1919506098", "1.15225386916", "1.10769396303", "1.05832714514",
            "1.0041980841",
        ]


class TestCli:
    def write_config(self, tmp_path, text=BASE_YAML):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "axis m" in out

    def test_validate_invalid_config(self, tmp_path, capsys):
        path = self.write_config(tmp_path, BASE_YAML + "typo_block:\n  x: 1\n")
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert "typo_block" in err

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.yaml")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate", "trace"])
    def test_unreadable_path_exits_2(self, tmp_path, capsys, command):
        # a directory exists but cannot be read as a file
        assert main([command, str(tmp_path)]) == 2
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    def test_run_prints_written_paths(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CPTSIM_OUT_DIR", raising=False)
        path = self.write_config(tmp_path)
        out_dir = tmp_path / "results"
        assert main(["run", path, "--out-dir", str(out_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert os.path.isfile(line)
        assert lines[-1].endswith("sweep_manifest.json")

    def test_out_dir_env_and_flag_precedence(self, tmp_path, capsys, monkeypatch):
        path = self.write_config(tmp_path)
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("CPTSIM_OUT_DIR", str(env_dir))
        assert main(["run", path]) == 0
        capsys.readouterr()
        assert (env_dir / "sweep.csv").is_file()

        flag_dir = tmp_path / "from_flag"
        assert main(["run", path, "--out-dir", str(flag_dir)]) == 0
        capsys.readouterr()
        assert (flag_dir / "sweep.csv").is_file()

    def test_run_invalid_config_exits_2(self, tmp_path, capsys):
        path = self.write_config(tmp_path, BASE_YAML.replace("m: 2.4", "m: -1.0"))
        assert main(["run", path]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["harmonic", "linearized", "time-domain"])
    def test_run_flat_signal_exits_1(self, tmp_path, capsys, path):
        # a = 0 makes S identically 0; no crossing may be written for it
        text = BASE_YAML.replace("a: 0.2", "a: 0.0").replace(
            "path: linearized", f"path: {path}"
        )
        config = self.write_config(tmp_path, text)
        assert main(["run", config, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"scenario {config} failed:" in err
        assert "no slope in delta (modulation index a = 0.0)" in err

    def test_sym_detuning_prints_mhz(self, capsys):
        code = main(["sym-detuning", "--gamma", "1000", "--omega-e", "816.656"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "-156.991576"

    def test_sym_detuning_bad_args(self, capsys):
        code = main([
            "sym-detuning", "--gamma", "-5", "--omega-e", "816.656",
        ])
        assert code == 2
        assert "invalid arguments" in capsys.readouterr().err

    def test_trace_writes_csv(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out = str(tmp_path / "trace.csv")
        assert main(["trace", path, "--delta-hz", "50", "--out", out]) == 0
        assert capsys.readouterr().out.strip() == out
        header, rows = read_csv(out)
        assert header == ["t", "rho22", "rho11", "Re_rho21", "Im_rho21", "kappa"]
        assert len(rows) > 200
        assert float(rows[0][0]) == 0.0
        config = parse_config(BASE_YAML)
        atom = config.atom.to_params()
        trace = integrate_ground_state(
            atom,
            config.spectrum.to_spectrum(atom.omega_g / 2.0),
            config.modulation.to_params(),
            TWO_PI * 50.0,
        )
        assert len(rows) == trace.t.size
        assert float(rows[0][5]) == pytest.approx(trace.kappa[0], rel=1e-11)
        assert float(rows[-1][0]) == pytest.approx(trace.t[-1], rel=1e-11)
