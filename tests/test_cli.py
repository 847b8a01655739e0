"""Command-line interface: tables, sweeps, slope fits, design battery.

Commands are exercised through main(argv) so the full parse/dispatch
path runs; file outputs land in tmp_path.
"""

import hashlib
import os
from pathlib import Path

import pytest

from relaylab import cli
from relaylab.cli import (
    CURVE_HEADER,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    main,
    manifest_text,
    parse_sweep_config,
    read_curve_csv,
    spec_echo_text,
)
from relaylab.channel import SystemConfig
from relaylab.simulator import SweepSpec, fit_slope

SMALL_CONFIG = """\
[system]
n_s = 2
n_r = 2
n_d = 2
rate_bpcu = 2.0

[sweep]
snr_grid_db = 5, 10, 15
trials_per_point = 2000
outage_mode = bound
master_seed = 77
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SMALL_CONFIG)
    return path


def _rows(captured: str) -> list[list[str]]:
    return [line.split() for line in captured.strip().splitlines()]


class TestTheoryCommand:
    def test_rate_table(self, capsys):
        assert main(["theory", "--ns", "2", "--nr", "2", "--nd", "2", "--rates", "0.42,2"]) == EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert rows[1][:3] == ["0.42", "2", "4"]
        assert rows[2][:3] == ["2", "1", "1"]

    def test_asymmetric(self, capsys):
        assert main(["theory", "--ns", "2", "--nr", "2", "--nd", "1", "--rates", "0.42"]) == EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert rows[1][:3] == ["0.42", "2", "2"]

    def test_mux_table(self, capsys):
        assert main(["theory", "--ns", "2", "--nr", "4", "--nd", "4", "--mux", "0.5"]) == EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert rows[1] == ["0.5", "1.5"]

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "theory.csv"
        main(["theory", "--ns", "2", "--nr", "2", "--nd", "2", "--rates", "0.42", "--out", str(out)])
        capsys.readouterr()
        assert out.read_text().splitlines()[1].startswith("0.42,2,4")

    def test_malformed_args_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["theory", "--ns", "2", "--nr", "2", "--nd", "2"])  # no rates/mux
        assert info.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_invalid_rate_exit_2(self, capsys):
        assert main(["theory", "--ns", "2", "--nr", "2", "--nd", "2", "--rates", "-1"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "case",  # (the flag the error must name, the arguments after theory)
        [
            ("--ns", ["--ns", "0", "--nr", "2", "--nd", "2", "--rates", "1"]),
            ("--ns", ["--ns", "-1", "--nr", "2", "--nd", "2", "--rates", "1"]),
            ("--nr", ["--ns", "2", "--nr", "0", "--nd", "2", "--mux", "0.5"]),
            ("--nd", ["--ns", "2", "--nr", "2", "--nd", "-3", "--rates", "1"]),
            ("--rates", ["--ns", "2", "--nr", "2", "--nd", "2", "--rates", ","]),
            ("--rates", ["--ns", "2", "--nr", "2", "--nd", "2", "--rates", ""]),
            ("--rates", ["--ns", "2", "--nr", "2", "--nd", "2", "--rates", "nan"]),
            ("--rates", ["--ns", "2", "--nr", "2", "--nd", "2", "--rates", "inf"]),
            ("--rates", ["--ns", "2", "--nr", "2", "--nd", "2", "--rates", "1,x"]),
            ("--rates", ["--ns", "2", "--nr", "2", "--nd", "2", "--rates", "-1"]),
            ("--mux", ["--ns", "2", "--nr", "2", "--nd", "2", "--mux", "nan"]),
            ("--mux", ["--ns", "2", "--nr", "2", "--nd", "2", "--mux", "inf"]),
            ("--mux", ["--ns", "2", "--nr", "2", "--nd", "2", "--mux", "-0.5"]),
            ("--rates", ["--ns", "2", "--nr", "2", "--nd", "2", "--rates", "-1,2"]),  # was argparse's error
            ("--mux", ["--ns", "2", "--nr", "2", "--nd", "2", "--mux", "-.5,1"]),
        ],
    )
    def test_bad_input_exit_2(self, capsys, case):
        flag, argv = case
        assert main(["theory", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert flag in captured.err


class TestArgparseErrors:
    @pytest.mark.parametrize(
        "case",  # (the flag the error must name, the arguments)
        [
            ("--draws", ["design-check", "--shapes", "2x2x2", "--draws", "abc"]),
            ("--rates", ["theory", "--ns", "2", "--nr", "2", "--nd", "2"]),
            ("--out-dir", ["simulate", "--config", "sweep.ini"]),
            ("--mode", ["simulate", "--config", "sweep.ini", "--out-dir", "x", "--mode", "oracle"]),
            ("--min-count", ["slope", "--curve", "curve.csv", "--min-count", "x"]),
        ],
    )
    def test_one_error_line(self, capsys, case):
        flag, argv = case
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert flag in captured.err


class TestSimulateCommand:
    def test_writes_curve_and_manifest(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "run1"
        code = main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert code == EXIT_OK
        csv_lines = (out_dir / "curve.csv").read_text().splitlines()
        assert csv_lines[0] == CURVE_HEADER
        assert len(csv_lines) == 4
        manifest = (out_dir / "manifest.txt").read_text()
        assert "master_seed = 77" in manifest
        assert "tool_version" in manifest

    def test_byte_identical_reruns_across_workers(self, config_path, tmp_path, capsys):
        dirs = [tmp_path / name for name in ("a", "b")]
        main(["simulate", "--config", str(config_path), "--out-dir", str(dirs[0]), "--workers", "1"])
        main(["simulate", "--config", str(config_path), "--out-dir", str(dirs[1]), "--workers", "2"])
        capsys.readouterr()
        assert (dirs[0] / "curve.csv").read_bytes() == (dirs[1] / "curve.csv").read_bytes()

    def test_manifest_reproduces_run(self, config_path, tmp_path, capsys):
        first = tmp_path / "first"
        main(["simulate", "--config", str(config_path), "--out-dir", str(first)])
        second = tmp_path / "second"
        code = main(["simulate", "--config", str(first / "manifest.txt"), "--out-dir", str(second)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert (first / "curve.csv").read_bytes() == (second / "curve.csv").read_bytes()

    def test_zero_trials_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(SMALL_CONFIG.replace("trials_per_point = 2000", "trials_per_point = 0"))
        assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == EXIT_USAGE
        capsys.readouterr()

    def test_nan_rate_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nan.ini"
        bad.write_text(SMALL_CONFIG.replace("rate_bpcu = 2.0", "rate_bpcu = nan"))
        assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == EXIT_USAGE
        assert not (tmp_path / "x").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_rejected(self, config_path, tmp_path, capsys, seed):
        code = main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "x"),
                     "--seed", seed])
        assert code == EXIT_USAGE
        assert "invalid sweep spec" in capsys.readouterr().err

    def test_zero_trials_override_rejected(self, config_path, tmp_path, capsys):
        # a falsy override must still be applied, and then fail validation
        code = main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "x"),
                     "--trials", "0"])
        assert code == EXIT_USAGE
        assert not (tmp_path / "x").exists()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "case",  # (the flag or variable the error must name, the arguments, RELAYLAB_SEED)
        [
            ("--workers", ["--workers", "-3"], None),
            ("--workers", ["--workers", "0"], None),
            ("--seed", ["--seed", "-1"], None),
            ("--seed", ["--seed", str(2**64)], None),
            ("RELAYLAB_SEED", [], "-1"),
            ("RELAYLAB_SEED", [], "seven"),
            ("--trials", ["--trials", "0"], None),
            ("--snr-db", ["--snr-db", "nan"], None),
            ("--snr-db", ["--snr-db", "5,x"], None),
            ("--snr-db", ["--snr-db", "10,5"], None),
            ("--snr-db", ["--snr-db", "10,4000"], None),  # used to exit 1 with an OverflowError
            ("--snr-db", ["--snr-db=-4000,10"], None),  # used to exit 1 naming rho
            ("--adaptive", ["--adaptive"], None),  # the config's target_outages = 0 is fine until then
            ("--snr-db", ["--snr-db", "-4000,10"], None),  # a list after a space used to be an unknown flag
            ("--snr-db", ["--snr-db", "-5,x"], None),
        ],
    )
    def test_bad_override_exit_2(self, tmp_path, capsys, monkeypatch, case):
        flag, argv, env_seed = case
        config = tmp_path / "sweep.ini"
        config.write_text(SMALL_CONFIG + "adaptive = false\ntarget_outages = 0\n")
        if env_seed is not None:
            monkeypatch.setenv("RELAYLAB_SEED", env_seed)
        code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "x"), *argv])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert flag in captured.err
        assert not (tmp_path / "x").exists()

    def test_seed_flag_beats_bad_env(self, config_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELAYLAB_SEED", "seven")
        out = tmp_path / "flag"
        code = main(["simulate", "--config", str(config_path), "--out-dir", str(out), "--seed", "77"])
        capsys.readouterr()
        assert code == EXIT_OK
        assert "master_seed = 77" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("key", ["n_s", "n_r", "n_d", "rate_bpcu", "snr_grid_db", "trials_per_point"])
    def test_missing_key_exit_2(self, tmp_path, capsys, key):
        # a missing rate_bpcu used to print "must be real number, not NoneType"
        config = tmp_path / "sweep.ini"
        config.write_text("".join(ln for ln in SMALL_CONFIG.splitlines(True) if not ln.startswith(f"{key} =")))
        code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert f"missing {key}" in captured.err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "case",  # (the line replaced, its replacement, what the error must name)
        [
            ("n_d = 2", "n_d =", "[system] n_d"),
            ("rate_bpcu = 2.0", "rate_bpcu =", "[system] rate_bpcu"),
            ("snr_grid_db = 5, 10, 15", "snr_grid_db = 10,", "[sweep] snr_grid_db"),
            ("master_seed = 77", "master_seed = 77\nadaptive = maybe", "[sweep] adaptive"),
            ("snr_grid_db = 5, 10, 15", "snr_grid_db = 10, 4000", "snr_grid_db"),  # used to exit 1
            ("snr_grid_db = 5, 10, 15", "snr_grid_db = -4000, 10", "snr_grid_db"),  # used to exit 1
        ],
    )
    def test_bad_value_names_key_exit_2(self, tmp_path, capsys, case):
        line, replacement, name = case
        config = tmp_path / "sweep.ini"
        config.write_text(SMALL_CONFIG.replace(line, replacement))
        code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert name in captured.err
        assert not (tmp_path / "x").exists()

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"), "--out-dir", str(tmp_path)]) == EXIT_USAGE
        capsys.readouterr()

    def test_seed_env_override(self, config_path, tmp_path, capsys, monkeypatch):
        base = tmp_path / "base"
        main(["simulate", "--config", str(config_path), "--out-dir", str(base)])
        monkeypatch.setenv("RELAYLAB_SEED", "12345")
        override = tmp_path / "override"
        main(["simulate", "--config", str(config_path), "--out-dir", str(override)])
        capsys.readouterr()
        assert "master_seed = 12345" in (override / "manifest.txt").read_text()
        assert (base / "curve.csv").read_bytes() != (override / "curve.csv").read_bytes()

    def test_flag_beats_env(self, config_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELAYLAB_SEED", "12345")
        out = tmp_path / "flag"
        main(["simulate", "--config", str(config_path), "--out-dir", str(out), "--seed", "77"])
        capsys.readouterr()
        assert "master_seed = 77" in (out / "manifest.txt").read_text()

    def test_mode_override(self, config_path, tmp_path, capsys):
        out = tmp_path / "exact"
        code = main([
            "simulate", "--config", str(config_path), "--out-dir", str(out),
            "--mode", "exact", "--trials", "200", "--snr-db", "5",
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        assert "outage_mode = exact" in (out / "manifest.txt").read_text()

    def test_read_back_curve_has_no_mode(self, config_path, tmp_path, capsys):
        # the CSV does not carry the mode, so reading it back must not invent one
        out = tmp_path / "exact"
        main(["simulate", "--config", str(config_path), "--out-dir", str(out),
              "--mode", "exact", "--trials", "200", "--snr-db", "5"])
        capsys.readouterr()
        assert read_curve_csv(out / "curve.csv").mode is None


class TestSlopeCommand:
    def _write_power_law_curve(self, path: Path, d: float):
        lines = [CURVE_HEADER]
        for snr in (10.0, 15.0, 20.0, 25.0):
            rho = 10 ** (snr / 10)
            p = rho**-d
            lines.append(f"{snr},{p:.10g},1000000000000,{int(p * 1e12)},{p:.10g},{p:.10g}")
        path.write_text("\n".join(lines) + "\n")

    def test_synthetic_cubic_fixture(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        self._write_power_law_curve(curve, 3.0)
        assert main(["slope", "--curve", str(curve)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "d_hat     = 3.0000" in out
        assert "n/a" in out  # no config available

    def test_d_theory_from_unrounded_manifest(self, tmp_path, capsys):
        # 4x2x3 has d = 2 just below R = 2 and d = 0 at R = 2 itself: a sibling
        # manifest that rounds the rate to 10 digits reports the wrong theory
        config = tmp_path / "sweep.ini"
        config.write_text("[system]\nn_s = 4\nn_r = 2\nn_d = 3\nrate_bpcu = 1.99999999999\n\n"
                          "[sweep]\nsnr_grid_db = 10.00000000001, 20, 30\ntrials_per_point = 100\n")
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "run")]) == EXIT_OK
        self._write_power_law_curve(tmp_path / "run" / "curve.csv", 2.0)
        capsys.readouterr()
        assert main(["slope", "--curve", str(tmp_path / "run" / "curve.csv")]) == EXIT_OK
        assert "d_theory  = 2\n" in capsys.readouterr().out

    def test_curve_without_config_has_none(self, tmp_path):
        curve_path = tmp_path / "curve.csv"
        self._write_power_law_curve(curve_path, 3.0)
        curve = read_curve_csv(curve_path)
        assert curve.config is None  # no invented 1x1x1 config
        assert fit_slope(curve).d_theory is None

    @pytest.mark.parametrize(
        "extra",  # (the flag the error must name, the arguments)
        [
            ("--ns", ["--ns", "0", "--nr", "2", "--nd", "2", "--rate", "1"]),
            ("--nr", ["--ns", "2", "--nr", "-1", "--nd", "2", "--rate", "1"]),
            ("--rate", ["--ns", "2", "--nr", "2", "--nd", "2", "--rate", "0"]),
            ("--rate", ["--ns", "2", "--nr", "2", "--nd", "2", "--rate", "nan"]),
            ("--rate", ["--ns", "2", "--nr", "2", "--nd", "2"]),
            ("--ns", ["--rate", "1"]),
            ("--manifest", ["--manifest", "missing.txt"]),
            ("--manifest", ["--manifest", "curve.csv"]),  # configparser's error spans three lines
            ("--min-count", ["--min-count", "0"]),
            ("--min-count", ["--min-count", "-5"]),
        ],
    )
    def test_bad_config_input_exit_2(self, tmp_path, capsys, monkeypatch, extra):
        flag, argv = extra
        monkeypatch.chdir(tmp_path)
        self._write_power_law_curve(tmp_path / "curve.csv", 1.0)
        assert main(["slope", "--curve", "curve.csv", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert flag in captured.err
        assert "d_theory" not in captured.out

    @pytest.mark.parametrize(
        "field,changes",  # the field the error must name; new values for the fields of line 3 (15 dB)
        [
            ("p_out", {"p_out": "nan"}),
            ("trials", {"trials": "-5", "outages": "7"}),  # outages > trials, trials < 0
            ("outages", {"outages": "1000000000001"}),
            ("outages", {"outages": "-1"}),
            ("outages", {"outages": "2.5"}),
            ("trials", {"trials": "1e12"}),
            ("trials", {"trials": "0", "outages": "0", "p_out": "0"}),
            ("snr_db", {"snr_db": "5"}),  # descending grid
            ("snr_db", {"snr_db": "10"}),  # repeated SNR
            ("snr_db", {"snr_db": "inf"}),
            ("snr_db", {"snr_db": "nan"}),
            ("p_out", {"p_out": "1.5"}),
            ("p_out", {"p_out": "-0.1"}),
            ("p_out", {"p_out": "0"}),  # outages, yet p_out = 0
            ("p_out", {"outages": "0"}),  # p_out > 0 with no outage
            ("ci_low", {"ci_low": "nan"}),
            ("ci_low", {"ci_low": "-0.1"}),
            ("ci_high", {"ci_high": "1.5"}),
            ("ci_high", {"ci_high": "inf"}),
            ("expected 6 fields", {"ci_high": None}),
        ],
    )
    def test_malformed_curve_exit_2(self, tmp_path, capsys, field, changes):
        curve = tmp_path / "curve.csv"
        self._write_power_law_curve(curve, 1.0)
        lines = curve.read_text().splitlines()
        row = dict(zip(CURVE_HEADER.split(","), lines[2].split(",")), **changes)
        lines[2] = ",".join(value for value in row.values() if value is not None)
        curve.write_text("\n".join(lines) + "\n")
        assert main(["slope", "--curve", str(curve)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert f"{curve} line 3: {field}" in captured.err

    def test_broken_sibling_manifest_exit_2(self, tmp_path, capsys):
        self._write_power_law_curve(tmp_path / "curve.csv", 1.0)
        (tmp_path / "manifest.txt").write_text("[system]\nn_s = 2\n")
        assert main(["slope", "--curve", str(tmp_path / "curve.csv")]) == EXIT_USAGE
        assert "[sweep]" in capsys.readouterr().err

    def test_d_theory_from_flags(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        self._write_power_law_curve(curve, 1.0)
        main(["slope", "--curve", str(curve), "--ns", "2", "--nr", "2", "--nd", "2", "--rate", "2"])
        out = capsys.readouterr().out
        assert "d_theory  = 1" in out

    def test_d_theory_from_manifest(self, config_path, tmp_path, capsys):
        run = tmp_path / "run"
        main(["simulate", "--config", str(config_path), "--out-dir", str(run), "--trials", "100000"])
        capsys.readouterr()
        code = main(["slope", "--curve", str(run / "curve.csv"), "--min-count", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "d_theory  = 1" in out

    def test_starved_curve_exit_1(self, tmp_path, capsys):
        curve = tmp_path / "dead.csv"
        lines = [CURVE_HEADER] + [f"{snr},0,1000,0,0,0.003" for snr in (10.0, 15.0, 20.0)]
        curve.write_text("\n".join(lines) + "\n")
        assert main(["slope", "--curve", str(curve)]) == EXIT_RUNTIME
        assert "usable" in capsys.readouterr().err

    def test_bad_header_exit_2(self, tmp_path, capsys):
        curve = tmp_path / "junk.csv"
        curve.write_text("a,b,c\n1,2,3\n")
        assert main(["slope", "--curve", str(curve)]) == EXIT_USAGE
        capsys.readouterr()


class TestDesignCheckCommand:
    def test_battery_passes(self, capsys):
        code = main(["design-check", "--shapes", "2x2x2,3x2x4,2x2x1", "--draws", "25"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out

    def test_battery_full_scale(self, capsys):
        code = main(["design-check", "--shapes", "2x2x2,3x2x4,2x2x1", "--draws", "500"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out

    def test_scalar_oracle_shape(self, capsys):
        code = main(["design-check", "--shapes", "1x1x1", "--draws", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "scalar oracle" in out

    def test_injected_fault_detected(self, capsys, monkeypatch):
        # A relay that spends 20% over its budget must fail the battery.
        spent = cli.relay_power
        monkeypatch.setattr(cli, "relay_power", lambda h, q, rho: 1.2 * spent(h, q, rho))
        code = main(["design-check", "--shapes", "2x2x2", "--draws", "10"])
        out = capsys.readouterr().out
        assert code == EXIT_RUNTIME
        assert "FAIL" in out

    def test_bad_shape_exit_2(self, capsys):
        assert main(["design-check", "--shapes", "2x2"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra",  # (the flag the error must name, the arguments)
        [
            ("--draws", ["--shapes", "2x2x2", "--draws", "0"]),
            ("--rho", ["--shapes", "2x2x2", "--rho", "nan"]),
            ("--rho", ["--shapes", "2x2x2", "--rho", "-1"]),
            ("--shapes", ["--shapes", "0x2x2"]),
            ("--seed", ["--shapes", "2x2x2", "--seed", "-1"]),
        ],
    )
    def test_bad_input_exit_2(self, capsys, extra):
        flag, argv = extra
        assert main(["design-check", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert flag in captured.err

    def test_shape_block_independent_of_earlier_shapes(self, capsys):
        # every figure of a draw is keyed by (seed, draw), not by the shapes checked before
        def block(shapes: str) -> str:
            assert main(["design-check", "--shapes", shapes, "--draws", "50"]) == EXIT_OK
            out = capsys.readouterr().out
            return out[out.index("shape 2x2x2"):out.index("design-check:")]

        assert block("2x2x2") == block("1x1x1,2x2x2")


def _pinned(label, shape, rate, mode, grid, trials, digest, seed=20260808, adaptive=False, target=200):
    """One reference spec; an adaptive one runs at workers 1 and 2, a fixed one at workers 1."""
    case = (shape, rate, mode, grid, trials, seed, adaptive, target, digest)
    return [pytest.param(case, w, id=label if w == 1 else f"{label}-w{w}") for w in ((1, 2) if adaptive else (1,))]


class TestPinnedCurves:
    """curve.csv bytes of reference specs, run through the config parser and
    the CSV writer. The sha256 values were recorded when these specs were
    first pinned; any change to sampling, counting, scheduling or formatting
    shows here. R = 2 and seed 20260808 unless a case says otherwise."""

    @pytest.mark.parametrize(
        "case,workers",  # case: (shape, rate, mode, grid, trials, seed, adaptive, target, sha256 of curve.csv)
        [
            *_pinned("exact-4x2x3", (4, 2, 3), 2, "exact", "0, 5, 10, 15, 20, 25, 30", 20000,
                     "44a647ec5eec788ee3fa6d3d463761880d7bbe4c4f367e7beb1db2f865e81fd8"),
            *_pinned("separate-2x2x2", (2, 2, 2), 2, "separate", "0, 5, 10, 15, 20", 5000,
                     "150a4d5376022fbdc2f228f4d27b0a39e3cff90bccc38fd86624a001c429d537"),
            # Pins little: (M - r_g)^+ = 1 >= m, so S >= m on every draw and p_out = 1 at every point.
            *_pinned("bound-2x2x1", (2, 2, 1), 2, "bound", "0, 10, 20", 100000,
                     "1acadf0e55e254d3f5ef197a85266096954a096fa72b359b7db52d3408024c72"),
            *_pinned("exact-1x1x1", (1, 1, 1), 1, "exact", "0, 10, 20", 100000,
                     "113261c6c42fd4d6786c1be1725f07413c18aad9a6611bfac68f2bb7e087cb73"),
            # The two benchmark workloads as they stand.
            *_pinned("exact-4x2x3-workload", (4, 2, 3), 2, "exact", "10, 30", 2048,
                     "83305b186e71f8ed9da4501defccdf3f02e9ffb517ccb5bc503ea1c72233783a"),
            *_pinned("exact-4x2x3-workload-seed401", (4, 2, 3), 2, "exact", "10, 30", 2048,
                     "c1c61e417093f07967cece5c99240af6625eedc717cc458801bcd65dd1bd0c0e", seed=401),
            *_pinned("bound-4x4x4-adaptive", (4, 4, 4), 4, "bound", "10, 15, 20, 25, 30", 3 * 32768,
                     "db2fae2f052831dc863f1c28d59befc1777f88e7635a5a06b0df33857ec9cc3b", adaptive=True),
            *_pinned("bound-2x2x2", (2, 2, 2), 2, "bound", "10, 15, 20, 25, 30", 200000,
                     "b3dad45d855d37891fabbd6284e1b4b3a77dca4350cc4e19a15ad4345154edda"),
            *_pinned("bound-3x2x4", (3, 2, 4), 2, "bound", "0, 10, 20", 100000,
                     "1701096f6372fac55a3d059a748a81372bd22aab6533efcd3865a448415ed29d"),
            *_pinned("exact-3x2x4", (3, 2, 4), 2, "exact", "0, 5, 10, 15, 20, 25, 30", 20000,
                     "987b381732dfb5401d51c7a799eb02fededbc999b54af4ec41ee41003f4217b1"),
            *_pinned("separate-2x3x2", (2, 3, 2), 2, "separate", "0, 5, 10, 15, 20, 25, 30", 20000,
                     "e0a67d85dc950d7ac55606e28b37e8bf700b512b1d27b94a498f3122549cc39a"),
            # Pins little: no outage from 20 dB up.
            *_pinned("bound-3x3x3", (3, 3, 3), 2, "bound", "0, 5, 10, 15, 20, 25, 30, 35, 40", 100000,
                     "e4c6315007fd812168faf5ca54d5a4522c4c27e4418e3a6760706660a0ca6bb6"),
            *_pinned("bound-5x3x3", (5, 3, 3), 2, "bound", "0, 5, 10, 15, 20, 25, 30, 35, 40", 100000,
                     "18d799d696b51efe60d69b28aaab4202fdb4eeb882e32f63911b410df6f0e8ac"),
            # Pins little: m = 2 = (M - r_g)^+, so S >= m on every draw and p_out = 1 at every point.
            *_pinned("bound-4x4x2", (4, 4, 2), 2, "bound", "0, 5, 10, 15, 20, 25, 30, 35, 40", 100000,
                     "91a9ebbe9487f2c2b6cf83b504121e7b7da62223e13279683008e6b5068047a6"),
            # Pins little: no outage from 10 dB up.
            *_pinned("bound-3x4x5", (3, 4, 5), 2, "bound", "0, 5, 10, 15, 20, 25, 30, 35, 40", 100000,
                     "b10ffebe9e49f390cc3a850d2760791df4040b57111a24f0a6e10d7dd88df42e"),
            # Outages at every point. Bound mode at R = 0.42 with draws on both sides of the trace
            # screen: 75,247 / 10,607 / 800 / 33 outages.
            *_pinned("bound-2x2x2-R0.42", (2, 2, 2), 0.42, "bound", "0, 2.5, 5, 7.5", 200000,
                     "840212e67df447e9a198ae096d133fb5a3786b8d62e30880211bf1fe20bfe466"),
            # Exact mode from 9,167 outages at 10 dB down to 34 at 30 dB.
            *_pinned("exact-2x2x2", (2, 2, 2), 2, "exact", "10, 15, 20, 25, 30", 20000,
                     "68dd567572aba4cd94ba15774a093b655f4fa68ed72e6c6f84f4944d2b9162ac"),
            # Adaptive exact mode: stops after chunk 0 (14,998 outages), after chunk 1 (773), and at
            # the cap (194).
            *_pinned("exact-2x2x2-adaptive", (2, 2, 2), 2, "exact", "10, 20, 30", 3 * 32768,
                     "178991ef941e76ffcba0b08522c6e2223133d13a9ea8bbe4938deae4df7efb6d", adaptive=True),
        ],
    )
    def test_curve_sha256(self, tmp_path, capsys, case, workers):
        (n_s, n_r, n_d), rate, mode, grid, trials, seed, adaptive, target, digest = case
        config = tmp_path / "spec.ini"
        config.write_text(
            f"[system]\nn_s = {n_s}\nn_r = {n_r}\nn_d = {n_d}\nrate_bpcu = {rate}\n\n"
            f"[sweep]\nsnr_grid_db = {grid}\ntrials_per_point = {trials}\noutage_mode = {mode}\n"
            f"master_seed = {seed}\nadaptive = {str(adaptive).lower()}\ntarget_outages = {target}\n"
        )
        code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "run"),
                     "--workers", str(workers)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert hashlib.sha256((tmp_path / "run" / "curve.csv").read_bytes()).hexdigest() == digest


class TestConfigParsing:
    def test_round_trip(self, config_path):
        spec = parse_sweep_config(config_path)
        assert spec.config.shape_label == "2x2x2"
        assert spec.snr_grid_db == (5.0, 10.0, 15.0)
        assert spec.trials_per_point == 2000
        assert spec.master_seed == 77

    def test_manifest_round_trips_unrounded_floats(self, tmp_path):
        # the grid sets rho and p_r, so a spec built at rho = 10 equals its manifest too
        path = tmp_path / "manifest.txt"
        at_rho = SweepSpec(SystemConfig(2, 2, 2, rho=10.0, rate_bpcu=2.0), (10.0, 20.0), 2048)
        path.write_text(manifest_text(at_rho, "start", "end", 1, {"curve": "curve.csv"}))
        assert parse_sweep_config(path) == at_rho
        spec = SweepSpec(SystemConfig(4, 2, 3, rate_bpcu=1.99999999999), (10.00000000001, 20.0, 30.0), 100)
        path.write_text(manifest_text(spec, "start", "end", 1, {"curve": "curve.csv"}))
        assert parse_sweep_config(path) == spec
        assert "rate_bpcu = 1.99999999999\n" in path.read_text()
        assert "snr_grid_db = 10.00000000001, 20, 30\n" in path.read_text()

    def test_echo_text_bytes(self):
        # manifests written before the config became a field table must still round-trip
        spec = SweepSpec(SystemConfig(4, 2, 3, rate_bpcu=0.42), (0.0, 12.5, 30.0), 20000, "exact",
                         master_seed=2**64 - 1, adaptive=True, target_outages=7)
        assert spec_echo_text(spec) == (
            "[system]\nn_s = 4\nn_r = 2\nn_d = 3\nrate_bpcu = 0.42\n\n"
            "[sweep]\nsnr_grid_db = 0, 12.5, 30\ntrials_per_point = 20000\noutage_mode = exact\n"
            "master_seed = 18446744073709551615\nadaptive = true\ntarget_outages = 7\n"
        )
