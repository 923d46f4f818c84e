"""CLI harness tests: run/sweep/certify/audit, CSV schema, exit codes,
config precedence, and byte-level reproducibility."""

import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sqgd import (
    Grid,
    ModulusParams,
    ScalarField,
    StepControl,
    audit_breakthrough,
    minimal_b,
    random_smooth,
    read_snapshot,
    two_mode,
    write_snapshot,
)
from sqgd.cli import (
    L2ViolationError,
    _build_parser,
    _config_from_args,
    execute_run,
    main,
    write_diagnostics_csv,
)
from sqgd.config import RunConfig, build_config, parse_config_file
from sqgd.diagnostics import DiagnosticsRecord
from sqgd.integrator import BlowUpError


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def run_args(out_dir, **kwargs):
    args = ["run", "--output-dir", str(out_dir)]
    for key, value in kwargs.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestCmdRun:
    def test_zero_duration_single_row(self, tmp_path):
        code = main(run_args(tmp_path / "o", n=16, t_end=0.0, init="single_mode"))
        assert code == 0
        header, rows = read_csv(tmp_path / "o" / "diagnostics.csv")
        assert ",".join(header) == ("t,l2,linf,max_grad,mean,nonlinear_flux,"
                                    "dispersive_flux,dissipation,b_min")
        assert len(rows) == 1
        assert float(rows[0][0]) == 0.0

    def test_single_mode_linear_decay(self, tmp_path):
        code = main(run_args(tmp_path / "o", n=32, t_end=1.0, A=0.0,
                             init="single_mode", step_mode="fixed",
                             dt_max=0.05, sample_every=0.25))
        assert code == 0
        _, rows = read_csv(tmp_path / "o" / "diagnostics.csv")
        final_l2 = float(rows[-1][1])
        assert final_l2 == pytest.approx(math.exp(-1.0) * math.sqrt(2 * math.pi**2),
                                         abs=1e-8)

    def test_reproducible_bytes(self, tmp_path):
        kwargs = dict(n=24, t_end=0.3, A=1.0, init="random_smooth", init_seed=5,
                      init_kmax=6, init_linf=0.5, sample_every=0.1,
                      step_mode="cfl", cfl_number=0.5, dt_max=0.02)
        assert main(run_args(tmp_path / "a", **kwargs)) == 0
        assert main(run_args(tmp_path / "b", **kwargs)) == 0
        csv_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert csv_a == csv_b
        snaps_a = sorted((tmp_path / "a").glob("snapshot_*.sqgd"))
        snaps_b = sorted((tmp_path / "b").glob("snapshot_*.sqgd"))
        assert [p.name for p in snaps_a] == [p.name for p in snaps_b]
        for pa, pb in zip(snaps_a, snaps_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_snapshot_per_sample(self, tmp_path):
        main(run_args(tmp_path / "o", n=16, t_end=0.2, init="single_mode",
                      sample_every=0.05, dt_max=0.05))
        _, rows = read_csv(tmp_path / "o" / "diagnostics.csv")
        snaps = sorted((tmp_path / "o").glob("snapshot_*.sqgd"))
        assert len(snaps) == len(rows) == 5

    @pytest.mark.parametrize("certify_every", [2, 5])
    def test_bmin_cadence_in_csv(self, tmp_path, certify_every):
        main(run_args(tmp_path / "o", n=16, t_end=0.55, init="random_smooth",
                      init_seed=2, init_kmax=4, init_linf=0.01,
                      sample_every=0.05, dt_max=0.05, certify_every=certify_every))
        _, rows = read_csv(tmp_path / "o" / "diagnostics.csv")
        has_b = [row[8] != "" for row in rows]
        assert len(rows) == 12
        assert has_b == [i % certify_every == 0 for i in range(len(rows))]
        assert float(rows[0][8]) > 0

    def test_l2_violation_exits_3(self, tmp_path, monkeypatch):
        calls = []

        def inflating_sample(state, params=None):
            calls.append(state)
            return DiagnosticsRecord(t=state.t, l2=float(len(calls)), linf=0.0,
                                     max_grad=0.0, mean=0.0, nonlinear_flux=0.0,
                                     dispersive_flux=0.0, dissipation=0.0)

        monkeypatch.setattr("sqgd.cli.sample", inflating_sample)
        code = main(run_args(tmp_path / "o", n=16, t_end=0.2,
                             init="single_mode", sample_every=0.05, dt_max=0.05))
        assert code == 3
        # partial CSV kept for postmortem
        _, rows = read_csv(tmp_path / "o" / "diagnostics.csv")
        assert len(rows) == 2

    def test_blowup_exits_1(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise BlowUpError("test", 0.1, 3)

        monkeypatch.setattr("sqgd.cli.run", explode)
        code = main(run_args(tmp_path / "o", n=16, t_end=0.2, init="single_mode"))
        assert code == 1

    def test_invalid_config_exits_2(self, tmp_path):
        code = main(run_args(tmp_path / "o", n=16, t_end=0.2, init="nonsense"))
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("n", "7"), ("init_kmax", "-3")])
    def test_invalid_grid_or_init_writes_nothing(self, tmp_path, capsys, flag, value):
        assert main(run_args(tmp_path / "o", **{flag: value})) == 2
        assert not (tmp_path / "o").exists()
        assert capsys.readouterr().err.startswith(f"run failed: {flag}")

    @pytest.mark.parametrize("flag,value", [
        ("t_end", "nan"), ("sample_every", "nan"), ("dt_max", "nan"), ("A", "inf"),
    ])
    def test_nonfinite_value_exits_2(self, tmp_path, flag, value):
        kwargs = dict(n=16, t_end=0.2, init="single_mode")
        kwargs[flag] = value
        assert main(run_args(tmp_path / "o", **kwargs)) == 2

    def test_snapshot_init_round_trip(self, tmp_path):
        g = Grid(16)
        rng = np.random.default_rng(0)
        field = ScalarField(g, 0.01 * rng.standard_normal((16, 16)))
        snap = tmp_path / "init.sqgd"
        write_snapshot(snap, field, 0.0, 0.0)
        code = main(run_args(tmp_path / "o", n=16, t_end=0.0, init="snapshot",
                             init_path=str(snap)))
        assert code == 0
        loaded, _, _ = read_snapshot(tmp_path / "o" / "snapshot_000000.sqgd")
        assert np.array_equal(loaded.values, field.values)

    def test_missing_init_path_exits_2(self, tmp_path):
        # an unreadable input is a file error, not a blow-up (exit 1)
        code = main(run_args(tmp_path / "o", n=16, t_end=0.1, init="snapshot",
                             init_path=str(tmp_path / "missing.sqgd")))
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_failed_csv_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "diagnostics.csv"
        good = DiagnosticsRecord(t=0.0, l2=1.0, linf=1.0, max_grad=1.0, mean=0.0,
                                 nonlinear_flux=0.0, dispersive_flux=0.0,
                                 dissipation=-1.0)
        write_diagnostics_csv(path, [good])
        before = path.read_bytes()
        bad = DiagnosticsRecord(t=None, l2=1.0, linf=1.0, max_grad=1.0, mean=0.0,
                                nonlinear_flux=0.0, dispersive_flux=0.0,
                                dissipation=-1.0)
        with pytest.raises(TypeError):
            write_diagnostics_csv(path, [good, good, bad])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["diagnostics.csv"]


# What one `key = value` line carries: '#' always starts a comment, lines
# split at any line boundary and values are stripped.
config_text = st.text(st.characters(blacklist_characters="#",
                                    blacklist_categories=("Cs", "Cc", "Zl", "Zp"))
                      ).filter(lambda text: text == text.strip())
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def run_configs(draw):
    """A valid RunConfig with every field drawn."""
    delta = draw(st.floats(min_value=1e-6, max_value=0.4))
    gamma_max = min(delta, 4.0 * delta * (1.0 - 1.5 * math.sqrt(delta)))
    gamma = gamma_max * draw(st.floats(min_value=0.0, max_value=1.0,
                                       exclude_min=True, exclude_max=True))
    n = 2 * draw(st.integers(min_value=4))
    values = dict(
        n=n, t_end=draw(st.floats(min_value=0.0, allow_infinity=False)),
        A=draw(finite),
        step_mode=draw(st.sampled_from(["fixed", "cfl"])),
        cfl_number=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        dt_max=draw(positive), gamma=gamma, delta=delta,
        init=draw(st.sampled_from(["random_smooth", "single_mode", "two_mode",
                                   "gaussian_bump", "snapshot"])),
        init_seed=draw(st.integers()), init_slope=draw(finite),
        init_kmax=draw(st.integers(min_value=1, max_value=n // 3)),
        init_linf=draw(finite), init_width=draw(finite),
        init_path=draw(config_text), sample_every=draw(positive),
        certify_every=draw(st.integers(min_value=0)), output_dir=draw(config_text),
    )
    try:
        return RunConfig(**values)
    except ValueError:
        assume(False)


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "n = 24\n"
            "t_end = 0.5\n"
            "A = 2.0  # trailing comment\n"
            "init = single_mode\n"
        )
        parsed = parse_config_file(cfg_file)
        assert parsed == {"n": 24, "t_end": 0.5, "A": 2.0, "init": "single_mode"}
        cfg = build_config(str(cfg_file), {"n": 32, "t_end": None})
        assert cfg.n == 32          # override wins
        assert cfg.t_end == 0.5     # file wins over default
        assert cfg.A == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        # removed keys must fail like any other
        for line in ("resolution = 32\n", "advection_sign = 1\n", "dt_fixed = 0.1\n",
                     "c_omega = 2\n"):
            cfg_file = tmp_path / "bad.cfg"
            cfg_file.write_text(line)
            with pytest.raises(ValueError, match="unknown config key"):
                parse_config_file(cfg_file)
            assert main(["run", "--config", str(cfg_file),
                         "--output-dir", str(tmp_path / "o")]) == 2
            assert not (tmp_path / "o").exists()

    @given(config=run_configs())
    @settings(max_examples=200, deadline=None)
    def test_file_round_trip(self, config):
        # str() of a float is its shortest round-tripping repr
        text = "".join(f"{key} = {value}\n" for key, value in vars(config).items())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.cfg"
            path.write_text(text)
            assert build_config(str(path), {}) == config
        # --flag=value keeps a value that starts with '-' attached to its flag
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in vars(config).items()]
        assert _config_from_args(_build_parser().parse_args(["run", *flags])) == config

    def test_modulus_flag_defaults(self):
        defaults = vars(ModulusParams())
        for argv in (["certify", "f.sqgd"], ["audit", "f.sqgd", "--B", "1"]):
            args = vars(_build_parser().parse_args(argv))
            assert {key: args[key] for key in defaults} == defaults

    def test_step_defaults_shared(self):
        assert RunConfig().step_control() == StepControl()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            RunConfig(init="snapshot")  # missing init_path


class TestCmdSweep:
    @pytest.mark.parametrize("a_list", ["", ","], ids=["empty", "comma"])
    def test_empty_list_exits_2(self, tmp_path, a_list):
        code = main(["sweep", "--A-list", a_list, "--output-dir", str(tmp_path / "s"),
                     "--n", "16", "--t-end", "0.1", "--init", "single_mode"])
        assert code == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("a_list", ["0,,1", "0,1,", " ,1", "0,\t,1"],
                             ids=["inner", "trailing", "space", "tab"])
    def test_blank_amplitude_exits_2(self, tmp_path, a_list, capsys):
        code = main(["sweep", "--A-list", a_list, "--output-dir", str(tmp_path / "s"),
                     "--n", "16", "--t-end", "0.1", "--init", "single_mode"])
        assert code == 2
        assert not (tmp_path / "s").exists()
        assert "blank amplitude" in capsys.readouterr().err

    def test_single_member_matches_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SQGD_THREADS", "1")
        kwargs = dict(n=16, t_end=0.2, init="single_mode", sample_every=0.1,
                      dt_max=0.05)
        main(run_args(tmp_path / "direct", A=0.0, **kwargs))
        code = main(["sweep", "--A-list", "0", "--output-dir", str(tmp_path / "s")]
                    + run_args("ignored", **kwargs)[3:])
        assert code == 0
        direct = (tmp_path / "direct" / "diagnostics.csv").read_bytes()
        member = (tmp_path / "s" / "A_0" / "diagnostics.csv").read_bytes()
        assert direct == member

    def test_rows_sorted_by_amplitude(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SQGD_THREADS", "2")
        code = main(["sweep", "--A-list", "2,0,1",
                     "--output-dir", str(tmp_path / "s"), "--n", "16",
                     "--t-end", "0.1", "--init", "single_mode",
                     "--sample-every", "0.05", "--dt-max", "0.05"])
        assert code == 0
        _, rows = read_csv(tmp_path / "s" / "summary.csv")
        amplitudes = [float(row[0]) for row in rows]
        assert amplitudes == sorted(amplitudes) == [0.0, 1.0, 2.0]
        for row in rows:
            assert row[1] != "" and row[3] != ""

    @pytest.mark.parametrize("error,expected", [
        (BlowUpError("test", 0.1, 3), 1), (L2ViolationError("test"), 3),
        (ValueError("test"), 2),
    ], ids=["BlowUpError", "L2ViolationError", "ValueError"])
    def test_failing_member_keeps_summary(self, tmp_path, monkeypatch, error, expected):
        monkeypatch.setenv("SQGD_THREADS", "2")

        def fail_at_one(cfg):
            if cfg.A == 1:
                raise error
            return execute_run(cfg)

        # the pool forks, so its members inherit the patched module
        monkeypatch.setattr("sqgd.cli.execute_run", fail_at_one)
        code = main(["sweep", "--A-list", "0,1", "--output-dir", str(tmp_path / "s"),
                     "--n", "16", "--t-end", "0.1", "--init-kmax", "4",
                     "--init-linf", "0.01", "--certify-every", "1"])
        assert code == expected
        _, rows = read_csv(tmp_path / "s" / "summary.csv")
        assert rows[0][0] == "0" and all(rows[0])
        assert rows[1] == ["1", "", "", ""]

    def test_invalid_member_config_writes_nothing(self, tmp_path):
        code = main(["sweep", "--n", "7", "--A-list", "0,1",
                     "--output-dir", str(tmp_path / "s")])
        assert code == 2
        assert not (tmp_path / "s").exists()

    def test_dead_member_process_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SQGD_THREADS", "2")
        # the pool forks, so its members inherit the patched module
        monkeypatch.setattr("sqgd.cli.execute_run", lambda cfg: os._exit(1))
        code = main(["sweep", "--A-list", "0,1", "--output-dir", str(tmp_path / "s"),
                     "--n", "16", "--t-end", "0.1", "--init", "single_mode"])
        assert code == 2
        _, rows = read_csv(tmp_path / "s" / "summary.csv")
        assert rows == [["0", "", "", ""], ["1", "", "", ""]]
        assert "has no result" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_unreadable_member_input_exits_2(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("SQGD_THREADS", threads)
        code = main(["sweep", "--A-list", "0,1", "--output-dir", str(tmp_path / "s"),
                     "--n", "16", "--t-end", "0.1", "--init", "snapshot",
                     "--init-path", str(tmp_path / "missing.sqgd")])
        assert code == 2
        _, rows = read_csv(tmp_path / "s" / "summary.csv")
        assert [row[0] for row in rows] == ["0", "1"]

    @pytest.mark.parametrize("a_list", ["1.0000001,1.0000002", "2,2"])
    def test_colliding_directories_exit_2(self, tmp_path, a_list):
        code = main(["sweep", "--A-list", a_list, "--output-dir", str(tmp_path / "s"),
                     "--n", "16", "--t-end", "0.1", "--init", "single_mode"])
        assert code == 2
        assert not (tmp_path / "s").exists()


class TestCmdCertify:
    def test_constant_snapshot(self, tmp_path, capsys):
        g = Grid(16)
        snap = tmp_path / "const.sqgd"
        write_snapshot(snap, ScalarField(g, np.full((16, 16), 1.0)), 0.0, 0.0)
        code = main(["certify", str(snap)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "b_min,y1,y2,z1,z2,xi,slack"
        assert out[1].split(",")[0] == "0"

    def test_matches_in_run_certification(self, tmp_path, capsys):
        main(run_args(tmp_path / "o", n=24, t_end=0.2, init="random_smooth",
                      init_seed=3, init_kmax=6, init_linf=0.01,
                      sample_every=0.1, dt_max=0.05, certify_every=1))
        _, rows = read_csv(tmp_path / "o" / "diagnostics.csv")
        snaps = sorted((tmp_path / "o").glob("snapshot_*.sqgd"))
        code = main(["certify", str(snaps[-1])])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        b_cli = float(out[1].split(",")[0])
        b_run = float(rows[-1][8])
        assert b_cli == pytest.approx(b_run, rel=1e-6)

    def test_corrupted_magic_exits_2(self, tmp_path):
        snap = tmp_path / "bad.sqgd"
        snap.write_bytes(b"JUNKJUNKJUNK" + b"\x00" * 64)
        assert main(["certify", str(snap)]) == 2

    def test_witness_coordinates_scaled(self, tmp_path, capsys):
        g = Grid(16)
        snap = tmp_path / "s.sqgd"
        write_snapshot(snap, ScalarField(g, 1e-3 * np.sin(g.x1)), 0.0, 0.0)
        main(["certify", str(snap)])
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        coords = [float(c) for c in cells[1:5]]
        assert all(0 <= c < 2 * math.pi for c in coords)
        xi = float(cells[5])
        d1 = abs(coords[0] - coords[2])
        d2 = abs(coords[1] - coords[3])
        d1 = min(d1, 2 * math.pi - d1)
        d2 = min(d2, 2 * math.pi - d2)
        assert xi == pytest.approx(math.hypot(d1, d2), rel=1e-12)


class TestCmdAudit:
    def test_zero_field_zero_report(self, tmp_path, capsys):
        g = Grid(16)
        snap = tmp_path / "zero.sqgd"
        write_snapshot(snap, ScalarField(g, np.zeros((16, 16))), 0.0, 2.0)
        code = main(["audit", str(snap), "--B", "0"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("xi,lhs_breakthrough,derivative_bound")
        values = [float(v) for v in out[1].split(",")]
        assert values[1:] == [0.0] * 6

    def test_matches_library(self, tmp_path, capsys):
        g = Grid(24)
        rng = np.random.default_rng(1)
        field = ScalarField(g, 0.005 * rng.standard_normal((24, 24)))
        snap = tmp_path / "f.sqgd"
        write_snapshot(snap, field, 0.0, 1.5)
        params = ModulusParams()
        b = minimal_b(field, params).b_min * 1.001
        code = main(["audit", str(snap), "--B", f"{b:.17g}"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        cli_values = [float(v) for v in out[1].split(",")]
        rep = audit_breakthrough(field, float(f"{b:.17g}"), 1.5, params)
        assert cli_values == pytest.approx([
            rep.xi, rep.lhs_breakthrough, rep.derivative_bound, rep.disp_measured,
            rep.disp_bound, rep.disp_ratio, rep.saturation], rel=1e-12)

    def test_negative_scale_exits_2(self, tmp_path):
        g = Grid(16)
        snap = tmp_path / "f.sqgd"
        write_snapshot(snap, ScalarField(g, np.zeros((16, 16))), 0.0, 0.0)
        assert main(["audit", str(snap), "--B", "-1"]) == 2

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_nonfinite_amplitude_exits_2(self, tmp_path, capsys, amplitude):
        snap = tmp_path / "f.sqgd"
        write_snapshot(snap, two_mode(Grid(16)), 0.0, 1.0)
        assert main(["audit", str(snap), "--B", "5", "--A", amplitude]) == 2
        assert capsys.readouterr().out == ""


# For each RunConfig field: settings of a small run in which the field is
# live, on top of LIVE_BASE, and a new value for the field. A path is
# relative to the test's directory.
LIVE_BASE = dict(n=16, t_end=0.1, sample_every=0.05, dt_max=0.05, init_kmax=4,
                 output_dir="out")
CERTIFIED = dict(init_linf=0.01, certify_every=1)
LIVE_SETTINGS = {
    "n": ({}, 24),
    "t_end": ({}, 0.15),
    "A": ({}, 1.0),
    "step_mode": ({"cfl_number": 0.05}, "fixed"),
    "cfl_number": ({"cfl_number": 0.05}, 0.1),
    "dt_max": ({}, 0.02),
    "gamma": (CERTIFIED, 0.005),
    "delta": (CERTIFIED, 0.03),
    "init": ({}, "two_mode"),
    "init_seed": ({}, 1),
    "init_slope": ({}, 3.0),
    "init_kmax": ({}, 3),
    "init_linf": ({}, 0.5),
    "init_width": ({"init": "gaussian_bump"}, 0.3),
    "init_path": ({"init": "snapshot", "init_path": "a.sqgd"}, "b.sqgd"),
    "sample_every": ({}, 0.1),
    "certify_every": ({"init_linf": 0.01}, 1),
    "output_dir": ({}, "moved"),
}
# For each certify and audit option: the value that replaces the default or
# the one of SNAPSHOT_BASE.
SNAPSHOT_BASE = {"certify": {"snapshot": "a.sqgd"}, "audit": {"snapshot": "a.sqgd", "B": 5.0}}
SNAPSHOT_CHANGES = {"snapshot": "b.sqgd", "gamma": 0.005, "delta": 0.03, "B": 8.0,
                    "A": 2.0, "c_omega": 2.5}


def snapshot_options(command):
    argv = [command, "f.sqgd"] + (["--B", "1"] if command == "audit" else [])
    return sorted(set(vars(_build_parser().parse_args(argv))) - {"command"})


def write_snapshot_pair(tmp_path):
    for seed, name in enumerate(("a.sqgd", "b.sqgd")):
        field = random_smooth(Grid(16), seed=seed, k_max=4, target_linf=0.01)
        write_snapshot(tmp_path / name, field, 0.0, 1.0)


class TestNoDeadSetting:
    def test_cases_cover_every_setting(self):
        assert set(LIVE_SETTINGS) == {f.name for f in fields(RunConfig)}
        assert set(SNAPSHOT_CHANGES) == set(snapshot_options("certify")) | set(
            snapshot_options("audit"))

    @pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
    def test_run_setting_changes_output(self, tmp_path, field):
        write_snapshot_pair(tmp_path)
        base, value = LIVE_SETTINGS[field]

        def outputs(**changes):
            options = {**LIVE_BASE, **base, **changes}
            for key in {"init_path", "output_dir"} & options.keys():
                options[key] = str(tmp_path / options[key])
            assert main(["run"] + [f"--{key.replace('_', '-')}={text}"
                                   for key, text in options.items()]) == 0
            out = Path(options["output_dir"])
            found = out, {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
            return found

        assert outputs() != outputs(**{field: value})

    @pytest.mark.parametrize("command,option", [
        (command, option) for command in ("certify", "audit")
        for option in snapshot_options(command)])
    def test_snapshot_option_changes_stdout(self, tmp_path, capsys, command, option):
        write_snapshot_pair(tmp_path)

        def stdout(**changes):
            options = {**SNAPSHOT_BASE[command], **changes}
            argv = [command, str(tmp_path / options.pop("snapshot"))]
            argv += [f"--{key.replace('_', '-')}={text}" for key, text in options.items()]
            assert main(argv) == 0
            return capsys.readouterr().out

        assert stdout() != stdout(**{option: SNAPSHOT_CHANGES[option]})


# Runs `run` and `certify` in a fresh interpreter, prints the SciPy modules
# they loaded, audits the last snapshot at 1.001 times its b_min, and prints
# the SciPy modules loaded by then.
FRESH_CLI = """\
import sys
from pathlib import Path
import sqgd, sqgd.cli

def print_scipy_modules():
    print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))

out = Path(sys.argv[1])
snapshot = str(out / "snapshot_000001.sqgd")
assert sqgd.cli.main(["run", "--output-dir", str(out), "--n", "16", "--t-end", "0.1",
                      "--sample-every", "0.1", "--init-kmax", "4",
                      "--init-linf", "0.01", "--certify-every", "1"]) == 0
assert sqgd.cli.main(["certify", snapshot]) == 0
print_scipy_modules()
b_min = float((out / "diagnostics.csv").read_text().split(",")[-1])
code = sqgd.cli.main(["audit", snapshot, "--B", repr(b_min * 1.001)])
print_scipy_modules()
sys.exit(code)
"""


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "sqgd.cli", "run",
             "--output-dir", str(tmp_path / "o"), "--n", "16",
             "--t-end", "0.0", "--init", "single_mode"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "o" / "diagnostics.csv").exists()

    def test_no_command_loads_scipy(self, tmp_path):
        out = tmp_path / "o"
        result = subprocess.run([sys.executable, "-c", FRESH_CLI, str(out)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[2] == "[]"  # no scipy module after run and certify
        field, _, amplitude = read_snapshot(out / "snapshot_000001.sqgd")
        _, rows = read_csv(out / "diagnostics.csv")
        rep = audit_breakthrough(field, float(rows[-1][8]) * 1.001, amplitude,
                                 ModulusParams())
        assert lines[3:] == [
            "xi,lhs_breakthrough,derivative_bound,disp_measured,disp_bound,"
            "disp_ratio,saturation",
            ",".join(f"{v:.17g}" for v in [
                rep.xi, rep.lhs_breakthrough, rep.derivative_bound, rep.disp_measured,
                rep.disp_bound, rep.disp_ratio, rep.saturation]),
            "[]",  # nor after audit
        ]
