"""Command-line surface: dispatch, exit codes, determinism, artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from z22field import cli
from z22field.cli import build_parser, build_sim_config, main


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2


def test_bad_potential_spec_exits_two(capsys):
    rc = main(["check-potential", "--potential", "tan"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_verify_tables_passes(capsys):
    rc = main(["verify-tables", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_json_output_is_deterministic(capsys):
    main(["verify-tables", "--format", "json"])
    first = capsys.readouterr().out
    main(["verify-tables", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_derive_lagrangian_latex(capsys):
    rc = main(["derive-lagrangian", "--potential", "cos",
               "--eliminate-aux", "--format", "latex"])
    out = capsys.readouterr().out
    assert rc == 0
    assert r"\alpha" in out and r"\cos" in out
    assert "A_{00}" not in out  # eliminated


def test_derive_lagrangian_generic_json(capsys):
    rc = main(["derive-lagrangian", "--generic", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["ok"] is True
    assert data["report"]["potential"] == "abstract"


def test_check_potential_csv(capsys):
    rc = main(["check-potential", "--potential", "cos", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,value"
    assert lines[-1] == "ok,True"


def test_simulate_stdout_csv(capsys):
    rc = main(["simulate", "--alpha", "1", "--dx", "0.2", "--t-end", "1",
               "--initial", "kink"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,energy"
    assert len(lines) == 2 + round(1.0 / (0.4 * 0.2))
    t0, e0 = lines[1].split(",")
    assert float(t0) == 0.0
    assert abs(float(e0) - 2.0) < 5e-2


def test_simulate_cfl_violation_exits_two(capsys):
    rc = main(["simulate", "--dx", "0.1", "--dt", "0.5", "--t-end", "1"])
    assert rc == 2


@pytest.mark.parametrize("argv, message", [
    (["--model", "massive", "--dx", "0.1", "--dt", "0.1", "--t-end", "200",
      "--initial", "gaussian"], "dt=0.1 is unstable"),
    (["--alpha", "nan"], "alpha must be finite"),
    (["--dx", "nan"], "dx must be finite"),
    (["--t-end", "-3"], "t_end must not be negative"),
    (["--boundary", "bogus"], "unknown boundary 'bogus'"),
])
def test_simulate_rejects_bad_input_with_exit_two(argv, message, capsys):
    rc = main(["simulate", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("line, val", [
    ("dx = abc", "abc"),
    ("param.v = abc", "abc"),
    ("output_stride = 2.5", "2.5"),
])
def test_config_value_that_is_not_a_number_names_its_line(
        line, val, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = 1\n{line}\n")
    rc = main(["simulate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (f"error: config line {line!r} wants a number, "
                            f"got {val!r}\n")


def test_symbolic_checks_do_not_import_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import contextlib, io, sys\n"
            "import z22field\n"
            "from z22field import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['verify-tables', '--format', 'json'])\n"
            "assert rc == 0, rc\n"
            "assert 'numpy' not in sys.modules\n"
            "assert z22field.SimConfig is z22field.sim.SimConfig\n"
            "assert 'numpy' in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_simulate_has_no_format_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--format", "csv"])
    assert exc.value.code == 2


def test_simulate_artifacts(tmp_path, capsys):
    rc = main(["simulate", "--dx", "0.2", "--t-end", "1", "--initial",
               "kink", "--param", "v=0.2", "--output-stride", "5",
               "--profile-dump", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "profile.dat").exists()
    snaps = sorted(tmp_path.glob("snapshot_*.csv"))
    assert snaps
    header = snaps[0].read_text().splitlines()[0]
    assert header == "x,phi00,phi11,pi00,pi11"


def test_snapshot_reads_each_derived_field_once(tmp_path, monkeypatch):
    from z22field import sim
    reads = []
    for name in ("phi00", "phi11", "pi00", "pi11"):
        prop = getattr(sim.FieldState, name)

        def counted(state, prop=prop, name=name):
            reads.append(name)
            return prop.fget(state)
        monkeypatch.setattr(sim.FieldState, name, property(counted))
    cfg = sim.SimConfig(dx=0.2, x_min=-2.0, x_max=2.0, initial="kink",
                        params={"v": 0.2})
    state = sim.step(sim.init_profile(cfg), cfg)
    reads.clear()
    cli._write_snapshot(tmp_path / "snap.csv", state)
    assert sorted(reads) == ["phi00", "phi11", "pi00", "pi11"]
    lines = (tmp_path / "snap.csv").read_text().splitlines()
    assert len(lines) == len(state.x) + 1
    want = [float(state.x[4]), float(state.phi00[4]), float(state.phi11[4]),
            float(state.pi00[4]), float(state.pi11[4])]
    assert lines[5] == ",".join(repr(v) for v in want)


def test_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1\ndx = 0.2\nt-end = 1\ninitial = kink\n"
                   "param.v = 0.25\n# comment\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    body = (tmp_path / "trajectory.csv").read_text()
    capsys.readouterr()

    parsed = build_sim_config(build_parser().parse_args(
        ["simulate", "--config", str(cfg)]))
    assert parsed.params == {"v": 0.25}
    assert parsed.dt == pytest.approx(0.08)
    assert body.startswith("time,energy")


def test_config_flags_override_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 2\ndx = 0.2\n")
    parsed = build_sim_config(build_parser().parse_args(
        ["simulate", "--config", str(cfg), "--alpha", "3"]))
    assert parsed.alpha == 3.0
    assert parsed.dx == 0.2


def test_report_all_writes_manifest(tmp_path, capsys):
    rc = main(["report-all", "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    names = [row["check"] for row in manifest]
    assert names == ["verify-algebra", "verify-tables", "derive-lagrangian",
                     "check-potential", "check-currents", "verify-dmodule",
                     "check-examples", "numerics"]
    for row in manifest:
        assert row["status"] == "pass"
        artifact = Path(row["artifact"])
        assert artifact.exists()
        assert json.loads(artifact.read_text())["ok"] is True


def test_simulate_rejects_an_oversized_grid_with_exit_two(capsys):
    # 2e12 sites: refused by SimConfig before any array exists
    rc = main(["simulate", "--dx", "1e-12", "--dt", "1e-13", "--x-min", "-1",
               "--x-max", "1", "--t-end", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: dx=1e-12 gives")


def test_failed_certificate_exits_one_without_traceback(monkeypatch, capsys):
    def failing(args):
        raise AssertionError("divergence certificate failed")

    monkeypatch.setitem(cli._RUNNERS, "check-currents", failing)
    rc = main(["check-currents"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: divergence certificate failed\n"
    assert "Traceback" not in captured.out + captured.err


def test_check_potential_reports_the_pair_constraint(capsys):
    rc = main(["check-potential", "--potential", "poly:0,0,1/2",
               "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["ok"] is True
    assert doc["report"]["constraint_ok"] is True


def test_check_potential_fails_on_a_broken_constraint(monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_potential_constraint",
                        lambda pair: {"ok": False})
    rc = main(["check-potential", "--potential", "cos", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1 and doc["ok"] is False
    assert doc["report"]["constraint_ok"] is False
    assert doc["report"]["matches_display"] is True


def test_config_param_line_without_a_value_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dx = 0.2\nparam = v\n")
    rc = main(["simulate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: config line 'param = v' wants "
                            "name=value, got 'v'\n")


def test_config_param_line_sets_a_profile_parameter(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("param = v=0.25\nparam = w = 2\n")
    parsed = build_sim_config(build_parser().parse_args(
        ["simulate", "--config", str(cfg), "--param", "w=3"]))
    assert parsed.params == {"v": 0.25, "w": 3.0}


def test_missing_config_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    rc = main(["simulate", "--config", str(missing)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: cannot read config file {str(missing)!r}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-dmodule", "--potential", "cos"],
    ["check-currents", "--truncation", "3"],
    ["verify-tables", "--out", "x"],
    ["report-all", "--format", "json"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_numerics_is_a_subcommand(capsys):
    rc = main(["numerics", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["ok"] is True
    checks = doc["report"]["checks"]
    assert len(checks) == 5 and all(v is True for v in checks.values())


def test_report_all_forwards_the_potential(tmp_path, capsys):
    rc = main(["report-all", "--potential", "cos", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "derive-lagrangian.json").read_text())
    assert doc["ok"] is True
    assert doc["report"]["potential"] == "cos"
