"""Command-line surface: dispatch, exit codes, determinism, artifacts."""

import csv
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import z22field
from z22field import (GradedExpr, cli, lagrangian, parse_potential, potential,
                      reference)
from z22field.cli import build_parser, build_sim_config, main
from z22field.expr import parse


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


def test_verify_tables_fails_when_a_table_entry_flips_sign(monkeypatch,
                                                          capsys):
    real = reference.pre_variation_tables

    def flipped():
        tabs = real()
        tabs["Q10"]["psi01"] = -tabs["Q10"]["psi01"]
        return tabs

    monkeypatch.setattr(reference, "pre_variation_tables", flipped)
    assert main(["verify-tables", "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)["report"]
    failed = [(name, key) for name, e in rep.items()
              for key, ok in e["entries"].items() if not ok]
    assert failed == [("Q10", "y:psi01")]
    assert [name for name, e in rep.items() if not e["ok"]] == ["Q10"]


# verify-algebra's audits: for each key, one plausible defect in the
# function that the key reads, which must turn that key, and only it,
# false
def _reality_without_the_odd_i():
    from z22field.core import QI, QONE
    from z22field.superfield import superfield
    sf = superfield("y")
    return GradedExpr({m: QONE if c == QI else c
                       for m, c in sf.terms.items()}).is_real()


def _audit_swapping_degree(stage="y"):
    # the two Z2 components of each entry's degree read in swapped order
    from z22field.core import Degree
    from z22field.superfield import _audit
    return _audit(stage, "degree",
                  lambda e: Degree(e.degree().b, e.degree().a))


def _audit_in_half_units(stage="y"):
    from z22field.superfield import _audit
    return _audit(stage, "dim", lambda e: 2 * e.scaling_dim())


def _measure_with_a_flipped_power():
    from fractions import Fraction
    from z22field import coord, gexp
    return gexp(coord("z")) * gexp(coord("y"), Fraction(1, 2))


def _nilpotency_of_a_mixed_product():
    from z22field.action import covariant_pair
    d10phi, d01phi = covariant_pair()
    sq10, sq01 = d10phi * d10phi, d01phi * d10phi
    return {"ok": sq10.is_zero() and sq01.is_zero(),
            "sq10": sq10, "sq01": sq01}


def _covariance_with_a_flipped_sign():
    from z22field import action, param, gexp
    from z22field.derivations import superspace_operators
    ops = superspace_operators()
    d10phi, d01phi = action.covariant_pair()
    eps = action._i * gexp(param("epsL"))
    dphi = eps * ops["L11"](action.superfield("y"))
    lhs = ops["D10"](dphi) * d01phi + d10phi * ops["D01"](dphi)
    resid = lhs + eps * ops["L11"](d10phi * d01phi)
    return {"ok": resid.is_zero(), "residual": resid}


def _berezin_of_the_z_free_slot(j):
    from z22field import action
    return action._half * action.theta_theta_layers(j)[0]


def _real_matrix(rows):
    from z22field.core import GaussianRational
    return tuple(tuple(GaussianRational(v) for v in row) for row in rows)


AUDIT_DEFECTS = {
    "superfield_real": ("superfield", "reality_check",
                        _reality_without_the_odd_i),
    "degree_audit_clean": ("superfield", "degree_audit",
                           _audit_swapping_degree),
    "dimension_audit_clean": ("superfield", "dimension_audit",
                              _audit_in_half_units),
    "measure_invariance": ("action", "measure_factor",
                           _measure_with_a_flipped_power),
    "nilpotency": ("action", "nilpotency_report",
                   _nilpotency_of_a_mixed_product),
    "product_covariance": ("action", "product_covariance_report",
                           _covariance_with_a_flipped_sign),
    # gamma1 without its minus sign, and the spin part of the boost with
    # the identity in place of sigma1
    "clifford": ("action", "GAMMA1", _real_matrix(((0, 1), (1, 0)))),
    "lorentz_spinors": ("action", "SIGMA1", _real_matrix(((1, 0), (0, 1)))),
    "integration_map_half_A00": ("action", "berezin_layer",
                                 _berezin_of_the_z_free_slot),
}


def test_every_verify_algebra_audit_has_a_defect(capsys):
    assert main(["verify-algebra", "--format", "json"]) == 0
    audits = json.loads(capsys.readouterr().out)["report"]["audits"]
    assert sorted(audits) == sorted(AUDIT_DEFECTS)
    assert all(audits.values())


@pytest.mark.parametrize("key", list(AUDIT_DEFECTS))
def test_a_defect_turns_its_verify_algebra_audit_false(key, monkeypatch,
                                                       capsys):
    module, name, defect = AUDIT_DEFECTS[key]
    monkeypatch.setattr(importlib.import_module(f"z22field.{module}"), name,
                        defect)
    assert main(["verify-algebra", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    audits = doc["report"]["audits"]
    assert [k for k, ok in audits.items() if not ok] == [key]
    for section in ("structure_constants", "jacobi", "variation_closure"):
        assert set(doc["report"][section].values()) == {"ok"}, section


def test_derive_lagrangian_fails_on_a_fermion_term_without_its_i(
        monkeypatch, capsys):
    # one term of the density loses its factor i: the audit's reality
    # test turns the check false, with degree and dimension unchanged
    from z22field import action
    from z22field.core import QI
    real = action.lagrangian

    def lost_i(V=None, eliminate=False):
        terms = dict(real(V, eliminate).terms)
        mono = next(m for m, c in terms.items() if c._b)
        terms[mono] = terms[mono] * -QI
        return GradedExpr(terms)

    monkeypatch.setattr(action, "lagrangian", lost_i)
    argv = _certify_argv()["derive-lagrangian"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    audit = doc["report"]["audit"]
    assert audit["ok"] is False and audit["real"] is False
    assert audit["degree"] == [0, 0] and audit["dimension"] == "2"


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
    rc = main(["derive-lagrangian", "--potential", "cos",
               "--eliminate-aux", "--format", "text"])
    assert rc == 0
    lag = lagrangian(parse_potential("cos"), eliminate=True)
    assert capsys.readouterr().out == f"{lag}\n"


def test_derive_lagrangian_generic_json(capsys):
    rc = main(["derive-lagrangian", "--format", "json"])
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


# the seven symbolic checks, as the benchmark's certify workload runs them
SYMBOLIC_CHECKS = [
    ["verify-algebra"], ["verify-tables"],
    ["derive-lagrangian", "--potential", "cos", "--eliminate-aux"],
    ["check-potential", "--potential", "poly:0,0,1/2"], ["check-currents"],
    ["verify-dmodule"], ["check-examples"],
]


@pytest.mark.parametrize("argv", SYMBOLIC_CHECKS, ids=lambda a: a[0])
def test_csv_rows_read_back_as_the_text_rows(argv, capsys):
    assert main(argv + ["--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    ok, payload = cli._RUNNERS[argv[0]](build_parser().parse_args(argv))
    text = io.StringIO()
    cli._emit_report(ok, payload, "text", text)
    assert rows[0] == ["check", "value"]
    assert all(len(row) == 2 for row in rows)
    assert [f"{name}: {value}" for name, value in rows[1:]] == (
        text.getvalue().splitlines())


def _poly_of_degree(d):
    return "poly:" + ",".join(["1"] * (d + 1))


@pytest.mark.parametrize("argv,names", [
    (["--potential", _poly_of_degree(potential.MAX_POLY_DEGREE + 1)],
     _poly_of_degree(potential.MAX_POLY_DEGREE + 1)),
    (["--potential", "cos", "--truncation",
      str(potential.MAX_TRUNCATION + 1)], str(potential.MAX_TRUNCATION + 1)),
], ids=["degree", "truncation"])
def test_check_potential_refuses_a_request_past_its_bound(argv, names,
                                                          capsys):
    assert main(["check-potential"] + argv) == 2
    assert names in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--potential", _poly_of_degree(potential.MAX_POLY_DEGREE)],
    ["--potential", "cos", "--truncation", str(potential.MAX_TRUNCATION)],
], ids=["degree", "truncation"])
def test_check_potential_accepts_a_request_at_its_bound(argv, capsys):
    assert main(["check-potential"] + argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_simulate_stdout_csv(capsys):
    rc = main(["simulate", "--alpha", "1", "--dx", "0.2", "--t-end", "2",
               "--initial", "kink"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,energy"
    assert len(lines) == 2 + round(2.0 / (0.4 * 0.2))
    t0, e0 = lines[1].split(",")
    assert float(t0) == 0.0
    assert abs(float(e0) - 2.0) < 5e-2


def test_simulate_cfl_violation_exits_two(capsys):
    rc = main(["simulate", "--dx", "0.1", "--dt", "0.5", "--t-end", "1"])
    assert rc == 2


def test_simulate_refuses_a_t_end_between_steps(capsys):
    # 1 / 0.07 is 14.29 steps: rounding to 14 would stop at t = 0.98
    rc = main(["simulate", "--dx", "0.2", "--dt", "0.07", "--t-end", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: t_end=1.0 is not a whole number of "
                            "steps of dt=0.07: it is 14.2857 steps, and 14 "
                            "steps end at t=0.98\n")


@pytest.mark.parametrize("argv, message", [
    (["--dx", "0.1", "--dt", "0.1", "--t-end", "200", "--initial",
      "gaussian"], "dt=0.1 is unstable"),
    (["--alpha", "nan"], "alpha must be finite"),
    (["--dx", "nan"], "dx must be finite"),
    (["--t-end", "-3"], "t_end must not be negative"),
    (["--boundary", "bogus"], "unknown boundary 'bogus'"),
    (["--dt", "1e200", "--dx", "1"], "dt=1e+200 is unstable"),
    (["--alpha", "1e200"], "dt=0.020000000000000004 is unstable: Verlet "
                           "needs dt^2 (4/dx^2 + alpha^2) < 4, here dx=0.05 "
                           "and alpha=1e+200"),
    (["--param", "w=3"], "profile 'kink' reads no parameter 'w'"),
    (["--param", "v=nan", "--t-end", "0"],
     "profile parameter v must be finite, got nan"),
    (["--param", "x0=inf", "--t-end", "0"],
     "profile parameter x0 must be finite, got inf"),
    (["--alpha", "1e155", "--dt", "1e-156", "--t-end", "0"],
     "alpha=1e+155 is too large: its square overflows a float"),
    (["--alpha", "1e154", "--dt", "1e-156", "--t-end", "0"],
     "the initial energy is inf at alpha=1e+154"),
    (["--param", "v=2", "--t-end", "0"],
     "kink velocity v=2.0 of profile 'kink' must satisfy |v| < 1"),
    (["--initial", "gaussian", "--param", "width=0"],
     "profile parameter width must not be 0"),
])
def test_simulate_rejects_bad_input_with_exit_two(argv, message, capsys):
    rc = main(["simulate", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_simulate_refuses_a_run_past_max_steps_before_running():
    # built only: code without the cap would run 5e301 steps
    args = build_parser().parse_args(["simulate", "--t-end", "1e300"])
    with pytest.raises(ValueError) as exc:
        build_sim_config(args)
    assert str(exc.value) == ("t_end=1e+300 at dt=0.020000000000000004 is "
                              "5e+301 steps, more than the 1000000 allowed")


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


_LAYERS = ("core", "expr", "derivations", "superfield", "potential",
           "action", "variational", "dmodule", "reference", "serialize",
           "cli", "sim")
# the seven symbolic checks, as the certify benchmark runs them
_CERTIFY = {
    "verify-algebra": [], "verify-tables": [],
    "derive-lagrangian": ["--potential", "cos", "--eliminate-aux"],
    "check-potential": ["--potential", "poly:0,0,1/2"],
    "check-currents": [], "verify-dmodule": [], "check-examples": [],
}
# layers a check must not load beyond numpy, dataclasses and serialize,
# which only LaTeX output needs
_CERTIFY_SKIPS = {
    "verify-algebra": ("potential",),
    "verify-tables": ("potential", "variational", "action"),
    "check-potential": ("action", "variational", "dmodule", "reference"),
    "verify-dmodule": ("variational", "action"),
}


def _load_cases():
    """(id, code run in a fresh interpreter, modules it must not load)."""
    yield ("import", "import z22field\n",
           [f"z22field.{m}" for m in _LAYERS])
    for cmd, flags in _CERTIFY.items():
        argv = [cmd, *flags, "--format", "json"]
        code = ("from z22field import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert cli.main({argv!r}) == 0\n")
        skips = [f"z22field.{m}" for m in _CERTIFY_SKIPS.get(cmd, ())]
        yield cmd, code, ["numpy", "dataclasses", "z22field.serialize",
                          *skips]
    yield ("init_profile",
           "import z22field\n"
           "z22field.init_profile(z22field.SimConfig())\n"
           "assert z22field.SimConfig is z22field.sim.SimConfig\n"
           "assert 'numpy' in sys.modules\n",
           [f"z22field.{m}" for m in _LAYERS if m != "sim"])


_LOAD_CASES = list(_load_cases())


@pytest.mark.parametrize("code,unloaded", [c[1:] for c in _LOAD_CASES],
                         ids=[c[0] for c in _LOAD_CASES])
def test_each_process_loads_only_the_layers_it_runs(code, unloaded):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import contextlib, io, sys\n" + code
         + "print(' '.join(sys.modules))\n"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not set(unloaded) & set(proc.stdout.split())


@pytest.mark.parametrize("name", z22field.__all__)
def test_every_public_name_resolves_through_the_package(name):
    layer = importlib.import_module(f"z22field.{z22field._HOME[name]}")
    assert getattr(z22field, name) is getattr(layer, name)
    assert name in dir(z22field)


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        z22field.no_such_name


def test_simulate_has_no_format_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--format", "csv"])
    assert exc.value.code == 2


def test_simulate_artifacts(tmp_path, capsys):
    rc = main(["simulate", "--dx", "0.2", "--t-end", "2", "--initial",
               "kink", "--param", "v=0.2", "--output-stride", "5",
               "--profile-dump", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "profile.dat").exists()
    snaps = sorted(tmp_path.glob("snapshot_*.csv"))
    assert snaps
    header = snaps[0].read_text().splitlines()[0]
    assert header == "x,phi00,phi11,pi00,pi11"


@pytest.mark.parametrize("argv, flag", [
    (["--profile-dump"], "--profile-dump"),
    (["--output-stride", "5"], "--output-stride"),
])
def test_simulate_refuses_a_file_flag_without_out(argv, flag, capsys):
    rc = main(["simulate", "--t-end", "0", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (f"error: {flag} writes files under --out, which "
                            f"is not set\n")


@pytest.mark.parametrize("how", ["flag", "key"])
def test_simulate_refuses_a_negative_output_stride(how, tmp_path, capsys):
    # Python's % takes the divisor's sign: -3 would write every third step
    out = tmp_path / "out"
    argv = ["simulate", "--dx", "0.2", "--t-end", "0.4", "--out", str(out)]
    if how == "flag":
        argv += ["--output-stride", "-3"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("output_stride = -3\n")
        argv += ["--config", str(cfg)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: output_stride must not be negative, "
                            "got -3\n")
    assert not out.exists()


def test_simulate_refuses_an_output_stride_key_without_out(tmp_path,
                                                           capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t-end = 0\noutput_stride = 5\n")
    rc = main(["simulate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--output-stride writes files under --out" in captured.err


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
    cfg.write_text("alpha = 1\ndx = 0.2\nt-end = 2\ninitial = kink\n"
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
    names = [row["check"] for row in manifest["checks"]]
    assert names == ["verify-algebra", "verify-tables", "derive-lagrangian",
                     "check-potential", "check-currents", "verify-dmodule",
                     "check-examples", "numerics"]
    capsys.readouterr()
    for row in manifest["checks"]:
        assert row["status"] == "pass"
        artifact = Path(row["artifact"])
        assert json.loads(artifact.read_text())["ok"] is True
        # each artifact is that subcommand's json output, byte for byte
        assert main([row["check"], "--format", "json"]) == 0
        assert artifact.read_text() == capsys.readouterr().out, row["check"]


@pytest.mark.parametrize("bad", [["--potential", "bogus"],
                                 ["--truncation", "999"]])
def test_report_all_refuses_bad_input_before_any_check(bad, tmp_path,
                                                       capsys):
    out = tmp_path / "reports"
    assert main(["report-all", "--out", str(out), *bad]) == 2
    assert not out.exists()
    assert bad[1] in capsys.readouterr().err


_FERMION_ROWS = ("lam01", "lam10", "psi01", "psi10")


def _trig_failures(capsys) -> list:
    """The trigonometric rows of a failed check-examples run that miss
    their erratum."""
    assert main(["check-examples", "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["report"]["trigonometric"]
    return [b for b, e in rows.items() if not e["matches_erratum"]]


def test_check_examples_fails_when_the_trig_fermion_rows_are_zeroed(
        monkeypatch, capsys):
    real = reference.sg_eom_printed
    monkeypatch.setattr(reference, "sg_eom_printed", lambda: {
        b: GradedExpr.zero() if b in _FERMION_ROWS else e
        for b, e in real().items()})
    assert _trig_failures(capsys) == list(_FERMION_ROWS)


@pytest.mark.parametrize("row", ["phi00", "phi11", *_FERMION_ROWS])
def test_check_examples_fails_when_an_erratum_flips_sign(
        row, monkeypatch, capsys):
    real = reference.sg_eom_errata
    monkeypatch.setattr(reference, "sg_eom_errata", lambda: {
        b: -e if b == row else e for b, e in real().items()})
    assert _trig_failures(capsys) == [row]


def _flip(e: GradedExpr, term: str) -> GradedExpr:
    """e with its term `term` (an x-stage text form) negated."""
    t = parse(term, "x")
    (mono, c), = t.terms.items()
    assert e.terms.get(mono) == c, term
    return e - t - t


@pytest.mark.parametrize("name, row, term, failing", [
    ("generic_eom", "psi10", "i*psi10_t", {"generic": ["psi10"]}),
    ("quadratic_eom_printed", "phi11", "alpha^2*phi11",
     {"quadratic": ["phi11"]}),
    ("sg_reduced_eom", None, "alpha^2*C00*S00",
     {"sine_gordon": ["phi00", "phi11"]}),
])
def test_check_examples_fails_when_a_displayed_sign_flips(
        name, row, term, failing, monkeypatch, capsys):
    real = getattr(reference, name)
    broken = ((lambda: _flip(real(), term)) if row is None else
              lambda: {b: _flip(e, term) if b == row else e
                       for b, e in real().items()})
    monkeypatch.setattr(reference, name, broken)
    assert main(["check-examples", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    # only the section whose display was broken loses rows
    assert {sec: [b for b, e in rows.items()
                  if not (e["exact"] or e.get("matches_erratum", False))]
            for sec, rows in report.items()} == {
        sec: failing.get(sec, []) for sec in report}


def test_report_all_manifest_records_durations_versions_and_arguments(
        tmp_path, monkeypatch, capsys):
    import platform
    import numpy
    monkeypatch.setattr(cli, "CHECKS", [("first", lambda args: (True, {})),
                                        ("second", lambda args: (False, {}))])
    rc = main(["report-all", "--out", str(tmp_path), "--potential", "cos",
               "--truncation", "3", "--generic"])
    assert rc == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"] == {"z22field": z22field.__version__,
                                    "python": platform.python_version(),
                                    "numpy": numpy.__version__}
    assert manifest["arguments"] == {
        "command": "report-all", "out": str(tmp_path), "potential": "cos",
        "truncation": 3, "eliminate_aux": False, "generic": True}
    rows = manifest["checks"]
    assert [(r["check"], r["status"]) for r in rows] == [("first", "pass"),
                                                         ("second", "fail")]
    for row in rows:
        assert isinstance(row["duration_s"], float) and row["duration_s"] >= 0


def test_a_rejected_input_under_json_prints_a_json_error(capsys):
    rc = main(["check-potential", "--potential", "poly:x", "--format",
               "json"])
    captured = capsys.readouterr()
    assert rc == 2
    doc = json.loads(captured.out)
    assert doc["ok"] is False
    assert "bad polynomial coefficient in 'poly:x'" in doc["error"]
    assert "'x'" in doc["error"]
    assert captured.err == f"error: {doc['error']}\n"


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


def test_check_currents_fails_on_a_wrong_reference_current(monkeypatch,
                                                          capsys):
    # with no shared monomial (Z) or the wrong pair (Q10), the leftover is
    # conserved on-shell only because the engine current is; an
    # improvement must be conserved identically
    real = reference.reference_currents()
    zero = (GradedExpr.zero(), GradedExpr.zero())
    monkeypatch.setattr(reference, "reference_currents",
                        lambda: {**real, "Z": zero, "Q10": real["H"]})
    ok, payload = cli.run_check_currents(build_parser().parse_args(
        ["check-currents"]))
    cur = payload["currents"]
    assert ok is False
    assert cur["Z"]["scale"] is None
    assert cur["Z"]["improvement_conserved"] is False
    assert cur["Q10"]["improvement_conserved"] is False
    assert main(["check-currents", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_check_currents_reports_a_failed_certificate(monkeypatch, capsys):
    # doubling the phi00 image before prolongation keeps the chain-rule
    # identity but leaves delta_H(L) with no exact divergence form
    from z22field import variational
    from z22field.action import eliminate_auxiliary
    from z22field.superfield import prolonged_derivation, variation_table
    real = variational.eliminated_variation

    def broken(name):
        if name != "H":
            return real(name)
        table = {b: eliminate_auxiliary(e)
                 for b, e in variation_table("H", "x").items()
                 if b not in variational.AUXILIARY}
        table["phi00"] = GradedExpr.const(2) * table["phi00"]
        return prolonged_derivation(table, "x", "delta_H[doubled]")

    monkeypatch.setattr(variational, "eliminated_variation", broken)
    assert main(["check-currents", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["ok"] is False
    report = doc["report"]
    assert report["invariance"]["H"]["ok"] is False
    assert report["currents"]["H"] == {
        "scale": None, "matches_reference": False, "conserved": False,
        "certificate": "no exact divergence form found"}
    for name in ("Z", "Q10", "Q01", "L11"):
        assert report["invariance"][name]["ok"] is True
        assert report["currents"][name]["conserved"] is True


def test_check_potential_reports_the_pair_constraint(capsys):
    rc = main(["check-potential", "--potential", "poly:0,0,1/2",
               "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["ok"] is True
    assert doc["report"]["constraint_ok"] is True


def test_check_potential_fails_on_a_broken_constraint(monkeypatch, capsys):
    monkeypatch.setattr(potential, "check_potential_constraint",
                        lambda pair: {"ok": False})
    rc = main(["check-potential", "--potential", "cos", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1 and doc["ok"] is False
    assert doc["report"]["constraint_ok"] is False
    assert doc["report"]["matches_display"] is True


def test_check_potential_fails_on_a_tampered_higher_display_entry(
        monkeypatch, capsys):
    # V11_2 is no slot function, so only the display comparison sees it
    real = reference.trigonometric_specialization()
    monkeypatch.setattr(reference, "trigonometric_specialization",
                        lambda: {**real, "V11_2": -real["V11_2"]})
    rc = main(["check-potential", "--potential", "cos", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1 and doc["ok"] is False
    assert doc["report"]["constraint_ok"] is True
    assert doc["report"]["matches_display"] is False


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
    cfg.write_text("param = v=0.25\nparam = x0 = 2\n")
    parsed = build_sim_config(build_parser().parse_args(
        ["simulate", "--config", str(cfg), "--param", "x0=3"]))
    assert parsed.params == {"v": 0.25, "x0": 3.0}


def test_model_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = sine-gordon\n")
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown config key 'model'\n"


def test_missing_config_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    rc = main(["simulate", "--config", str(missing)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: cannot read config file {str(missing)!r}")
    assert "Traceback" not in captured.err


def test_a_config_file_that_is_not_text_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"alpha = 1\n\xff\xfe\n")
    rc = main(["simulate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: cannot read config file {str(cfg)!r}: invalid start byte "
        f"at byte 10")


def test_an_empty_poly_spec_exits_two(capsys):
    rc = main(["derive-lagrangian", "--potential", "poly:"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: poly: needs at least one coefficient\n")


@pytest.mark.parametrize("module, name, argv", [
    ("superfield", "table_comparison_report", ["verify-tables"]),
    # the spec and the truncation order are read first: what fails after
    # them is the engine's
    ("potential", "series_pair", ["check-potential", "--potential", "cos"]),
], ids=["verify-tables", "check-potential"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_engine_value_error_exits_one(module, name, argv, fmt,
                                         monkeypatch, capsys):
    # a ValueError from inside the engine is a failure, not bad input
    def broken(*args, **kwargs):
        raise ValueError("engine fault")
    monkeypatch.setattr(importlib.import_module(f"z22field.{module}"), name,
                        broken)
    rc = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: engine fault\n"
    if fmt == "json":
        assert json.loads(captured.out) == {"ok": False,
                                            "error": "engine fault"}


def test_an_out_directory_that_cannot_be_made_exits_one(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["simulate", "--t-end", "0", "--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(blocker / "sub") in captured.err


_CONFIG_KEYS = ["alpha", "dx", "dt", "x_min", "x-max", "t_end", "boundary",
                "initial", "output_stride", "param", "param.v", "param.w",
                "model", ""]
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "0.2", "1e308", "1e-320", "nan", "-inf",
                     "periodic", "kink", "v=0.5", "x0 = 2", "v=", "=1",
                     "1_000", "0x10", "2.5", "9" * 5000, "#"]),
    st.text(max_size=12))
_CONFIG_LINES = st.lists(st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES).map(
        lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20)), max_size=8).map("\n".join)


@given(st.one_of(_CONFIG_LINES.map(str.encode), st.binary(max_size=64)))
@settings(max_examples=200, deadline=None)
def test_a_config_file_gives_a_config_or_a_value_error(body):
    # `simulate --config` reads any file into a SimConfig or refuses it
    # with exit 2; no other exception escapes
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(body)
        args = build_parser().parse_args(["simulate", "--config", str(path)])
        try:
            cli._read_config_file(str(path))
            build_sim_config(args)
        except ValueError:
            pass


@pytest.mark.parametrize("argv", [
    ["verify-dmodule", "--potential", "cos"],
    ["check-currents", "--truncation", "3"],
    ["verify-tables", "--out", "x"],
    ["report-all", "--format", "json"],
    ["simulate", "--model", "sine-gordon"],
    ["derive-lagrangian", "--generic"],
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


def _sine_scaled(force):
    # the sine coefficient times 1.01: -0.005 alpha^2 sin 2w more
    def scaled(w, cfg, s=None):
        f = force(w, cfg, s)
        f -= 0.005 * cfg.alpha ** 2 * np.sin(2.0 * w)
        if cfg.boundary == "fixed":
            f[..., 0] = f[..., -1] = 0.0
        return f
    return scaled


def _v_squared(force):
    # 0.01 v^2 on the v row: u and v no longer evolve alike
    def skewed(w, cfg, s=None):
        f = force(w, cfg, s)
        f[1] += 0.01 * w[1] ** 2
        if cfg.boundary == "fixed":
            f[..., 0] = f[..., -1] = 0.0
        return f
    return skewed


@pytest.mark.parametrize("check,defect", [
    ("convergence_second_order", _sine_scaled),
    ("energy_drift_bounded", _sine_scaled),
    ("boosted_kink_position", _sine_scaled),
    ("exchange_symmetry", _v_squared)])
def test_a_defect_in_the_force_turns_its_numerics_check_false(
        check, defect, monkeypatch):
    from z22field import sim
    monkeypatch.setattr(sim, "force", defect(sim.force))
    ok, payload = cli.run_numerics(None)
    assert not ok and payload["checks"][check] is False


def test_report_all_forwards_the_potential(tmp_path, capsys):
    rc = main(["report-all", "--potential", "cos", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "derive-lagrangian.json").read_text())
    assert doc["ok"] is True
    assert doc["report"]["potential"] == "cos"


# ----------------------------------------------------------------------
# pinned symbolic outputs
# ----------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _pinned_digests(filename="symbolic_outputs.sha256", text=False):
    """`sha256sum` lines: digest, two spaces, `<subcommand>.json` or
    another output file; with `text`, only the `<subcommand>.txt` lines
    of the text outputs, which are left out otherwise."""
    lines = (ROOT / "tests" / filename).read_text()
    out = {}
    for line in lines.splitlines():
        digest, name = line.split("  ")
        if name.endswith(".txt") == text:
            out[name.removesuffix(".txt" if text else ".json")] = digest
    return out


def _certify_argv():
    """The benchmark's certify commands, each with its `--format json`
    argv, read from `benchmark/workloads.py`."""
    spec = importlib.util.spec_from_file_location(
        "_certify_workloads", ROOT / "benchmark" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {cmd: mod.certify_argv(cmd) for cmd, _ in mod.CERTIFY}


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _cold_cli_stdout(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "z22field.cli", *argv],
        env=_cli_env(), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_closed_stdout_exits_one_without_a_traceback():
    # a one-page pipe: the 13 kB report cannot fit, so the command is
    # still writing when the reader leaves after one byte
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("no way to shrink a pipe on this platform")
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "z22field.cli", "verify-algebra",
         "--format", "json"],
        env=_cli_env(), stdout=w, stderr=subprocess.PIPE)
    os.close(w)
    assert len(os.read(r, 1)) == 1
    os.close(r)
    _, err = proc.communicate(timeout=300)
    assert b"Traceback" not in err, err.decode()
    assert proc.returncode == 1


# the collector as an `atexit` hook sees it, after the CLI ran as
# `python -m z22field.cli` with the argv that follows the code
_COLLECTOR_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(
    f"collector: {gc.isenabled()} {gc.get_freeze_count()}\\n"))
runpy.run_module("z22field.cli", run_name="__main__")
"""


@pytest.mark.parametrize("enabled", [True, False])
def test_an_in_process_main_leaves_the_collector_as_it_found_it(enabled,
                                                                capsys):
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["verify-tables", "--format", "json"]) == 0
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv, code", [
    (_certify_argv()["verify-tables"], 0),
    (["frobnicate"], 2),
], ids=["verify-tables", "usage-error"])
def test_a_process_entry_runs_without_collection_and_exits_frozen(argv,
                                                                  code):
    proc = subprocess.run(
        [sys.executable, "-c", _COLLECTOR_PROBE, *argv],
        env=_cli_env(), capture_output=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert (hashlib.sha256(proc.stdout).hexdigest()
                == _pinned_digests()[argv[0]])
    probe = [line for line in proc.stderr.decode().splitlines()
             if line.startswith("collector: ")]
    assert len(probe) == 1, proc.stderr
    enabled, frozen = probe[0].split()[1:]
    assert enabled == "False" and int(frozen) > 0


def test_a_solver_run_makes_no_cyclic_garbage():
    # so `simulate`, run with collection off, keeps flat memory
    from z22field import sim
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        traj = sim.run(sim.SimConfig(output_stride=50))
        assert len(traj.times) > 300
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_every_certify_command_is_pinned():
    for text in (False, True):
        assert list(_pinned_digests(text=text)) == list(_certify_argv())


@pytest.mark.parametrize("command", list(_pinned_digests()))
def test_symbolic_output_matches_its_pinned_digest(command):
    stdout = _cold_cli_stdout(_certify_argv()[command])
    assert hashlib.sha256(stdout).hexdigest() == _pinned_digests()[command]


@pytest.mark.parametrize("command", list(_pinned_digests(text=True)))
def test_symbolic_text_output_matches_its_pinned_digest(command):
    argv = _certify_argv()[command]
    assert argv[-2:] == ["--format", "json"]
    stdout = _cold_cli_stdout([*argv[:-1], "text"])
    assert (hashlib.sha256(stdout).hexdigest()
            == _pinned_digests(text=True)[command])


def _cold_then_warm_digests(argv, capsys):
    """The digests of argv's stdout from two `main` calls in this
    interpreter: the first after every package cache is emptied, so it
    fills them, the second reading what the first stored."""
    from conftest import clear_package_caches
    clear_package_caches()
    digests = []
    for _ in range(2):
        assert main(argv) == 0
        digests.append(
            hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return digests


@pytest.mark.parametrize("command", list(_pinned_digests()))
def test_a_warm_certify_command_prints_its_pinned_output(command, capsys):
    pinned = _pinned_digests()[command]
    assert _cold_then_warm_digests(_certify_argv()[command],
                                   capsys) == [pinned, pinned]


# A degree-8 polynomial with zero, negative and fractional coefficients:
# its pair series run to the eighth derivative.  Its check-potential and
# sin's are also pinned at the series edges, truncation orders 0 and 6.
# The same argv writes `potential-out/` in CI.
POLY8 = "poly:1,-2,3/4,0,5,-1/3,2,1/7,-3/2"
POTENTIAL_ARGV = {
    "derive-lagrangian": ["derive-lagrangian", "--potential", POLY8,
                          "--eliminate-aux", "--format", "json"],
    "check-potential": ["check-potential", "--potential", POLY8,
                        "--format", "json"],
}
POTENTIAL_ARGV.update({
    f"{stem}-t{order}": ["check-potential", "--potential", spec,
                         "--truncation", str(order), "--format", "json"]
    for spec, stem in ((POLY8, "check-potential"),
                       ("sin", "check-potential-sin"))
    for order in (0, 6)})


@pytest.mark.parametrize("command", list(POTENTIAL_ARGV))
def test_potential_output_matches_its_pinned_digest(command):
    pinned = _pinned_digests("potential_outputs.sha256")
    assert list(pinned) == list(POTENTIAL_ARGV)
    stdout = _cold_cli_stdout(POTENTIAL_ARGV[command])
    assert hashlib.sha256(stdout).hexdigest() == pinned[command]


def test_a_warm_potential_derive_prints_its_pinned_output(capsys):
    pinned = _pinned_digests("potential_outputs.sha256")["derive-lagrangian"]
    assert _cold_then_warm_digests(POTENTIAL_ARGV["derive-lagrangian"],
                                   capsys) == [pinned, pinned]


# The trigonometric kinds' outputs, JSON and LaTeX; the same argv writes
# `trig-out/` in CI.
TRIG_ARGV = {
    "check-potential-cos": ["check-potential", "--potential", "cos",
                            "--format", "json"],
    "check-potential-sin": ["check-potential", "--potential", "sin",
                            "--format", "json"],
    "derive-lagrangian-sin": ["derive-lagrangian", "--potential", "sin",
                              "--eliminate-aux", "--format", "json"],
    "derive-lagrangian-cos.tex": ["derive-lagrangian", "--potential", "cos",
                                  "--eliminate-aux", "--format", "latex"],
}


@pytest.mark.parametrize("command", list(TRIG_ARGV))
def test_trig_output_matches_its_pinned_digest(command):
    pinned = _pinned_digests("trig_outputs.sha256")
    assert list(pinned) == list(TRIG_ARGV)
    stdout = _cold_cli_stdout(TRIG_ARGV[command])
    assert hashlib.sha256(stdout).hexdigest() == pinned[command]


# check-currents with the invariance certificates of the generic
# (pair-symbol) Lagrangian, which the certify list does not run; the same
# argv writes `currents-out/` in CI.
CURRENTS_ARGV = {
    "check-currents-generic": ["check-currents", "--generic",
                               "--format", "json"],
}


@pytest.mark.parametrize("command", list(CURRENTS_ARGV))
def test_currents_output_matches_its_pinned_digest(command):
    pinned = _pinned_digests("currents_outputs.sha256")
    assert list(pinned) == list(CURRENTS_ARGV)
    stdout = _cold_cli_stdout(CURRENTS_ARGV[command])
    assert hashlib.sha256(stdout).hexdigest() == pinned[command]
