"""Command-line front end.

One binary, subcommand per task: algebra and table verification, the
Lagrangian pipeline, currents and invariance, the matrix realization,
potential handling, the finite-difference solver, and a batch mode that
runs the whole suite and writes a manifest.  Output is deterministic:
maps are emitted in sorted order and rationals in lowest terms, so
identical invocations produce byte-identical artifacts.  Each runner
imports only the layers it calls, so numpy loads only with the solver.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .core import pairjet
from .expr import GradedExpr

FORMATS = ("json", "latex", "text", "csv")


# ----------------------------------------------------------------------
# deterministic serialization of report payloads
# ----------------------------------------------------------------------

def _plain(obj, fmt: str = "text"):
    """Recursively convert a report payload to json-safe data."""
    if isinstance(obj, GradedExpr):
        if fmt == "latex":
            from .serialize import latex
            return latex(obj)
        return str(obj)
    if isinstance(obj, dict):
        return {_key(k): _plain(v, fmt) for k, v in sorted(
            obj.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, fmt) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _key(k) -> str:
    if isinstance(k, tuple):
        return ",".join(str(p) for p in k)
    return str(k)


def _flat_rows(payload: dict, prefix: str = "") -> List[Tuple[str, str]]:
    rows = []
    for k in sorted(payload):
        v = payload[k]
        name = f"{prefix}{k}"
        if isinstance(v, dict):
            rows.extend(_flat_rows(v, name + "."))
        else:
            rows.append((name, json.dumps(v) if isinstance(v, list) else str(v)))
    return rows


def _emit_report(ok: bool, payload: dict, fmt: str, out) -> None:
    data = _plain(payload, fmt)
    if fmt == "json":
        print(json.dumps({"ok": ok, "report": data}, sort_keys=True,
                         indent=2), file=out)
    elif fmt == "csv":
        # quoted where a name or value holds a comma or a quote
        import csv
        csv.writer(out, lineterminator="\n").writerows(
            [("check", "value"), *_flat_rows(data), ("ok", ok)])
    else:
        for name, val in _flat_rows(data):
            print(f"{name}: {val}", file=out)
        print(f"ok: {ok}", file=out)


# ----------------------------------------------------------------------
# input at the boundary: exit 2
# ----------------------------------------------------------------------

class InputError(ValueError):
    """A request refused at the boundary: exit 2.  Any other failure,
    an engine ValueError included, exits 1."""


def _input(read: Callable, *args):
    """read(*args), where a ValueError names bad input."""
    try:
        return read(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ----------------------------------------------------------------------
# check runners: each returns (ok, payload)
# ----------------------------------------------------------------------

def run_verify_algebra(args) -> Tuple[bool, dict]:
    from .expr import parse
    from .derivations import verify_structure_constants, verify_jacobi
    from .superfield import (closure_report, degree_audit, dimension_audit,
                             reality_check)
    from .action import (berezin_layer, clifford_report,
                         lorentz_spinor_report, measure_invariance_report,
                         nilpotency_report, product_covariance_report)
    sc = verify_structure_constants()
    jac = verify_jacobi()
    clo = closure_report("y")
    int_ok = (berezin_layer(parse("z*th10*th01*A00", "y"))
              == parse("1/2*A00", "y"))
    audits = {
        "superfield_real": reality_check(),
        "degree_audit_clean": not degree_audit("y") and not degree_audit("x"),
        "dimension_audit_clean": (not dimension_audit("y")
                                  and not dimension_audit("x")),
        "measure_invariance": measure_invariance_report()["ok"],
        "nilpotency": nilpotency_report()["ok"],
        "product_covariance": product_covariance_report()["ok"],
        "clifford": clifford_report()["ok"],
        "lorentz_spinors": lorentz_spinor_report()["ok"],
        "integration_map_half_A00": int_ok,
    }
    payload = {
        "structure_constants": {r["relation"]: r["status"] for r in sc},
        "jacobi": {r["relation"]: r["status"] for r in jac},
        "variation_closure": {r["pair"]: r["status"] for r in clo},
        "audits": audits,
    }
    ok = (all(r["status"] == "ok" for r in sc + jac + clo)
          and all(audits.values()))
    return ok, payload


def run_verify_tables(args) -> Tuple[bool, dict]:
    from .variational import table_comparison_report
    rep = table_comparison_report()
    ok = all(entry["ok"] for entry in rep.values())
    return ok, rep


def run_derive_lagrangian(args) -> Tuple[bool, dict]:
    from .potential import parse_potential
    from .action import lagrangian, lagrangian_audit
    V = _input(parse_potential, args.potential)
    lag = lagrangian(V=V, eliminate=args.eliminate_aux)
    audit = lagrangian_audit(lag)
    payload = {"lagrangian": lag, "audit": audit, "potential": V.name,
               "eliminated": bool(args.eliminate_aux)}
    return bool(audit["ok"]), payload


def run_check_potential(args) -> Tuple[bool, dict]:
    from .potential import (check_potential_constraint, check_request,
                            parse_potential, potential_components,
                            series_pair)
    V = _input(parse_potential, args.potential)
    _input(check_request, "x", args.truncation)
    pair = potential_components(V, stage="x",
                                truncation_order=args.truncation)
    ser = series_pair(V, stage="x", truncation_order=args.truncation)
    constraint_ok = (check_potential_constraint(pair)["ok"]
                     and check_potential_constraint(ser)["ok"])
    payload = {
        "potential": V.name,
        "closed": pair.closed,
        "constraint_ok": constraint_ok,
        "v00": pair.v00, "v11": pair.v11,
        "series_v00": ser.v00, "series_v11": ser.v11,
    }
    ok = constraint_ok
    if V.kind == "cos":
        from .reference import trigonometric_specialization
        spec = trigonometric_specialization()
        # every displayed pair entry, V00 to V11_3
        matches = all(spec[g.name] == V.image(g)
                      for g in (pairjet(m, s, "x") for m in range(1, 5)
                                for s in (0, 1)))
        payload["matches_display"] = matches
        ok = ok and matches
    return ok, payload


def run_check_currents(args) -> Tuple[bool, dict]:
    from .variational import current_comparison, invariance_report
    inv = invariance_report(eliminate=not args.generic)
    cur = current_comparison()
    cur_ok = all(e["conserved"]
                 and (e["matches_reference"]
                      or e.get("improvement_conserved", False))
                 for e in cur.values())
    inv_ok = all(e["ok"] for e in inv.values())
    payload = {
        "invariance": {n: {"ok": e["ok"]} for n, e in inv.items()},
        "currents": {n: {k: v for k, v in e.items()
                         if k not in ("improvement",)}
                     for n, e in cur.items()},
    }
    return inv_ok and cur_ok, payload


def run_verify_dmodule(args) -> Tuple[bool, dict]:
    from .dmodule import dmodule_report
    rep = dmodule_report()
    ok = (all(rep["relations_printed"].values())
          and all(rep["relations_canonical"].values())
          and rep["canonical_matches_printed"]
          and rep["tables_reconstructed"])
    return ok, rep


def run_check_examples(args) -> Tuple[bool, dict]:
    from .variational import (generic_eom_report, quadratic_eom_report,
                              sine_gordon_reduction, trig_eom_report)
    generic = generic_eom_report()
    sections = {"generic": generic,
                "quadratic": quadratic_eom_report(),
                "trigonometric": trig_eom_report(generic),
                "sine_gordon": sine_gordon_reduction()}
    payload = {sec: {b: {k: v for k, v in e.items() if k != "residual"}
                     for b, e in rows.items()}
               for sec, rows in sections.items()}
    # a trigonometric row may miss only by its recorded erratum
    ok = all(e["exact"] or e.get("matches_erratum", False)
             for rows in payload.values() for e in rows.values())
    return ok, payload


def run_numerics(args) -> Tuple[bool, dict]:
    from . import sim
    conv = sim.convergence_study()
    drift = sim.energy_drift_study()
    boost = sim.boosted_kink_study()
    exch = sim.exchange_symmetry_study()
    disp = sim.dispersion_study()
    checks = {
        "convergence_second_order": all(3.5 <= r <= 4.5
                                        for r in conv["ratios"]),
        "energy_drift_bounded": drift["max_relative_drift"] < 1e-5,
        "boosted_kink_position": boost["position_error"] < boost["dx"],
        "exchange_symmetry": exch["max_asymmetry"] < 1e-12,
        "dispersion_relation": disp["relative_error"] < 0.01,
    }
    payload = {"convergence": conv, "drift": drift, "boosted_kink": boost,
               "exchange": exch, "dispersion": disp, "checks": checks}
    return all(checks.values()), payload


# ----------------------------------------------------------------------
# simulate subcommand
# ----------------------------------------------------------------------

# the SimConfig fields `simulate` reads from flags and config, and types
_SIM_FIELDS = {"alpha": float, "dx": float, "dt": float, "x_min": float,
               "x_max": float, "t_end": float, "boundary": str,
               "initial": str, "output_stride": int}


def _number(kind: type, val: str, where: str):
    """`kind(val)`; `where` names the source of `val`."""
    try:
        return kind(val)
    except ValueError:
        raise ValueError(f"{where} wants a number, got {val!r}") from None


def _name_value(item: str, where: str) -> Tuple[str, float]:
    """One `name=value` profile parameter; `where` names its source."""
    name, sep, val = item.partition("=")
    if not sep:
        raise ValueError(f"{where} wants name=value, got {item!r}")
    return name.strip(), _number(float, val.strip(), where)


def _read_config_file(path: str) -> List[Tuple[str, str, str]]:
    """(key, value, line) for each `key = value` line."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: "
                         f"{exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc.reason} "
                         f"at byte {exc.start}") from None
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}")
        key, val = (p.strip() for p in line.split("=", 1))
        out.append((key.replace("-", "_"), val, raw))
    return out


def build_sim_config(args) -> sim.SimConfig:
    from . import sim
    values: dict = {}
    params: Dict[str, float] = {}
    if args.config:
        for key, val, raw in _read_config_file(args.config):
            where = f"config line {raw!r}"
            if key == "param":
                name, num = _name_value(val, where)
                params[name] = num
            elif key.startswith("param."):
                params[key[len("param."):]] = _number(float, val, where)
            elif key in _SIM_FIELDS:
                values[key] = _number(_SIM_FIELDS[key], val, where)
            else:
                raise ValueError(f"unknown config key {key!r}")
    for key in _SIM_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for item in args.param:
        name, num = _name_value(item, "--param")
        params[name] = num
    return sim.SimConfig(**values, params=params)


def _rows(columns, sep: str) -> List[str]:
    """One line per grid site; each column is read once, not per row
    (the phi and pi fields of a state are derived arrays)."""
    return [sep.join(map(repr, row))
            for row in zip(*(c.tolist() for c in columns))]


def _write_snapshot(path: Path, state: sim.FieldState) -> None:
    rows = _rows((state.x, state.phi00, state.phi11, state.pi00,
                  state.pi11), ",")
    path.write_text("x,phi00,phi11,pi00,pi11\n" + "\n".join(rows) + "\n")


def run_simulate(args) -> int:
    from . import sim
    cfg = _input(build_sim_config, args)
    if not args.out and (args.profile_dump or cfg.output_stride):
        flag = "--profile-dump" if args.profile_dump else "--output-stride"
        raise InputError(f"{flag} writes files under --out, which is not set")
    # run raises ValueError only to refuse a profile before its first step
    # (an infinite initial energy); a step that fails raises RuntimeError
    traj = _input(sim.run, cfg)
    lines = ["time,energy"]
    lines += [f"{float(t)!r},{float(e)!r}"
              for t, e in zip(traj.times, traj.energies)]
    body = "\n".join(lines) + "\n"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "trajectory.csv").write_text(body)
        if cfg.output_stride:
            for idx, snap in enumerate(traj.snapshots):
                _write_snapshot(out_dir / f"snapshot_{idx:04d}.csv", snap)
        if args.profile_dump:
            final = traj.final
            rows = _rows((final.x, final.phi00, final.phi11), " ")
            (out_dir / "profile.dat").write_text(
                "# x phi00 phi11\n" + "\n".join(rows) + "\n")
    else:
        sys.stdout.write(body)
    return 0


# ----------------------------------------------------------------------
# report-all
# ----------------------------------------------------------------------

CHECKS: List[Tuple[str, Callable]] = [
    ("verify-algebra", run_verify_algebra),
    ("verify-tables", run_verify_tables),
    ("derive-lagrangian", run_derive_lagrangian),
    ("check-potential", run_check_potential),
    ("check-currents", run_check_currents),
    ("verify-dmodule", run_verify_dmodule),
    ("check-examples", run_check_examples),
    ("numerics", run_numerics),
]


def run_report_all(args) -> int:
    from . import __version__
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    all_ok = True
    for name, runner in CHECKS:
        start = time.perf_counter()
        ok, payload = runner(args)
        duration = time.perf_counter() - start
        all_ok = all_ok and ok
        artifact = out_dir / f"{name}.json"
        with artifact.open("w") as fh:
            _emit_report(ok, payload, "json", fh)
        rows.append({"check": name, "status": "pass" if ok else "fail",
                     "artifact": str(artifact),
                     "duration_s": round(duration, 6)})
    import platform
    import numpy    # loaded by the numerics check
    manifest = {
        "versions": {"z22field": __version__,
                     "python": platform.python_version(),
                     "numpy": numpy.__version__},
        "arguments": vars(args),
        "checks": rows,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for row in rows:
        print(f"{row['check']}: {row['status']}  ({row['artifact']})")
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

_CHECK_FLAGS = {
    "--format": dict(choices=FORMATS, default="text"),
    "--potential": dict(default="abstract",
                        help="abstract | cos | sin | poly:c0,c1,..."),
    "--truncation": dict(type=int, default=4),
    "--eliminate-aux": dict(action="store_true"),
    "--generic": dict(action="store_true"),
}
# the flags each check's runner reads, besides --format
_READS = {
    "derive-lagrangian": ("--potential", "--eliminate-aux"),
    "check-potential": ("--potential", "--truncation"),
    "check-currents": ("--generic",),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="z22field",
        description="verification and simulation suite for the graded "
                    "two-dimensional multiplet")
    sub = top.add_subparsers(dest="command", required=True)

    def add(p, flags):
        for flag in flags:
            p.add_argument(flag, **_CHECK_FLAGS[flag])

    for name, _ in CHECKS:
        add(sub.add_parser(name), ("--format",) + _READS.get(name, ()))
    ra = sub.add_parser("report-all")
    ra.add_argument("--out", default="reports")
    # the runners read these; report-all only forwards them
    add(ra, ("--potential", "--truncation", "--eliminate-aux", "--generic"))

    s = sub.add_parser("simulate")
    s.add_argument("--config", default=None,
                   help="key = value text file with SimConfig fields")
    # SimConfig names an unknown boundary or profile (exit 2)
    for key, kind in _SIM_FIELDS.items():
        s.add_argument("--" + key.replace("_", "-"), type=kind)
    s.add_argument("--param", action="append", default=[],
                   help="profile parameter name=value, repeatable")
    s.add_argument("--profile-dump", action="store_true",
                   help="write a gnuplot-readable final profile")
    s.add_argument("--out", default=None)
    return top


_RUNNERS = dict(CHECKS)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return run_simulate(args)
        if args.command == "report-all":
            return run_report_all(args)
        runner = _RUNNERS[args.command]
        ok, payload = runner(args)
        if args.command == "derive-lagrangian" and args.format in (
                "latex", "text"):
            lag = payload["lagrangian"]
            if args.format == "latex":
                from .serialize import latex
                lag = latex(lag)
            print(lag)
        else:
            _emit_report(ok, payload, args.format, sys.stdout)
        sys.stdout.flush()
        return 0 if ok else 1
    except BrokenPipeError:
        # the reader left: the null device takes the interpreter's last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "format", None) == "json":
            print(json.dumps({"ok": False, "error": str(exc)}, sort_keys=True,
                             indent=2))
        return 2 if isinstance(exc, InputError) else 1


if __name__ == "__main__":
    sys.exit(main())
