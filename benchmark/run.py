"""z22field benchmark: three workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload certify|derive|evolve|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is loaded from
`src/`.  One closed-loop client (this process) starts one job at a time
in a fresh interpreter and waits for it.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end rows of BENCHMARK.json, with `--trace 1` the
per-layer rows.  The exit code is 0 only when every correctness gate
passed.  See benchmark/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib
from stats import Ledger, median, tail_percentile
from tracing import NO_WAIT_NOTE
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIGESTS = HERE / "reference_digests.json"
WORKLOADS = ("certify", "derive", "evolve")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150.0
# a workload's own run must leave room for set-up inside the time limit
MAX_SECONDS = 60.0

END_TO_END = {  # name -> unit, in BENCHMARK.json order
    "setup_s": "s", "pass_s": "s", "heavy_op_ms": "ms",
    "light_op_ms": "ms", "peak_rss_mb": "MB",
}
CLI_ROWS = [c.replace("-", "_") for c, _ in wl.CERTIFY]
PER_LAYER = {
    "core.scalar_mul_ns": "ns", "core.scalar_add_ns": "ns",
    "core.scalar_mul_calls": "count", "core.scalar_add_calls": "count",
    "expr.product_us": "us", "expr.product_calls": "count",
    "expr.add_calls": "count", "expr.substitute_s": "s",
    "expr.substitute_calls": "count",
    "derivations.apply_us": "us", "derivations.apply_calls": "count",
    "derivations.jacobi_s": "s", "derivations.structure_constants_s": "s",
    "derivations.operators_built": "count",
    "superfield.variation_table_calls": "count",
    "superfield.variation_table_s": "s",
    "superfield.stage_map_calls": "count", "superfield.stage_map_s": "s",
    "superfield.closure_s": "s",
    "potential.components_s": "s", "potential.series_s": "s",
    "action.lagrangian_calls": "count", "action.lagrangian_s": "s",
    "action.auxiliary_solution_calls": "count",
    "action.lagrangian_distinct_share": "ratio",
    "variational.divergence_split_calls": "count",
    "variational.divergence_split_s": "s",
    "variational.divergence_split_distinct_share": "ratio",
    "variational.noether_s": "s", "variational.reduce_onshell_s": "s",
    "variational.euler_lagrange_s": "s",
    "dmodule.report_s": "s",
    "sim.step_us_n800": "us", "sim.step_us_n80k": "us",
    "sim.force_calls_per_step": "ratio", "sim.total_energy_us": "us",
    **{f"sim.study_s.{s}": "s" for s in wl.STUDIES},
    **{f"cli.{c}_inproc_s": "s" for c in CLI_ROWS},
    **{f"self_s.{layer}": "s" for layer in (
        "expr", "derivations", "superfield", "potential", "action",
        "variational", "dmodule", "sim", "cli", "workload")},
    "trace.spans": "count", "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}
# span name -> per-layer row of its inclusive seconds
INCLUSIVE_ROWS = {
    "expr.substitute": "expr.substitute_s",
    "derivations.jacobi": "derivations.jacobi_s",
    "derivations.structure_constants": "derivations.structure_constants_s",
    "superfield.variation_table": "superfield.variation_table_s",
    "superfield.stage_map": "superfield.stage_map_s",
    "superfield.closure": "superfield.closure_s",
    "potential.components": "potential.components_s",
    "potential.series": "potential.series_s",
    "action.lagrangian": "action.lagrangian_s",
    "variational.divergence_split": "variational.divergence_split_s",
    "variational.noether": "variational.noether_s",
    "variational.reduce_onshell": "variational.reduce_onshell_s",
    "variational.euler_lagrange": "variational.euler_lagrange_s",
    "dmodule.report": "dmodule.report_s",
    **{f"sim.study.{s}": f"sim.study_s.{s}" for s in wl.STUDIES},
}
COUNT_ROWS = {
    "core.scalar_mul": "core.scalar_mul_calls",
    "core.scalar_add": "core.scalar_add_calls",
    "expr.product": "expr.product_calls", "expr.add": "expr.add_calls",
    "expr.substitute": "expr.substitute_calls",
    "derivations.apply": "derivations.apply_calls",
    "derivations.operators": "derivations.operators_built",
    "superfield.variation_table": "superfield.variation_table_calls",
    "superfield.stage_map": "superfield.stage_map_calls",
    "action.lagrangian": "action.lagrangian_calls",
    "action.auxiliary_solution": "action.auxiliary_solution_calls",
    "variational.divergence_split": "variational.divergence_split_calls",
}
KERNEL_ROWS = {"core.scalar_mul": "core.scalar_mul_ns",
               "core.scalar_add": "core.scalar_add_ns",
               "expr.product": "expr.product_us",
               "derivations.apply": "derivations.apply_us"}


class BenchError(RuntimeError):
    """A job could not run at all (as opposed to a failed gate)."""


# ----------------------------------------------------------------------
# child processes: one at a time, each waited for
# ----------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, label: str) -> dict:
    """Run argv to completion; wall seconds, exit code, peak RSS, stdout.

    Output goes to files, not pipes, so the child is reaped with wait4
    and its own resource usage is read without polling.
    """
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"child-{label}.out"
    err_path = OUT_DIR / f"child-{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(), "stderr": err_path.read_text()}


def run_worker(args_list, label: str, script: str = "worker.py") -> dict:
    res = run_child([sys.executable, str(HERE / script), *args_list],
                    label)
    lines = res["stdout"].strip().splitlines()
    if res["code"] != 0 or not lines:
        raise BenchError(f"worker {label} exited {res['code']}: "
                         f"{res['stderr'].strip()[-2000:]}")
    payload = json.loads(lines[-1])
    payload["_child"] = {k: res[k] for k in ("wall_s", "code", "rss_mb")}
    return payload


def measure_setup(workload: str) -> dict:
    """Median set-up over SETUP_REPEATS fresh interpreters, probed
    between them by this process."""
    cal = calib.Clock()
    for k in range(SETUP_REPEATS):
        t = cal.now()
        res = run_worker([workload], f"setup{k}", "setup_job.py")
        cal.record("setup", t, raw_s=res["setup_s"])
        cal.probe()
    raw, ref = cal.results()
    return {"ref": median(ref["setup"]), "raw": median(raw["setup"]),
            "samples": raw["setup"],
            "python": res["python"], "numpy": res["numpy"]}


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------

def certify_pass(ledger: Ledger, cal: calib.Clock, tag: str) -> dict:
    """One pass of the seven cold subcommands."""
    digests, rss = [], 0.0
    for command, _ in wl.CERTIFY:
        t = cal.now()
        res = run_child([sys.executable, "-m", "z22field.cli",
                         *wl.certify_argv(command)], f"{tag}-{command}")
        cal.record((tag, command), t, raw_s=res["wall_s"])
        cal.probe()
        rss = max(rss, res["rss_mb"])
        if res["code"] != 0:
            ledger.check(command, False, f"exit {res['code']}")
            continue
        doc = ledger.call(command, json.loads, res["stdout"])
        if doc is None:
            continue
        ok, why = ledger.call(command, wl.certify_gate, command, doc) or (
            None, None)
        if ok is None:
            continue
        ledger.check(command, ok, why)
        digests.append(wl.json_digest(res["stdout"]))
    return {"tag": tag, "rss_mb": rss, "digest": wl.json_digest(digests)}


def bench_certify(args) -> dict:
    ledger = Ledger()
    cal = calib.Clock()
    certify_pass(Ledger(), cal, "warmup")   # warm bytecode and file caches
    passes = []
    t_start = cal.now()
    while True:
        passes.append(certify_pass(ledger, cal, f"pass{len(passes)}"))
        if cal.now() - t_start >= args.seconds and len(passes) >= 3:
            break
    ledger.check("repetitions agree",
                 len({p["digest"] for p in passes}) == 1,
                 "passes gave different outputs")
    raw, ref = cal.results()

    def view(v):
        per = {c: median(v[(p["tag"], c)][0] for p in passes)
               for c, _ in wl.CERTIFY}
        return {"pass_s": median(sum(v[(p["tag"], c)][0]
                                     for c, _ in wl.CERTIFY)
                                 for p in passes),
                "heavy_op_ms": per["verify-algebra"] * 1e3,
                "light_op_ms": per["check-currents"] * 1e3}, per

    metrics, per = view(ref)
    metrics["peak_rss_mb"] = max(p["rss_mb"] for p in passes)
    named = {"certify_s": (metrics["pass_s"], "s"),
             "verify_algebra_s": (per["verify-algebra"], "s"),
             "check_currents_s": (per["check-currents"], "s"),
             **{f"cold.{c}_s": (per[c], "s") for c, _ in wl.CERTIFY}}
    return {"metrics": metrics, "wall": view(raw)[0], "named": named,
            "ledger": ledger, "samples": len(passes),
            "digest": passes[0]["digest"],
            "raw": {"samples": [[list(k), v] for k, v in raw.items()],
                    "probes": cal.probes}}


def trace_certify(args) -> dict:
    """Each runner in a fresh process, untraced then traced."""
    ledger = Ledger()
    cal = calib.Clock()
    layers, inproc, digests = [], {}, {}
    for command, _ in wl.CERTIFY:
        for traced in (False, True):
            argv = ["runner", "--command", command, "--seed", str(args.seed)]
            t = cal.now()
            res = run_worker(argv + (["--trace"] if traced else []),
                             f"runner-{command}-{int(traced)}")
            # the runner call alone: the traced child also replays the
            # kernel corpus and writes its spans, which is no overhead
            cal.record(traced, t, raw_s=res["runner_s"])
            cal.probe()
            ledger.check(command, res["ok"], res["why"])
            digests.setdefault(command, set()).add(res["digest"])
            if traced:
                layers.append(res["layers"])
            else:
                inproc[command] = res["runner_s"]
    for command, ds in digests.items():
        ledger.check(f"{command} traced digest", len(ds) == 1,
                     "traced and untraced outputs differ")
    rows = layer_rows(layers)
    for command, _ in wl.CERTIFY:
        rows[f"cli.{command.replace('-', '_')}_inproc_s"] = inproc[command]
    ref = cal.results()[1]
    return finish_trace(rows, sum(ref[True]), sum(ref[False]), ledger,
                        {k: res[k] for k in ("python", "numpy")})


# ----------------------------------------------------------------------
# derive and evolve: one warm worker process each
# ----------------------------------------------------------------------

def bench_derive(args) -> dict:
    res = run_worker(["derive", "--seed", str(args.seed),
                      "--seconds", str(args.seconds)], "derive")
    ledger = Ledger()
    ledger.merge(res["ledger"])
    if not res["raw"].get("repeat") or not res["raw"].get("fresh"):
        raise BenchError("derive run finished no repeated request")

    def view(kind):
        v = res[kind]
        return {"pass_s": median(v["round"]),
                "heavy_op_ms": median(v["fresh"]) * 1e3,
                "light_op_ms": median(v["repeat"]) * 1e3}

    metrics = view("ref")
    metrics["peak_rss_mb"] = res["_child"]["rss_mb"]
    lat = res["ref"]["fresh"] + res["ref"]["repeat"]
    tail = tail_percentile(lat)
    named = {"derive_per_s": (len(lat) / sum(lat), "1/s"),
             "derive_p50_ms": (median(lat) * 1e3, "ms"),
             "repeat_share": (res["repeat_share"], "ratio")}
    if tail:
        named["derive_tail_ms"] = (tail[1] * 1e3, f"ms@p{tail[0]:g}")
    return {"metrics": metrics, "wall": view("raw"), "named": named,
            "ledger": ledger, "samples": len(lat), "digest": res["digest"],
            "raw": {"samples": res["raw"], "tail": tail,
                    "repeat_share": res["repeat_share"],
                    "probes": res["probes"]}}


def bench_evolve(args) -> dict:
    res = run_worker(["evolve", "--seed", str(args.seed),
                      "--seconds", str(args.seconds)], "evolve")
    ledger = Ledger()
    ledger.merge(res["ledger"])

    def view(kind):
        v = res[kind]
        return {"pass_s": median(v["numerics"]),
                "heavy_op_ms": median(v["big_chunk"]) / res["big_chunk"]
                * 1e3,
                "light_op_ms": median(v["study.energy_drift"])
                / res["drift_steps"] * 1e3}

    metrics = view("ref")
    metrics["peak_rss_mb"] = res["_child"]["rss_mb"]
    named = {"numerics_s": (metrics["pass_s"], "s"),
             "sim_site_updates_per_s": (
                 res["sites"] / metrics["heavy_op_ms"] * 1e3, "1/s"),
             **{f"study.{s}_s": (median(res["ref"][f"study.{s}"]), "s")
                for s in wl.STUDIES}}
    return {"metrics": metrics, "wall": view("raw"), "named": named,
            "ledger": ledger, "samples": len(res["raw"]["numerics"]),
            "digest": res["digest"],
            "raw": {"raw": res["raw"], "probes": res["probes"]}}


def trace_worker(args, job: str, fixed: list) -> dict:
    ledger = Ledger()
    base = [job, "--seed", str(args.seed), *fixed]
    plain = run_worker(base, f"{job}-untraced")
    traced = run_worker(base + ["--trace"], f"{job}-traced")
    versions = {k: traced[k] for k in ("python", "numpy")}
    for res in (plain, traced):
        ledger.merge(res["ledger"])
    ledger.check("traced digest", plain["digest"] == traced["digest"],
                 "traced and untraced outputs differ")
    rows = layer_rows([traced["layers"]])
    return finish_trace(rows, traced["busy_ref_s"], plain["busy_ref_s"],
                        ledger, versions)


# ----------------------------------------------------------------------
# per-layer rows from the traced workers' raw figures
# ----------------------------------------------------------------------

def layer_rows(layers: list) -> dict:
    rows = {name: 0 if unit == "count" else 0.0
            for name, unit in PER_LAYER.items()}
    counts, distinct, kernels = {}, {}, {}
    for raw in layers:
        # rows a worker measured directly (the evolve micro-rows)
        rows.update((k, v) for k, v in raw.items() if k in PER_LAYER)
        for k, v in raw["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in raw["distinct"].items():
            distinct[k] = distinct.get(k, 0) + v
        for k, v in raw["kernels"].items():
            kernels.setdefault(k, []).extend(v)
        for span, row in INCLUSIVE_ROWS.items():
            rows[row] += raw["inclusive_s"].get(span, 0.0)
        for layer, own in raw["self_s"].items():
            if f"self_s.{layer}" in rows:
                rows[f"self_s.{layer}"] += own
        rows["trace.spans"] += raw["spans"]
    for span, row in COUNT_ROWS.items():
        rows[row] = counts.get(span, 0)
    for span, row in KERNEL_ROWS.items():
        if kernels.get(span):
            rows[row] = median(kernels[span])
    for span, row in (("action.lagrangian",
                       "action.lagrangian_distinct_share"),
                      ("variational.divergence_split",
                       "variational.divergence_split_distinct_share")):
        if counts.get(span):
            rows[row] = distinct.get(span, 0) / counts[span]
    if counts.get("sim.step"):
        rows["sim.force_calls_per_step"] = (counts.get("sim.force", 0)
                                            / counts["sim.step"])
    return rows


def finish_trace(rows: dict, traced_s: float, untraced_s: float,
                 ledger: Ledger, versions: dict) -> dict:
    rows["trace.overhead_s"] = traced_s - untraced_s
    rows["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return {"metrics": rows, "ledger": ledger, "versions": versions,
            "named": {"traced_s": (traced_s, "s"),
                      "untraced_s": (untraced_s, "s")}}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def pin_to_one_cpu() -> str:
    """Keep this process and its children on one CPU, so the calibration
    probe runs on the CPU the sample ran on.  The host's CPUs change
    speed independently, and only one job runs at a time."""
    if not hasattr(os, "sched_setaffinity"):
        return "not pinned"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return f"pinned to cpu {cpu}"


def environment(args, setup: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": args.seed, "python": setup.get("python",
                                              platform.python_version()),
            "numpy": setup.get("numpy"), "nproc": os.cpu_count(),
            "cpu": cpu, "affinity": args.affinity,
            "load": "closed loop, one client, one job at a time"}


def run_workload(workload: str, args) -> dict:
    if args.trace:
        res = {"certify": trace_certify,
               "derive": lambda a: trace_worker(
                   a, "derive", ["--fixed-rounds", str(wl.DIGEST_ROUNDS)]),
               "evolve": lambda a: trace_worker(
                   a, "evolve", ["--fixed-passes", "2"])}[workload](args)
        res["env"] = environment(args, res["versions"])
        return res
    setup = measure_setup(workload)
    res = {"certify": bench_certify, "derive": bench_derive,
           "evolve": bench_evolve}[workload](args)
    res["metrics"]["setup_s"] = setup["ref"]
    res["wall"]["setup_s"] = setup["raw"]
    res["raw"]["setup_samples"] = setup["samples"]
    res["named"]["setup_s"] = (setup["ref"], "s")
    res["env"] = environment(args, setup)
    return res


def report(workload: str, args, res: dict) -> dict:
    ledger: Ledger = res["ledger"]
    units = PER_LAYER if args.trace else END_TO_END
    print(f"== {workload} (seed {args.seed}, trace {args.trace})")
    for key, val in res["env"].items():
        print(f"   {key}: {val}")
    for name, (val, unit) in sorted(res["named"].items()):
        print(f"   {name:34s} {val:14.6g} {unit}")
    if "samples" in res:
        print(f"   {'samples':34s} {res['samples']:14d}")
    for name, val in res.get("wall", {}).items():
        print(f"   {'wall ' + name:34s} {val:14.6g} {END_TO_END[name]}")
    print(f"   {'failed_share':34s} {ledger.share:14.6g} "
          f"({ledger.failed}/{ledger.attempted})")
    if args.trace:
        print(f"   waits: {NO_WAIT_NOTE}")
    for reason in ledger.reasons:
        print(f"   FAILED {reason}")
    metrics = {name: {"value": res["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    digest = res.get("digest")
    status = digest and digest_status(workload, args.seed, digest)
    if digest:
        print(f"   digest: {digest} ({status})")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "env": res["env"],
                              "digest": digest, "digest_status": status,
                              "named": res["named"],
                              "wall": res.get("wall"),
                              "raw": res.get("raw")}, indent=1))
    return result


def digest_status(workload: str, seed: int, digest: str) -> str:
    """Whether the outputs match the ones recorded at the baseline commit."""
    refs = json.loads(REFERENCE_DIGESTS.read_text())
    want = refs.get(workload)
    if isinstance(want, dict):        # derive inputs depend on the seed
        want = want.get(str(seed))
    if want is None:
        return "no baseline digest for this seed"
    return "same as baseline" if want == digest else "CHANGED from baseline"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "z22field" / "__init__.py").is_file():
        print(f"error: no z22field sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= MAX_SECONDS:
        print(f"error: --seconds must be in (0, {MAX_SECONDS:g}]",
              file=sys.stderr)
        return 2
    args.affinity = pin_to_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = report(name, args, run_workload(name, args))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
