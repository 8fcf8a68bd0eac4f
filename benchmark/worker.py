"""One benchmark job in a fresh interpreter.

    python benchmark/worker.py derive --seed N --seconds S [--fixed-rounds R] [--trace]
    python benchmark/worker.py evolve --seed N --seconds S [--fixed-passes P] [--trace]
    python benchmark/worker.py runner --command verify-algebra [--trace]

`run.py` starts these one at a time with `src` on PYTHONPATH and reads
the JSON object on the last line of standard output.
"""

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import calib
from stats import Ledger, median
from tracing import Tracer
import workloads as wl

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def _versions() -> dict:
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__}


# ----------------------------------------------------------------------
# derive
# ----------------------------------------------------------------------

def job_derive(args) -> dict:
    wl.derive_request(*wl.WARMUP_REQUEST)
    tracer = Tracer(args.seed) if args.trace else None
    ledger = Ledger()
    seen = {}            # request -> digest of its first answer
    first = 0
    early = []           # (request, digest) of the first DIGEST_ROUNDS
    cal = calib.Clock()
    stream = wl.derive_stream(args.seed)
    if tracer:
        tracer.install()
    try:
        for rnd, requests in enumerate(stream):
            t_round = cal.now()
            busy = 0.0   # the requests alone, without gates and digests
            for k, req in enumerate(requests):
                if tracer:
                    tracer.request = f"r{rnd}.{k}"
                # by slot, so that the mix of costs is the same for every
                # seed; a new-kind slot can still repeat cos or sin
                kind = "fresh" if k < len(wl.KINDS) else "repeat"
                t = cal.now()
                with (tracer.span("workload.request") if tracer
                      else nullcontext()):
                    out = ledger.call(f"{req}", wl.derive_request, *req)
                busy += cal.now() - t
                if out is None:
                    continue
                cal.record(kind, t)
                ok, why = wl.derive_gate(out)
                digest = wl.derive_digest(out)
                if req not in seen:
                    seen[req] = digest
                    first += 1
                elif digest != seen[req]:
                    ok, why = False, "repeat disagrees with first answer"
                if rnd < wl.DIGEST_ROUNDS:
                    early.append((req, digest))
                ledger.check(f"{req}", ok, why)
            cal.record("round", t_round, raw_s=busy)
            cal.probe()
            if args.fixed_rounds:
                if rnd + 1 >= args.fixed_rounds:
                    break
            elif cal.now() >= args.seconds and rnd + 1 >= wl.DIGEST_ROUNDS:
                break
    finally:
        if tracer:
            tracer.uninstall()
    raw, ref = cal.results()
    done = len(raw.get("fresh", ())) + len(raw.get("repeat", ()))
    res = {"raw": raw, "ref": ref, "probes": cal.probes,
           "busy_ref_s": sum(ref["round"]), "requests": done,
           "repeat_share": 1.0 - first / done if done else 0.0,
           "digest": wl.json_digest(early),
           "ledger": ledger.as_dict()}
    if tracer:
        res["layers"] = _layer_raw(tracer, args.seed)
        _dump_spans(tracer, f"derive-{args.seed}")
    return res


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------

def _evolve_pass(sim, cfg, ledger, tracer, cal) -> str:
    """Five studies, then BIG_STEPS steps of the large kink, timed in
    chunks of BIG_CHUNK steps."""
    digests = []
    for name in wl.STUDIES:
        if tracer:
            tracer.request = name
        t = cal.now()
        rep = ledger.call(name, getattr(sim, f"{name}_study"))
        cal.record(f"study.{name}", t)
        cal.probe()
        if rep is not None:
            ledger.check(name, wl.STUDY_GATES[name](rep))
            digests.append(wl.json_digest(rep))
    if tracer:
        tracer.request = "big"
    state = sim.init_profile(cfg)
    for _ in range(wl.BIG_STEPS // wl.BIG_CHUNK):
        t = cal.now()
        for _ in range(wl.BIG_CHUNK):
            state = ledger.call("big step", sim.step, state, cfg)
            if state is None:
                break
        cal.record("big_chunk", t)
        cal.probe()
        if state is None:
            break
    if state is not None:
        import numpy as np
        finite = all(np.all(np.isfinite(a)) for a in
                     (state.phi00, state.phi11, state.pi00, state.pi11))
        ledger.check("big kink", finite, "non-finite field")
        digests.append(wl.state_digest(state))
    return wl.json_digest(digests)


def job_evolve(args) -> dict:
    from z22field import sim
    cfg = wl.big_config()
    sim.init_profile(cfg)
    tracer = Tracer(args.seed) if args.trace else None
    ledger = Ledger()
    digests = []
    cal = calib.Clock()
    if tracer:
        tracer.install()
    try:
        while True:
            digests.append(_evolve_pass(sim, cfg, ledger, tracer, cal))
            if args.fixed_passes:
                if len(digests) >= args.fixed_passes:
                    break
            elif cal.now() >= args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    ledger.check("repetitions agree", len(set(digests)) == 1,
                 "passes gave different outputs")
    raw, ref = cal.results()
    for view in (raw, ref):    # the five studies of each pass, summed
        view["numerics"] = [sum(t) for t in zip(
            *(view[f"study.{s}"] for s in wl.STUDIES))]
    res = {"raw": raw, "ref": ref, "probes": cal.probes,
           "busy_ref_s": sum(ref["numerics"]) + sum(ref["big_chunk"]),
           "sites": len(sim.grid(cfg)),
           "big_chunk": wl.BIG_CHUNK, "drift_steps": wl.DRIFT_STEPS,
           "digest": digests[0], "ledger": ledger.as_dict()}
    if tracer:
        layers = _layer_raw(tracer, args.seed)
        small = sim.SimConfig(dx=0.05, x_min=-20.0, x_max=20.0, t_end=0.0,
                              initial="two-field-kink")
        layers["sim.step_us_n800"] = _step_us(sim, small, 2000)
        layers["sim.step_us_n80k"] = _step_us(sim, cfg, wl.BIG_STEPS)
        res["layers"] = layers
        _dump_spans(tracer, f"evolve-{args.seed}")
    return res


def _step_us(sim, cfg, n_steps: int) -> float:
    """Untraced microseconds per step of the kink in `cfg`."""
    state = sim.init_profile(cfg)
    t = time.perf_counter()
    for _ in range(n_steps):
        state = sim.step(state, cfg)
    return (time.perf_counter() - t) / n_steps * 1e6


# ----------------------------------------------------------------------
# certify, traced or not: one CLI runner called in-process
# ----------------------------------------------------------------------

def job_runner(args) -> dict:
    import io
    from z22field import cli
    runners = dict(cli.CHECKS)
    ns = cli.build_parser().parse_args(wl.certify_argv(args.command))
    tracer = Tracer(args.seed) if args.trace else None
    t = time.perf_counter()
    if tracer:
        tracer.request = args.command
        with tracer, tracer.span("cli.runner"):
            ok, payload = runners[args.command](ns)
    else:
        ok, payload = runners[args.command](ns)
    runner_s = time.perf_counter() - t
    buf = io.StringIO()
    # the CLI's own emitter, so the digest equals that of `--format json`
    cli._emit_report(ok, payload, "json", buf)
    text = buf.getvalue()
    gate_ok, why = wl.certify_gate(args.command, json.loads(text))
    res = {"runner_s": runner_s, "ok": gate_ok, "why": why,
           "digest": wl.json_digest(text)}
    if tracer:
        res["layers"] = _layer_raw(tracer, args.seed)
        _dump_spans(tracer, f"certify-{args.command}-{args.seed}")
    return res


# ----------------------------------------------------------------------
# traced-run raw figures
# ----------------------------------------------------------------------

def _layer_raw(tracer: Tracer, seed: int) -> dict:
    raw = {"counts": dict(tracer.counts),
           "inclusive_s": {n: tracer.inclusive(n)
                           for n in {r[0] for r in tracer.spans}},
           "self_s": tracer.layer_self(),
           "distinct": {n: len(tracer.inputs[n]) for n in tracer.inputs},
           "kernels": tracer.kernel_rows(seed),
           "spans": len(tracer.spans)}
    energy = tracer.durations("sim.total_energy")
    if energy:
        raw["sim.total_energy_us"] = median(energy) * 1e6
    return raw


def _dump_spans(tracer: Tracer, label: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{label}.json").write_text(json.dumps(tracer.dump()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("job", choices=("derive", "evolve", "runner"))
    p.add_argument("--command", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--fixed-rounds", type=int, default=0)
    p.add_argument("--fixed-passes", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    job = {"derive": job_derive, "evolve": job_evolve,
           "runner": job_runner}[args.job]
    print(json.dumps({**job(args), **_versions()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
