"""Inputs, operations and correctness gates of the three workloads.

`certify` is driven from outside through the command line, so its gates
read the JSON the CLI prints.  `derive` and `evolve` run inside one warm
worker process and call the package directly; their functions import it
lazily so that the orchestrator never loads the program under test.

Gate thresholds are the ones of `cli.run_numerics` and
`tests/test_acceptance.py`, none loosened.
"""

import hashlib
import json
import random
from fractions import Fraction
from typing import Dict, List, Tuple

# ----------------------------------------------------------------------
# certify: the seven symbolic subcommands, each in a fresh interpreter
# ----------------------------------------------------------------------

CERTIFY = (
    ("verify-algebra", ()),
    ("verify-tables", ()),
    ("derive-lagrangian", ("--potential", "cos", "--eliminate-aux")),
    ("check-potential", ("--potential", "poly:0,0,1/2")),
    ("check-currents", ()),
    ("verify-dmodule", ()),
    ("check-examples", ()),
)


def certify_argv(command: str) -> List[str]:
    extra = dict(CERTIFY)[command]
    return [command, *extra, "--format", "json"]


def certify_gate(command: str, doc: dict) -> Tuple[bool, str]:
    """Gate on the parsed `--format json` output of one subcommand."""
    if doc.get("ok") is not True:
        return False, '"ok" is not true'
    rep = doc["report"]
    if command == "verify-algebra":
        sc = rep["structure_constants"]
        if len(sc) != 28 or any(v != "ok" for v in sc.values()):
            return False, "structure constants: not 28 relations all ok"
        if any(v != "ok" for v in rep["jacobi"].values()):
            return False, "jacobi failed"
        if any(v != "ok" for v in rep["variation_closure"].values()):
            return False, "variation closure failed"
        if not all(rep["audits"].values()):
            return False, "audit failed"
    elif command == "verify-tables":
        fields = [v for entry in rep.values()
                  for k, v in entry["entries"].items()
                  if not k.startswith("coord:")]
        if len(fields) != 80 or not all(fields):
            return False, "tables: not 80 matching field entries"
        if not all(entry["ok"] for entry in rep.values()):
            return False, "table entry not ok"
    elif command == "derive-lagrangian":
        if not rep["audit"]["ok"]:
            return False, "lagrangian audit failed"
    elif command == "check-potential":
        if rep["closed"] is not True:
            return False, "potential pair not closed"
    elif command == "check-currents":
        cur = rep["currents"]
        if len(cur) != 5 or not all(
                e["conserved"] and (e["matches_reference"]
                                    or e.get("improvement_conserved", False))
                for e in cur.values()):
            return False, "currents: not all five conserved"
        if not all(e["ok"] for e in rep["invariance"].values()):
            return False, "invariance failed"
    return True, ""


# ----------------------------------------------------------------------
# derive: a seeded stream of potential requests in one warm process
# ----------------------------------------------------------------------

POLY_DEGREES = tuple(range(2, 9))
KINDS = tuple(f"poly{d}" for d in POLY_DEGREES) + ("cos", "sin")
ORDERS = tuple(range(2, 7))
# Each round holds every kind once, plus REPEATS_PER_ROUND exact repeats
# of earlier requests.  The repeated kinds rotate, so every three rounds
# repeat every kind once: the mix of costs is the same for every seed
# and only the order, coefficients and truncation orders vary.
REPEATS_PER_ROUND = 3
ROUND_SIZE = len(KINDS) + REPEATS_PER_ROUND
WARMUP_REQUEST = ("cos", 4)
# The digest covers the first rounds only, which every run completes, so
# that it does not depend on how many rounds fit in the run.
DIGEST_ROUNDS = 3
_NUMERATORS = tuple(range(-4, 5))
_DENOMINATORS = (1, 2, 3, 4)


def _poly_spec(rng: random.Random, degree: int) -> str:
    coeffs = [Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
              for _ in range(degree)]
    lead = 0
    while lead == 0:
        lead = rng.choice(_NUMERATORS)
    coeffs.append(Fraction(lead, rng.choice(_DENOMINATORS)))
    return "poly:" + ",".join(str(c) for c in coeffs)


def derive_round(rng: random.Random, index: int,
                 history: Dict[str, List[Tuple[str, int]]]
                 ) -> List[Tuple[str, int]]:
    """One round of (potential spec, truncation order) requests: first
    one new spec of each kind, then REPEATS_PER_ROUND exact repeats."""
    fresh = []
    for kind in KINDS:
        spec = kind if kind in ("cos", "sin") else _poly_spec(
            rng, int(kind[4:]))
        req = (spec, rng.choice(ORDERS))
        fresh.append(req)
        history.setdefault(kind, []).append(req)
    rng.shuffle(fresh)
    start = (index * REPEATS_PER_ROUND) % len(KINDS)
    repeats = [rng.choice(history[KINDS[(start + k) % len(KINDS)]])
               for k in range(REPEATS_PER_ROUND)]
    return fresh + repeats


def derive_stream(seed: int):
    """Endless generator of request rounds for `seed`."""
    rng = random.Random(seed)
    history: Dict[str, List[Tuple[str, int]]] = {}
    index = 0
    while True:
        yield derive_round(rng, index, history)
        index += 1


def derive_request(spec: str, order: int) -> dict:
    """The calls `derive-lagrangian --eliminate-aux` and `check-potential`
    make, plus the Euler-Lagrange rows."""
    from z22field.action import lagrangian, lagrangian_audit
    from z22field.potential import (parse_potential, potential_components,
                                    series_pair)
    from z22field.variational import euler_lagrange
    V = parse_potential(spec)
    lag = lagrangian(V, eliminate=True)
    audit = lagrangian_audit(lag)
    pair = potential_components(V, stage="x", truncation_order=order)
    ser = series_pair(V, stage="x", truncation_order=order)
    rows = euler_lagrange(lag)
    return {"lag": lag, "audit": audit, "pair": pair, "series": ser,
            "rows": rows}


def derive_gate(out: dict) -> Tuple[bool, str]:
    if not out["audit"]["ok"]:
        return False, "lagrangian audit failed"
    if not out["pair"].closed:
        return False, "potential pair not closed"
    if not out["rows"]:
        return False, "no Euler-Lagrange rows"
    return True, ""


def derive_digest(out: dict) -> str:
    parts = [str(out["lag"]), str(out["pair"].v00), str(out["pair"].v11),
             str(out["series"].v00), str(out["series"].v11)]
    parts += [f"{b}={e}" for b, e in sorted(out["rows"].items())]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# evolve: the five acceptance studies, then a large-N kink
# ----------------------------------------------------------------------

STUDY_GATES = {
    "convergence": lambda r: (len(r["ratios"]) == 2
                              and all(3.5 <= x <= 4.5 for x in r["ratios"])),
    "energy_drift": lambda r: r["max_relative_drift"] < 1e-5,
    "boosted_kink": lambda r: r["position_error"] < r["dx"],
    "exchange_symmetry": lambda r: r["max_asymmetry"] < 1e-12,
    "dispersion": lambda r: r["relative_error"] < 0.01,
}
STUDIES = tuple(STUDY_GATES)
# energy_drift_study defaults: t_end = 100 at dt = 0.02 on N = 800,
# recording energy every step
DRIFT_STEPS = 5000
BIG_SPAN = 200.0      # x in [-200, 200] at dx = 0.005: N = 80 001 sites
BIG_DX = 0.005
BIG_STEPS = 40
BIG_CHUNK = 10


def big_config():
    from z22field import sim
    return sim.SimConfig(dx=BIG_DX, x_min=-BIG_SPAN, x_max=BIG_SPAN,
                         t_end=0.0, initial="two-field-kink")


def json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()
                          ).hexdigest()


def state_digest(state) -> str:
    h = hashlib.sha256()
    for arr in (state.phi00, state.phi11, state.pi00, state.pi11):
        h.update(arr.tobytes())
    return h.hexdigest()
