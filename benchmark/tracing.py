"""Spans and counters recorded from outside the program.

The tracer wraps public functions of the `z22field` modules.  Functions
called a moderate number of times get a span (name, start, end, parent,
request); the hot kernels (scalar and expression arithmetic, derivation
apply, the solver force) get a call counter instead, because a span per
call would cost more than the call itself.  Counted kernels also keep a
seeded reservoir sample of their live operands, which the kernel
micro-rows replay in the same process: generators are interned and
compared with `is`, so copied operands would measure another program.

The program is single-threaded and nothing in it waits on a queue or a
lock, so the tracer records no wait times.
"""

import importlib
import random
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from workloads import STUDIES

NO_WAIT_NOTE = ("single-threaded, no queue or lock: nothing waits, so no "
                "wait time is recorded")

# (module, attribute path, span name)
SPANNED = [
    ("derivations", "verify_jacobi", "derivations.jacobi"),
    ("derivations", "verify_structure_constants",
     "derivations.structure_constants"),
    ("derivations", "superspace_operators", "derivations.operators"),
    ("expr", "GradedExpr.substitute", "expr.substitute"),
    ("superfield", "variation_table", "superfield.variation_table"),
    ("superfield", "stage_map", "superfield.stage_map"),
    ("superfield", "closure_report", "superfield.closure"),
    ("potential", "potential_components", "potential.components"),
    ("potential", "series_pair", "potential.series"),
    ("action", "lagrangian", "action.lagrangian"),
    ("action", "auxiliary_solution", "action.auxiliary_solution"),
    ("variational", "divergence_split", "variational.divergence_split"),
    ("variational", "noether", "variational.noether"),
    ("variational", "reduce_onshell", "variational.reduce_onshell"),
    ("variational", "euler_lagrange", "variational.euler_lagrange"),
    ("dmodule", "dmodule_report", "dmodule.report"),
    ("sim", "step", "sim.step"),
    ("sim", "total_energy", "sim.total_energy"),
]
SPANNED += [("sim", f"{s}_study", f"sim.study.{s}") for s in STUDIES]

# (module, attribute path, counter name, sample operands?)
COUNTED = [
    ("core", "GaussianRational.__mul__", "core.scalar_mul", True),
    ("core", "GaussianRational.__add__", "core.scalar_add", True),
    ("expr", "GradedExpr.__mul__", "expr.product", True),
    ("expr", "GradedExpr.__add__", "expr.add", False),
    ("derivations", "GeneratorDerivation.apply", "derivations.apply", True),
    ("sim", "force", "sim.force", False),
]

# Spans whose distinct inputs are tracked, for the *_distinct_share rows.
DISTINCT = ("action.lagrangian", "variational.divergence_split")

CORPUS_CAP = {"core.scalar_mul": 1000, "core.scalar_add": 1000,
              "expr.product": 300, "derivations.apply": 300}


def load(mod: str):
    """The `z22field.<mod>` module.  `from z22field import superfield`
    would give the function of that name, which shadows the module."""
    return importlib.import_module(f"z22field.{mod}")


def _resolve(mod: str, path: str):
    owner = load(mod)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _input_key(value):
    """Hashable identity of one argument's value, for distinct-input
    counts.  Two equal expressions built separately give the same key;
    an object's address never enters it."""
    name = getattr(value, "name", None)
    if isinstance(name, str) and type(value).__name__ == "FunctionSymbol":
        return ("V", name)
    if type(value).__name__ == "GradedExpr":
        # canonical terms; GradedExpr itself refuses to hash
        return ("GradedExpr", frozenset(value.terms.items()))
    hash(value)   # any other unhashable argument is an error, not a key
    return value


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self, seed: int) -> None:
        self.t0 = time.perf_counter()
        # [name, start, end, parent index or -1, request, outermost]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.inputs: Dict[str, set] = defaultdict(set)
        self.corpus: Dict[str, List[tuple]] = defaultdict(list)
        self.originals: Dict[str, Callable] = {}
        self.request: Optional[str] = None
        self._stack: List[int] = []
        self._active: Counter = Counter()
        self._rng = random.Random(seed)
        self._patches: List[Tuple[object, str, Callable]] = []

    # -- wrappers ------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter() - self.t0, None,
               self._stack[-1] if self._stack else -1, self.request,
               self._active[name] == 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._active[name] += 1
        return rec

    def _close(self, rec: list) -> None:
        self._active[rec[0]] -= 1
        self._stack.pop()
        rec[2] = time.perf_counter() - self.t0

    def _span(self, name: str, fn: Callable) -> Callable:
        track = name in DISTINCT

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if track:
                key = (tuple(_input_key(a) for a in args),
                       tuple(sorted((k, _input_key(v))
                                    for k, v in kwargs.items())))
                self.inputs[name].add(key)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn: Callable, sample: bool) -> Callable:
        counts = self.counts
        if not sample:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        cap = CORPUS_CAP[name]
        pool = self.corpus[name]
        randrange = self._rng.randrange

        def wrapper(*args):
            n = counts[name] = counts[name] + 1
            if n <= cap:
                pool.append(args)
            else:
                j = randrange(n)
                if j < cap:
                    pool[j] = args
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove ----------------------------------------------

    def _patch_everywhere(self, original: Callable, wrapped: Callable) -> None:
        """Rebind every `z22field.*` module attribute and class attribute
        that is bound to `original`: the package re-binds names with
        `from ... import`, so patching only the defining module would
        miss calls made through the other bindings."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "z22field"
                                   or modname.startswith("z22field.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
                elif isinstance(val, type) and val.__module__.startswith(
                        "z22field"):
                    for cattr, cval in list(vars(val).items()):
                        if cval is original:
                            self._patches.append((val, cattr, original))
                            setattr(val, cattr, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, path, name in SPANNED:
            owner, attr = _resolve(mod, path)
            fn = getattr(owner, attr)
            self.originals[name] = fn
            self._patch_everywhere(fn, self._span(name, fn))
        for mod, path, name, sample in COUNTED:
            owner, attr = _resolve(mod, path)
            fn = vars(owner)[attr]
            self.originals[name] = fn
            self._patch_everywhere(fn, self._count(name, fn, sample))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _ManualSpan(self, name)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        # one thread and a strict stack: a span's children are disjoint
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def inclusive(self, name: str) -> float:
        """Seconds inside outermost spans of `name` (recursion counted once)."""
        return sum(r[2] - r[1] for r in self.spans if r[0] == name and r[5])

    def durations(self, name: str) -> List[float]:
        return [r[2] - r[1] for r in self.spans if r[0] == name]

    def layer_self(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            out[rec[0].split(".", 1)[0]] += own
        return dict(out)

    def kernel_rows(self, seed: int) -> Dict[str, List[float]]:
        """Per-operand timings of the sampled kernel operands, untraced.

        Returns ns per op for the scalar rows and us per op for the
        expression product and derivation apply rows, one value per
        sampled operand tuple.
        """
        rng = random.Random(seed)
        clock = time.perf_counter_ns
        plan = (("core.scalar_mul", 20, 1.0), ("core.scalar_add", 20, 1.0),
                ("expr.product", 1, 1e-3), ("derivations.apply", 1, 1e-3))
        out: Dict[str, List[float]] = {}
        for name, reps, scale in plan:
            pool = list(self.corpus.get(name, ()))
            rng.shuffle(pool)
            fn = self.originals[name]
            vals = []
            for args in pool:
                t = clock()
                for _ in range(reps):
                    fn(*args)
                vals.append((clock() - t) / reps * scale)
            out[name] = vals
        return out

    def dump(self) -> dict:
        return {"note": NO_WAIT_NOTE,
                "fields": ["name", "start_s", "end_s", "parent", "request"],
                "spans": [r[:5] for r in self.spans],
                "counts": dict(self.counts)}


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.rec)
