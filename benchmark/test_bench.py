"""Tests of the benchmark's own arithmetic and of its tracer.

    python3 -m pytest -q benchmark/test_bench.py
"""

import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def test_self_time_of_nested_spans():
    tr = tracing.Tracer(seed=0)
    # root [0, 10] with disjoint children [1, 4] and [5, 7]; the first
    # holds a recursive call [2, 3] of itself; a sibling root [10, 12]
    # has none
    tr.spans = [["a.root", 0.0, 10.0, -1, None, True],
                ["b.child", 1.0, 4.0, 0, None, True],
                ["b.child", 2.0, 3.0, 1, None, False],
                ["c.other", 5.0, 7.0, 0, None, True],
                ["a.root", 10.0, 12.0, -1, None, True]]
    assert tr.self_times() == pytest.approx([5.0, 2.0, 1.0, 2.0, 2.0])
    assert tr.layer_self() == pytest.approx({"a": 7.0, "b": 3.0, "c": 2.0})
    # only the outermost span of a name counts towards its inclusive time
    assert tr.inclusive("b.child") == pytest.approx(3.0)


def test_manual_spans_nest():
    tr = tracing.Tracer(seed=0)
    with tr.span("x.outer"):
        with tr.span("y.inner"):
            pass
    assert [r[3] for r in tr.spans] == [-1, 0]
    assert all(own >= 0.0 for own in tr.self_times())


@pytest.mark.parametrize("n, pct, beyond", [
    (1000, 99.0, 10), (1001, 99.0, 10), (500, 95.0, 25), (200, 95.0, 10),
    (150, 90.0, 15), (40, 75.0, 10), (20, 50.0, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    got = stats.tail_percentile(range(n))
    assert got[0] == pct and got[2] == beyond
    rank, value = stats.nearest_rank(list(range(n)), pct)
    assert got[1] == value == rank - 1
    # the next rung up has fewer than ten samples beyond it
    higher = [p for p in stats.TAIL_LADDER if p > pct]
    if higher:
        assert n - stats.nearest_rank(list(range(n)), min(higher))[0] < 10


def test_tail_needs_ten_beyond_the_median():
    assert stats.tail_percentile(range(19)) is None
    assert stats.tail_percentile([]) is None


def test_failed_share_counts_injected_failure(monkeypatch):
    real = wl.derive_request
    calls = []

    def flaky(spec, order):
        calls.append(spec)
        if len(calls) == 4:       # the warm-up is call 1
            raise ArithmeticError("injected")
        return real(spec, order)

    monkeypatch.setattr(wl, "derive_request", flaky)
    res = worker.job_derive(Namespace(seed=3, seconds=0.0, fixed_rounds=1,
                                      trace=False))
    led = res["ledger"]
    assert led["attempted"] == wl.ROUND_SIZE
    assert led["failed"] == 1
    assert "injected" in led["reasons"][0]


def test_ledger_counts_gates_and_exceptions():
    led = stats.Ledger()
    led.check("a", True)
    led.check("b", False, "bad")
    assert led.call("c", lambda: 1 / 0) is None
    assert (led.attempted, led.failed) == (3, 2)
    assert led.share == pytest.approx(2 / 3)


def test_certify_gate_rejects_short_structure_table():
    doc = {"ok": True, "report": {
        "structure_constants": {f"r{k}": "ok" for k in range(27)},
        "jacobi": {}, "variation_closure": {}, "audits": {}}}
    assert wl.certify_gate("verify-algebra", doc)[0] is False
    doc["report"]["structure_constants"]["r27"] = "ok"
    assert wl.certify_gate("verify-algebra", doc) == (True, "")
    assert wl.certify_gate("verify-algebra", {"ok": False})[0] is False


def test_metric_rows_match_benchmark_json():
    import json
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_derive_stream_mix_is_seed_independent():
    for seed in (1, 2):
        rounds = [r for r, _ in zip(wl.derive_stream(seed), range(3))]
        kinds = sorted(("poly" + str(s.count(",")) if s.startswith("poly")
                        else s) for r in rounds for s, _ in r)
        assert len(kinds) == 3 * wl.ROUND_SIZE
        assert kinds == sorted(list(wl.KINDS) * 4)
    assert (list(zip(wl.derive_stream(5), range(2)))
            == list(zip(wl.derive_stream(5), range(2))))


# ----------------------------------------------------------------------
# self-test: every wrapped function is seen, tracing changes no output
# ----------------------------------------------------------------------

CERTIFY_PROBES = ("verify-algebra", "check-currents", "verify-dmodule")


def test_every_wrapped_function_records_and_digests_agree():
    seen = set()
    for command in CERTIFY_PROBES:
        # traced first: module caches are still cold in this process
        traced = worker.job_runner(Namespace(command=command, seed=1,
                                             trace=True))
        plain = worker.job_runner(Namespace(command=command, seed=1,
                                            trace=False))
        assert traced["ok"] and plain["ok"]
        assert traced["digest"] == plain["digest"]
        seen |= {k for k, v in traced["layers"]["counts"].items() if v}
    for job, fixed in ((worker.job_derive, {"fixed_rounds": 1}),
                       (worker.job_evolve, {"fixed_passes": 1})):
        args = {"seed": 2, "seconds": 0.0, "fixed_rounds": 0,
                "fixed_passes": 0, **fixed}
        traced = job(Namespace(trace=True, **args))
        plain = job(Namespace(trace=False, **args))
        assert traced["ledger"]["failed"] == plain["ledger"]["failed"] == 0
        assert traced["digest"] == plain["digest"]
        seen |= {k for k, v in traced["layers"]["counts"].items() if v}
    wanted = ({name for _, _, name in tracing.SPANNED}
              | {name for _, _, name, _ in tracing.COUNTED})
    assert wanted - seen == set()


def test_check_currents_solves_each_split_twice():
    # a fresh process, so that module caches are as cold as in the CLI
    import run
    res = run.run_worker(["runner", "--command", "check-currents",
                          "--seed", "1", "--trace"], "test-distinct")
    rows = run.layer_rows([res["layers"]])
    assert rows["variational.divergence_split_calls"] == 10
    assert rows["variational.divergence_split_distinct_share"] == 0.5
