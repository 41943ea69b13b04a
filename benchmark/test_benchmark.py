"""The benchmark's own arithmetic, its public-surface rule and its tracer.

Run with `PYTHONPATH=src python -m pytest benchmark/`.
"""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(1, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from measure import TAIL_BEYOND, Digest, RefClock, latency_summary, normalise, tail_rank  # noqa: E402
from worker import closed_loop  # noqa: E402
from workloads import WORKLOADS, OpFailure, Queries  # noqa: E402


# -- tail percentile -----------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(1000, 99), (33, 69), (100, 90), (11, 50), (20, 50), (21, 52)])
def test_tail_rank_known_values(n, pct):
    assert tail_rank(n)[0] == pct


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    for n in range(2 * TAIL_BEYOND, 3000, 7):
        pct, idx = tail_rank(n)
        assert n - idx - 1 >= TAIL_BEYOND
        if pct < 99:
            higher = -(-(pct + 1) * n // 100)  # nearest rank of the next percentile
            assert n - higher < TAIL_BEYOND


def test_tail_never_below_median():
    summary = latency_summary([5.0, 1.0, 2.0, 100.0, 3.0, 4.0])
    assert summary["tail"] >= summary["p50"] == 3.5
    assert summary["tail_pct"] == 50


# -- reference normalisation ------------------------------------------------------------


def test_each_op_divided_by_nearest_sample():
    samples = [(0.0, 2.0), (10.0, 4.0), (20.0, 1.0)]
    spans = [(1.0, 3.0), (8.0, 10.0), (14.0, 18.0), (21.0, 22.0)]
    # midpoints 2, 9, 16, 21.5 -> samples at 0, 10, 20, 20
    assert normalise(spans, samples) == [1.0, 0.5, 4.0, 1.0]


def test_normalise_needs_a_sample():
    with pytest.raises(ValueError):
        normalise([(0.0, 1.0)], [])


def test_ref_clock_samples_at_interval():
    current = [0.0]
    clock = RefClock(interval=5, sampler=lambda: (current[0], 0.002))
    for now in (0, 1, 4.9, 5.0, 7, 10.1):
        current[0] = now
        clock.maybe_sample(now)
    assert [t for t, _ in clock.samples] == [0, 5.0, 10.1]
    assert clock.kernel_ms() == pytest.approx(2.0)


# -- failures count and the loop goes on ------------------------------------------------


def test_raising_and_wrong_ops_count_as_failures_without_aborting():
    def run_op(x):
        if x % 3 == 0:
            raise ZeroDivisionError("boom")
        if x % 3 == 1:
            raise OpFailure("wrong result")
        return 2, str(x)

    ticks = iter(range(10_000))
    digest = Digest()
    res = closed_loop(run_op, iter(range(30)), lambda attempted, now: attempted >= 30,
                      digest, digest_ops=4, now=lambda: next(ticks))
    assert res.attempted == 30
    assert len(res.failures) == 20
    assert res.verified == 2 * 10
    assert len(res.spans) == 10
    assert digest.items == 4
    assert "ZeroDivisionError" in res.failures[0] and "OpFailure" in res.failures[1]


def test_wrong_query_result_raises_op_failure():
    class FakeLibrary:
        def __getattr__(self, name):
            import mosva

            return getattr(mosva, name)

        @staticmethod
        def ratfun_eq(a, b):
            return False

    workload = Queries()
    ctx = workload.setup(FakeLibrary())
    with pytest.raises(OpFailure):
        workload.run(ctx, next(workload.inputs(0)))


def test_rss_read_once_at_fixed_op_count():
    reads = []
    res = closed_loop(lambda x: (1, ""), iter(range(50)), lambda a, now: a >= 50, Digest(), 0,
                      rss_ops=7, peak_rss=lambda: reads.append(1) or 12.5)
    assert res.rss == 12.5 and len(reads) == 1


# -- the public surface -------------------------------------------------------------------


def _library_references(path):
    """Names a module takes from the library: `mv.X`, `mosva.X` and `from mosva import X`."""
    tree = ast.parse(open(path).read())
    names, submodules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("mv", "mosva"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "mosva":
            if node.module == "mosva":
                names.update(alias.name for alias in node.names)
            else:
                submodules.add(node.module)
        elif isinstance(node, ast.Import):
            submodules.update(a.name for a in node.names if a.name.startswith("mosva."))
    return names, submodules


@pytest.mark.parametrize("name", ["workloads.py", "worker.py", "run.py"])
def test_workload_code_uses_only_public_names(name):
    import mosva

    names, submodules = _library_references(os.path.join(BENCH_DIR, name))
    assert not submodules, f"{name} imports library internals: {submodules}"
    assert names <= set(mosva.__all__), sorted(names - set(mosva.__all__))


def test_workloads_reach_the_cli_as_a_command():
    assert WORKLOADS["check-cli"]().launcher[1:] == ["-m", "mosva.cli"]


# -- the tracer ------------------------------------------------------------------------


def test_nested_spans_split_self_time_by_layer():
    tracer = layers.Tracer()
    inner = tracer.wrap("fields", "inner", lambda: sum(range(20000)))
    outer = tracer.wrap("wick", "outer", lambda: inner() + inner())
    outer()
    snap = tracer.snapshot()
    assert tracer.calls[("fields", "inner")] == 2
    assert snap["edges"]["op>wick"] == pytest.approx(snap["self_s"]["wick"] + snap["self_s"]["fields"])
    assert snap["edges"]["wick>fields"] == pytest.approx(snap["self_s"]["fields"])


def test_merge_adds_counts_and_keeps_largest_cache():
    one = {"self_s": {"wick": 1.0}, "edges": {}, "layer_calls": {"wick": 3}, "named": {"x": 1},
           "contraction_terms": 4, "expand_signatures": ["a"], "reports": 1,
           "caches": {"c": {"hits": 1, "misses": 2, "size": 5}}, "absent": []}
    two = dict(one, expand_signatures=["a", "b"], caches={"c": {"hits": 3, "misses": 1, "size": 4}},
               absent=["wick.gone"])
    merged = layers.merge([one, two])
    assert merged["self_s"]["wick"] == 2.0 and merged["contraction_terms"] == 8
    assert merged["caches"]["c"] == {"hits": 4, "misses": 3, "size": 5}
    assert merged["expand_signatures"] == ["a", "b"] and merged["absent"] == ["wick.gone"]


def test_deleted_names_are_reported_absent():
    # in a child process: installing the tracer rewires the library for good
    code = """
import json, sys
sys.path.insert(0, sys.argv[1])
import mosva.wick, mosva.laurent
del mosva.wick._pairing_table_cached
del mosva.laurent.LaurentPoly._div_linear
import layers
tracer = layers.Tracer()
tracer.install()
mosva.RatFun.const(1) + mosva.RatFun.const(2)
snap = tracer.snapshot()
metrics = layers.per_layer_metrics(layers.merge([snap]), 1.0, 1.0, 0.002, 1)
print(json.dumps({"absent": snap["absent"], "pairing": metrics["wick.pairing_table.misses"],
                  "arith": metrics["ratfun.arith.calls"]}))
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code, BENCH_DIR], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert "wick._pairing_table_cached" in out["absent"]
    assert "laurent.LaurentPoly._div_linear" in out["absent"]
    assert out["pairing"] == 0 and out["arith"] == 1


# -- the benchmark description ---------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_canary_space_matches_the_cli_config():
    import mosva

    h, mod, weights, diagonal = WORKLOADS["check-cli"]().canary_space(mosva)
    assert h.pairing(0, 1) == Fraction(1, 2) and h.pairing(1, 0) == Fraction(1, 3)
    assert mod.has_zero_mode_action() and not diagonal
    assert mosva.validate_module(mod) == []
