"""Benchmark entry point: one run of one workload.

    python3 benchmark/run.py --workload {assoc-tables,queries,check-cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is taken from ./src.  With
--trace 0 the run measures set-up time over fresh processes, then issues ops
for S seconds in one fresh worker process and reports the end-to-end metrics.
With --trace 1 it issues a fixed, seed-determined prefix of ops twice, each
in a fresh process, untraced and then traced, and reports the per-layer
metrics.  The last stdout line is the result object; the line before it
holds details (result digest, tail percentile, input properties, failures).
Exits 2 without a result when the library or a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

START = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

from layers import LAYERS, per_layer_metrics  # noqa: E402
from measure import NOMINAL_PROCESS_REF_MS, RefClock, normalise, sample_ref_process  # noqa: E402
from workloads import WORKLOADS, OpFailure, cli_config, run_process  # noqa: E402

SETUP_PROBES = 9
RUN_LIMIT_S = 170  # every run ends well inside the 180 s the harness allows
# ops in the --trace 1 prefix, per second of --seconds; sized so that the
# untraced and the traced pass together take about half the run
PREFIX_OPS_PER_S = {"assoc-tables": 6, "queries": 200, "check-cli": 0.2}

END_TO_END = {
    "setup_s": "s",
    "verified_per_kref": "1/kref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_share"] = "share"
PER_LAYER.update({
    "laurent.calls": "count",
    "laurent.div_linear.calls": "count",
    "laurent.align.calls": "count",
    "ratfun.canon.calls": "count",
    "ratfun.eq.calls": "count",
    "ratfun.arith.calls": "count",
    "ratfun.expand.calls": "count",
    "ratfun.expand.signatures": "count",
    "ratfun.expand.reuse": "share",
    "ratfun.substitute.calls": "count",
    "wick.contraction_terms": "count",
    "wick.matrix_coeff.calls": "count",
    "wick.pairing_table.hit_ratio": "share",
    "wick.pairing_table.misses": "count",
    "wick.pairing_table.size": "count",
    "fields.vertex_series.calls": "count",
    "fields.apply_monomial.calls": "count",
    "fields.mode_tuples.hit_ratio": "share",
    "fields.mode_tuples.misses": "count",
    "fields.word_monomials.hit_ratio": "share",
    "fields.binomial.hit_ratio": "share",
    "modules.apply_mode_term.calls": "count",
    "halgebra.pbw.calls": "count",
    "checks.reports": "count",
    "cli.import_s": "s",
    "scalars.calls": "count",
})
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_ref"] = "ref"
PER_LAYER.update({
    "host.ref_kernel_ms": "ms",
    "host.wall_s": "s",
    "host.op_p50_ms": "ms",
    "tracing.overhead": "ratio",
})


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def remaining() -> float:
    return RUN_LIMIT_S - (time.perf_counter() - START)


def run_child(cmd) -> str:
    """Run one child to completion and return its stdout; BenchError if it fails."""
    try:
        code, out, err, _ = run_process(cmd, max(1.0, remaining()))
    except OpFailure as exc:
        raise BenchError(f"{exc}: {' '.join(cmd[:4])} ...") from None
    if code != 0:
        raise BenchError(f"exit {code} from {' '.join(cmd[:4])} ...: {err.strip()[-800:]}")
    return out


def last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def worker(mode: str, workload: str, seed: int, **extra) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    return last_json(run_child(cmd))


def setup_sample(workload: str) -> tuple:
    """(start, ready) times of one fresh process, from its start to ready for the first op."""
    if workload == "check-cli":
        # the CLI with an empty check list: interpreter start, `import
        # mosva.cli`, config parsing and module validation, then exit
        cmd = [sys.executable, "-m", "mosva.cli", "check", "-c", cli_config([]), "--format", "json"]
        start = time.perf_counter()
        out = run_child(cmd)
        end = time.perf_counter()
        reports = json.loads(out)
        if [r["name"] for r in reports] != ["module-invariants"] or not reports[0]["passed"]:
            raise BenchError(f"set-up probe reported {reports}")
        return start, end
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--mode", "setup", "--workload", workload]
    start = time.perf_counter()
    return start, last_json(run_child(cmd))["ready"]


def measure_setup(workload: str) -> tuple:
    """Median set-up time over fresh processes, in seconds at NOMINAL_PROCESS_REF_MS per ref.

    A process-kernel sample is taken between probes, as between check-cli
    ops, and each probe is divided by the sample nearest to it, so that
    host-speed drift cancels; the raw seconds go to the details.
    """
    setup_sample(workload)  # writes bytecode caches and warms the file cache; not timed
    clock = RefClock(interval=0, sampler=sample_ref_process)
    spans = []
    for _ in range(SETUP_PROBES):
        clock.maybe_sample(time.perf_counter())
        spans.append(setup_sample(workload))
    clock.maybe_sample(time.perf_counter())
    setup_ref = normalise(spans, clock.samples)
    return statistics.median(setup_ref) * NOMINAL_PROCESS_REF_MS / 1000, [end - start for start, end in spans]


def measure_end_to_end(args) -> tuple:
    setup_s, setup_raw_s = measure_setup(args.workload)
    res = worker("timed", args.workload, args.seed, seconds=args.seconds)
    lat = res["latency_ref"]
    if not lat:
        raise BenchError(f"no op succeeded: {res['failures']}")
    metrics = {
        "setup_s": setup_s,
        "verified_per_kref": 1000 * res["verified"] / res["op_ref_total"],
        "op_p50_ref": lat["p50"],
        "op_tail_ref": lat["tail"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    details = {
        "result_digest": res["result_digest"],
        "digest_ops": res["digest_ops"],
        "fail_share": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "verified": res["verified"],
        "op_tail_pct": lat["tail_pct"],
        "op_tail_beyond": lat["tail_beyond"],
        "ops": lat["ops"],
        "setup_raw_s": setup_raw_s,
        "rss_ops": res["rss_ops"],
        "largest_child_rss_mb": res.get("largest_child_rss_mb"),
        "host.ref_kernel_ms": res["ref_kernel_ms"],
        "ref_samples": res["ref_samples"],
        "host.op_p50_ms": res["op_ms_p50"],
        "input_properties": res["props"],
    }
    correct = res["failed"] == 0 and res["digest_complete"]
    return correct, res["attempted"], res["failed"], metrics, details


def measure_per_layer(args) -> tuple:
    ops = max(1, round(PREFIX_OPS_PER_S[args.workload] * args.seconds))
    plain = worker("prefix", args.workload, args.seed, ops=ops, trace=0)
    traced = worker("prefix", args.workload, args.seed, ops=ops, trace=1)
    trace = traced["trace"]
    ref_s = plain["ref_kernel_ms"] / 1000
    metrics = per_layer_metrics(trace, traced["op_s_total"], plain["op_s_total"], ref_s, ops)
    metrics["cli.import_s"] = statistics.median(traced["cli_import_s"]) if traced["cli_import_s"] else 0.0
    metrics["host.ref_kernel_ms"] = plain["ref_kernel_ms"]
    metrics["host.op_p50_ms"] = plain["op_ms_p50"]
    metrics["host.wall_s"] = time.perf_counter() - START
    metrics = {name: metrics[name] for name in PER_LAYER}
    shares = sum(metrics[f"{layer}.self_share"] for layer in LAYERS)
    details = {
        "prefix_ops": ops,
        "result_digest": plain["result_digest"],
        "traced_digest": traced["result_digest"],
        "unattributed_share": 1 - shares,
        "layer_edges_s": trace["edges"],
        "absent": trace["absent"],
        "failures": plain["failures"] + traced["failures"],
        "input_properties": dict(plain["props"], **{"ratfun.expand.reuse": metrics["ratfun.expand.reuse"]}),
    }
    failed = plain["failed"] + traced["failed"]
    correct = (failed == 0 and plain["digest_complete"]
               and plain["result_digest"] == traced["result_digest"])
    return correct, plain["attempted"] + traced["attempted"], failed, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mosva", "__init__.py")):
        print(f"error: no mosva package under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the run and every process it starts: reference samples and
    # ops then share a core, whatever the host runs on the other ones
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    # processes import from bytecode caches, as an installed package does; the
    # untimed first set-up probe writes them
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        correct, attempted, failed, metrics, details = measure(args)
    except (BenchError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    details.update({"workload": args.workload, "seed": args.seed, "trace": args.trace})
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
