"""One benchmark process: a single client issuing one workload's ops in a closed loop.

Modes (run.py starts each in a fresh process, so library caches start cold):

  setup   import the library and build the workload's form, module and config,
          then print the ready time; run.py times process start to ready.
  timed   issue ops until --seconds have passed, sampling the reference
          kernel between ops.
  prefix  issue exactly --ops ops; with --trace 1 every library layer is
          wrapped and no reference samples are taken.

Prints one JSON object on its last stdout line.
"""

import sys
import time


class LoopResult:
    def __init__(self):
        self.attempted = 0
        self.verified = 0
        self.spans = []  # (start, end) of each op that passed
        self.failures = []
        self.rss = None


def closed_loop(run_op, inputs, stop, digest, digest_ops, clock=None, rss_ops=None,
                peak_rss=None, now=time.perf_counter) -> LoopResult:
    """Issue ops one after another until `stop(attempted, now())` is true.

    `run_op(input)` returns (verified results, canonical rendering) or
    raises; a raising op is counted as failed and the loop goes on.  The
    first `digest_ops` renderings go to `digest`.  The reference clock, if
    any, is sampled between ops; `peak_rss()` is read once `rss_ops` ops
    have been attempted.
    """
    res = LoopResult()
    while not stop(res.attempted, now()):
        if clock is not None:
            clock.maybe_sample(now())
        op_input = next(inputs)
        res.attempted += 1
        start = now()
        try:
            count, rendered = run_op(op_input)
        except Exception as exc:  # a failed op is counted and the loop goes on
            res.failures.append(f"op {res.attempted}: {type(exc).__name__}: {exc}"[:500])
        else:
            res.spans.append((start, now()))
            res.verified += count
            if digest.items < digest_ops:
                digest.add(rendered)
        if res.attempted == rss_ops:
            res.rss = peak_rss()
    if clock is not None:
        clock.samples.append(clock.sampler())  # the last ops need a sample after them
    return res


def _setup_probe(workload_name):
    """Import the library and build an in-process workload's context; return the ready time."""
    import mosva
    from workloads import WORKLOADS

    WORKLOADS[workload_name]().setup(mosva)
    return time.perf_counter()


def main(argv):
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "prefix"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        print(f'{{"ready": {_setup_probe(args.workload)!r}}}')
        return 0

    import json
    import os
    import resource

    from measure import Digest, RefClock, latency_summary, normalise
    from workloads import WORKLOADS, CheckCli, canaries

    in_process = args.workload != "check-cli"
    tracer = None
    run_kwargs = {}
    snapshots = []
    if in_process:
        import mosva

        workload = WORKLOADS[args.workload]()
        ctx = workload.setup(mosva)
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
    else:
        if args.trace:
            bench_dir = os.path.dirname(os.path.abspath(__file__))
            workload = CheckCli([sys.executable, os.path.join(bench_dir, "launch_cli.py")])

            def collect(stderr):
                for line in stderr.splitlines():
                    if line.startswith("BENCH-TRACE "):
                        snapshots.append(json.loads(line[len("BENCH-TRACE "):]))

            run_kwargs["stderr_sink"] = collect
        else:
            workload = CheckCli()
        ctx = workload.setup()

    def peak_rss_mb():
        if in_process:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return workload.peak_rss_mb()

    if args.mode == "timed":
        deadline = time.perf_counter() + args.seconds

        def stop(attempted, now):
            return now >= deadline
    else:
        def stop(attempted, now):
            return attempted >= args.ops

    clock = None if args.trace else RefClock(workload.ref_interval_s, workload.ref_sampler)
    digest = Digest()
    loop = closed_loop(
        lambda op_input: workload.run(ctx, op_input, **run_kwargs),
        workload.inputs(args.seed), stop, digest, workload.digest_ops,
        clock=clock, rss_ops=workload.rss_ops, peak_rss=peak_rss_mb,
    )
    rss_ops = workload.rss_ops if loop.rss is not None else loop.attempted
    rss = loop.rss if loop.rss is not None else peak_rss_mb()

    if tracer is not None:
        snapshots.append(tracer.snapshot())
    import mosva

    canary_texts, props = canaries(mosva, workload, args.seed)
    digest_complete = digest.items == (
        workload.digest_ops if args.mode == "timed" else min(workload.digest_ops, args.ops)
    )
    for text in canary_texts:
        digest.add(text)

    op_s = [end - start for start, end in loop.spans]
    result = {
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:5],
        "verified": loop.verified,
        "op_s_total": sum(op_s),
        "op_ms_p50": 1000 * latency_summary(op_s)["p50"] if op_s else None,
        "peak_rss_mb": rss,
        "rss_ops": rss_ops,
        "result_digest": digest.hexdigest(),
        "digest_ops": workload.digest_ops,
        "digest_complete": digest_complete,
        "props": props,
    }
    if clock is not None:
        op_ref = normalise(loop.spans, clock.samples)
        result.update({
            "op_ref_total": sum(op_ref),
            "latency_ref": latency_summary(op_ref) if op_ref else None,
            "ref_kernel_ms": clock.kernel_ms(),
            "ref_samples": len(clock.samples),
        })
    if not in_process:
        result["largest_child_rss_mb"] = max(workload.child_rss_mb, default=None)
    if snapshots:
        from layers import merge

        result["trace"] = merge(snapshots)
        result["cli_import_s"] = [s["import_s"] for s in snapshots if "import_s" in s]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
