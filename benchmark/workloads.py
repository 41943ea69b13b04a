"""The three workloads: seeded inputs, one op each, and the check of its result.

Workload code reaches the library only through names in `mosva.__all__`,
looked up on the package at call time, and through the `mosva` command line.
`test_benchmark.py` enforces this.  Inputs come from the workload seed alone;
the library sees only the generated words, states, duals and suite seeds.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

from measure import SAMPLE_INTERVAL_S, sample_ref, sample_ref_process

DIM = 2


class OpFailure(Exception):
    """An op returned a wrong or unparsable result."""


@lru_cache(maxsize=None)
def words_of_weight(total: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Every creation word a_{i1}(-m1)...a_{ik}(-mk)1 with m1 + ... + mk = total."""
    if total == 0:
        return ((),)
    return tuple(
        ((i, first),) + rest
        for first in range(1, total + 1)
        for i in range(DIM)
        for rest in words_of_weight(total - first)
    )


def run_process(cmd: List[str], timeout: float) -> Tuple[int, str, str, float]:
    """Run cmd to completion: (exit code, stdout, stderr, peak RSS in MB of that process).

    The child is reaped with os.wait4, which returns its own resource usage
    (subprocess.run does not); both pipes are drained first, without threads.
    A child still running after `timeout` seconds is killed and counts as failed.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {"stdout": [], "stderr": []}
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, "stdout")
        sel.register(proc.stderr, selectors.EVENT_READ, "stderr")
        while sel.get_map() and time.monotonic() < deadline:
            for key, _ in sel.select(timeout=max(0.0, deadline - time.monotonic())):
                data = os.read(key.fileobj.fileno(), 1 << 16)
                if data:
                    chunks[key.data].append(data)
                else:
                    sel.unregister(key.fileobj)
        timed_out = bool(sel.get_map())
    if timed_out:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if timed_out:
        raise OpFailure(f"timed out after {timeout} s")
    out, err = (b"".join(chunks[k]).decode() for k in ("stdout", "stderr"))
    return proc.returncode, out, err, usage.ru_maxrss / 1024


def word_weight(word) -> int:
    return sum(m for _, m in word)


class QueryGen:
    """Seeded matrix-coefficient queries <f, Y(u1, z1) Y(u2, z2) w>.

    u1 and u2 are creation words of weight 1-3, w a state of weight at most 2,
    and f a dual of 1-3 basis pairs drawn from the weight band that can pair
    with the product.  With a diagonal form a creation index can only be
    removed by annihilating it with the same index, so duals are further drawn
    from words whose per-index counts have the product's parity and fit in it.
    """

    def __init__(self, rng: random.Random, module_weights=(0,), diagonal_form: bool = True):
        self.rng = rng
        self.module_weights = [Fraction(w) for w in module_weights]
        self.diagonal_form = diagonal_form
        self._pools: Dict[tuple, list] = {}

    def _pool(self, weight: int, counts: tuple) -> list:
        key = (weight, counts)
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pools[key] = [
                w for w in words_of_weight(weight)
                if not self.diagonal_form or self._fits(w, counts)
            ]
        return pool

    @staticmethod
    def _fits(word, counts) -> bool:
        mine = [0] * DIM
        for i, _ in word:
            mine[i] += 1
        return all(c <= t and (t - c) % 2 == 0 for c, t in zip(mine, counts))

    def __iter__(self):
        return self

    def __next__(self):
        rng = self.rng
        w1 = rng.choice(words_of_weight(rng.randint(1, 3)))
        w2 = rng.choice(words_of_weight(rng.randint(1, 3)))
        ws = rng.choice(words_of_weight(rng.randint(0, 2)))
        s = rng.randrange(len(self.module_weights))
        counts = [0] * DIM
        for i, _ in w1 + w2 + ws:
            counts[i] += 1
        counts = tuple(counts)
        # vertex operators reach other module basis vectors only through zero
        # modes, which keep the module weight
        t = rng.choice([j for j, wt in enumerate(self.module_weights) if wt == self.module_weights[s]])
        top = word_weight(w1) + word_weight(w2) + word_weight(ws)
        bands = [d for d in range(top + 1) if self._pool(d, counts)]
        pool = self._pool(rng.choice(bands), counts)
        dual = {}
        for word in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
            dual[word] = rng.choice((1, -1, 2))
        return w1, w2, ws, s, t, dual


def query_objects(mv, query):
    w1, w2, ws, s, t, dual = query
    f = {}
    for word, c in dual.items():
        f.update(mv.dual_term(word, t, c))
    return mv.word_elem(w1), mv.word_elem(w2), f, mv.state(ws, s)


# -- workloads ---------------------------------------------------------------


class _InProcess:
    """A workload whose ops are library calls in the worker process."""

    ref_sampler = staticmethod(sample_ref)
    ref_interval_s = SAMPLE_INTERVAL_S
    cold_caches = "cold at process start, warm across ops"

    def setup(self, mv):
        return {"mv": mv, "h": mv.HSpace.identity(DIM), "mod": mv.ModulePresentation.trivial(DIM)}

    def canary_space(self, mv):
        return mv.HSpace.identity(DIM), mv.ModulePresentation.trivial(DIM), (0,), True


class AssocTables(_InProcess):
    """run_suite with only the associativity check: product vs iterate tables."""

    name = "assoc-tables"
    digest_ops = 20
    rss_ops = 300
    sample_pairs = 2  # two pairs per op smooth the op-cost quantiles that one pair leaves jumpy

    def inputs(self, seed: int) -> Iterator[int]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield rng.getrandbits(31)

    def run(self, ctx, suite_seed: int) -> Tuple[int, str]:
        mv = ctx["mv"]
        config = mv.SuiteConfig(
            h=ctx["h"], module=ctx["mod"], checks=("associativity",),
            seed=suite_seed, sample_pairs=self.sample_pairs,
        )
        reports = mv.run_suite(config)
        names = [r.name for r in reports]
        if names != ["module-invariants", "associativity"]:
            raise OpFailure(f"unexpected reports {names}")
        bad = [r.name for r in reports if not r.passed]
        if bad:
            raise OpFailure(f"failed: {bad}")
        compared = reports[1].params.get("coefficients")
        if not isinstance(compared, int) or compared < 1:
            raise OpFailure(f"no coefficient compared ({compared!r})")
        rendered = [[r.name, r.passed, sorted((k, str(v)) for k, v in r.params.items())] for r in reports]
        return compared, json.dumps(rendered)


class Queries(_InProcess):
    """One product and one iterate matrix coefficient per op, compared exactly."""

    name = "queries"
    digest_ops = 500
    rss_ops = 20000

    def inputs(self, seed: int):
        return QueryGen(random.Random(f"{self.name}:{seed}"))

    def run(self, ctx, query) -> Tuple[int, str]:
        mv, h, mod = ctx["mv"], ctx["h"], ctx["mod"]
        u1, u2, f, w = query_objects(mv, query)
        product = mv.matrix_coeff_product(h, mod, [u1, u2], f, w)
        iterate = mv.matrix_coeff_iterate(h, mod, u1, u2, f, w)
        if not mv.ratfun_eq(product, iterate):
            raise OpFailure(f"product {product.render()} != iterate {iterate.render()}")
        return 1, product.render()


CLI_FORM = [["1", "1/2"], ["1/3", "2"]]
CLI_MODULE = {
    # criterion 5's module: two weights, noncommuting zero modes, nonzero Dm
    "weights": ["0", "0", "1", "1"],
    "action": [
        [["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "0", "0"]],
        [["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"]],
    ],
    "Dm": [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
}
# every check except translation-properties, whose commutator form provably
# fails once zero modes act by nonzero matrices (README, module caveat)
CLI_CHECKS = [
    "identity-creation", "grading-bracket", "rationality-product", "associativity",
    "rationality-iterate", "pbw-confluence", "graded-dimensions", "lower-bound",
    "quotient-homomorphism", "sym-crosscheck", "noncommutativity-witness",
]
CLI_SUITE = {"max_weight": 2, "dual_weight_cap": 4, "window": [-4, 2], "sample_pairs": 1, "pbw_words": 60}


def cli_config(checks) -> str:
    return json.dumps({
        "dim": DIM, "form": CLI_FORM, "module": CLI_MODULE,
        "suite": dict(CLI_SUITE, checks=list(checks)),
    }, separators=(",", ":"))


class CheckCli:
    """One fresh `mosva check --format json` process per op."""

    name = "check-cli"
    digest_ops = 5
    rss_ops = None  # every op is a fresh process with the same amount of work
    ref_sampler = staticmethod(sample_ref_process)
    ref_interval_s = SAMPLE_INTERVAL_S  # ops take longer: a sample after every op
    cold_caches = "cold on every op (fresh process)"
    op_timeout_s = 120

    def __init__(self, launcher: List[str] = None):
        # untraced ops run the CLI module itself; a traced run swaps in its launcher
        self.launcher = launcher or [sys.executable, "-m", "mosva.cli"]
        self.child_rss_mb: List[float] = []

    def peak_rss_mb(self) -> float:
        """The median op's peak RSS: the largest of ~25 varied suites is too
        jumpy to gate on, so it goes to the details instead."""
        return statistics.median(self.child_rss_mb)

    def setup(self):
        return {"config": cli_config(CLI_CHECKS)}

    def inputs(self, seed: int) -> Iterator[int]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield rng.getrandbits(31)

    def command(self, config: str, suite_seed: int) -> List[str]:
        return self.launcher + ["check", "-c", config, "--seed", str(suite_seed), "--format", "json"]

    def run(self, ctx, suite_seed: int, stderr_sink=None) -> Tuple[int, str]:
        code, stdout, stderr, rss_mb = run_process(self.command(ctx["config"], suite_seed), self.op_timeout_s)
        self.child_rss_mb.append(rss_mb)
        if stderr_sink is not None:
            stderr_sink(stderr)
        if code != 0:
            raise OpFailure(f"exit {code}: {stderr.strip()[-300:]}")
        try:
            reports = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise OpFailure(f"unparsable output: {exc}") from None
        names = [r.get("name") for r in reports]
        if names != ["module-invariants"] + CLI_CHECKS:
            raise OpFailure(f"unexpected reports {names}")
        bad = [r["name"] for r in reports if r.get("passed") is not True]
        if bad:
            raise OpFailure(f"failed: {bad}")
        return 1, json.dumps(reports, sort_keys=True)

    def canary_space(self, mv):
        h = mv.HSpace.from_rows([[Fraction(x) for x in row] for row in CLI_FORM])
        mod = mv.ModulePresentation.build(CLI_MODULE["weights"], CLI_MODULE["action"], CLI_MODULE["Dm"])
        return h, mod, CLI_MODULE["weights"], False


WORKLOADS = {w.name: w for w in (AssocTables, Queries, CheckCli)}
CANARIES = 12


def canaries(mv, workload, seed: int) -> Tuple[List[str], dict]:
    """Product coefficients under the workload's form and module, after the timed loop.

    They join the result digest, so a change that breaks products and
    iterates the same way still changes it, and they measure the input
    properties a later optimisation may depend on.
    """
    h, mod, weights, diagonal = workload.canary_space(mv)
    gen = QueryGen(random.Random(f"canary:{workload.name}:{seed}"), weights, diagonal)
    rendered, coeffs = [], []
    for _ in range(CANARIES):
        u1, u2, f, w = query_objects(mv, next(gen))
        rf = mv.matrix_coeff_product(h, mod, [u1, u2], f, w)
        rendered.append(rf.render())
        coeffs.extend(rf.numer.terms.values())
    props = {
        "non_integral_coeff_share": (
            sum(1 for c in coeffs if c.denominator != 1) / len(coeffs) if coeffs else 0.0
        ),
        "coefficients_sampled": len(coeffs),
        "zero_mode_action_nonzero": mod.has_zero_mode_action(),
        "caches": workload.cold_caches,
    }
    return rendered, props
