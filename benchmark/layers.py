"""Per-layer tracing of the mosva library from outside it.

A layer is one module of the package.  `install()` wraps every function the
module defines (and every method of `LaurentPoly` and `RatFun`) and rebinds
the wrapper wherever the package holds the original: module namespaces,
module-level dicts and default arguments.  Each wrapped call is a span whose
parent is the innermost span open when it started; a layer's self time is the
time of its spans minus the time of their child spans.  Spans are reduced as
they close, into per-layer self time, per (caller layer, callee layer)
inclusive time and per-function call counts, so memory stays flat however
many calls a run makes.

Functions named in this file but no longer defined by the library are
reported as absent and count as zero; a refactor never breaks the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List

LAYERS = ("laurent", "ratfun", "wick", "fields", "modules", "halgebra", "checks", "cli", "scalars")
TRACED_CLASSES = {"laurent": ("LaurentPoly",), "ratfun": ("RatFun",)}

# (layer, function) pairs a per-layer metric reads; absent ones count as zero
NAMED = {
    "laurent.div_linear.calls": [("laurent", "LaurentPoly._div_linear")],
    "laurent.align.calls": [("laurent", "LaurentPoly.align")],
    "ratfun.canon.calls": [("ratfun", "RatFun.__init__")],
    "ratfun.eq.calls": [("ratfun", "ratfun_eq")],
    "ratfun.arith.calls": [("ratfun", "ratfun_arith")],
    "ratfun.expand.calls": [("ratfun", "expand_raw")],
    "ratfun.substitute.calls": [("ratfun", "substitute_vars")],
    # the per-term pairing step behind every matrix-coefficient and table entry point
    "wick.matrix_coeff.calls": [("wick", "_residual_pairing_table")],
    "fields.vertex_series.calls": [("fields", "vertex_series")],
    "fields.apply_monomial.calls": [("fields", "apply_monomial")],
    "modules.apply_mode_term.calls": [("modules", "apply_mode_term")],
    "halgebra.pbw.calls": [("halgebra", "pbw_normal_form")],
}
CACHES = {
    "wick.pairing_table": ("wick", "_pairing_table_cached"),
    "fields.mode_tuples": ("fields", "_mode_tuples"),
    "fields.word_monomials": ("fields", "_word_monomials"),
    "fields.binomial": ("fields", "binomial"),
}
# leaf helpers that cost less than a span; their time counts to their caller
UNTRACED = {
    "laurent": {"sort_vars", "_sorted_unique", "var_sort_key", "LaurentPoly.is_zero"},
    "ratfun": {"pole_var", "pole_diff", "pole_sum", "pole_vars", "pole_sort_key"},
    "wick": {"commutator_pm"},
    "fields": {"binomial", "field_coefficient", "normal_order_monomial"},
    "modules": {"key_weight"},
    "halgebra": {"add_into", "word_weight"},
}
TERM_SOURCES = (("wick", "reduce_blocks"), ("wick", "iterate_closed_form"))
EXPAND = ("ratfun", "expand_raw")
SUITE = ("checks", "run_suite")


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class Tracer:
    def __init__(self):
        self.stack: List[list] = []  # open spans: [layer, time covered by children]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.contraction_terms = 0
        self.expand_signatures = set()
        self.reports = 0
        self.caches = {}
        self.absent: List[str] = []
        self._hooks = {
            TERM_SOURCES[0]: self._count_terms,
            TERM_SOURCES[1]: self._count_terms,
            SUITE: self._count_reports,
        }

    def _count_terms(self, args, result):
        self.contraction_terms += len(result)

    def _count_reports(self, args, result):
        self.reports += len(result)

    def _note_expand(self, args, kwargs):
        bound = dict(zip(("numer", "poles", "region", "window"), args), **kwargs)
        self.expand_signatures.add(
            (_freeze(dict(bound["poles"])), tuple(bound["region"]), _freeze(dict(bound["window"])))
        )

    def wrap(self, layer: str, key: str, fn):
        calls, stack, self_s, edges = self.calls, self.stack, self.self_s, self.edges
        clock = time.perf_counter
        ident = (layer, key)
        after = self._hooks.get(ident)
        before = self._note_expand if ident == EXPAND else None

        if inspect.isgeneratorfunction(fn):
            # a span would close before the generator runs: count calls only
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[ident] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[ident] += 1
            if before is not None:
                before(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    if parent[0] != layer:
                        edges[f"{parent[0]}>{layer}"] += elapsed
                else:
                    edges[f"op>{layer}"] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer and rebind the wrappers throughout the package."""
        modules = {layer: importlib.import_module(f"mosva.{layer}") for layer in LAYERS}
        swaps = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                target = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
                if callable(obj) and inspect.isfunction(target) and target.__module__ == mod.__name__:
                    if hasattr(obj, "cache_info"):
                        self.caches[(layer, name)] = obj
                    if name not in UNTRACED.get(layer, ()):
                        swaps[id(obj)] = (obj, self.wrap(layer, name, obj))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is None:
                    self.absent.append(f"{layer}.{cls_name}")
                    continue
                for name, attr in list(vars(cls).items()):
                    key = f"{cls_name}.{name}"
                    if isinstance(attr, (classmethod, staticmethod)):
                        wrapped = type(attr)(self.wrap(layer, key, attr.__func__))
                    elif inspect.isfunction(attr) and name != "__setattr__" and key not in UNTRACED.get(layer, ()):
                        wrapped = self.wrap(layer, key, attr)
                    else:
                        continue
                    setattr(cls, name, wrapped)

        def rebound(value):
            pair = swaps.get(id(value))  # originals stay alive in `swaps`, so ids are unique
            return value if pair is None else pair[1]

        for mod in [m for n, m in sys.modules.items() if n == "mosva" or n.startswith("mosva.")]:
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if id(value) in swaps:
                    setattr(mod, name, rebound(value))
                elif isinstance(value, dict):  # e.g. the CLI's command table
                    value.update({k: rebound(v) for k, v in value.items() if id(v) in swaps})
                fn = getattr(value, "__wrapped__", value)
                if inspect.isfunction(fn) and fn.__defaults__:
                    fn.__defaults__ = tuple(rebound(d) for d in fn.__defaults__)

        known = set(self.calls_possible(modules))
        wanted = [ident for names in NAMED.values() for ident in names]
        wanted += list(CACHES.values()) + list(TERM_SOURCES) + [EXPAND, SUITE]
        self.absent += [f"{layer}.{key}" for layer, key in wanted if (layer, key) not in known]
        self.absent = sorted(set(self.absent))

    @staticmethod
    def calls_possible(modules):
        """(layer, name) of every callable the layers define now."""
        for layer, mod in modules.items():
            yield from ((layer, n) for n, v in vars(mod).items() if callable(v))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is not None:
                    yield from ((layer, f"{cls_name}.{n}") for n in vars(cls))

    def snapshot(self) -> dict:
        """Plain-data summary: what one process contributes to a traced run."""
        caches = {}
        for metric, ident in CACHES.items():
            fn = self.caches.get(ident)
            if fn is not None:
                info = fn.cache_info()
                caches[metric] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        layer_calls = Counter()
        for (layer, _), n in self.calls.items():
            layer_calls[layer] += n
        return {
            "self_s": dict(self.self_s),
            "edges": dict(self.edges),
            "layer_calls": dict(layer_calls),
            "named": {
                metric: sum(self.calls[ident] for ident in names)
                for metric, names in NAMED.items()
            },
            "contraction_terms": self.contraction_terms,
            "expand_signatures": sorted(repr(s) for s in self.expand_signatures),
            "reports": self.reports,
            "caches": caches,
            "absent": self.absent,
        }


def merge(snapshots: List[dict]) -> dict:
    """Combine per-process snapshots: times and counts add, cache sizes take the max."""
    out = {
        "self_s": Counter(), "edges": Counter(), "layer_calls": Counter(), "named": Counter(),
        "contraction_terms": 0, "expand_signatures": set(), "reports": 0,
        "caches": {}, "absent": set(),
    }
    for snap in snapshots:
        for key in ("self_s", "edges", "layer_calls", "named"):
            out[key].update(snap[key])
        out["contraction_terms"] += snap["contraction_terms"]
        out["reports"] += snap["reports"]
        out["expand_signatures"].update(snap["expand_signatures"])
        out["absent"].update(snap["absent"])
        for metric, info in snap["caches"].items():
            got = out["caches"].setdefault(metric, {"hits": 0, "misses": 0, "size": 0})
            got["hits"] += info["hits"]
            got["misses"] += info["misses"]
            got["size"] = max(got["size"], info["size"])
    out["expand_signatures"] = sorted(out["expand_signatures"])
    out["absent"] = sorted(out["absent"])
    return out


def per_layer_metrics(trace: dict, traced_op_s: float, untraced_op_s: float, ref_s: float, ops: int) -> Dict[str, float]:
    """The per-layer figures of BENCHMARK.json from a merged trace."""

    def ratio(a, b):
        return a / b if b else 0.0

    m: Dict[str, float] = {}
    for layer in LAYERS:
        self_s = trace["self_s"].get(layer, 0.0)
        m[f"{layer}.self_share"] = ratio(self_s, traced_op_s)
        m[f"{layer}.self_ref"] = ratio(self_s, ref_s * ops)
    m["laurent.calls"] = trace["layer_calls"].get("laurent", 0)
    m["scalars.calls"] = trace["layer_calls"].get("scalars", 0)
    for metric in NAMED:
        m[metric] = trace["named"].get(metric, 0)
    expand_calls = m["ratfun.expand.calls"]
    m["ratfun.expand.signatures"] = len(trace["expand_signatures"])
    m["ratfun.expand.reuse"] = ratio(expand_calls - m["ratfun.expand.signatures"], expand_calls)
    m["wick.contraction_terms"] = trace["contraction_terms"]
    m["checks.reports"] = trace["reports"]
    for metric in CACHES:
        info = trace["caches"].get(metric, {"hits": 0, "misses": 0, "size": 0})
        m[f"{metric}.hit_ratio"] = ratio(info["hits"], info["hits"] + info["misses"])
        m[f"{metric}.misses"] = info["misses"]
        m[f"{metric}.size"] = info["size"]
    m["tracing.overhead"] = ratio(traced_op_s, untraced_op_s)
    return m
