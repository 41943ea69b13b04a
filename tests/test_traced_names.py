"""The benchmark tracer's names resolve on the package, and its counts mean
what they say.

`benchmark/layers.py` names library functions as strings; a name that no
longer resolves is reported absent and its metric reads 0, and so does a
traced cache that is no longer memoized.  These tests make a refactor that
renames or deletes a traced function, or drops a traced memo, fail instead.
The tracer counts canonicalizations as `RatFun.__init__` calls, so a sum or a
query that built its result around the constructor would undercount.
"""

import importlib
import importlib.util
import os

from mosva import HSpace, ModulePresentation, dual_term, matrix_coeff_product, vacuum_state, word_elem
from mosva.laurent import LaurentPoly
from mosva.ratfun import RatFun, pole_diff, ratfun_sum

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# absent before this guard existed; dropping them is a change to the benchmark
KNOWN_ABSENT = {
    "fields._word_monomials",
    "fields.apply_monomial",
    "ratfun.substitute_vars",
    "wick._residual_pairing_table",
    "wick.iterate_closed_form",
}


def load_layers():
    path = os.path.join(ROOT, "benchmark", "layers.py")
    spec = importlib.util.spec_from_file_location("traced_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_name_resolves_on_the_package():
    layers = load_layers()
    wanted = [ident for names in layers.NAMED.values() for ident in names]
    wanted += list(layers.CACHES.values()) + list(layers.TERM_SOURCES) + [layers.EXPAND, layers.SUITE]
    modules = {layer: importlib.import_module(f"mosva.{layer}") for layer in layers.LAYERS}
    # the tracer's own notion of what a layer defines
    known = set(layers.Tracer.calls_possible(modules))
    missing = {f"{layer}.{name}" for layer, name in wanted if (layer, name) not in known}
    assert ("wick", "reduce_blocks") in wanted
    assert missing <= KNOWN_ABSENT, sorted(missing - KNOWN_ABSENT)


def test_every_traced_cache_is_a_memo():
    # the tracer reads hits and misses off cache_info and reports 0 without it
    layers = load_layers()
    plain = [
        f"{layer}.{name}"
        for layer, name in layers.CACHES.values()
        if f"{layer}.{name}" not in KNOWN_ABSENT
        and not hasattr(getattr(importlib.import_module(f"mosva.{layer}"), name, None), "cache_info")
    ]
    assert not plain, plain


def test_each_sum_and_product_query_canonicalizes_once(monkeypatch):
    inits = []
    real = RatFun.__init__

    def counting(self, *args, **kwargs):
        inits.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(RatFun, "__init__", counting)

    def canonicalizations(call):
        inits.clear()
        call()
        return len(inits)

    diff = pole_diff("z1", "z2")[0]
    one, z1 = LaurentPoly.const(1, ("z1",)), LaurentPoly(("z1",), {(1,): 1})
    for parts in ([], [({diff: 2}, one)], [({diff: 2}, one), ({}, z1)]):
        assert canonicalizations(lambda: ratfun_sum(parts)) == 1
    h, mod, a = HSpace.identity(2), ModulePresentation.trivial(2), word_elem(((0, 1),))
    # no part, one part, and parts of two pole monomials
    duals = [dual_term(((1, 3),)), dual_term(), {((), 0): 1, (((0, 1), (0, 1)), 0): 1}]
    for f in duals:
        assert canonicalizations(lambda: matrix_coeff_product(h, mod, [a, a], f, vacuum_state())) == 1
