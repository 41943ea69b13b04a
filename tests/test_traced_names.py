"""The benchmark tracer's names resolve on the package.

`benchmark/layers.py` names library functions as strings; a name that no
longer resolves is reported absent and its metric reads 0.  This test makes
a refactor that renames or deletes a traced function fail instead.
"""

import importlib
import importlib.util
import os

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
