"""The public surface of the package, and no dead definitions behind it."""

import ast
import importlib
import inspect
import os
import re

import mosva

SRC = os.path.dirname(mosva.__file__)
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# the names `from mosva import *` provides; change this list deliberately
PUBLIC = [
    "CENTRAL", "CheckReport", "ContractionTerm", "DualFunctional", "FreeElem",
    "HSpace", "LaurentPoly", "ModulePresentation", "NegWord", "RatFun", "SuiteConfig",
    "WElem", "apply_D", "apply_d", "apply_mode", "basis_words", "basis_words_up_to",
    "checks", "commutator_pm", "dual_term", "expand_in_region", "field_coefficient",
    "fields", "free_add", "free_mul", "free_scale", "graded_dimension", "halgebra",
    "laurent", "matrix_coeff_iterate", "matrix_coeff_product",
    "mode", "modules", "noncommutativity_witness", "pairing",
    "pbw_normal_form", "pole_diff", "product_series_bruteforce",
    "project_to_sym", "ratfun", "ratfun_eq", "reduce_blocks",
    "render_free_elem", "render_pbw_elem", "run_suite", "series_lower_bound", "state",
    "vacuum_elem", "vacuum_state", "validate_hspace", "validate_module", "vertex_series",
    "weight", "wick", "word_elem",
]


def _package_trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            yield name, ast.parse(open(os.path.join(SRC, name)).read())


def test_public_names_are_pinned():
    assert sorted(mosva.__all__) == PUBLIC


def test_every_private_definition_has_a_use_in_the_package():
    # a method counts as used only through an attribute (`x.scale`): a bare
    # name of the same spelling, such as a parameter, is no use of it
    defined, methods, names, attrs = {}, set(), set(), set()
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, name)
            if isinstance(node, ast.ClassDef):
                methods.update(
                    item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    dead = {
        name: path
        for name, path in defined.items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in mosva.__all__
        and name not in attrs
        and (name in methods or name not in names)
    }
    assert not dead, f"defined but never used inside the package: {dead}"


# public names with no caller in the package, kept for users: free_mul is the
# tensor algebra's concatenation product
API_ONLY = {"free_mul"}


def test_every_public_name_has_a_use_in_the_package():
    # a load of the name or an attribute access outside __init__.py; the
    # re-exports themselves are no use
    used = set()
    for name, tree in _package_trees():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {name for name in mosva.__all__ if not inspect.ismodule(getattr(mosva, name))}
    assert API_ONLY <= public
    unused = sorted(public - used - API_ONLY)
    assert not unused, f"public but never used inside the package: {unused}"


def test_every_module_level_assignment_has_a_use_in_the_package():
    # a constant or type alias counts as used only through a load of its name
    # or an attribute access: its own store and an import of it are no use
    assigned, used = {}, set(mosva.__all__)
    for name, tree in _package_trees():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = {
        name: path for name, path in assigned.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert not dead, f"assigned but never used inside the package: {dead}"


def test_every_import_has_a_use_in_its_module():
    # an imported name counts as used only through a load of it in the same
    # module; the package's re-exports and `from __future__` are exempt
    unused = {}
    for name, tree in _package_trees():
        if name == "__init__.py":
            continue
        imported, loaded = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        if imported - loaded:
            unused[name] = sorted(imported - loaded)
    assert not unused, f"imported but never used: {unused}"


def test_every_dotted_name_in_the_readme_resolves():
    # `module.name` with a package module first, and any `mosva.module.NAME`;
    # config paths such as `suite.seed` and file names such as `wick.py` are
    # neither
    modules = {name[:-3] for name in os.listdir(SRC) if name.endswith(".py")} - {"__init__"}
    for module in modules:
        importlib.import_module(f"mosva.{module}")
    checked, missing = 0, []
    for dotted in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", open(README).read()):
        parts = dotted.split(".")
        if parts[0] == "mosva":
            parts = parts[1:]
        elif parts[0] not in modules or parts[-1] == "py":
            continue
        obj = mosva
        for part in parts:
            obj = getattr(obj, part, None)
        checked += 1
        if obj is None:
            missing.append(dotted)
    assert checked and not missing, f"README names that do not resolve: {missing}"
