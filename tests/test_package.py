"""The package surface: the modules' __all__ lists are the only export list."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sequiv

# Modules outside the library surface: the command line, its entry point
# and the private text helpers.
PRIVATE = {"cli", "__main__", "textformat"}

LIBRARY = sorted(m.name for m in pkgutil.iter_modules(sequiv.__path__) if m.name not in PRIVATE)

# The package exported 60 names when it kept its own list; these 52 of
# them are still exported.
EXPORTED_BEFORE = """
IntMatrix InternalCheckError congruent det det_or_left_kernel is_unimodular
signature_and_det skew_standardize standard_symplectic transpose_pencil_det
LaurentPoly format_laurent normalize_knot_polynomial Invariants SearchBudget
SearchResult SeifertMatrix alexander alexander_raw bounded_sequiv_search
column_enlarge invariants reduce_fully row_enlarge try_reduce validate
LinkingMatrix PureBraidWord delta_equivalent delta_relator insert_relator
is_delta_trivial linking_matrix DoubledStringLink delta_equivalent_links
normalize_linking pairwise_linking position_of stabilizing_multiply
strand_label DiskBandForm from_disk_band is_standardized
standardization_witness standardize to_disk_band to_string_link
ArtinBraidWord burau_alexander is_knot_closure knot_corpus seifert_matrix
""".split()


def test_package_exports_every_name_in_every_module_all():
    for name in LIBRARY:
        module = importlib.import_module(f"sequiv.{name}")
        for attr in module.__all__:
            assert getattr(sequiv, attr) is getattr(module, attr), f"{name}.{attr}"


def test_package_still_exports_the_names_it_exported_before():
    assert len(EXPORTED_BEFORE) == len(set(EXPORTED_BEFORE)) == 52
    assert [name for name in EXPORTED_BEFORE if not hasattr(sequiv, name)] == []


def _all_exported() -> list[str]:
    return [attr for name in LIBRARY for attr in importlib.import_module(f"sequiv.{name}").__all__]


def test_package_init_holds_no_name_list():
    # The init names the library modules and defines InternalCheckError,
    # which intlin exports; it spells out no other exported name and
    # imports no library module.
    tree = ast.parse(Path(sequiv.__file__).read_text())
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    identifiers = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    identifiers |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert sorted(sequiv._LIBRARY) == LIBRARY
    assert (strings | identifiers) & set(_all_exported()) == {"InternalCheckError"}
    assert not any(isinstance(node, ast.ImportFrom) for node in ast.walk(tree))


def test_star_import_binds_exactly_the_union_of_the_module_lists():
    namespace = {}
    exec("from sequiv import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(_all_exported())
    assert sorted(sequiv.__all__) == sorted(_all_exported())


# In a fresh process, a submodule looked up on the package imports that
# module and what it imports, and nothing else.
SUBMODULES = """\
import sys
import sequiv
sequiv.seifert.invariants
print(*sorted(m for m in sys.modules if m.startswith("sequiv")))
from sequiv import purebraid
print(purebraid.__name__, *sorted(m for m in sys.modules if m.startswith("sequiv")))
"""


def test_submodules_resolve_as_package_attributes():
    src = str(Path(sequiv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SUBMODULES], capture_output=True, text=True, env=env, check=True)
    seifert = "sequiv sequiv.intlin sequiv.laurent sequiv.seifert sequiv.textformat"
    purebraid = "sequiv sequiv.intlin sequiv.laurent sequiv.purebraid sequiv.seifert sequiv.textformat"
    assert proc.stdout.splitlines() == [seifert, "sequiv.purebraid " + purebraid]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'sequiv' has no attribute 'no_such_name'$"):
        sequiv.no_such_name


def test_internal_check_error_is_one_class():
    exporters = [name for name in LIBRARY if "InternalCheckError" in importlib.import_module(f"sequiv.{name}").__all__]
    assert exporters == ["intlin"]
    modules = [importlib.import_module(f"sequiv.{name}") for name in LIBRARY + ["cli"]]
    holders = [m for m in modules if hasattr(m, "InternalCheckError")]
    assert sequiv.intlin in holders and sequiv.cli in holders
    assert all(m.InternalCheckError is sequiv.InternalCheckError for m in holders)


def test_module_all_names_are_distinct_across_modules():
    # A name in two lists would leave the package attribute to import order.
    names = _all_exported()
    assert len(names) == len(set(names))


# Exported functions that no code in the package calls, each kept on
# purpose; every other exported function must have a caller in src/sequiv.
UNCALLED_BY_DESIGN = {
    "transpose_pencil_det": "the direct handle on the g + 1-node Alexander path",
    "reduce_fully": "a nonsingular S-equivalent matrix and its witness (ROADMAP item 4)",
    "apply_moves": "replays a search witness; the search benchmark checks witnesses with it",
    "delta_relator": "the doubled-delta relator itself (ROADMAP item 6)",
    "insert_relator": "a delta move on a pure braid; the normal_form benchmark calls it",
    "stabilizing_multiply": "the stabilizing product of string links (ROADMAP item 6)",
    "to_string_link": "the string link of a disk-band form (ROADMAP item 11)",
    "format_braid": "the inverse of parse_braid, which braid commands use",
    "format_artin_word": "the inverse of parse_artin_word, which closure commands use",
}


def _referenced_in_package() -> set[str]:
    """Every name loaded in src/sequiv, and every <library module>.<attr>.

    Attributes of any other object do not count: inv.arf is the field of
    an Invariants record, not a call of a function named arf.
    """
    names = set()
    for path in Path(sequiv.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in LIBRARY:
                names.add(node.attr)
    return names


def test_every_exported_function_has_a_caller():
    referenced = _referenced_in_package()
    functions = []
    for name in LIBRARY:
        module = importlib.import_module(f"sequiv.{name}")
        functions += [attr for attr in module.__all__ if inspect.isfunction(getattr(module, attr))]
    assert [f for f in functions if f not in referenced and f not in UNCALLED_BY_DESIGN] == []
    # The list only shrinks: a kept name that gains a caller leaves it.
    assert sorted(UNCALLED_BY_DESIGN) == sorted(f for f in functions if f in UNCALLED_BY_DESIGN)
    assert [f for f in UNCALLED_BY_DESIGN if f in referenced] == []
