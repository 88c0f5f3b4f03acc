"""The package surface: the modules' __all__ lists are the only export list."""

import ast
import importlib
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

# The 60 names the package exported when it kept its own list.
EXPORTED_BEFORE = """
IntMatrix InternalCheckError congruent det det_or_left_kernel is_unimodular
signature signature_and_det skew_standardize standard_symplectic
transpose_pencil_det LaurentPoly format_laurent normalize_knot_polynomial
parse_laurent Invariants SearchBudget SearchResult SeifertMatrix alexander
alexander_raw arf bounded_sequiv_search column_enlarge invariants
is_alexander_trivial knot_determinant knot_signature reduce_fully row_enlarge
try_reduce validate LinkingMatrix PureBraidWord delta_equivalent
delta_relator insert_relator is_delta_trivial linking_matrix
DoubledStringLink delta_equivalent_links normalize_linking orientation_sign
pairwise_linking position_of stabilizing_multiply strand_label DiskBandForm
from_disk_band is_standardized standardization_witness standardize
to_disk_band to_string_link ArtinBraidWord burau_alexander
closure_permutation is_knot_closure knot_corpus seifert_matrix
""".split()


def test_package_exports_every_name_in_every_module_all():
    for name in LIBRARY:
        module = importlib.import_module(f"sequiv.{name}")
        for attr in module.__all__:
            assert getattr(sequiv, attr) is getattr(module, attr), f"{name}.{attr}"


def test_package_still_exports_the_names_it_exported_before():
    assert len(EXPORTED_BEFORE) == len(set(EXPORTED_BEFORE)) == 60
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
