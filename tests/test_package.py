"""The package surface: the modules' __all__ lists are the only export list."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_package_init_holds_no_name_list():
    # One star import per library module, and no name spelled out.
    tree = ast.parse(Path(sequiv.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert sorted(node.module for node in imports) == LIBRARY
    assert all([alias.name for alias in node.names] == ["*"] for node in imports)
    assert not any(isinstance(node, ast.Import) for node in tree.body)


def test_module_all_names_are_distinct_across_modules():
    # A name in two lists would leave the package attribute to import order.
    names = [attr for name in LIBRARY for attr in importlib.import_module(f"sequiv.{name}").__all__]
    assert len(names) == len(set(names))
