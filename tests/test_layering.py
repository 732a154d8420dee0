"""Layering: the generic modules never import the concrete matrix algebras,
the test oracles never import the code they check, and every module's
``__all__`` is exactly its public surface."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

import ealie

PACKAGE = Path(ealie.__file__).parent
GENERIC = ["decomp", "ears", "axioms", "finroot", "linalg", "reporting"]
CONCRETE = {"matlie", "constructions"}


@functools.cache
def source_tree(path):
    """The parsed source file, parsed once however many checks read it."""
    return ast.parse(path.read_text())


def imported_modules(path):
    """Names of the ealie modules a source file imports, relative or absolute."""
    out = set()
    for node in ast.walk(source_tree(path)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("ealie."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "ealie":
                    continue
                parts = parts[1:]
            elif node.level > 1:
                continue
            if parts and parts[0]:
                out.add(parts[0])
            else:  # from . import x / from ealie import x
                out.update(a.name for a in node.names)
    return out


def test_imported_modules_reads_every_import_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import os\nimport ealie.kernel\nfrom . import sparse\nfrom .linalg import SpanDict\n"
        "from ealie import finroot\nfrom ealie.ears import support_sets\n"
    )
    assert imported_modules(src) == {"kernel", "sparse", "linalg", "finroot", "ears"}


@pytest.mark.parametrize("module", GENERIC)
def test_generic_module_does_not_import_matrix_algebras(module):
    assert not imported_modules(PACKAGE / f"{module}.py") & CONCRETE


def test_oracles_stay_independent_of_the_checks():
    """``tests/oracles.py`` re-derives what the suites compute, so it imports
    neither the suites nor the root-system checks they share."""
    assert not imported_modules(Path(__file__).parent / "oracles.py") & {"axioms", "ears"}


def test_oracles_stay_independent_of_the_weight_zero_routes():
    """``literal_zero_span`` spans the weight-0 slices itself, so the oracles
    import neither the per-degree nor the per-class route it checks."""
    tree = source_tree(Path(__file__).parent / "oracles.py")
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not names & {"zero_root_component", "zero_root_component_by_class"}


def test_oracles_stay_independent_of_the_nullspace_routes():
    """``literal_relations`` reduces the whole matrix with ``ealie.kernel``, so
    the oracles take nothing from ``ealie.linalg`` but ``SpanDict``."""
    tree = source_tree(Path(__file__).parent / "oracles.py")
    from_linalg = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ealie.linalg":
            from_linalg.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "ealie":
            assert "linalg" not in {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            assert "ealie.linalg" not in {a.name for a in node.names}
    assert from_linalg <= {"SpanDict"}


def test_oracles_stay_independent_of_the_bracket_table():
    """``literal_first_unsolvable_root`` brackets and solves each probe
    itself, so the oracles neither import ``sl2_search`` nor read a window's
    ``bracket_table``."""
    tree = source_tree(Path(__file__).parent / "oracles.py")
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not names & {"sl2_search", "bracket_table"}


def private_imports(path):
    """(module, name) for each ``_``-prefixed name a source file imports from an ealie module."""
    out = []
    for node in ast.walk(source_tree(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0:
            if parts[0] != "ealie":
                continue
            parts = parts[1:]
        module = ".".join(parts)
        out.extend((module, a.name) for a in node.names if a.name.startswith("_"))
    return out


def test_private_imports_reads_relative_and_absolute_forms(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from os import _exit\nfrom .decomp import _core_basis, combine\n"
        "from ealie.kernel import _sign\nfrom . import _private\n"
    )
    assert private_imports(src) == [("decomp", "_core_basis"), ("kernel", "_sign"), ("", "_private")]


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name_from_another(module):
    """A ``_`` name is its module's own; another module that needs it needs a
    public name.  Tests and oracles may reach private names."""
    assert private_imports(PACKAGE / f"{module}.py") == []


@pytest.mark.parametrize("module", MODULES)
def test_all_lists_every_public_definition(module):
    """``__all__`` names only what exists and lists every public top-level def or class."""
    mod = importlib.import_module("ealie" if module == "__init__" else f"ealie.{module}")
    exported = getattr(mod, "__all__", None)
    assert exported is not None, f"{mod.__name__} has no __all__"
    assert [n for n in exported if not hasattr(mod, n)] == []
    tree = source_tree(PACKAGE / f"{module}.py")
    public = [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert [n for n in public if n not in exported] == []
