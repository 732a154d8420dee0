"""Layering: the generic modules never import the concrete matrix algebras,
the test oracles never import the code they check, and every module's
``__all__`` is exactly its public surface."""

import ast
import importlib
from pathlib import Path

import pytest

import ealie

PACKAGE = Path(ealie.__file__).parent
GENERIC = ["decomp", "ears", "axioms", "finroot", "linalg", "reporting"]
CONCRETE = {"matlie", "constructions"}


def imported_modules(path):
    """Names of the ealie modules a source file imports, relative or absolute."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
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
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not names & {"zero_root_component", "zero_root_component_by_class"}


def test_oracles_stay_independent_of_the_nullspace_routes():
    """``literal_relations`` reduces the whole matrix with ``ealie.kernel``, so
    the oracles take nothing from ``ealie.linalg`` but ``SpanDict``."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    from_linalg = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ealie.linalg":
            from_linalg.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "ealie":
            assert "linalg" not in {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            assert "ealie.linalg" not in {a.name for a in node.names}
    assert from_linalg <= {"SpanDict"}


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_all_lists_every_public_definition(module):
    """``__all__`` names only what exists and lists every public top-level def or class."""
    mod = importlib.import_module("ealie" if module == "__init__" else f"ealie.{module}")
    exported = getattr(mod, "__all__", None)
    assert exported is not None, f"{mod.__name__} has no __all__"
    assert [n for n in exported if not hasattr(mod, n)] == []
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    public = [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert [n for n in public if n not in exported] == []
