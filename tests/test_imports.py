"""Every module-level import in the package is used by its module, and
only ``collar`` builds a ``CollarDecomposition``."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "teichlen"
# __init__ imports only to re-export
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no Name node of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def decomposition_constructions(path: pathlib.Path) -> list[tuple[str, str]]:
    """(module, top-level definition) of each ``CollarDecomposition(...)`` call."""
    return [(path.stem, getattr(top, "name", "<module>"))
            for top in ast.parse(path.read_text()).body for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "CollarDecomposition"]


def test_only_collar_decomposition_builds_a_decomposition():
    sites = [site for path in MODULES for site in decomposition_constructions(path)]
    assert sites == [("collar", "collar_decomposition")]


def test_unused_import_detected():
    source = "from __future__ import annotations\nimport math\nimport os.path\nx = math.pi\n"
    assert unused_imports(source) == ["os"]
