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



REPO = PACKAGE.parent.parent
# exported for callers outside the package, with no reader inside it yet
KEEP_EXPORTED = {
    "estimated_twist": "the paper's twist estimate t_{A,tau}; the acceptance criteria "
                       "and the extremal-length inequality test check it as library code",
    "curve_dehn_twist": "the Dehn twist of curve systems; the twist-shift criterion "
                        "checks it against fn_dehn_twist",
    "pi_map_inverse": "the inverse of pi_map, for pulling product witnesses back to "
                      "the surface",
}


def exported_names() -> list[str]:
    """Names that ``teichlen/__init__.py`` re-exports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def names_read(source: str) -> set[str]:
    """Names loaded, taken as attributes or looked up by string in a module.

    A string constant counts as a read of each dotted part of it, as in
    the benchmark tracer's ``getattr`` targets.  A top-level definition
    reading its own name does not count.
    """
    read = set()
    for top in ast.parse(source).body:
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update(node.value.split("."))
        read |= found - {getattr(top, "name", None)}
    return read


def unread_exports() -> list[str]:
    """Exported names that no package module, demo or benchmark script reads."""
    scripts = sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    read = set().union(*(names_read(path.read_text()) for path in MODULES + scripts))
    return [name for name in exported_names() if name not in read]


def test_every_export_has_a_reader():
    assert set(KEEP_EXPORTED) <= set(exported_names())
    unread = [name for name in unread_exports() if name not in KEEP_EXPORTED]
    assert not unread, f"exported but read nowhere: {unread}"


def test_own_definition_is_not_a_reader():
    source = "def f(n):\n    return f(n - 1)\n\ndef g():\n    return h\n"
    assert names_read(source) == {"n", "h"}
