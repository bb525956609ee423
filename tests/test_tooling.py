"""Source hygiene: every exported name resolves, no module imports a
name it never uses, and no function rebinds module-global state."""
import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vgalab"


@pytest.mark.parametrize("package", ["vgalab", "vgalab.mllm", "vgalab.evalkit"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names {missing}"


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads. ``__init__`` modules
    re-export by import, so they are not checked."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_an_unused_name():
    assert unused_imports("import os\nfrom a import b, c\nc.d()\n") == [
        "os (line 1)",
        "b (line 2)",
    ]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py"),
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# The one module global a function may rebind: the forward-row counter.
ALLOWED_GLOBALS = {("mllm/core.py", "_forward_block", "_FORWARD_ROWS")}


def global_statements(source: str) -> list[tuple[str, str]]:
    """(function, name) for every name of every ``global`` statement, the
    function the innermost one that holds the statement."""
    found = []

    def visit(node, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.extend((function, name) for name in child.names)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), "<module>")
    return found


def test_global_check_sees_the_innermost_function():
    source = "def f():\n    global a\n    def g():\n        global b, c\n"
    assert global_statements(source) == [("f", "a"), ("g", "b"), ("g", "c")]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_function_rebinds_module_globals(path):
    where = path.relative_to(SRC).as_posix()
    found = global_statements(path.read_text(encoding="utf-8"))
    assert [(where, *use) for use in found if (where, *use) not in ALLOWED_GLOBALS] == []
