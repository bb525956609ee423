"""Source hygiene: every exported name resolves, every public function,
class and method has a caller in the program or the benchmark, no module
imports a name it never uses, no function rebinds module-global state, no
module binds a name to a mutable container, and no module imports a way to
start threads or processes."""
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


# Public names that only tests need, with the reason each stays.
ALLOWED_UNREFERENCED = {
    # the reader of which grounding each entry's guidance used
    "vga.py:VgaSession.groundings",
}
PERFBENCH = SRC.parent.parent / "perfbench"


def unreferenced(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module:name`` for each public top-level function or class of
    ``modules`` (path to source), and ``module:Class.method`` for each
    public method of such a class, that no ``ast.Name`` or
    ``ast.Attribute`` names outside its own definition, in ``modules`` or
    in the ``others`` sources."""
    trees = {path: ast.parse(source) for path, source in modules.items()}
    # (path or None, name, line) for every name read anywhere
    refs = [
        (path, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for path, tree in [*trees.items(), *((None, ast.parse(s)) for s in others)]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    found = []
    for path, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs.extend(
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
        for qualname, node in defs:
            if node.name.startswith("_"):
                continue
            if not any(
                name == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, name, line in refs
            ):
                found.append(f"{path}:{qualname}")
    return found


def test_reference_check_sees_a_test_only_function():
    modules = {
        "a.py": (
            "def used():\n    pass\n"
            "def only_tests():\n    return only_tests()\n"
            "def only_bench():\n    pass\n"
            "class K:\n    def m(self):\n        pass\n"
            "    def unread(self):\n        pass\n    def _private(self):\n        pass\n"
        ),
        "b.py": "from .a import used\nused()\nK().m()\n",
    }
    assert unreferenced(modules, ["vgalab.a.only_bench()\n"]) == [
        "a.py:only_tests",
        "a.py:K.unread",
    ]


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public name that only tests call states again, for the tests, what
    the program already states where it runs; delete it, or call the
    program's own statement from the test."""
    modules = {
        p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
        for p in sorted(SRC.rglob("*.py"))
        if p.name != "__init__.py"
    }
    bench = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert [q for q in unreferenced(modules, bench) if q not in ALLOWED_UNREFERENCED] == []


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


# The module-level mutable containers allowed, which the program never
# mutates: every module's export list and the CLI's command table.
ALLOWED_CONTAINERS = {("cli.py", "_COMMANDS")}
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray"}


def module_containers(source: str) -> list[str]:
    """Names bound at module level, outside every function and class, to a
    list, dict or set display or comprehension, or to a call of ``list``,
    ``dict``, ``set`` or ``bytearray``: state every caller in the process
    would share."""
    found = []

    def mutable(value) -> bool:
        if isinstance(value, _MUTABLE_DISPLAYS):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CONSTRUCTORS
        )

    def visit(node) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)) and child.value is not None:
                if mutable(child.value):
                    targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                    for target in targets:
                        found.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
            visit(child)

    visit(ast.parse(source))
    return found


def test_container_check_sees_module_level_bindings_only():
    source = (
        "A = {}\nB: list = []\nC = (1, 2)\nD = dict(x=1)\nE = {k: 1 for k in C}\n"
        "if C:\n    F = {1}\n"
        "def f():\n    G = []\n"
        "class K:\n    H = []\n"
    )
    assert module_containers(source) == ["A", "B", "D", "E", "F"]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_module_binds_a_mutable_container(path):
    where = path.relative_to(SRC).as_posix()
    found = module_containers(path.read_text(encoding="utf-8"))
    assert [n for n in found if n != "__all__" and (where, n) not in ALLOWED_CONTAINERS] == []


# The program runs on one thread, so the prefix memo and the forward-row
# counter need no locks inside it.
CONCURRENCY_MODULES = ("threading", "concurrent.futures", "multiprocessing", "asyncio")


def concurrency_imports(source: str) -> list[str]:
    """Names a module imports from ``CONCURRENCY_MODULES`` or their
    submodules; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.extend(
            name for name in names
            if any(name == m or name.startswith(m + ".") for m in CONCURRENCY_MODULES)
        )
    return found


def test_concurrency_check_sees_threads_and_pools():
    source = (
        "import threading\nimport os, multiprocessing.pool\n"
        "from concurrent.futures import ThreadPoolExecutor\nfrom concurrent import futures\n"
        "from .threading import x\nimport concurrent\nimport asyncio_like\n"
    )
    assert concurrency_imports(source) == [
        "threading",
        "multiprocessing.pool",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures",
    ]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_module_imports_threads_or_processes(path):
    assert concurrency_imports(path.read_text(encoding="utf-8")) == []
