"""No ``import`` statement inside a function body on the execution path.

An ``import`` in a function is a statement that runs on every call: a
``sys.modules`` lookup, an attribute fetch and a rebind.  Inside a
per-record callback wrapper that was the single largest cost of a theta
query (``ExecutionContext.guard_record``, 90k calls per operation).  This
test parses every module of the packages a query is parsed, planned and
executed in (``query/ast.py`` holds the compiled expressions the per-row
loops call) and fails on any function-level import that is not listed below with its reason.
A listed function may run per query, per session or per event — never
per record.
"""

import ast
from pathlib import Path

import repro

PACKAGES = ("engine", "serde", "geometry", "core", "joins", "interval",
            "text", "trajectory", "query", "optimizer")

#: Single modules on the request path that sit outside those packages.
MODULES = ("client.py",)

#: ``(path under src/repro, qualified function name) -> why it stays``.
ALLOWED = {
    ("engine/operators/fudj_join.py", "FudjJoin._combine"):
        "per query; a serial query never imports multiprocessing",
    ("engine/telemetry.py", "Telemetry.set_build_info"):
        "per session; the repro package root imports the engine",
    ("engine/tracing.py", "Trace.render"):
        "per rendered trace; repro.query imports the engine",
    ("geometry/point.py", "Point.mbr"):
        "rectangle.py imports point.py; the statement runs once, on the "
        "first call, and binds a module global",
}


class _FunctionImports(ast.NodeVisitor):
    """Collects ``(qualified function name, line)`` of every import
    statement that sits inside a function body."""

    def __init__(self) -> None:
        self.scope = []
        self.functions = 0
        self.found = []

    def visit_ClassDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.functions += 1
        self.generic_visit(node)
        self.functions -= 1
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node) -> None:
        if self.functions:
            self.found.append((".".join(self.scope), node.lineno))

    visit_ImportFrom = visit_Import


def function_imports() -> list:
    root = Path(repro.__file__).parent
    paths = [root / module for module in MODULES]
    for package in PACKAGES:
        assert (root / package).is_dir(), package  # renamed: nothing scanned
        paths.extend(sorted((root / package).rglob("*.py")))
    found = []
    for path in paths:
        visitor = _FunctionImports()
        visitor.visit(ast.parse(path.read_text(), str(path)))
        relative = path.relative_to(root).as_posix()
        found.extend((relative, name, line)
                     for name, line in visitor.found)
    return found


def test_no_unlisted_import_inside_a_function():
    unlisted = [f"src/repro/{path}:{line} in {name}"
                for path, name, line in function_imports()
                if (path, name) not in ALLOWED]
    assert not unlisted, (
        "import statements inside function bodies (hoist them to module "
        "level, or list the function in ALLOWED with the reason it "
        "cannot be and how often it runs):\n" + "\n".join(unlisted))


def test_allow_list_has_no_stale_entry():
    present = {(path, name) for path, name, _ in function_imports()}
    assert set(ALLOWED) <= present, sorted(set(ALLOWED) - present)


def test_the_visitor_sees_nested_and_method_imports():
    visitor = _FunctionImports()
    visitor.visit(ast.parse(
        "import os\n"
        "class A:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            from x import y\n"
        "        import z\n"))
    assert visitor.found == [("A.m.inner", 5), ("A.m", 6)]
