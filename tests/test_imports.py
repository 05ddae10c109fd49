"""The package's import structure: every module imports the package's
other modules at module level, and those imports form no cycle, so no
module needs a function-local import to dodge one. No module imports a
private name of `field`, `linalg` or `majorant`; `linalg` rests on
`backend` alone, and `majorant` takes nothing from `normalform`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "holonorm"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _targets(node):
    """The package modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0:
            top, _, module = module.partition(".")
            if top != "holonorm":
                return set()
        if module:
            return {module.split(".")[0]}
        return {alias.name for alias in node.names if alias.name in MODULES}
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("holonorm.")}
    return set()


def test_no_function_local_package_imports():
    local = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if _targets(node):
                        local.append(f"{name}.py:{node.lineno} in {func.name}")
    assert local == []


def test_import_graph_is_acyclic():
    # every import counts, a function-local one too
    graph = {name: {dep for node in ast.walk(tree) for dep in _targets(node)} - {"__init__"}
             for name, tree in MODULES.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)
    # the guard sees the package's layering at all
    assert "normalform" in graph["centralizer"] and "field" in graph["hypersurface"]


def _imports(name):
    return {dep for node in ast.walk(MODULES[name]) for dep in _targets(node)}


def test_no_private_names_of_field_linalg_or_majorant_imported():
    # a private name stays in its module: callers go through the public entry
    private = [f"{name} imports {owner}.{alias.name}"
               for name, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               for owner in _targets(node) & {"field", "linalg", "majorant"}
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_linalg_imports_only_backend():
    assert _imports("linalg") == {"backend"}


def test_majorant_imports_nothing_from_normalform():
    # the certificate's slot rule is passed in; normalform imports majorant
    assert "normalform" not in _imports("majorant") and "majorant" in _imports("normalform")
