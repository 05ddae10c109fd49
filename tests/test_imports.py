"""The package's import structure: every module imports the package's
other modules at module level, and those imports form no cycle, so no
module needs a function-local import to dodge one. No module imports a
private name of `field`, `linalg` or `majorant`, and `cli` imports none of
any module, nor a case constant or a `normalize_*` normalizer; `linalg`
rests on `backend` alone, and `majorant` takes nothing from `normalform`.

The key format has one home: only the boundary (`fileio`, `cli` and the
public methods of `Series`) reads `Series.terms`, the view keyed by
exponent tuples; `algebra._TaylorTable` packs no keys of its own; a
conjugation, an embedding and a substitution move key fields
(`backend.remap`) and call neither `pack` nor `unpack`; and every
product loop is one that `test_work_guard.count_products` counts. In
`normalform`, only the pass loop `_passes` calls `pushforward`: every
normalizing step is built and applied there, and it is the one caller in
the package of `JetMap._make`, which skips the checks of `JetMap`.

No module of the package, the tests or the tools imports a name it never
uses; a name in `__all__` counts as used."""

import ast
from pathlib import Path

from test_work_guard import COUNTED

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "holonorm"
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


def test_cli_imports_no_private_name_case_or_normalizer():
    # the case decision and its dispatch live behind `normalform.normalize`
    names = [alias.name for node in ast.walk(MODULES["cli"])
             if isinstance(node, ast.ImportFrom) and _targets(node) for alias in node.names]
    assert [name for name in names
            if name.startswith(("_", "normalize_"))
            or name in ("ORD0", "GENERIC", "ALPHA_ZERO", "B_ZERO")] == []
    assert "normalize" in names


def test_linalg_imports_only_backend():
    assert _imports("linalg") == {"backend"}


def test_majorant_imports_nothing_from_normalform():
    # the certificate's slot rule is passed in; normalform imports majorant
    assert "normalform" not in _imports("majorant") and "majorant" in _imports("normalform")


def _qualified(name, tree):
    """{qualified name: node} of every function and method of a module,
    nested functions under their own names."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    out[qual] = child
                visit(child, qual)

    visit(tree, name)
    return out


def test_only_the_boundary_reads_the_tuple_view():
    # the engine works on packed keys; `Series.terms`, the view keyed by
    # exponent tuples, serves the public API, the files and the reports
    readers = {qual for name, tree in MODULES.items() if name not in ("fileio", "cli")
               for qual, func in _qualified(name, tree).items()
               for node in ast.walk(func)
               if isinstance(node, ast.Attribute) and node.attr == "terms"}
    assert readers <= {"algebra.Series.items", "algebra.Series.__iter__"}


def test_taylor_table_packs_no_keys_of_its_own():
    tree = MODULES["algebra"]
    assert "algebra._unpack" not in _qualified("algebra", tree)
    table = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "_TaylorTable")
    methods = {node.name for node in table.body if isinstance(node, ast.FunctionDef)}
    slots = next(ast.literal_eval(node.value) for node in table.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "__slots__")
    assert not {"place", "pack", "unpack"} & (methods | set(slots))


def test_key_remaps_neither_pack_nor_unpack():
    funcs = _qualified("algebra", MODULES["algebra"])
    called = {qual: {node.func.id for node in ast.walk(funcs[qual])
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
              for qual in ("algebra.Series.conjugate", "algebra.Series.embed",
                           "algebra.substitute_all", "algebra._substitute_packed")}
    assert {qual: names & {"pack", "unpack"} for qual, names in called.items()} == {
        qual: set() for qual in called}
    # the core of substitute_all moves its sources' fields to the slots
    assert "_substitute_packed" in called["algebra.substitute_all"]
    assert all("remap" in called[qual] for qual in called if qual != "algebra.substitute_all")


def _calls(tree, name):
    """The calls of `name` in tree, by bare name or as an attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_normalform_pushes_forward_only_in_the_pass_loop():
    tree = MODULES["normalform"]
    passes = _qualified("normalform", tree)["normalform._passes"]
    assert len(_calls(tree, "pushforward")) == len(_calls(passes, "pushforward")) > 0


def _unchecked_steps(tree):
    """The calls of `JetMap._make`, the constructor that skips the checks."""
    return [node for node in _calls(tree, "_make")
            if getattr(node.func.value, "id", None) == "JetMap"]


def test_only_the_pass_loop_builds_unchecked_steps():
    passes = _qualified("normalform", MODULES["normalform"])["normalform._passes"]
    found = [call for tree in MODULES.values() for call in _unchecked_steps(tree)]
    assert found == _unchecked_steps(passes) and len(found) == 1


def _product_loops():
    """The functions with a loop that multiplies raw numerators as complex
    numbers, (x + yi)(u + vi) with real part x*u - y*v."""
    found = set()
    for name, tree in MODULES.items():
        for qual, func in _qualified(name, tree).items():
            for loop in (n for n in ast.walk(func) if isinstance(n, ast.For)):
                if any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
                       and all(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                               for side in (n.left, n.right))
                       for n in ast.walk(loop)):
                    found.add(qual)
    return found


def test_every_product_loop_is_counted_by_the_work_guard():
    loops = _product_loops()
    assert "backend.mul_into" in loops and "algebra._TaylorTable.spread" in loops
    assert loops <= set(COUNTED)


def _unused_imports(path):
    """The names path imports and never reads, as `path:line name`."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = [p for d in ("src/holonorm", "tests", "tools")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 30
    assert [u for p in paths for u in _unused_imports(p)] == []
