"""The package's import graph, read from the source with ``ast``: the modules
import each other in layers with no cycle, and the kernel sits below the
engine, so the plan format that both kernel orders read stays behind it.
The same reading keeps numpy's hash-table ``unique`` out of the package and
pins the few private names one module imports from another."""

import ast
import pathlib

import mose

SOURCE = pathlib.Path(mose.__file__).parent


def imported_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from`` import reads: "x" for ``from .x import y`` or
    ``from mose.x import y``, "" for ``from . import x`` or ``from mose import x``,
    None outside the package."""
    parts = (("mose." if node.level else "") + (node.module or "")).split(".")
    return (parts[1] if len(parts) > 1 else "") if parts[0] == "mose" else None


def package_imports() -> dict:
    """{module: the package modules it imports}, function-level imports included."""
    modules = {path.stem for path in SOURCE.glob("*.py")}
    graph = {}
    for name in modules:
        deps = set()
        for node in ast.walk(ast.parse((SOURCE / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and (dep := imported_module(node)) is not None:
                deps.update([dep] if dep else [alias.name for alias in node.names])
            elif isinstance(node, ast.Import):
                deps.update(alias.name.split(".")[1] for alias in node.names
                            if alias.name.startswith("mose."))
        graph[name] = deps & modules - {name}
    return graph


def private_imports() -> set:
    """(module, package module, name) for every underscore name a package module
    imports from another one, function-level imports included."""
    found = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (dep := imported_module(node)):
                found.update((path.stem, dep, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    return found


def reachable(graph: dict, start: str) -> set:
    seen, stack = set(), [start]
    while stack:
        for dep in graph[stack.pop()] - seen:
            seen.add(dep)
            stack.append(dep)
    return seen


def test_the_reader_sees_the_known_imports():
    graph = package_imports()
    assert {"graph", "util"} <= graph["kernel"]
    assert {"kernel", "walks"} <= graph["moe"]
    assert "moe" in graph["trainer"] and "kernel" in graph["wl"]


def test_no_module_imports_itself_through_others():
    graph = package_imports()
    cycles = sorted(name for name in graph if name in reachable(graph, name))
    assert not cycles


def test_the_kernel_imports_neither_the_engine_nor_the_trainer():
    assert not {"moe", "trainer"} & reachable(package_imports(), "kernel")


# the kernel's private steps of its one forward/backward pair
ENGINE_STEPS = {"_padded_forward", "_padded_backward", "_moment_forward", "_moment_backward",
                "_rectified_powers", "_weight_backward"}


def test_only_the_kernel_runs_its_engine_steps_and_builds_plans():
    # names of the steps anywhere outside the kernel (an import or an attribute),
    # and every NodeGroup(...) call outside NodeGroup.build
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        # the nodes inside the kernel's NodeGroup.build
        built = {id(inner) for fn in ast.walk(tree) if path.stem == "kernel"
                 and isinstance(fn, ast.FunctionDef) and fn.name == "build"
                 for inner in ast.walk(fn)}
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            if path.stem != "kernel":
                found += [(path.stem, name) for name in ENGINE_STEPS & set(names)]
            func = node.func if isinstance(node, ast.Call) else None
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called == "NodeGroup" and id(node) not in built:
                found.append((path.stem, "NodeGroup(...)"))
    assert not found


def test_numpy_unique_is_called_only_through_util_unique():
    # numpy 2.x answers a plain np.unique from a hash table and one with
    # return_index from a stable argsort, each several times slower than the
    # one sort of util.unique; any np.unique, numpy.unique or from-numpy import
    # of it outside util.unique is reported
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = {id(inner) for fn in ast.walk(tree) if path.stem == "util"
                  and isinstance(fn, ast.FunctionDef) and fn.name == "unique"
                  for inner in ast.walk(fn)}
        for node in ast.walk(tree):
            attribute = (isinstance(node, ast.Attribute) and node.attr == "unique"
                         and isinstance(node.value, ast.Name)
                         and node.value.id in ("np", "numpy"))
            imported = (isinstance(node, ast.ImportFrom) and not node.level
                        and (node.module or "").split(".")[0] == "numpy"
                        and any(alias.name == "unique" for alias in node.names))
            if (attribute or imported) and id(node) not in helper:
                found.append((path.stem, node.lineno))
    assert not found


# the private names one module may take from another: the engine's row blocking,
# the oracle count that bench/layers.py traces by name, and the walk tables that
# wl's refinement reads
PRIVATE_IMPORTS = {("moe", "kernel", "_row_blocks"), ("verify", "kernel", "_oracle_counts"),
                   ("wl", "walks", "_label_bits"), ("wl", "walks", "_pattern_table")}


def test_modules_import_no_other_private_names():
    assert private_imports() == PRIVATE_IMPORTS
