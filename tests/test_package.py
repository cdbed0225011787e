"""Every public function and class of the package serves its commands: no
code in ``src/degm`` is there only for the tests, which keep such code in
their own reference modules (``tape``, ``reference``)."""

import ast
import dataclasses
import glob
import os

import degm
from degm.config import TRAIN
from degm.lifelong import TrainConfig

# what perfbench and the command line call from outside the package
ENTRY_POINTS = {"cli.main", "data.build_stream", "config.parse_config", "nnkit.grad_enabled"}


def _module(path: str) -> str:
    """The dotted name of a module by its path within the package, "" for
    the package itself."""
    parts = path[:-len(".py")].split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _bindings(path: str, tree: ast.Module, modules: set) -> dict:
    """Each name a module's relative imports bind: to a module by its dotted
    name, or to (module, name) for a name imported from one."""
    package = _module(path) if path.endswith("__init__.py") else _module(path).rpartition(".")[0]
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package
            for _ in range(node.level - 1):
                base = base.rpartition(".")[0]
            source = ".".join(p for p in (base, node.module) if p)
            for alias in node.names:
                full = ".".join(p for p in (source, alias.name) if p)
                found[alias.asname or alias.name] = full if full in modules else (source, alias.name)
    return found


def unused_public_names(sources: dict[str, str]) -> list[str]:
    """The public top-level functions and classes of a package, given as
    {path within the package: source}, that its commands never use.

    A name is used when it is an entry point, when another module calls it
    or passes it as a value, when its own module's top-level code does, or
    when a function or class that is used does. A name that only appears as
    a string, a keyword, an attribute of an object or an import is not used.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    modules = {_module(path) for path in trees}
    binds = {_module(path): _bindings(path, tree, modules) for path, tree in trees.items()}
    defs = {(_module(path), node.name): node for path, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    def origin(module: str, name: str) -> tuple:
        bound = binds[module].get(name)
        return origin(*bound) if isinstance(bound, tuple) and bound[0] in binds else (module, name)

    def uses(module: str, nodes) -> set:
        found = set()
        for node in (sub for top in nodes for sub in ast.walk(top)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(origin(module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and isinstance(binds[module].get(node.value.id), str)):
                found.add(origin(binds[module][node.value.id], node.attr))
        return found & set(defs)

    used = {key for key in defs
            if ".".join(p for p in key if p) in ENTRY_POINTS or key[1].startswith("cmd_")}
    for (module, _), node in defs.items():
        used |= {key for key in uses(module, [node]) if key[0] != module}
    for path, tree in trees.items():
        top_level = [n for n in tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        decorators = [d for n in tree.body for d in getattr(n, "decorator_list", [])]
        used |= uses(_module(path), top_level + decorators)
    todo = list(used)
    while todo:
        module, name = todo.pop()
        for key in uses(module, [defs[(module, name)]]) - used:
            used.add(key)
            todo.append(key)
    return sorted(".".join(p for p in key if p) for key in defs
                  if not key[1].startswith("_") and key not in used)


def test_every_public_name_of_the_package_serves_a_command():
    root = os.path.dirname(degm.__file__)
    paths = sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True))
    assert len(paths) >= 10
    sources = {os.path.relpath(p, root).replace(os.sep, "/"): open(p).read() for p in paths}
    assert unused_public_names(sources) == []


def test_the_check_counts_uses_not_name_matches():
    sources = {
        "__init__.py": "",
        "a.py": ("from .b import imported_only, used\n"
                 "from . import c\n"
                 "def _caller(obj):\n"
                 "    obj.in_attribute()\n"
                 "    return used(), c.by_module(), {'in_string': 1}, dict(in_keyword=2)\n"),
        "b.py": ("def used(): return helper()\n"
                 "def helper(): pass\n"
                 "def imported_only(): pass\n"
                 "def in_attribute(): pass\n"
                 "def in_string(): pass\n"
                 "def in_keyword(): pass\n"
                 "def only_from_unused(): pass\n"
                 "def unused(): return only_from_unused()\n"
                 "def stored(): pass\n"
                 "TABLE = {'f': stored}\n"),
        "c.py": "def by_module(): pass\nclass Unbuilt: pass\n",
    }
    assert unused_public_names(sources) == [
        "b.imported_only", "b.in_attribute", "b.in_keyword", "b.in_string",
        "b.only_from_unused", "b.unused", "c.Unbuilt"]


def test_blas_threads_are_set_only_when_the_runtime_is_imported():
    # one OpenBLAS thread per process is one setting, made in one place
    root = os.path.dirname(degm.__file__)
    calls = []
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True)):
        tree = ast.parse(open(path).read())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "set_blas_threads" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    in_def = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    calls.append((os.path.relpath(path, root).replace(os.sep, "/"), in_def))
    assert calls == [("nnkit/runtime.py", False)]


def test_the_command_line_module_only_parses_and_dispatches():
    # the verbs, and the run directory they lay out, live in degm.runs and degm.data
    tree = ast.parse(open(os.path.join(os.path.dirname(degm.__file__), "cli.py")).read())
    defined = [n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                           ast.ClassDef))]
    assert defined == ["main"]


def test_every_train_config_field_is_a_row_of_the_train_table():
    # a value no config key can set is a constant of the module that reads it
    assert {f.name for f in dataclasses.fields(TrainConfig)} == {key for key, _, _ in TRAIN}
