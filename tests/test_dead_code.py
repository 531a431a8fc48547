"""No dead code: every top-level function, class and constant in
src/fedslice, and every method of its top-level classes but the dunders, is
used by the program, in src/fedslice or perfbench/, outside its own
definition. A name that only tests use fails here, and so does an `__all__`
entry that names nothing the module defines. Every import in src/fedslice
and tests is used too, and scaling.py spells no tensor name outside CUTS."""

import ast
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fedslice").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def is_all(node):
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets)


@functools.lru_cache(maxsize=None)
def top_level(path):
    """The module's top-level statements, less its __all__ list, whose
    strings export names rather than use them. Each module is parsed once,
    so a definition is the same node wherever it is looked up, and its own
    body never counts as a use of it."""
    return [node for node in ast.parse(path.read_text()).body if not is_all(node)]


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if not is_dunder(n)]


def used_names(node):
    """Names read in node: loaded names, attributes, and each dotted part of
    a string, which counts by-name uses such as perfbench's span table."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def test_every_top_level_name_is_used_outside_its_definition():
    nodes = [node for path in PROGRAM for node in top_level(path)]
    uses = [(node, used_names(node)) for node in nodes]
    unused = [f"{path.name}: {name}"
              for path in PACKAGE for node in top_level(path) for name in defined_names(node)
              if not any(name in names for other, names in uses if other is not node)]
    assert not unused, f"defined but never used by the program: {unused}"


def methods(path):
    """(class name, method) for every method of the module's top-level
    classes that is not a dunder."""
    return [(node.name, sub) for node in top_level(path) if isinstance(node, ast.ClassDef)
            for sub in node.body
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not is_dunder(sub.name)]


def test_every_method_is_used_outside_its_definition():
    # a class is split into its decorators, bases and body statements, so a
    # method used by a sibling method counts and one used only by itself not
    units = [part for path in PROGRAM for node in top_level(path)
             for part in ([*node.decorator_list, *node.bases, *node.keywords, *node.body]
                          if isinstance(node, ast.ClassDef) else [node])]
    uses = [(unit, used_names(unit)) for unit in units]
    unused = [f"{path.name}: {cls}.{method.name}"
              for path in PACKAGE for cls, method in methods(path)
              if not any(method.name in names for unit, names in uses if unit is not method)]
    assert not unused, f"methods never used by the program: {unused}"


def test_every_all_entry_names_a_top_level_definition():
    # a stale entry makes `from module import *` raise AttributeError
    stale = []
    for path in PACKAGE:
        body = ast.parse(path.read_text()).body
        defined = {name for node in body for name in defined_names(node)}
        stale += [f"{path.name}: {name}" for node in body if is_all(node)
                  for name in ast.literal_eval(node.value) if name not in defined]
    assert not stale, f"in __all__ but not defined at top level: {stale}"


def imported_names(tree):
    """The names a module's imports bind, anywhere in it; `from __future__`
    imports and star imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name) for a in node.names if a.name != "*")


def test_every_import_is_used():
    # used: loaded anywhere in the module (which covers the base of an
    # attribute) or exported by a string in its __all__
    unused = []
    for path in PACKAGE + TESTS:
        tree = ast.parse(path.read_text())
        used = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        used.update(name for node in tree.body if is_all(node)
                    for name in ast.literal_eval(node.value))
        unused += [f"{path.name}: {name}" for name in imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_scaling_names_tensors_only_in_cuts():
    # every per-slot rule reads its tensors from CUTS through the layout, so
    # no other string in scaling.py spells a tensor name (".wq", "head{" ...)
    body = ast.parse((ROOT / "src" / "fedslice" / "scaling.py").read_text()).body
    cuts = next(node for node in body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "CUTS")
    leaves = {tmpl.rsplit(".", 1)[-1] for tmpl in ast.literal_eval(cuts.value)}
    spelled = re.compile(rf"\.({'|'.join(sorted(leaves))})\b|head\{{")
    strings = [ast.unparse(sub) for node in body if node is not cuts for sub in ast.walk(node)
               if isinstance(sub, ast.JoinedStr)
               or (isinstance(sub, ast.Constant) and isinstance(sub.value, str))]
    named = [text for text in strings if spelled.search(text)]
    assert not named, f"scaling.py names tensors outside CUTS: {named}"
