"""Source hygiene: no module of ``repro`` imports a name it never uses.

A module-level import counts as used when the module reads its bound
name (as a name, as the root of an attribute access, or as a forward
reference inside a string annotation), or when the module lists it in
``__all__`` as a re-export. A mention in a docstring is not a use.
"""

import ast
import os
import re

import repro

SRC = os.path.dirname(repro.__file__)


def module_paths():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def imported_names(tree):
    """(bound name, line) of every module-level import, ``TYPE_CHECKING``
    and ``try`` blocks included; ``__future__`` imports are directives."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0],
                            node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out.append((alias.asname or alias.name, node.lineno))
    return out


def module_level(tree):
    """Import statements not nested in a function or class body."""
    nested = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            for child in ast.walk(node):
                if child is not node:
                    nested.add(id(child))
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and id(node) not in nested]


def exported(tree):
    """The string entries of a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                for item in ast.walk(node.value):
                    if isinstance(item, ast.Constant) and isinstance(
                            item.value, str):
                        names.add(item.value)
    return names


def annotations(tree):
    """Every annotation expression of the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Every identifier the module reads, forward references in string
    annotations included (docstrings and messages do not count)."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value))
    return used


def unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imports = imported_names(ast.Module(body=module_level(tree),
                                        type_ignores=[]))
    used = used_names(tree) | exported(tree)
    return [(name, line) for name, line in imports if name not in used]


def test_no_unused_module_level_imports():
    problems = [
        f"{os.path.relpath(path, SRC)}:{line}: {name}"
        for path in module_paths()
        for name, line in unused_imports(path)
    ]
    assert not problems, "unused imports:\n" + "\n".join(problems)
