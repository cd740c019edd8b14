"""Every private module-level name of the package is used somewhere in it."""

import ast
from collections import Counter
from pathlib import Path

import quantmc

PACKAGE = Path(quantmc.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """(name, node) of each module-level function, class or constant whose
    name has one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if _private(name):
                yield name, node


def _loads(node):
    """Names read under node: bare names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def unused_private_names(package=PACKAGE):
    """``module.name`` of each private module-level name of package's modules
    that no code of the package reads outside the name's own definition.

    A read matches by name alone, from any module, so a name is reported
    only when nothing of that name is read anywhere else; names that only
    tests read are reported.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _loads(tree))
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if reads[name] == Counter(_loads(node))[name]
    ]


def test_no_private_name_is_dead():
    assert unused_private_names() == []


def test_a_dead_helper_is_found(tmp_path):
    # the positive control: a private function that only calls itself is
    # dead; the constant it reads counts as read, one level at a time
    (tmp_path / "mod.py").write_text(
        "_LIMIT = 3\n"
        "_USED = 2\n"
        "def _dead(n):\n"
        "    return _dead(n - 1) if n > _LIMIT else n\n"
        "def public():\n"
        "    return _USED\n"
    )
    assert unused_private_names(tmp_path) == ["mod._dead"]
