"""Every private module-level name of the package is used somewhere in it,
and every optional parameter of a private function is passed somewhere."""

import ast
from collections import Counter, defaultdict
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


def _optional_parameters(node):
    """(name, positional index) of each parameter of function node that has
    a default; the index is None for a keyword-only one."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, index):
    """Whether call passes the parameter name, by keyword or at its
    positional index; a call that unpacks *args or **kwargs might."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return any(k.arg == name for k in call.keywords) or (index is not None and len(call.args) > index)


def unpassed_optional_parameters(package=PACKAGE):
    """``module.function(parameter)`` of each optional parameter of a
    private module-level function of package's modules that no call in the
    package passes, so that its default is the only value it ever takes.

    A call matches by the called name alone (``f(...)`` or ``obj.f(...)``),
    from any module; a function that is only passed around as a value, and
    never called by name, has each of its optional parameters reported.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    calls = defaultdict(list)
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                func = call.func
                calls[func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)].append(call)
    return [
        f"{module}.{name}({param})"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for param, index in _optional_parameters(node)
        if not any(_passes(call, param, index) for call in calls[name])
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


def test_every_optional_parameter_is_passed():
    assert unpassed_optional_parameters() == []


def test_an_unpassed_optional_parameter_is_found(tmp_path):
    # the positive control: a parameter with a default that no call passes,
    # positionally or by keyword, is reported; one passed at its position,
    # by keyword, or possibly through **kwargs, is not
    (tmp_path / "mod.py").write_text(
        "def _kernel(z, theta, eig=None, *, trace=False, log=None):\n"
        "    return z\n"
        "def _by_position(a, b=1):\n"
        "    return a\n"
        "def _unpacked(a, b=1):\n"
        "    return a\n"
        "def public(z, **options):\n"
        "    _by_position(z, 2)\n"
        "    _unpacked(z, **options)\n"
        "    return _kernel(z, 1.0, log=print)\n"
    )
    assert unpassed_optional_parameters(tmp_path) == ["mod._kernel(eig)", "mod._kernel(trace)"]
