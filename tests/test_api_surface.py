"""Every parameter of every function in the package is read by its body.

A parameter that nothing reads is dead surface: callers must pass it and
tests and docs must cover it, yet it changes nothing.  The one exemption is
a method whose name more than one class of the same module defines; such a
method implements a shared interface (``History.value``,
``ResponseFn.value``/``partial``), and a variant may ignore an argument
the interface passes.
"""

import ast
import collections
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sirdelay"


def _shared_methods(tree) -> set:
    """Method names defined by more than one class of the module."""
    counts = collections.Counter(
        node.name
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return {name for name, n in counts.items() if n > 1}


def unread_parameters(source: str) -> list:
    """(function name, line, parameter) for each parameter its body never reads."""
    tree = ast.parse(source)
    shared = _shared_methods(tree)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        if name in shared:
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        reads = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [(name, fn.lineno, p) for p in params if p not in reads]
    return found


def test_every_parameter_is_read():
    unread = {path.name: unread_parameters(path.read_text())
              for path in sorted(PACKAGE.glob("*.py"))}
    assert len(unread) > 10
    assert {name: found for name, found in unread.items() if found} == {}


def test_detector_flags_an_unread_parameter_but_not_a_shared_interface():
    source = (
        "def verdict(model, disease_free, endemics):\n"
        "    return model, endemics\n"
        "class A:\n"
        "    def value(self, t):\n"
        "        return 1.0\n"
        "class B:\n"
        "    def value(self, t):\n"
        "        return t\n"
        "class C:\n"
        "    def only(self, t):\n"
        "        return self\n"
    )
    assert unread_parameters(source) == [("verdict", 1, "disease_free"), ("only", 10, "t")]
