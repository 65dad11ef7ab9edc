"""Tooling checks on the code of ``src/qlattice``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qlattice"
CALLERS = ("src", "tests", "bench")


def _defaulted_parameters(tree, module):
    """(qualified name, called name, parameter, position, is method, def
    node) for every parameter with a default in a module; a constructor is
    called by its class's name."""
    out = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                named = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
                named += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                called = cls if child.name == "__init__" else child.name
                for arg, pos in named:
                    out.append((module + ":" + prefix + child.name, called, arg, pos,
                                cls is not None, child))
                visit(child, prefix + child.name + ".", None)

    visit(tree, "", None)
    return out


def _calls(trees):
    """Call nodes by the called name: ``f(...)`` and ``x.f(...)``."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, arg, pos, is_method):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == arg for k in call.keywords):
        return True
    if pos is None:
        return False
    # self is position 0: a bound call x.f(a) and a constructor call C(a)
    # fill positions from 1 (C.f(obj, a) is counted the same way, which is
    # the lenient reading)
    shift = 1 if is_method else 0
    return len(call.args) + shift > pos


def test_every_default_is_set_by_some_caller():
    # A default that no call ever overrides is a constant with a signature:
    # it doubles the configurations and no test runs the other half.  A
    # function's calls of itself do not count.
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))}
    calls = _calls(trees.values())
    unset = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        for qual, name, arg, pos, is_method, node in _defaulted_parameters(trees[path], module):
            own = {id(n) for n in ast.walk(node)}
            if not any(_passes(c, arg, pos, is_method)
                       for c in calls.get(name, ()) if id(c) not in own):
                unset.append("%s(%s)" % (qual, arg))
    assert not unset, "%d defaults no caller sets:\n  %s" % (len(unset), "\n  ".join(unset))
