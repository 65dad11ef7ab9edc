"""Tooling checks on the code of ``src/qlattice``."""

import ast
import copy
import re
import sys
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


def _functions(tree, module):
    """(qualified name, name, def node) of every module- and class-level
    function of a module."""
    out = []
    for node in tree.body:
        defs = [(node, module + ".")]
        if isinstance(node, ast.ClassDef):
            defs = [(child, module + "." + node.name + ".") for child in node.body]
        out += [(prefix + d.name, d.name, d) for d, prefix in defs
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return out


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _locals(scope):
    """Names a function or lambda binds in its own scope: its parameters,
    assignment, loop and ``with`` targets, nested definitions, imports and
    exception names, less those it declares global or nonlocal."""
    a = scope.args
    bound = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
    declared = set()
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return bound - declared


def _names(tree):
    """Name and Attribute nodes of a tree by the name they use.  A Name
    that a parameter or local of an enclosing function binds names that
    local, not a function, and is left out."""
    out = {}

    def visit(node, bound):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id not in bound:
                out.setdefault(child.id, []).append(child)
            elif isinstance(child, ast.Attribute):
                out.setdefault(child.attr, []).append(child)
            visit(child, bound | _locals(child) if isinstance(child, _SCOPES) else bound)

    visit(tree, frozenset())
    return out


def _uncalled(src, bench):
    """Qualified names of the functions of the modules ``src`` (dotted
    module name -> tree) that nothing in ``src`` outside their own body
    and nothing in the trees ``bench`` uses."""
    in_src = {}
    for tree in src.values():
        for name, nodes in _names(tree).items():
            in_src.setdefault(name, []).extend(nodes)
    in_bench = set()
    for tree in bench:
        in_bench.update(_names(tree))
        in_bench.update(part for node in ast.walk(tree) if isinstance(node, ast.Constant)
                        and isinstance(node.value, str) for part in node.value.split("."))
    unused = []
    for module, tree in src.items():
        for qual, name, node in _functions(tree, module):
            if name.startswith("__") and name.endswith("__") or name in in_bench:
                continue
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own for n in in_src.get(name, ())):
                unused.append(qual)
    return unused


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def test_every_function_has_a_caller_outside_tests():
    # A function only tests call is dead code that a test keeps alive; the
    # tests' own oracles live in tests/oracles.py.  A use is a Name or
    # Attribute in src/ outside the function's own body, or in bench/, or a
    # string constant of bench/ (the tracer wraps functions by name).
    # Dunder methods are called by the language.
    src = {".".join(p.relative_to(PACKAGE).with_suffix("").parts):
           ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.rglob("*.py"))}
    unused = _uncalled(src, _trees(sorted((ROOT / "bench").rglob("*.py"))))
    assert not unused, "%d functions only tests call:\n  %s" % (len(unused), "\n  ".join(unused))


def test_every_oracle_has_a_test():
    # An oracle no test uses is dead code on the test side.  A use is a Name,
    # Attribute or dotted string constant in a tests/test_*.py module, or a
    # Name or Attribute in tests/oracles.py outside the oracle's own body.
    path = ROOT / "tests" / "oracles.py"
    oracles = {"oracles": ast.parse(path.read_text(), filename=str(path))}
    unused = _uncalled(oracles, _trees(sorted((ROOT / "tests").glob("test_*.py"))))
    assert not unused, "%d oracles no test uses:\n  %s" % (len(unused), "\n  ".join(unused))


PLANTED = """
def value(): ...
def face(): ...
def closed(): ...
def called(): ...
def attribute(): ...

def reader(value, *args):
    face = args
    return value, face, called()

def outer():
    closed = 1
    def inner(obj):
        return closed, obj.attribute
    return inner
"""


def test_a_parameter_or_local_does_not_hide_an_uncalled_function():
    # value is only a parameter, face only a local, and closed only a local
    # of outer that its inner function reads; the call called() and the
    # attribute obj.attribute are uses
    unused = _uncalled({"planted": ast.parse(PLANTED)}, [])
    assert sorted(unused) == ["planted.closed", "planted.face", "planted.outer",
                              "planted.reader", "planted.value"]


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_module_name_and_dataclass_field_is_read():
    # A constant or a dataclass field that nothing reads is written for
    # nobody.  A read is a loaded Name or Attribute, or an import, anywhere
    # in src/, tests/ or bench/.
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in trees[path].body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unread += [module + "." + n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name) and n.id not in read]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread += ["%s.%s.%s" % (module, node.name, f.target.id) for f in node.body
                           if isinstance(f, ast.AnnAssign) and f.target.id not in read]
    assert not unread, "%d names nothing reads:\n  %s" % (len(unread), "\n  ".join(unread))


def _attempt_loops(tree):
    """The top-level functions of a module that loop over one case's
    attempts: a for loop over a range whose body returns."""
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            for loop in ast.walk(node) if isinstance(loop, ast.For)
            and isinstance(loop.iter, ast.Call) and getattr(loop.iter.func, "id", None) == "range"
            and any(isinstance(n, ast.Return) for stmt in loop.body for n in ast.walk(stmt))}


def test_suites_sample_no_case_alone():
    # a sampled suite draws its cases' attempts in _sample's stacked rounds,
    # so it names no geometry function that samples one case at a time
    loops = _attempt_loops(ast.parse((PACKAGE / "geometry.py").read_text()))
    assert "random_circular_hexahedron" in loops
    tree = ast.parse((PACKAGE / "harness" / "suites.py").read_text())
    named = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
             for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
    assert not loops & named, sorted(loops & named)


def test_suites_draw_no_integers_one_case_at_a_time():
    # a block of cases draws its integer tuples through rng.case_integers,
    # one raw Philox call per case and one array pass for the block
    found = re.findall(r"\.integers\(", (PACKAGE / "harness" / "suites.py").read_text())
    assert not found, found


def test_qosc_computes_without_decimals():
    # the operator products are double: only rmatrices computes the Fock
    # elements in extended precision, and qosc names none of its machinery
    text = (PACKAGE / "qosc.py").read_text()
    found = re.findall(r"decimal|Decimal|in_mp_context|to_mp|_MP_", text)
    assert not found, found


def test_operator_checks_name_no_dense_r():
    # every R the operator checks take is a sparse VOp built on the charge
    # sectors; the dense references are for the tests (and the tracer)
    for path in (PACKAGE / "qosc.py", PACKAGE / "harness" / "suites.py"):
        found = re.findall(r"from_dense|cyclic_r_dense|fock_r_dense", path.read_text())
        assert not found, (path.name, found)


def test_operators_sort_nothing_and_keep_the_shape_the_tracer_reads():
    # every operator on V1 x V2 x V3 is a dict of shift-diagonal terms, so
    # qosc names no sort and no segmented sum; bench/tracer.py counts the
    # flops of BlockOp products from each block's .shape
    found = re.findall(r"argsort|lexsort|reduceat", (PACKAGE / "qosc.py").read_text())
    assert not found, found
    import numpy as np
    from qlattice import qosc
    from qlattice import rmatrices as rm
    from qlattice import specfun as sf

    tri = sf.spherical_sides_from_angles(1.2, 1.4, 1.6)
    params = qosc.CyclicParams.from_triangle(tri, 3)
    reps, _, fock_r = qosc.fock_r_sparse(5, 0.3)
    cyclic_r = qosc.cyclic_r_sparse(rm.CyclicRData.from_triangle(tri, 3))
    blocks = [b for ls in (qosc.build_l(params.reps(), params.lambdas, params.mus),
                           qosc.build_l(reps, (1.0,) * 3, (-1.0,) * 3))
              for op in ls for b in op.blocks.values()]
    for op in blocks + [fock_r, cyclic_r]:
        n = int(np.prod(op.dims))
        assert len(op.dims) == 3 and op.shape == (n, n)


class _MatMulAsMul(ast.NodeTransformer):
    def visit_MatMult(self, node):
        return ast.Mult()


def _operands(node):
    if isinstance(node, ast.BinOp):
        return _operands(node.left) + _operands(node.right)
    return 1


class _Unqualified(ast.NodeTransformer):
    """Reads alias.name as name for the given module aliases."""

    def __init__(self, aliases):
        self.aliases = aliases

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if isinstance(node.value, ast.Name) and node.value.id in self.aliases:
            return ast.Name(node.attr, node.ctx)
        return node


def _module_aliases(tree):
    """The names a module binds to the package's modules, as
    ``from .. import classical_map as cm`` binds cm."""
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for a in node.names}


def _shared_expressions(trees, least=4):
    """Every arithmetic expression of at least `least` operands that two or
    more modules write, with @ read as * and a name qualified by a package
    module's alias (cm.CANONICAL_OMEGA) read bare: {source: modules}."""
    seen = {}
    for module, tree in trees.items():
        bare = _Unqualified(_module_aliases(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and _operands(node) >= least:
                text = ast.unparse(bare.visit(_MatMulAsMul().visit(copy.deepcopy(node))))
                seen.setdefault(text, set()).add(module)
    return {text: sorted(mods) for text, mods in seen.items() if len(mods) > 1}


def test_no_formula_is_written_in_two_modules():
    # A formula written twice can drift: the scalar flip map and its
    # operator relations once did.  Four operands leave out short rules such
    # as a charge balance n1 + n2 - m2, which a reference oracle restates.
    trees = {str(p.relative_to(PACKAGE)): ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.rglob("*.py"))}
    shared = _shared_expressions(trees)
    assert not shared, "%d formulas written twice:\n  %s" % (
        len(shared), "\n  ".join("%s in %s" % kv for kv in sorted(shared.items())))


def test_a_formula_is_found_through_matmul_but_not_below_four_operands():
    found = _shared_expressions({
        "scalar": ast.parse("x = a1 * a3 + eps * k1 * k3 * a2\nc = n1 + n2 - m2"),
        "operator": ast.parse("y = a1 @ a3 + eps * k1 @ k3 @ a2\nd = n1 + n2 - m2"),
        # names qualified by a package module's alias, and one by another name
        "qualified": ast.parse("from .. import classical_map as cm\n"
                               "z = cm.a1 * a3 + eps * k1 * cm.k3 * a2\n"
                               "w = np.a1 * a3 + eps * k1 * k3 * a2"),
    })
    assert found == {"a1 * a3 + eps * k1 * k3 * a2": ["operator", "qualified", "scalar"],
                     "eps * k1 * k3 * a2": ["operator", "qualified", "scalar"]}


def _module_containers():
    """Length of every dict, list and set bound at the top level of a loaded
    qlattice module, by (module, name)."""
    return {(name, attr): len(value) for name, module in list(sys.modules.items())
            if name == "qlattice" or name.startswith("qlattice.")
            for attr, value in vars(module).items() if isinstance(value, (dict, list, set))}


def _grown(before, after):
    return {key: (before.get(key, 0), n) for key, n in after.items() if n > before.get(key, 0)}


def test_fock_suites_memoize_only_in_lru_caches(monkeypatch):
    # Every memo of the Fock checks is an lru_cache, which cache_clear (and
    # so the benchmark's clear_caches) empties; a module-level dict, list or
    # set that grows while they run would keep values past it.  A q no other
    # test uses makes every memo start cold.
    from qlattice import rmatrices as rm
    from qlattice.harness.suites import SuiteConfig, run_suite

    before = _module_containers()
    for suite, size in (("fock-te", {"max_index": 1}), ("fock-intertwine", {"cutoff": 5})):
        for perturb in (False, True):
            run_suite(SuiteConfig(suite=suite, q=0.43, perturb=perturb, **size))
    assert not _grown(before, _module_containers())
    assert rm._mp_factors.cache_info().currsize and rm.fock_element_mp.cache_info().currsize
    # a planted module-level memo is caught
    monkeypatch.setattr(rm, "_PLANTED", {}, raising=False)
    before = _module_containers()
    rm._PLANTED[0.43] = 1
    assert _grown(before, _module_containers()) == {("qlattice.rmatrices", "_PLANTED"): (0, 1)}


def test_every_suite_sets_one_of_case_and_block():
    # A suite with both keeps a one-case path beside its block: each case
    # is then defined twice, and the two must be kept equal.  With block
    # alone, a case run alone is a block of one on the same kernels.
    from qlattice.harness.suites import SUITES

    path = PACKAGE / "harness" / "suites.py"
    registry = next(node.value for node in ast.parse(path.read_text()).body
                    if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SUITES")
    given = {key.value: sorted(k.arg for k in call.keywords if k.arg in ("case", "block"))
             for key, call in zip(registry.keys, registry.values)}
    assert sorted(given) == sorted(SUITES)
    both_or_none = {name: args for name, args in given.items() if len(args) != 1}
    assert not both_or_none, "suites that do not set exactly one of case and block: %s" % (
        both_or_none)
