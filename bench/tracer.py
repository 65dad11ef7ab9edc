"""Span tracer that times calls into the package's layers from outside.

It wraps functions where callers look them up: the attribute of the
defining module, every other package module that imported the same object
by value, and, for methods, the class.  Nothing in the package changes on
disk, and ``remove`` puts every original object back.

Each wrapped call is a span.  Spans nest through a stack; a span's self
time is its duration minus the time covered by the spans it caused.
Calls answered by an ``lru_cache`` go through the wrapper too, so cache
hits count as calls.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Layer functions timed by the traced run, keyed by module.  A dotted name
# is a method, wrapped on its class.
TRACED = {
    "qlattice.specfun": ("dilog_product", "psi22_quadrature_batch", "gauss_legendre",
                         "quantum_dilog", "psi22"),
    "qlattice.rmatrices": ("irc_te_residual_modular", "irc_weight_modular",
                           "fock_te_residual", "fock_r_dense", "cyclic_weight_table",
                           "irc_te_residual_cyclic", "cross_form_residual",
                           "cyclic_r_dense"),
    "qlattice.qosc": ("BlockOp.__matmul__", "BlockOp.__rmatmul__", "build_l",
                      "intertwine_residual", "fock_intertwine_extended",
                      "map_operator_residuals"),
    "qlattice.geometry": ("hex_flip", "random_circular_hexahedron", "miquel_check",
                          "dodecahedron_consistency", "staircase_evolve"),
    "qlattice.classical_map": ("map_r123", "functional_tetrahedron_residual",
                               "symplectic_residual", "covariant_evolve"),
    "qlattice.harness.suites": ("run_suite",),
}


def _blockop_flops(left, right) -> int:
    """Real floating-point operations of ``left @ right`` computed from
    block shapes: 8 per complex multiply-add, 2 per real one."""
    lblocks = getattr(left, "blocks", None)
    rblocks = getattr(right, "blocks", None)
    if lblocks is not None and rblocks is not None:
        pairs = [(a, b) for (_, j), a in lblocks.items()
                 for (jj, _), b in rblocks.items() if j == jj]
    elif lblocks is not None:
        pairs = [(a, right) for a in lblocks.values()]
    else:
        pairs = [(left, b) for b in rblocks.values()]
    total = 0
    for a, b in pairs:
        per = 8 if np.iscomplexobj(a) or np.iscomplexobj(b) else 2
        total += per * a.shape[0] * a.shape[1] * b.shape[-1]
    return total


# Work counted next to the time, from a traced call's arguments.
COUNTERS = {
    "specfun.dilog_product": ("points", lambda z, *a, **k: np.size(z)),
    "specfun.psi22_quadrature_batch": ("params", lambda *c, **k: np.broadcast(*c[:5]).size),
    "rmatrices.irc_weight_modular": ("points", lambda spec, spins, *a, **k: np.size(spins[0])),
    "qosc.BlockOp.__matmul__": ("flops", lambda self, other: _blockop_flops(self, other)),
    "qosc.BlockOp.__rmatmul__": ("flops", lambda self, other: _blockop_flops(other, self)),
}


class Tracer:
    """Aggregated spans of the wrapped functions.

    ``stats`` maps ``<layer>.<function>`` to a dict with ``calls``,
    ``total_s``, ``self_s`` and the function's counter, if it has one.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._stack = []  # child time covered, one entry per open span
        self._patches = []  # (owner, attribute, original object)

    def wrap(self, name, fn, counter=None):
        stats = self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                   **({counter[0]: 0} if counter else {})})
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                stats[counter[0]] += counter[1](*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - covered

        return traced

    def install(self, targets=None):
        """Wrap every function in ``targets`` (default ``TRACED``) at each
        place it is looked up."""
        targets = TRACED if targets is None else targets
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qlattice" or n.startswith("qlattice."))]
        for modname, names in targets.items():
            module = sys.modules[modname]
            for attr in names:
                # the layer is the package module: qlattice.harness.suites -> harness
                metric = "%s.%s" % (modname.split(".")[1], attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, meth, self.wrap(metric, cls.__dict__[meth],
                                                     COUNTERS.get(metric)))
                    continue
                original = getattr(module, attr)
                traced = self.wrap(metric, original, COUNTERS.get(metric))
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, traced)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
