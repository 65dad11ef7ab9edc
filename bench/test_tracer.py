"""Tests of the benchmark's tracer.  Run: python3 -m pytest -q bench/test_tracer.py"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from qlattice import qosc  # noqa: E402
from qlattice import specfun as sf  # noqa: E402
from qlattice.harness import suites  # noqa: E402

from tracer import TRACED, Tracer  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 6.5, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("m.inner", lambda: None)
    mid = tr.wrap("m.mid", inner)

    def body():
        mid()
        inner()

    tr.wrap("m.outer", body)()
    # outer [0, 10] holds mid [1, 5], which holds inner [2, 3]; then inner [6, 6.5]
    assert tr.stats["m.outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.5}
    assert tr.stats["m.mid"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert tr.stats["m.inner"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}


def _package_attributes():
    snap = {}
    for name, mod in sys.modules.items():
        if name.startswith("qlattice"):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    snap.update({("BlockOp", k): v for k, v in vars(qosc.BlockOp).items()})
    return snap


def test_remove_restores_every_original():
    before = _package_attributes()
    with Tracer() as tr:
        assert sf.dilog_product is not before[("qlattice.specfun", "dilog_product")]
        assert suites.run_suite is not before[("qlattice.harness.suites", "run_suite")]
        assert "__wrapped__" in vars(qosc.BlockOp.__matmul__)
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    sf.gauss_legendre(8)
    assert tr.stats["specfun.gauss_legendre"]["calls"] == 0
    assert len(tr.stats) == sum(len(names) for names in TRACED.values())


def test_by_value_imports_and_cache_hits_are_counted():
    sf.gauss_legendre.cache_clear()
    tr = Tracer()
    tr.install({"qlattice.specfun": ("root_of_unity_q", "gauss_legendre")})
    try:
        qosc.root_of_unity_q(5)  # qosc imported it from specfun by value
        sf.gauss_legendre(8)
        sf.gauss_legendre(8)  # answered by the lru_cache
    finally:
        tr.remove()
    assert tr.stats["specfun.root_of_unity_q"]["calls"] == 1
    assert tr.stats["specfun.gauss_legendre"]["calls"] == 2


def test_blockop_flops_from_block_shapes():
    z = np.ones((2, 2), dtype=complex)
    a = qosc.BlockOp((2, 1, 1), {(0, 0): z, (0, 1): z})
    b = qosc.BlockOp((2, 1, 1), {(0, 0): z, (1, 0): z, (1, 1): z})
    with Tracer() as tr:
        a @ b  # pairs (0,0)(0,0), (0,1)(1,0), (0,1)(1,1): 3 products of 2x2x2
        np.ones((3, 2)) @ b  # 3 blocks, each (3x2)(2x2)
    assert tr.stats["qosc.BlockOp.__matmul__"]["flops"] == 3 * 8 * 2 * 2 * 2
    assert tr.stats["qosc.BlockOp.__rmatmul__"]["flops"] == 3 * 8 * 3 * 2 * 2
