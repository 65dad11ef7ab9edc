"""Acceptance gate: every stated criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; the same checks are reachable from the CLI via
`qlattice verify <suite>`.
"""

import time

from qlattice import classical_map as cm
from qlattice import geometry as geo
from qlattice.harness.rng import case_rng
from qlattice.harness.suites import SuiteConfig, run_suite

SEED = 20240501


def criterion(num, label, value, tol, direction="<"):
    ok = value < tol if direction == "<" else value > tol
    print("ACCEPTANCE %2d %-34s %s  (residual %.3e vs %s %.0e)"
          % (num, label, "PASS" if ok else "FAIL", value, direction, tol))
    assert ok, "criterion %d failed: %.3e not %s %.0e" % (num, value, direction, tol)


def run(name, **kw):
    return run_suite(SuiteConfig(suite=name, seed=SEED, **kw))


def test_criterion_01_classical_lybe():
    t0 = time.time()
    rep = run("classical-lybe", samples=1000)
    criterion(1, "local Yang-Baxter, 1000 states", rep.max_residual, 1e-12)
    assert time.time() - t0 < 10


def test_criterion_02_functional_tetrahedron():
    t0 = time.time()
    rep = run("classical-fte", samples=100)  # runs both eps branches
    criterion(2, "functional TE, 100 seeds x eps", rep.max_residual, 1e-10)
    assert time.time() - t0 < 30


def test_criterion_03_symplectic():
    t0 = time.time()
    rep = run("symplectic", samples=100)
    criterion(3, "symplectic, complex-step Jacobian", rep.max_residual, 1e-6)
    assert time.time() - t0 < 30


def test_criterion_04_geometry_algebra():
    t0 = time.time()
    worst = 0.0
    for case in range(50):
        rng = case_rng(SEED, case)
        h = geo.random_circular_hexahedron(rng)
        front = [geo.extract_angles(f) for f in h.front_faces()]
        back = [geo.extract_angles(f) for f in h.back_faces()]
        ts = [cm.angles_to_circular(a.alpha, a.beta) for a in front]
        for t, b in zip(cm.map_r123(*ts, eps=cm.EPS_CLASSICAL), back):
            al, be = cm.circular_to_angles(t)
            worst = max(worst, abs(al - b.alpha), abs(be - b.beta))
    criterion(4, "geometry vs algebraic map, 50 hexes", worst, 1e-8)
    assert time.time() - t0 < 30


def test_criterion_05_miquel_and_dodecahedron():
    t0 = time.time()
    rep1 = run("miquel", samples=50)
    rep2 = run("dodecahedron", samples=25)
    criterion(5, "Miquel/cosphericity, 50 configs", rep1.max_residual, 1e-9)
    criterion(5, "dodecahedron dissections, 25 seeds", rep2.max_residual, 1e-8)
    assert time.time() - t0 < 60


def test_criterion_06_covariant():
    t0 = time.time()
    rep = run("covariant", samples=1, box=(5, 5, 5))
    criterion(6, "covariant evolution, 5x5x5 box", rep.max_residual, 1e-10)
    assert time.time() - t0 < 30


def test_criterion_07_fock_te_exhaustive():
    t0 = time.time()
    worst = 0.0
    for q in (0.3, 0.5, 0.7):
        rep = run("fock-te", q=q, max_index=2)
        worst = max(worst, rep.max_residual)
    criterion(7, "Fock TE exhaustive, q in {.3,.5,.7}", worst, 1e-12)
    assert time.time() - t0 < 300


def test_criterion_08_fock_intertwining():
    t0 = time.time()
    rep = run("fock-intertwine", cutoff=8, q=0.3)
    criterion(8, "Fock intertwining, M=8 q=0.3", rep.max_residual, 1e-10)
    assert time.time() - t0 < 120


def test_criterion_09_cyclic_intertwining():
    t0 = time.time()
    worst = 0.0
    for n in (3, 5):
        rep = run("cyclic-intertwine", n_cyclic=n, samples=5)
        worst = max(worst, rep.max_residual)
    criterion(9, "cyclic intertwining, N=3,5 x5 tris", worst, 1e-10)
    assert time.time() - t0 < 120


def test_criterion_10_cyclic_irc_te():
    t0 = time.time()
    rep2 = run("cyclic-te-irc", n_cyclic=2)  # exhaustive over 2^14 externals
    criterion(10, "cyclic IRC TE, N=2 exhaustive", rep2.max_residual, 1e-10)
    worst = 0.0
    for n in (3, 4):
        rep = run("cyclic-te-irc", n_cyclic=n, samples=1000)
        worst = max(worst, rep.max_residual)
    criterion(10, "cyclic IRC TE, N=3,4 sampled", worst, 1e-9)
    assert time.time() - t0 < 600


def test_criterion_11_modular_specfun():
    t0 = time.time()
    rep = run("modular-specfun", samples=20)
    criterion(11, "dilog & 2Psi2 cross-method, 20+20", rep.max_residual, 1e-6)
    assert time.time() - t0 < 120


def test_criterion_12_modular_irc_te():
    t0 = time.time()
    rep = run("modular-te-irc", samples=5)
    criterion(12, "modular IRC TE, 5 spin tuples", rep.max_residual, 1e-4)
    assert time.time() - t0 < 120


def test_criterion_13_negative_controls():
    t0 = time.time()
    floors = {}
    plans = [
        ("classical-lybe", dict(samples=5)),
        ("classical-fte", dict(samples=3)),
        ("symplectic", dict(samples=3)),
        ("geometry-flip", dict(samples=3)),
        ("miquel", dict(samples=3)),
        ("dodecahedron", dict(samples=3)),
        ("covariant", dict(samples=1, box=(3, 3, 3))),
        ("fock-te", dict(max_index=1, q=0.3)),
        ("fock-intertwine", dict(cutoff=5, q=0.3)),
        ("cyclic-intertwine", dict(samples=2, n_cyclic=3)),
        ("cyclic-te-irc", dict(samples=100, n_cyclic=3)),
        ("cyclic-te-vertex", dict(samples=100, n_cyclic=3)),
        ("cyclic-cross-form", dict(samples=50, n_cyclic=3)),
        ("modular-specfun", dict(samples=2)),
        ("modular-te-irc", dict(samples=1)),
    ]
    for name, kw in plans:
        rep = run(name, perturb=True, **kw)
        floors[name] = rep.max_residual
        assert rep.negative_control
    worst = min(floors.values())
    criterion(13, "perturbed suites all exceed 1e-3", worst, 1e-3, direction=">")
    assert time.time() - t0 < 300


def test_criterion_14_cyclic_vertex_te():
    t0 = time.time()
    worst = 0.0
    for n in (3, 5):
        rep = run("cyclic-te-vertex", n_cyclic=n, samples=1000)
        worst = max(worst, rep.max_residual)
    criterion(14, "cyclic vertex TE, N=3,5 sampled", worst, 1e-10)
    assert time.time() - t0 < 120
