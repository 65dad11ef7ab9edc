"""The four benchmark workloads and the pass that runs one of them.

A pass makes every call of one workload once, with the package's caches
emptied first, as a fresh ``qlattice verify`` process would start.  Each
step is one suite run (or one check built from public functions) and
yields one ``Outcome``; a step fails if its report does not pass, fails
schema validation, or raises a ``QLatticeError``.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import jsonschema
import numpy as np

from qlattice import classical_map as cm
from qlattice import geometry as geo
from qlattice.errors import QLatticeError
from qlattice.harness import mesh
from qlattice.harness import report as qreport
from qlattice.harness import suites
from qlattice.harness.rng import case_rng
from speed import SpeedSampler
from tracer import Tracer

# arg(b) of the one modular tetrahedron-equation case.  At the suite default
# (pi/40) one case takes 86-124 s on a 2-core machine, longer than a
# benchmark run may last; at 0.5 it takes about 21 s and its time still goes
# to dilog_product through psi22_quadrature_batch.
MODULAR_TE_B_ARG = 0.5
# That case always uses the acceptance seed: its adaptive quadrature takes
# one more node doubling on some inputs (2 of 9 seeds tried), which lifts
# peak memory from 69 to 117-122 MB and would make peak_rss_mb bimodal
# across seeds.  The other modular steps take the run's seed.
MODULAR_TE_SEED = 20240501
# Seconds between reference-kernel samples during an untraced pass.
SAMPLE_PERIOD_S = 0.1


@dataclass
class Outcome:
    label: str
    suite: str
    negative_control: bool
    max_residual: float
    tolerance: float
    cases: int
    passed: bool
    error: str | None = None


class SuiteStep:
    """One ``run_suite`` call at a fixed configuration; a ``seed`` in the
    configuration overrides the run's seed."""

    def __init__(self, suite, **config):
        self.suite = suite
        self.config = config
        self.label = suite + "".join(" %s=%s" % kv for kv in sorted(config.items()))

    @property
    def negative_control(self):
        return self.config.get("perturb", False)

    def run(self, seed):
        # looked up at call time, so a traced pass sees the wrapped run_suite
        return suites.run_suite(suites.SuiteConfig(**{"suite": self.suite, "seed": seed,
                                                      **self.config}))

    def outcome(self, rep):
        try:
            qreport.validate_report(rep.to_dict())
            error = None
        except jsonschema.ValidationError as exc:
            error = "report fails schema: %s" % exc.message
        return Outcome(self.label, self.suite, rep.negative_control, rep.max_residual,
                       rep.tolerance, rep.counts["cases"], rep.passed and error is None, error)


class GeometryAlgebraStep:
    """Criterion 4: angles of circular hexahedra against the algebraic map."""

    suite = "geometry-algebra"
    label = "geometry-algebra hexes=50"
    negative_control = False
    tolerance = 1e-8
    hexes = 50

    def run(self, seed):
        worst = 0.0
        for case in range(self.hexes):
            h = geo.random_circular_hexahedron(case_rng(seed, case))
            front = [geo.extract_angles(f) for f in h.front_faces()]
            back = [geo.extract_angles(f) for f in h.back_faces()]
            ts = [cm.angles_to_circular(a.alpha, a.beta) for a in front]
            for t, b in zip(cm.map_r123(*ts, eps=cm.EPS_CLASSICAL), back):
                al, be = cm.circular_to_angles(t)
                worst = max(worst, abs(al - b.alpha), abs(be - b.beta))
        return worst

    def outcome(self, worst):
        return Outcome(self.label, self.suite, False, worst, self.tolerance,
                       self.hexes, worst < self.tolerance)


class MeshStep:
    """Evolve a circular lattice, export it as OBJ and read it back.

    The residual is the largest coordinate change over the round trip,
    which must be exactly zero, with vertex and face counts as predicted.
    """

    suite = "mesh-roundtrip"
    shape = (8, 8, 8)
    label = "mesh-roundtrip size=8x8x8"
    negative_control = False

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def run(self, seed):
        state = geo.random_initial_state(self.shape, case_rng(seed, 0), mode="circular")
        geo.staircase_evolve(state)
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            path = os.path.join(tmp, "lattice.obj")
            mesh.export_obj(state, path)
            verts, faces = mesh.import_obj(path)
        return state, verts, faces

    def outcome(self, result):
        state, verts, faces = result
        expected = np.array([state.get(k) for k in sorted(state.vertices)])
        n_vertices = math.prod(n + 1 for n in self.shape)
        counts_ok = (len(verts) == n_vertices
                     and len(faces) == mesh.expected_face_count(self.shape))
        residual = float(np.max(np.abs(verts - expected))) if counts_ok else math.inf
        return Outcome(self.label, self.suite, False, residual, 0.0, 1,
                       counts_ok and residual == 0.0,
                       None if counts_ok else "vertex or face count differs")


def build(name, out_dir):
    """Steps of workload ``name``; ``out_dir`` takes the mesh step's file."""
    if name == "modular":
        return [
            SuiteStep("modular-specfun", samples=20),
            SuiteStep("modular-specfun", samples=2, perturb=True),
            SuiteStep("modular-te-irc", samples=1, b_arg=MODULAR_TE_B_ARG,
                      seed=MODULAR_TE_SEED),
        ]
    if name == "fock":
        return [
            SuiteStep("fock-te", q=0.5, max_index=2),
            SuiteStep("fock-intertwine", cutoff=8, q=0.3),
            SuiteStep("fock-te", max_index=1, q=0.3, perturb=True),
            SuiteStep("fock-intertwine", cutoff=5, q=0.3, perturb=True),
        ]
    if name == "cyclic":
        return [
            SuiteStep("cyclic-intertwine", n_cyclic=5, samples=5),
            SuiteStep("cyclic-intertwine", n_cyclic=7, samples=5),
            SuiteStep("cyclic-te-irc", n_cyclic=2),
            SuiteStep("cyclic-te-irc", n_cyclic=3, samples=1000),
            SuiteStep("cyclic-te-irc", n_cyclic=4, samples=1000),
            SuiteStep("cyclic-cross-form", n_cyclic=2),
            SuiteStep("cyclic-cross-form", n_cyclic=3, samples=200),
            SuiteStep("cyclic-intertwine", n_cyclic=3, samples=2, perturb=True),
            SuiteStep("cyclic-te-irc", n_cyclic=3, samples=100, perturb=True),
            SuiteStep("cyclic-cross-form", n_cyclic=3, samples=50, perturb=True),
        ]
    if name == "classical":
        return [
            SuiteStep("classical-lybe", samples=1000),
            SuiteStep("classical-fte", samples=100),
            SuiteStep("symplectic", samples=100),
            SuiteStep("geometry-flip", samples=50),
            SuiteStep("miquel", samples=50),
            SuiteStep("dodecahedron", samples=25),
            SuiteStep("covariant", samples=1, box=(5, 5, 5)),
            GeometryAlgebraStep(),
            SuiteStep("classical-lybe", samples=5, perturb=True),
            SuiteStep("classical-fte", samples=3, perturb=True),
            SuiteStep("symplectic", samples=3, perturb=True),
            SuiteStep("geometry-flip", samples=3, perturb=True),
            SuiteStep("miquel", samples=3, perturb=True),
            SuiteStep("dodecahedron", samples=3, perturb=True),
            SuiteStep("covariant", samples=1, box=(3, 3, 3), perturb=True),
            MeshStep(out_dir),
        ]
    raise KeyError(name)


# Every suite a workload can run, for the per-suite residual metrics.
SUITE_NAMES = tuple(sorted(suites.SUITES)) + ("geometry-algebra", "mesh-roundtrip")


def clear_caches():
    """Empty every ``lru_cache`` of the package, also behind a tracer's wrapper."""
    for name, module in list(sys.modules.items()):
        if name == "qlattice" or name.startswith("qlattice."):
            for value in list(vars(module).values()):
                if not hasattr(value, "cache_clear"):
                    value = getattr(value, "__wrapped__", None)
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def run_pass(steps, seed, period):
    """Run every step once under a ``SpeedSampler`` with this ``period``.

    Returns (wall seconds of the calls, mean reference-kernel seconds,
    outcomes).  Reports are checked after the clock stops, so the wall time
    covers the package's calls only, less the sampler's own time.
    """
    clear_caches()
    results = []
    with SpeedSampler(period) as sampler:
        for step in steps:
            try:
                results.append(step.run(seed))
            except QLatticeError as exc:
                results.append(exc)
    return (sampler.wall_s, sampler.ref_s,
            [_outcome(step, res) for step, res in zip(steps, results)])


def _outcome(step, result):
    if isinstance(result, QLatticeError):
        return Outcome(step.label, step.suite, step.negative_control, math.nan, math.nan,
                       0, False, "%s: %s" % (type(result).__name__, result))
    return step.outcome(result)


@dataclass
class Pass:
    wall_s: float
    ref_s: float
    outcomes: list
    stats: dict | None = None  # span stats of a traced pass

    @property
    def wall_ref(self):
        """Wall time in reference-kernel units."""
        return self.wall_s / self.ref_s


def run_passes(steps, seed, budget, trace=False):
    """Run passes while one more, as long as the last, still ends within
    ``budget`` seconds; at least one.  Traced passes are not sampled during
    the pass, so the sampler's time stays out of the spans."""
    passes = []
    start = time.perf_counter()
    took = 0.0
    while not passes or time.perf_counter() - start + took <= budget:
        began = time.perf_counter()
        if trace:
            with Tracer() as tracer:
                passes.append(Pass(*run_pass(steps, seed, 0), stats=tracer.stats))
        else:
            passes.append(Pass(*run_pass(steps, seed, SAMPLE_PERIOD_S)))
        took = time.perf_counter() - began
    return passes
