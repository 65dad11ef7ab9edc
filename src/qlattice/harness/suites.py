"""Verification suites: deterministic, seeded, parallelizable case runners
for every identity the package checks, plus their negative controls.

Each suite declares a default tolerance and sample count, a case count and
a case function mapping (config, case index) to a residual; per-case inputs
come from counter-based streams so worker count cannot change them.  With
perturb=True a suite applies its documented deliberate corruption and the
report then passes only if the residual EXCEEDS the tolerance.
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import classical_map as cm
from .. import geometry as geo
from .. import qosc
from .. import rmatrices as rm
from .. import specfun as sf
from ..errors import ConfigurationError, DomainError
from .report import Report
from .rng import case_rng

SETUP_STREAM = 2 ** 62 + 11  # case index reserved for per-run shared setup


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int = 20240501
    samples: int | None = None
    tol: float | None = None
    workers: int = 1
    q: float = 0.5
    b_mod: float = 0.8
    b_arg: float = math.pi / 40
    n_cyclic: int = 3
    cutoff: int = 8
    max_index: int = 2
    box: tuple = (5, 5, 5)
    perturb: bool = False
    keep_cases: bool = False

    def __post_init__(self):
        if self.tol is not None and self.tol <= 0:
            raise ConfigurationError("tolerance must be positive")
        if self.n_cyclic < 2:
            raise ConfigurationError("need N >= 2")
        if self.workers < 1:
            raise ConfigurationError("need at least one worker")

    def modular_param(self) -> sf.ModularParam:
        return sf.ModularParam(self.b_mod * cmath.exp(1j * self.b_arg))


@dataclass(frozen=True)
class Suite:
    name: str
    default_tol: float
    default_samples: int
    count: callable
    case: callable
    parameters: callable = lambda cfg: {}
    extras: callable = lambda cfg: {}


# ---------------------------------------------------------------------------
# classical suites
# ---------------------------------------------------------------------------

def _lybe_case(cfg, idx):
    rng = case_rng(cfg.seed, idx)
    front = cm.sample_admissible_front(rng)
    back = list(cm.map_r123(*front))
    if cfg.perturb:
        back[0] = cm.CircularTriple(back[0].k * 1.01, back[0].a, back[0].a_star)
    return cm.local_yang_baxter_residual(front, back)


def _fte_case(cfg, idx):
    eps = 1 if idx < _samples(cfg) else -1
    rng = case_rng(cfg.seed, idx)
    state = cm.sample_admissible_six(rng, eps=eps)
    if not cfg.perturb:
        return cm.functional_tetrahedron_residual(state, eps=eps)
    lhs_state = list(state)
    t0 = lhs_state[0]
    lhs_state[0] = cm.CircularTriple(t0.k, t0.a * 1.01, t0.a_star)
    lhs = cm.apply_flip_sequence(lhs_state, cm.FTE_SEQUENCE, eps)
    rhs = cm.apply_flip_sequence(state, tuple(reversed(cm.FTE_SEQUENCE)), eps)
    return float(max(np.max(np.abs(a.as_array() - b.as_array()))
                     for a, b in zip(lhs, rhs)))


def _symplectic_case(cfg, idx):
    rng = case_rng(cfg.seed, idx)
    x = cm.sample_symplectic_state(rng)
    if not cfg.perturb:
        return cm.symplectic_residual(x, h=1e-5)
    # deliberately non-canonical map: add a nonlinear shear to one angle
    def bad_map(y):
        out = cm.angle_map(y)
        out[0] += 0.05 * math.sin(3.0 * y[1])
        return out

    jac = cm.jacobian(bad_map, x, 1e-5)
    return float(np.max(np.abs(jac @ cm.CANONICAL_OMEGA @ jac.T - cm.CANONICAL_OMEGA)))


def _geometry_flip_case(cfg, idx):
    rng = case_rng(cfg.seed, idx)
    h = geo.random_quad_hexahedron(rng)
    x123 = h.x123 + (1e-2 if cfg.perturb else 0.0)
    planarity = max(geo.planarity_residual((h.x1, h.x12, x123, h.x13)),
                    geo.planarity_residual((h.x2, h.x12, x123, h.x23)),
                    geo.planarity_residual((h.x3, h.x13, x123, h.x23)))
    rot = geo.random_rotation(rng)
    shift = rng.normal(0, 1.0, 3)
    moved = geo.hex_flip(*(rot @ p + shift for p in
                           (h.x0, h.x1, h.x2, h.x3, h.x12, h.x13, h.x23)))
    equivariance = float(np.linalg.norm(moved - (rot @ h.x123 + shift)))
    return max(planarity, equivariance)


def _miquel_case(cfg, idx):
    rng = case_rng(cfg.seed, idx)
    h = geo.random_circular_hexahedron(rng)
    if cfg.perturb:
        h = geo.Hexahedron(h.x0, h.x1, h.x2, h.x3, h.x12, h.x13, h.x23,
                           h.x123 + 1e-2)
        return max(max(geo.concyclicity_residual(f) for f in h.back_faces()),
                   h.cosphericity_residual())
    rep = geo.miquel_check(h)
    return rep.max_residual


def _dodeca_case(cfg, idx):
    rng = case_rng(cfg.seed, idx)
    if cfg.perturb:
        verts = geo.dodeca_vertices_from_projective(rng, dim=3)
        probe = np.array([1e-2, 0.0, 0.0])
        return geo.dodecahedron_consistency(
            geo.dodeca_initial_surface(verts), perturb=probe).discrepancy
    verts = geo.dodeca_vertices_from_projective(rng)
    return geo.dodecahedron_consistency(geo.dodeca_initial_surface(verts)).discrepancy


def _covariant_case(cfg, idx):
    rng = case_rng(cfg.seed, idx)
    f = cm.CovariantField.random_boundary(tuple(cfg.box), rng)
    cm.covariant_evolve(f)
    if cfg.perturb:
        s = tuple(b // 2 for b in cfg.box)
        f.a[(*s, 0, 1)] = f.a[(*s, 0, 1)] * 1.05 + 0.02
    return max(cm.kk_relation_residual(f), cm.covariant_vs_map_residual(f))


# ---------------------------------------------------------------------------
# Fock suites
# ---------------------------------------------------------------------------

def _fock_te_count(cfg):
    return (cfg.max_index + 1) ** 6


def _fock_te_case(cfg, idx):
    import mpmath as mp

    base = cfg.max_index + 1
    outer = []
    v = idx
    for _ in range(6):
        v, r = divmod(v, base)
        outer.append(r)
    worst = 0.0
    q = cfg.q
    for inner in itertools.product(range(base), repeat=6):
        ext = (*outer, *inner)
        if cfg.perturb:
            if not rm.fock_te_consistent(ext):
                continue
            with mp.workdps(rm._MP_DPS):
                lhs, _ = rm._te_sides(ext, q, rm.fock_element_mp)
                _, rhs = rm._te_sides(ext, q * (1 + 1e-3), rm.fock_element_mp)
                worst = max(worst, float(rm._rel_residual(lhs, rhs)))
        else:
            # inconsistent tuples are swept too: both sides must vanish
            worst = max(worst, rm.fock_te_residual(ext, q))
    return worst


@lru_cache(maxsize=4)
def _fock_intertwine_setup(cutoff, q):
    rep = qosc.fock_rep(cutoff, q)
    reps = (rep, rep, rep)
    r = rm.fock_r_dense(cutoff, q)
    mask = qosc.product_state_mask(reps)
    return reps, r, mask


def _fock_intertwine_case(cfg, idx):
    if idx == 0:
        if cfg.perturb:
            def bad_element(n1, n2, n3, m1, m2, m3, q):
                import mpmath as mp
                val = rm.fock_element_mp(n1, n2, n3, m1, m2, m3, q)
                return val * mp.mpf("1.05") ** n2 if val else val
            return qosc.fock_intertwine_extended(cfg.cutoff, cfg.q, bad_element)
        return qosc.fock_intertwine_extended(cfg.cutoff, cfg.q, rm.fock_element_mp)
    reps, r, mask = _fock_intertwine_setup(min(cfg.cutoff, 6), cfg.q)
    if cfg.perturb:
        r = r.copy()
        r[0, 0] += 0.05 * np.max(np.abs(r))
    return max(qosc.map_operator_residuals(reps, r, eps=1, mask=mask).values())


# ---------------------------------------------------------------------------
# cyclic suites
# ---------------------------------------------------------------------------

def _sample_triangle(rng):
    while True:
        th = rng.uniform(0.5, math.pi - 0.5, 3)
        try:
            return sf.spherical_sides_from_angles(*th)
        except DomainError:
            continue


def _cyclic_intertwine_case(cfg, idx):
    rng = case_rng(cfg.seed, idx)
    tri = _sample_triangle(rng)
    params = qosc.CyclicParams.from_triangle(tri, cfg.n_cyclic)
    ls = qosc.build_l(params.reps(), params.lambdas, params.mus)
    r = rm.cyclic_r_dense(rm.CyclicRData.from_triangle(tri, cfg.n_cyclic))
    if cfg.perturb:
        r = r.copy()
        r[0, 0] += 0.05 * np.max(np.abs(r))
    return qosc.intertwine_residual(ls, r)


@lru_cache(maxsize=8)
def _cyclic_te_setup(seed, n):
    ta = rm.random_tetra_angles(case_rng(seed, SETUP_STREAM))
    return rm.cyclic_weights_for_tetra(ta, n)


def _perturb_table(table):
    n = table.shape[0]
    h = np.arange(n).reshape((1,) * 7 + (n,))
    return table * np.exp(0.05j * h)


def _cyclic_te_count(cfg):
    if cfg.n_cyclic == 2:
        return 2 ** 14 // 128
    return _samples(cfg)


def _cyclic_te_case(cfg, idx):
    n = cfg.n_cyclic
    tables = _cyclic_te_setup(cfg.seed, n)
    if cfg.perturb:
        tables = tables[:3] + (_perturb_table(tables[3]),)
    worst = 0.0
    if n == 2:
        for low in range(128):
            bits = idx * 128 + low
            spins = [(bits >> b) & 1 for b in range(14)]
            ext = dict(zip(rm.EXTERNAL_LABELS, spins))
            worst = max(worst, rm.irc_te_residual_cyclic(tables, ext))
        return worst
    rng = case_rng(cfg.seed, idx)
    ext = dict(zip(rm.EXTERNAL_LABELS, (int(x) for x in rng.integers(0, n, 14))))
    return rm.irc_te_residual_cyclic(tables, ext)


@lru_cache(maxsize=8)
def _cross_form_setup(seed, n):
    ta = rm.random_tetra_angles(case_rng(seed, SETUP_STREAM))
    return rm.CyclicRData.from_angles(*ta.angle_arguments()[0], n)


def _cross_form_count(cfg):
    if cfg.n_cyclic == 2:
        return 2 ** 8
    return _samples(cfg)


def _cross_form_case(cfg, idx):
    n = cfg.n_cyclic
    data = _cross_form_setup(cfg.seed, n)
    if n == 2:
        spins = [(idx >> b) & 1 for b in range(8)]
    else:
        rng = case_rng(cfg.seed, idx)
        spins = [int(x) for x in rng.integers(0, n, 8)]
    s = dict(zip("aefgbcdh", spins))
    if cfg.perturb:
        # drop the equivalence factor: the two forms must then disagree
        a, e, f, g = s["a"], s["e"], s["f"], s["g"]
        b, c, d, h = s["b"], s["c"], s["d"], s["h"]
        nn = (g + f - a - b, a + c - e - g, e + f - a - d)
        mm = (c + d - e - h, f + h - b - d, b + c - g - h)
        w = rm.cyclic_weight_table(data)[tuple(x % n for x in (a, e, f, g, b, c, d, h))]
        r = rm.cyclic_vertex_element(nn, mm, data)
        return rm._rel_residual(w, r)
    res, _ = rm.cross_form_residual(data, s)
    return res


def _cross_form_extras(cfg):
    if cfg.n_cyclic != 2:
        return {}
    data = _cross_form_setup(cfg.seed, cfg.n_cyclic)
    fits = rm.cross_form_sector_scalars(data)
    return {"sector_scalar_fit": {
        "%d,%d" % key: {"scalar_re": val[0].real, "scalar_im": val[0].imag,
                        "residual": val[1]}
        for key, val in sorted(fits.items())}}


# ---------------------------------------------------------------------------
# modular suites
# ---------------------------------------------------------------------------

def _modular_specfun_case(cfg, idx):
    mp = cfg.modular_param()
    rng = case_rng(cfg.seed, idx)
    half = _samples(cfg)
    if idx < half:
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        vq = sf.quantum_dilog(z, mp, method="quadrature")
        mpp = sf.ModularParam(mp.b * (1 + 1e-2)) if cfg.perturb else mp
        vp = sf.quantum_dilog(z, mpp, method="product-series")
        return abs(vq - vp) / abs(vq)
    while True:
        c = rng.uniform(-0.35, 0.3, 4)
        c0 = rng.uniform(-0.45, -0.1)
        ratios = sf.psi22_residue_ratios(tuple(map(complex, c)), complex(c0), mp)
        if max(abs(r) for r in ratios) < 0.85:
            break
    vq = sf.psi22(*c, c0, mp, method="quadrature")
    if cfg.perturb:
        c = c + 1e-2
    vr = sf.psi22(*c, c0, mp, method="residue-series")
    return abs(vq - vr) / abs(vq)


def _modular_te_case(cfg, idx):
    mp = cfg.modular_param()
    rng = case_rng(cfg.seed, idx)
    tsets = rm.spectral_sets_from_free(rng.uniform(-0.3, 0.3, 6))
    if cfg.perturb:
        # unbalanced external field on one weight breaks the equation
        fsets = ((0.2, 0.0, 0.0), (0.0,) * 3, (0.0,) * 3, (0.0,) * 3)
    else:
        fsets = ((0.0,) * 3,) * 4
    specs = tuple(rm.ModularWeightSpec(mp, t, f) for t, f in zip(tsets, fsets))
    ext = {k: float(x) for k, x in zip(rm.EXTERNAL_LABELS, rng.uniform(-0.25, 0.25, 14))}
    return rm.irc_te_residual_modular(specs, ext, tol=1e-5)


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

def _samples(cfg):
    return cfg.samples if cfg.samples is not None else SUITES[cfg.suite].default_samples


SUITES = {
    "classical-lybe": Suite(
        "classical-lybe", 1e-12, 1000,
        count=lambda cfg: _samples(cfg), case=_lybe_case),
    "classical-fte": Suite(
        "classical-fte", 1e-10, 100,
        count=lambda cfg: 2 * _samples(cfg), case=_fte_case,
        parameters=lambda cfg: {"eps": [1, -1]}),
    "symplectic": Suite(
        "symplectic", 1e-6, 100,
        count=lambda cfg: _samples(cfg), case=_symplectic_case,
        parameters=lambda cfg: {"h": 1e-5}),
    "geometry-flip": Suite(
        "geometry-flip", 1e-10, 50,
        count=lambda cfg: _samples(cfg), case=_geometry_flip_case),
    "miquel": Suite(
        "miquel", 1e-9, 50,
        count=lambda cfg: _samples(cfg), case=_miquel_case),
    "dodecahedron": Suite(
        "dodecahedron", 1e-8, 25,
        count=lambda cfg: _samples(cfg), case=_dodeca_case),
    "covariant": Suite(
        "covariant", 1e-10, 3,
        count=lambda cfg: _samples(cfg), case=_covariant_case,
        parameters=lambda cfg: {"box": list(cfg.box)}),
    "fock-te": Suite(
        "fock-te", 1e-12, 0,
        count=_fock_te_count, case=_fock_te_case,
        parameters=lambda cfg: {"q": cfg.q, "max_index": cfg.max_index}),
    "fock-intertwine": Suite(
        "fock-intertwine", 1e-10, 2,
        count=lambda cfg: 2, case=_fock_intertwine_case,
        parameters=lambda cfg: {"q": cfg.q, "cutoff": cfg.cutoff}),
    "cyclic-intertwine": Suite(
        "cyclic-intertwine", 1e-10, 5,
        count=lambda cfg: _samples(cfg), case=_cyclic_intertwine_case,
        parameters=lambda cfg: {"N": cfg.n_cyclic}),
    "cyclic-te-irc": Suite(
        "cyclic-te-irc", 1e-9, 1000,
        count=_cyclic_te_count, case=_cyclic_te_case,
        parameters=lambda cfg: {"N": cfg.n_cyclic,
                                "exhaustive": cfg.n_cyclic == 2}),
    "cyclic-cross-form": Suite(
        "cyclic-cross-form", 1e-12, 200,
        count=_cross_form_count, case=_cross_form_case,
        parameters=lambda cfg: {"N": cfg.n_cyclic},
        extras=_cross_form_extras),
    "modular-specfun": Suite(
        "modular-specfun", 1e-6, 20,
        count=lambda cfg: 2 * _samples(cfg), case=_modular_specfun_case,
        parameters=lambda cfg: {"b_mod": cfg.b_mod, "b_arg": cfg.b_arg}),
    "modular-te-irc": Suite(
        "modular-te-irc", 1e-4, 5,
        count=lambda cfg: _samples(cfg), case=_modular_te_case,
        parameters=lambda cfg: {"b_mod": cfg.b_mod, "b_arg": cfg.b_arg}),
}


def _run_case(args):
    cfg, idx = args
    return idx, SUITES[cfg.suite].case(cfg, idx)


def run_suite(cfg: SuiteConfig) -> Report:
    if cfg.suite not in SUITES:
        raise ConfigurationError(
            "unknown suite %r; available: %s" % (cfg.suite, ", ".join(sorted(SUITES))))
    suite = SUITES[cfg.suite]
    tol = cfg.tol if cfg.tol is not None else suite.default_tol
    n_cases = suite.count(cfg)
    start = time.perf_counter()
    if cfg.workers == 1:
        results = [_run_case((cfg, i)) for i in range(n_cases)]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_case, ((cfg, i) for i in range(n_cases)),
                                    chunksize=max(1, n_cases // (8 * cfg.workers))))
    wall = time.perf_counter() - start
    results.sort()
    worst = max((r for _, r in results), default=0.0)
    params = {"tolerance": tol, **suite.parameters(cfg)}
    return Report(
        suite=cfg.suite,
        parameters=params,
        seed=cfg.seed,
        tolerance=tol,
        max_residual=float(worst),
        counts={"cases": n_cases},
        wall_s=wall,
        negative_control=cfg.perturb,
        cases=results if cfg.keep_cases else None,
        extras=suite.extras(cfg),
    )
