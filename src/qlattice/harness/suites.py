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
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
        if self.samples is not None and self.samples < 1:
            raise ConfigurationError("need at least one sample")
        if self.max_index < 0:
            raise ConfigurationError("max_index must be nonnegative")
        if self.q == 0 or self.q * self.q == 1:
            raise ConfigurationError("the Fock element is undefined at q = 0 and q^2 = 1")

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
    planarity = float(geo.planarity_residual([(h.x1, h.x12, x123, h.x13),
                                              (h.x2, h.x12, x123, h.x23),
                                              (h.x3, h.x13, x123, h.x23)]).max())
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
        return max(float(geo.concyclicity_residual(h.back_faces()).max()),
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


@lru_cache(maxsize=32)
def _fock_te_block(max_index, block):
    """Gated terms of the base^3 cases block * base^3 + k, k < base^3, of the
    exhaustive sweep (base = max_index + 1), from one fock_te_gate call.

    Returns (terms, col_starts, term_starts): case k's external tuples are
    the columns col_starts[k]:col_starts[k + 1] and its terms the rows
    term_starts[k]:term_starts[k + 1] of terms, whose column entries count
    from the case's first tuple.  Only the charge-consistent tuples are
    built: p1, p4 and p5 run free and p2, p3, p6 are solved from the three
    total-charge balances.  No other tuple has a term: the gate run on all
    3^12 tuples at max_index 2 finds terms on exactly the 4,743 consistent
    ones (test_te_gate_finds_terms_exactly_on_consistent_tuples).  The
    arrays do not depend on q, and 32 blocks hold the 27 of a max_index 2
    sweep, so a second q gates nothing again.
    """
    base = max_index + 1
    cases = block * base ** 3 + np.arange(base ** 3)
    n1, n2, n3, n4, n5, n6 = (cases // base ** np.arange(6)[:, None] % base)[:, :, None]
    p1, p4, p5 = np.indices((base,) * 3).reshape(3, 1, -1)
    p2, p3, p6 = n1 + n2 + n4 - p1 - p4, n3 + n5 + p1 - n1 - p5, n4 + n5 + n6 - p4 - p5
    keep = np.all([(p >= 0) & (p <= max_index) for p in (p2, p3, p6)], axis=0)
    exts = np.stack(np.broadcast_arrays(n1, n2, n3, n4, n5, n6, p1, p2, p3, p4, p5, p6))
    col_starts = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    col, side, ids, elements = rm.fock_te_gate(exts[:, keep])
    term_starts = np.searchsorted(col, col_starts)
    col = col - np.repeat(col_starts[:-1], np.diff(term_starts))
    out = (col, side, ids, elements), col_starts, term_starts
    for a in (col, side, ids, elements, col_starts, term_starts):
        a.flags.writeable = False
    return out


def _take(terms, rows):
    """The terms (fock_te_gate's arrays) at rows, a slice or a mask."""
    col, side, ids, elements = terms
    return col[rows], side[rows], ids[rows], elements


@rm.in_mp_context
def _fock_te_case(cfg, idx):
    base = cfg.max_index + 1
    terms, col_starts, term_starts = _fock_te_block(cfg.max_index, idx // base ** 3)
    k = idx % base ** 3
    if term_starts[k] == term_starts[k + 1]:
        return 0.0  # no term on either side: both sides vanish
    terms = _take(terms, slice(term_starts[k], term_starts[k + 1]))
    ncols = col_starts[k + 1] - col_starts[k]
    if cfg.perturb:
        # the RHS summed at q(1 + 1e-3); each side is summed once
        on_lhs = terms[1] == 0
        lhs, _ = rm.fock_te_sides(_take(terms, on_lhs), ncols, cfg.q)
        _, rhs = rm.fock_te_sides(_take(terms, ~on_lhs), ncols, cfg.q * (1 + 1e-3))
        return float(np.max(rm._rel_residual(lhs, rhs).astype(float)))
    return float(np.max(rm.fock_te_residual(terms, ncols, cfg.q)))


@rm.in_mp_context
def _fock_intertwine_case(cfg, idx):
    if idx == 0:
        if cfg.perturb:
            bump = rm._MP_CTX.create_decimal("1.05")

            def bad_element(n1, n2, n3, m1, m2, m3, q):
                val = rm.fock_element_mp(n1, n2, n3, m1, m2, m3, q)
                return val * bump ** n2 if val else val
            return qosc.fock_intertwine_extended(cfg.cutoff, cfg.q, bad_element)
        return qosc.fock_intertwine_extended(cfg.cutoff, cfg.q, rm.fock_element_mp)
    reps, mask, r = qosc.fock_r_sparse(cfg.cutoff, cfg.q, rm.fock_element_mp)
    if cfg.perturb:
        r = r + qosc.VOp(r.dims, [0], [0], [rm.to_mp(0.05) * r.max_abs()])
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


def _perturb_table(tables):
    """The stacked weight tables with a 5% phase per step of the last spin
    h on the fourth table."""
    out = tables.copy()
    out[3] *= np.exp(0.05j * np.arange(tables.shape[1]))
    return out


def _cyclic_te_count(cfg):
    if cfg.n_cyclic == 2:
        return 2 ** 14 // 128
    return _samples(cfg)


def _cyclic_te_case(cfg, idx):
    n = cfg.n_cyclic
    tables = _cyclic_te_setup(cfg.seed, n)
    if cfg.perturb:
        tables = _perturb_table(tables)
    if n == 2:
        # the 128 external tuples idx * 128 + low, bit b the b-th label
        bits = idx * 128 + np.arange(128)[:, None]
        ext = (bits >> np.arange(14)) & 1
    else:
        ext = case_rng(cfg.seed, idx).integers(0, n, 14)
    return float(np.max(rm.irc_te_residual_cyclic(tables, ext)))


@lru_cache(maxsize=8)
def _cyclic_vertex_setup(seed, n):
    ta = rm.random_tetra_angles(case_rng(seed, SETUP_STREAM))
    return tuple(rm.CyclicRData.from_angles(*args, n) for args in ta.angle_arguments())


def _cyclic_vertex_count(cfg):
    if cfg.n_cyclic % 2 == 0:
        raise ConfigurationError("cyclic-te-vertex needs odd N (q^N = -1 for even N, "
                                 "so the vertex element is not a function on Z_N)")
    return _samples(cfg)


def _cyclic_vertex_case(cfg, idx):
    n = cfg.n_cyclic
    datasets = _cyclic_vertex_setup(cfg.seed, n)
    if cfg.perturb:
        # a 5% phase per index step on the fourth phi table of R356
        bad = rm.CyclicRData(n, datasets[3].points)
        bad.tables = bad.tables[:3] + (bad.tables[3] * np.exp(0.05j * np.arange(n)),)
        datasets = datasets[:3] + (bad,)
    ext = rm.consistent_external(case_rng(cfg.seed, idx), n)
    return float(rm.vertex_te_residual(ext, datasets))


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
    if cfg.perturb:
        # drop the equivalence factor: the two forms must then disagree
        nn, mm = rm.sigma_map(spins, (0, 0, 0))
        w = data.weights[tuple(x % n for x in spins)]
        return rm._rel_residual(w, rm.cyclic_vertex_element(nn, mm, data))
    res, _ = rm.cross_form_residual(data, dict(zip("aefgbcdh", spins)))
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
    "cyclic-te-vertex": Suite(
        "cyclic-te-vertex", 1e-10, 1000,
        count=_cyclic_vertex_count, case=_cyclic_vertex_case,
        parameters=lambda cfg: {"N": cfg.n_cyclic}),
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


def samples_ignored(cfg: SuiteConfig) -> bool:
    """Whether cfg sets samples on a suite whose case count does not depend on
    them: an exhaustive sweep or a fixed case list."""
    if cfg.samples is None:
        return False
    count = SUITES[cfg.suite].count
    return count(cfg) == count(replace(cfg, samples=cfg.samples + 1))


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
    residuals = [r for _, r in results]
    # np.max, unlike max, propagates a NaN from any position; np.argmax takes
    # the first NaN too
    worst = np.max(residuals, initial=0.0)
    worst_case = results[int(np.argmax(residuals))][0] if results else None
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
        worst_case=worst_case,
    )
