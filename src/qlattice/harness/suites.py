"""Verification suites: deterministic, seeded, parallelizable case runners
for every identity the package checks, plus their negative controls.

Each suite declares a default tolerance and sample count, a case count and
either a case function mapping (config, case index) to a residual or a block
function mapping (config, case indices) to their residuals in one array
call.  The runner hands out blocks of consecutive cases that stack at most
BLOCK_ROWS rows (a case stacks Suite.rows rows), and per-case inputs come
from counter-based streams, so neither the worker count nor the block size
can change a case.  With perturb=True a suite applies its documented
deliberate corruption and the report then passes only if the residual
EXCEEDS the tolerance.

Block suites: fock-te, cyclic-te-irc, cyclic-te-vertex, cyclic-cross-form,
classical-lybe, classical-fte, symplectic, geometry-flip, miquel and
dodecahedron; a case run alone is a block of one.  A sampled classical
block draws its cases' attempts by rejection on stacks, in rounds
(_sample): round k draws attempt k of every case that no earlier round
accepted, each case's stream resumed where its attempt k - 1 left it, and
maps those attempts as one stack through the same kernels.  A guard that
fails on a stack drops every item it flags, and the rest are mapped again
(_stack_map).  A case that reaches its sampler's cap raises the sampler's
error, and one whose accepted attempt fails a later guard that guard's
error, as it does alone; the lowest failing case of a block raises.
covariant and the remaining suites run case by case.
"""

from __future__ import annotations

import cmath
import math
import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .. import classical_map as cm
from .. import geometry as geo
from .. import qosc
from .. import rmatrices as rm
from .. import specfun as sf
from ..errors import ConfigurationError, DegeneracyError, DomainError
from .report import Report
from .rng import case_integers, case_rng, case_rngs

SETUP_STREAM = 2 ** 62 + 11  # case index reserved for per-run shared setup
# stacked rows per block, a block being the unit of work of one worker call
# and of one block function call: a sampled classical suite's whole run, 37
# fock-te cases at max_index 2 or 8 cyclic-te-irc cases at N = 2.
BLOCK_ROWS = 1024


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
        box = self.box if isinstance(self.box, (tuple, list)) else ()
        if len(box) != 3 or not all(type(n) is int and n >= 1 for n in box):
            raise ConfigurationError("box must be three positive ints, got %r" % (self.box,))
        if self.q == 0 or self.q * self.q == 1:
            raise ConfigurationError("the Fock element is undefined at q = 0 and q^2 = 1")

    def modular_param(self) -> sf.ModularParam:
        return sf.ModularParam(self.b_mod * cmath.exp(1j * self.b_arg))


@dataclass(frozen=True)
class Suite:
    """A suite gives case or block; with block, case is made from it as a
    block of one.  The runner calls block where there is one and loops case
    over a block of cases otherwise.  A block function returns its cases'
    residuals as Python floats, in order, each the value its block of one
    reads; where blocks of one raise, the block raises the error of the
    first of them.  rows(cfg) is the number of rows, tuples or sampled
    states, that one case puts on the block's stacks."""

    default_tol: float
    default_samples: int
    count: callable
    case: callable = None
    block: callable = None
    parameters: callable = lambda cfg: {}
    extras: callable = lambda cfg: {}
    rows: callable = lambda cfg: 1

    def __post_init__(self):
        if self.case is None:
            block = self.block
            object.__setattr__(self, "case", lambda cfg, idx: block(cfg, [idx])[0])


# ---------------------------------------------------------------------------
# classical suites
# ---------------------------------------------------------------------------

def _stack_map(fn, rows):
    """(rows kept, fn(rows kept), errors): fn maps the stack of the given
    rows of a block in one call.  A guard that fails flags its items of
    that stack in exc.flags; those rows are dropped together and the rest
    mapped again, every guard unchanged, so each kept row reads what it
    reads alone and fn runs once per guard that fails and once more.
    errors maps the first row that each failing guard flags to the guard's
    error, which is the error that row raises alone (its traceback dropped,
    so that it keeps no stack of the call alive)."""
    rows = np.asarray(rows, dtype=np.intp)
    errors = {}
    while rows.size:
        try:
            return rows, fn(rows), errors
        except (DomainError, DegeneracyError) as exc:
            if exc.flags is None:
                raise
            flagged = np.reshape(exc.flags, (rows.size, -1)).any(axis=1)
            errors[int(rows[flagged.argmax()])] = exc.with_traceback(None)
            rows = rows[~flagged]
    return rows, [], errors


def _resumed(rng, state):
    rng.bit_generator.state = state
    return rng


def _sample(rngs, draw, cap, attempt, error, then=lambda rng: ()):
    """The values of the rows of a block, one row per generator that rngs
    yields, each that of the first of its attempts that its sampler
    accepts: rejection sampling on stacks, in rounds.

    Round k draws attempt k of every row that no earlier round accepted.
    draw(rng) draws it where the row's previous attempt left its stream
    (the bit generator's state after each draw is kept and set again, so
    rngs may yield one generator re-keyed per row, as case_rngs does), and
    then(rng) draws what the row draws after an accepted attempt.
    attempt(*draws), each draw stacked over the round's rows, returns the
    positions in that stack that the sampler accepts (those no guard of it
    fails, see _stack_map, and its test passes) and a function that takes
    indices into those positions and maps their values as one stack.  A
    row still rejected after cap rounds fails with error, and an accepted
    row whose value fails a guard with that guard's error, as it does in a
    block of one; the lowest failing row raises."""
    values, failed, states = {}, {}, {}
    streams = enumerate(rngs)
    for _ in range(cap):
        rows, draws = [], []
        for row, rng in streams:
            drawn = draw(rng)
            states[row] = rng, rng.bit_generator.state
            rows.append(row)
            draws.append((*drawn, *then(rng)))
        if not rows:
            break
        rows = np.array(rows)
        accepted, value = attempt(*map(np.array, zip(*draws)))
        done, res, errors = _stack_map(value, range(len(accepted)))
        values.update(zip(rows[accepted[done]].tolist(), res))
        failed.update((int(rows[accepted[at]]), exc) for at, exc in errors.items())
        pending = np.delete(rows, accepted).tolist()
        streams = ((row, _resumed(*states[row])) for row in pending)
    else:  # cap rounds ran: the rows they left rejected fail
        failed.update(dict.fromkeys(pending, error))
    if failed:
        raise failed[min(failed)]
    return [values[row] for row in range(len(values))]


def _lybe_residual(cfg, front, back):
    if cfg.perturb:
        back = (cm.CircularTriple(back[0].k * 1.01, back[0].a, back[0].a_star), *back[1:])
    return cm.local_yang_baxter_residual(front, back)


def _lybe_attempt(cfg, angles):
    def mapped(pos):
        front = cm.triples(angles[pos])
        return _lybe_residual(cfg, front, cm.map_r123(*front))

    # the residual has no guard, so it is taken with the flip that accepts
    accepted, res, _ = _stack_map(mapped, range(len(angles)))
    return accepted, lambda at: [res[i] for i in at]


def _lybe_block(cfg, cases):
    return _sample(case_rngs(cfg.seed, cases), lambda rng: (cm.draw_angles(rng, 3),),
                   cm.FRONT_ATTEMPTS, partial(_lybe_attempt, cfg), DomainError(
                       "could not sample an admissible front state in %d attempts"
                       % cm.FRONT_ATTEMPTS))


def _fte_eps(cfg, idx):
    return 1 if idx < _samples(cfg) else -1


def _fte_residual(cfg, state, lhs, rhs, eps):
    if cfg.perturb:
        t0 = state[0]
        lhs = cm.apply_flip_sequence([cm.CircularTriple(t0.k, t0.a * 1.01, t0.a_star),
                                      *state[1:]], cm.FTE_SEQUENCE, eps)
    return cm.state_difference(lhs, rhs)


def _take(triples, at):
    """The items at of a list of stacked triples."""
    return [cm.CircularTriple(t.k[at], t.a[at], t.a_star[at]) for t in triples]


def _fte_attempt(cfg, eps, angles):
    def sides(pos):
        state = cm.triples(angles[pos])
        return [state, *cm.fte_sides(state, eps)]

    accepted, mapped, _ = _stack_map(sides, range(len(angles)))
    return accepted, lambda at: _fte_residual(cfg, *(_take(t, at) for t in mapped), eps)


def _fte_block(cfg, cases):
    """The cases of branch eps = +1 of the block, then those of -1, which
    all come after them, each branch sampled on its own."""
    return [res for e in (1, -1) for res in _sample(
        case_rngs(cfg.seed, [idx for idx in cases if _fte_eps(cfg, idx) == e]),
        lambda rng: (cm.draw_angles(rng, 6),), cm.SIX_ATTEMPTS, partial(_fte_attempt, cfg, e),
        DomainError("could not sample an admissible six-face state in %d attempts"
                    % cm.SIX_ATTEMPTS))]


def _sheared_map(y):
    """The symplectic control's deliberately non-canonical map: the angle
    map with a nonlinear shear added to one angle."""
    out = cm.angle_map(y)
    out[..., 0] += 0.05 * np.sin(3.0 * y[..., 1])
    return out


def _symplectic_residual(cfg, x):
    return cm.symplectic_residual(x, _sheared_map if cfg.perturb else cm.angle_map)


def _symplectic_attempt(cfg, x):
    kept, admissible, _ = _stack_map(lambda pos: cm.symplectic_admissible(x[pos]),
                                     range(len(x)))
    accepted = kept[admissible]
    return accepted, lambda at: _symplectic_residual(cfg, x[accepted[at]])


def _symplectic_block(cfg, cases):
    return _sample(case_rngs(cfg.seed, cases), lambda rng: (cm.draw_symplectic(rng),),
                   cm.SYMPLECTIC_ATTEMPTS, partial(_symplectic_attempt, cfg), DomainError(
                       "could not sample a margin-interior symplectic state in %d attempts"
                       % cm.SYMPLECTIC_ATTEMPTS))


# the three faces through x123 whose planarity geometry-flip checks, as rows
# of Hexahedron.vertices()
_FLIP_FACES = np.array([[1, 4, 7, 5], [2, 4, 7, 6], [3, 5, 7, 6]])


def _flip_residual(cfg, verts, rot, shift):
    """The larger of the planarity of the three faces through x123 (moved by
    1e-2 in the control) and the flip's equivariance under x -> rot x +
    shift, for hexahedra given by their vertices (..., 8, 3)."""
    faces = verts[..., _FLIP_FACES, :]
    if cfg.perturb:
        faces = faces + 1e-2 * (_FLIP_FACES == 7)[..., None]
    planarity = geo.planarity_residual(faces).max(axis=-1)
    moved = (rot[..., None, :, :] @ verts[..., None])[..., 0] + shift[..., None, :]
    miss = geo.hex_flip(*np.moveaxis(moved[..., :7, :], -2, 0)) - moved[..., 7, :]
    # the norm as np.linalg.norm takes it of one vector
    return np.maximum(planarity, np.sqrt(np.vecdot(miss, miss))).tolist()


def _flip_motion(rng):
    """The rotation and the shift geometry-flip draws after its hexahedron."""
    return geo.random_rotation(rng), rng.normal(0, 1.0, 3)


def _accepted_hexahedra(draws, attempt):
    """The positions whose attempt(*draws at those positions) a hexahedron
    sampler accepts, and a (attempts, 8, 3) array that holds the vertices of
    their hexahedra there; draws are stacks over a round's attempts."""
    verts = np.empty((len(draws[0]), 8, 3))

    def attempts(pos):
        h, accepted = attempt(*(d[pos] for d in draws))
        verts[pos] = h.vertices()
        return accepted

    kept, accepted, _ = _stack_map(attempts, range(len(verts)))
    return kept[accepted], verts


def _geometry_flip_attempt(cfg, offsets, coefficients, rot, shift):
    accepted, verts = _accepted_hexahedra((offsets, coefficients), geo.quad_attempt)
    return accepted, lambda at: _flip_residual(
        cfg, verts[accepted[at]], rot[accepted[at]], shift[accepted[at]])


def _geometry_flip_block(cfg, cases):
    return _sample(case_rngs(cfg.seed, cases), geo.quad_draws, geo.QUAD_ATTEMPTS,
                   partial(_geometry_flip_attempt, cfg), DegeneracyError(
                       "failed to sample a convex quadrilateral hexahedron in %d attempts"
                       % geo.QUAD_ATTEMPTS), then=_flip_motion)


def _miquel_residual(cfg, h):
    if cfg.perturb:
        # x123 lies on no front face, so the moved hexahedron passes the guard
        h = replace(h, x123=h.x123 + 1e-2)
    return geo.miquel_check(h).max_residual.tolist()


def _miquel_attempt(cfg, *draws):
    accepted, verts = _accepted_hexahedra(draws, geo.circular_attempt)
    return accepted, lambda at: _miquel_residual(
        cfg, geo.Hexahedron(*np.moveaxis(verts[accepted[at]], -2, 0)))


def _miquel_block(cfg, cases):
    return _sample(case_rngs(cfg.seed, cases), geo.circular_draws, geo.CIRCULAR_ATTEMPTS,
                   partial(_miquel_attempt, cfg), DegeneracyError(geo.CIRCULAR_GIVE_UP))


def _dodeca_attempt(cfg, a, t, c):
    """The deformations whose denominators all lie at least 0.3 from 0,
    and the residual of their 4-cube's initial surface; in the control, of
    their 3-cube's, with 1e-2 added to the second dissection's first flip."""
    verts, admissible = geo.projective_vertices(a, t, c)
    accepted = np.flatnonzero(admissible)
    if cfg.perturb:
        verts = verts[..., :3]
    return accepted, lambda at: geo.dodecahedron_consistency(
        {m: verts[accepted[at], m] for m in geo.DODECA_INITIAL_MASKS},
        perturb=np.array([1e-2, 0.0, 0.0]) if cfg.perturb else None)


def _dodeca_block(cfg, cases):
    """The two dissections of every case of a round as one (B, 2) stack per
    flip."""
    return _sample(case_rngs(cfg.seed, cases), geo.projective_draws, geo.PROJECTIVE_DRAWS,
                   partial(_dodeca_attempt, cfg), DegeneracyError(
                       "no projective deformation of the 4-cube keeps every "
                       "denominator 0.3 from 0 in %d draws" % geo.PROJECTIVE_DRAWS))


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


def _fock_te_block(cfg, cases):
    """Each case's residual, the largest over its external tuples, 0.0 for a
    case with no term, case idx being the outer tuple of digits of idx in
    base max_index + 1 of the exhaustive sweep.  Only the charge-consistent
    tuples are built: n1'', n2'', n3'' run free and the rest are solved by
    te_balance.  The block is gated in one fock_te_gate call and summed in
    one 50-digit fock_te_residual call, the control's RHS at q(1 + 1e-3);
    each column still sums its terms in order, so every case reads what it
    reads summed on its own."""
    base = cfg.max_index + 1
    n = (np.asarray(cases) // base ** np.arange(6)[:, None] % base)[:, :, None]
    p1, p2, p3 = np.indices((base,) * 3).reshape(3, 1, -1)
    p456 = rm.te_balance(n, p1, p2, p3)
    keep = np.all([(p >= 0) & (p <= cfg.max_index) for p in p456], axis=0)
    exts = np.stack(np.broadcast_arrays(*n, p1, p2, p3, *p456))[:, keep]
    col_starts = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    res = rm.fock_te_residual(rm.fock_te_gate(exts), exts.shape[1], cfg.q,
                              cfg.q * (1 + 1e-3) if cfg.perturb else cfg.q)
    return [float(res[a:b].max(initial=0.0))
            for a, b in zip(col_starts[:-1], col_starts[1:])]


def _bump_first_entry(r):
    """The control's R: 0.05 max|R| added to its (0, 0) entry, on a copy."""
    bump = np.zeros(math.prod(r.dims))
    bump[0] = 0.05 * r.max_abs()
    return r + qosc.VOp(r.dims, {(0, 0, 0): bump})


def _fock_intertwine_case(cfg, idx):
    """Case 0 the masked intertwining check, case 1 the flip-map relations,
    both on the R of qosc.fock_r_sparse.  The control scales every element
    of case 0 by 1.05^{n2} and adds 0.05 max|R| to the (0, 0) entry of
    case 1."""
    if idx == 0 and not cfg.perturb:
        return qosc.fock_intertwine_extended(cfg.cutoff, cfg.q)
    reps, mask, r = qosc.fock_r_sparse(cfg.cutoff, cfg.q)
    if idx == 0:
        n2 = np.unravel_index(np.arange(math.prod(r.dims)), r.dims)[1]
        bumped = qosc.VOp(r.dims, {s: c * 1.05 ** n2 for s, c in r.terms.items()})
        return qosc.intertwine_residual(qosc.build_l(reps, (1.0,) * 3, (-1.0,) * 3),
                                        bumped, mask)
    if cfg.perturb:
        r = _bump_first_entry(r)
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


def _vertex_form_count(cfg):
    """Case count of the suites on the vertex-form R, which need odd N."""
    if cfg.n_cyclic % 2 == 0:
        raise ConfigurationError("%s needs odd N (q^N = -1 for even N, so the vertex "
                                 "element is not a function on Z_N)" % cfg.suite)
    return _samples(cfg)


def _cyclic_intertwine_case(cfg, idx):
    rng = case_rng(cfg.seed, idx)
    tri = _sample_triangle(rng)
    params = qosc.CyclicParams.from_triangle(tri, cfg.n_cyclic)
    ls = qosc.build_l(params.reps(), params.lambdas, params.mus)
    r = qosc.cyclic_r_sparse(rm.CyclicRData.from_triangle(tri, cfg.n_cyclic))
    if cfg.perturb:
        r = _bump_first_entry(r)
    return qosc.intertwine_residual(ls, r)


@lru_cache(maxsize=8)
def _cyclic_te_setup(seed, n):
    return rm.cyclic_weights_for_tetra(_cyclic_vertex_setup(seed, n))


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


def _cyclic_te_block(cfg, cases):
    """One irc_te_residual_cyclic call for the block, on a 2-D array of
    external tuples even for one case: rows of a (B, 14) call equal those of
    a (1, 14) call bit for bit, while a (14,) call rounds differently."""
    n = cfg.n_cyclic
    tables = _cyclic_te_setup(cfg.seed, n)
    if cfg.perturb:
        tables = _perturb_table(tables)
    if n == 2:
        # case idx holds the 128 external tuples idx * 128 + low, bit b the
        # b-th label
        bits = np.asarray(cases)[:, None, None] * 128 + np.arange(128)[:, None]
        return rm.irc_te_residual_cyclic(tables, (bits >> np.arange(14)) & 1).max(
            axis=-1).tolist()
    ext = case_integers(cfg.seed, cases, n, 14)
    return rm.irc_te_residual_cyclic(tables, ext).tolist()


@lru_cache(maxsize=8)
def _cyclic_vertex_setup(seed, n):
    """The data of R123, R145, R246 and R356 on the run's tetrahedron;
    cyclic-te-irc stacks their weight tables and cyclic-cross-form reads
    R123's."""
    ta = rm.random_tetra_angles(case_rng(seed, SETUP_STREAM))
    return tuple(rm.CyclicRData.from_angles(*args, n) for args in ta.angle_arguments())


@lru_cache(maxsize=8)
def _cyclic_vertex_sectors(seed, n, perturb):
    """The stacked cyclic_r_sectors of the run's four R; the control puts a
    5% phase per index step on the fourth phi table of R356."""
    datasets = _cyclic_vertex_setup(seed, n)
    if perturb:
        bad = rm.CyclicRData(n, datasets[3].points)
        bad.tables = bad.tables[:3] + (bad.tables[3] * np.exp(0.05j * np.arange(n)),)
        datasets = datasets[:3] + (bad,)
    return np.stack([rm.cyclic_r_sectors(data) for data in datasets])


def _cyclic_vertex_block(cfg, cases):
    """One vertex_te_residual call for the block: each case draws nine
    spins, and the total-charge balances mod N give the last three."""
    n = cfg.n_cyclic
    spins = case_integers(cfg.seed, cases, n, 9)
    ext = np.column_stack([spins, *rm.te_balance(spins[:, :6].T, *spins[:, 6:].T)]) % n
    return rm.vertex_te_residual(ext, _cyclic_vertex_sectors(cfg.seed, n, cfg.perturb)).tolist()


def _cross_form_count(cfg):
    if cfg.n_cyclic == 2:
        return 2 ** 8
    return _samples(cfg)


def _cross_form_block(cfg, cases):
    n = cfg.n_cyclic
    data = _cyclic_vertex_setup(cfg.seed, n)[0]
    if n == 2:
        spins = (np.asarray(cases) >> np.arange(8)[:, None]) & 1
    else:
        spins = case_integers(cfg.seed, cases, n, 8).T
    # the control compares the weight with q^(E+1) times the element in place
    # of the equivalence factor q^E: the two forms then differ by the phase q
    # at every spin assignment
    res, _ = rm.cross_form_residual(data, dict(zip("aefgbcdh", spins)),
                                    power_shift=int(cfg.perturb))
    return res.tolist()


def _cross_form_extras(cfg):
    if cfg.n_cyclic != 2:
        return {}
    data = _cyclic_vertex_setup(cfg.seed, cfg.n_cyclic)[0]
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
        1e-12, 1000,
        count=_samples, block=_lybe_block),
    "classical-fte": Suite(
        1e-10, 100,
        count=lambda cfg: 2 * _samples(cfg), block=_fte_block,
        parameters=lambda cfg: {"eps": [1, -1]}),
    "symplectic": Suite(
        1e-6, 100,
        count=_samples, block=_symplectic_block),
    "geometry-flip": Suite(
        1e-10, 50,
        count=_samples, block=_geometry_flip_block),
    "miquel": Suite(
        1e-9, 50,
        count=_samples, block=_miquel_block),
    "dodecahedron": Suite(
        1e-8, 25,
        count=_samples, block=_dodeca_block),
    "covariant": Suite(
        1e-10, 3,
        count=_samples, case=_covariant_case,
        parameters=lambda cfg: {"box": list(cfg.box)}),
    "fock-te": Suite(
        1e-12, 0,
        count=_fock_te_count, block=_fock_te_block,
        rows=lambda cfg: (cfg.max_index + 1) ** 3,
        parameters=lambda cfg: {"q": cfg.q, "max_index": cfg.max_index}),
    "fock-intertwine": Suite(
        1e-10, 2,
        count=lambda cfg: 2, case=_fock_intertwine_case,
        parameters=lambda cfg: {"q": cfg.q, "cutoff": cfg.cutoff}),
    "cyclic-intertwine": Suite(
        1e-10, 5,
        count=_vertex_form_count, case=_cyclic_intertwine_case,
        parameters=lambda cfg: {"N": cfg.n_cyclic}),
    "cyclic-te-irc": Suite(
        1e-9, 1000,
        count=_cyclic_te_count, block=_cyclic_te_block,
        rows=lambda cfg: 128 if cfg.n_cyclic == 2 else 1,
        parameters=lambda cfg: {"N": cfg.n_cyclic,
                                "exhaustive": cfg.n_cyclic == 2}),
    "cyclic-te-vertex": Suite(
        1e-10, 1000,
        count=_vertex_form_count, block=_cyclic_vertex_block,
        rows=lambda cfg: cfg.n_cyclic,
        parameters=lambda cfg: {"N": cfg.n_cyclic}),
    "cyclic-cross-form": Suite(
        1e-12, 200,
        count=_cross_form_count, block=_cross_form_block,
        parameters=lambda cfg: {"N": cfg.n_cyclic},
        extras=_cross_form_extras),
    "modular-specfun": Suite(
        1e-6, 20,
        count=lambda cfg: 2 * _samples(cfg), case=_modular_specfun_case,
        parameters=lambda cfg: {"b_mod": cfg.b_mod, "b_arg": cfg.b_arg}),
    "modular-te-irc": Suite(
        1e-4, 5,
        count=_samples, case=_modular_te_case,
        parameters=lambda cfg: {"b_mod": cfg.b_mod, "b_arg": cfg.b_arg}),
}


def samples_ignored(cfg: SuiteConfig) -> bool:
    """Whether cfg sets samples on a suite whose case count does not depend on
    them: an exhaustive sweep or a fixed case list."""
    if cfg.samples is None:
        return False
    count = SUITES[cfg.suite].count
    return count(cfg) == count(replace(cfg, samples=cfg.samples + 1))


def _run_block(args):
    cfg, cases = args
    suite = SUITES[cfg.suite]
    if suite.block is None:
        return [(idx, suite.case(cfg, idx)) for idx in cases]
    return list(zip(cases, suite.block(cfg, cases)))


def run_suite(cfg: SuiteConfig) -> Report:
    if cfg.suite not in SUITES:
        raise ConfigurationError(
            "unknown suite %r; available: %s" % (cfg.suite, ", ".join(sorted(SUITES))))
    suite = SUITES[cfg.suite]
    tol = cfg.tol if cfg.tol is not None else suite.default_tol
    n_cases = suite.count(cfg)
    # the blocks are cut here, so a worker process never reads BLOCK_ROWS: at
    # most BLOCK_ROWS rows each, and small enough that every process of the
    # pool, at most one per CPU, gets a block
    pool = min(cfg.workers, len(os.sched_getaffinity(0)))
    size = max(1, min(BLOCK_ROWS // suite.rows(cfg), -(-n_cases // pool)))
    blocks = [(cfg, range(start, min(start + size, n_cases)))
              for start in range(0, n_cases, size)]
    start = time.perf_counter()
    if pool == 1 or len(blocks) <= 1:
        parts = map(_run_block, blocks)
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(pool, len(blocks))) as executor:
            parts = list(executor.map(_run_block, blocks))
    results = [pair for part in parts for pair in part]
    wall = time.perf_counter() - start
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
