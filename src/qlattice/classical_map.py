"""Circular-variable transforms, the three-face map and its verification
functionals (local Yang-Baxter, functional tetrahedron, symplectic form,
covariant lattice evolution).

A circular face with angles (alpha, beta) carries the triple

    k = sin(beta)/sin(alpha),
    a = sin(alpha+beta)/sin(alpha),
    a* = sin(alpha-beta)/sin(alpha),        a a* = 1 - k^2,

and the flip of a cube acts on the three front triples as

    (a2)'  = a1 a3   + eps k1 k3 a2,        (a2*)' = a1* a3* + eps k1 k3 a2*,
    (k2)'  = sqrt(1 - (a2)'(a2*)'),
    (a1)'  = (k3 a1  - eps k1 a2  a3*) / k2',
    (a1*)' = (k3 a1* - eps k1 a2* a3 ) / k2',
    (a3)'  = (k1 a3  - eps k3 a1* a2 ) / k2',
    (a3*)' = (k1 a3* - eps k3 a1  a2*) / k2',

with k1', k3' recovered from the same square-root constraint (the principal
branch; the Yang-Baxter residual is branch-sensitive and pins it).  In code
the six numerators are written once, in flip_numerators: map_r123 takes
them in scalars and stacks, and qosc.map_operator_residuals in operators.

The transforms and the map take Python scalars or equal-shaped numpy arrays
(stacks) through one body; a call on scalars uses the math module only.
Real input stays real and meets the real-domain guards; complex input takes
the principal branch of every root and arccos, which is what the
complex-step Jacobian evaluates.  A guard on a stack fails on its first
failing item in C order: the error's message reads that item's values, its
index is the item's position, and its flags are the stack of items it flags.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

EPS_CLASSICAL = +1

# the attempts per case of the samplers of a flippable front (three faces),
# of a six-face state both FTE orderings map, and of a symplectic state
FRONT_ATTEMPTS, SIX_ATTEMPTS, SYMPLECTIC_ATTEMPTS = 200, 500, 500


def _guard(bad, error, message, *values):
    """Raise error(message % values) if bad holds.  For a stack of flags the
    first true item in C order fails: each value that is a stack is taken at
    it, so the message reads what the item reads alone, the error's index is
    its position and the error's flags are the stack."""
    if bad is False:  # a scalar that passes, the common case
        return
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise _item_error(bad, error, message, values)
    elif bad:
        raise error(message % values)


def _item_error(bad, error, message, values):
    # built outside _guard, so that no frame of the raised error's traceback
    # refers to the error: that cycle would keep the failing call's stacks
    # alive until the garbage collector runs
    at = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    values = tuple(v[at].item() if isinstance(v, np.ndarray) else v for v in values)
    exc = error(message % values)
    exc.index, exc.flags = at, bad
    return exc


def _is_complex(*values):
    total = sum(values)  # of the widest type among them
    return isinstance(total, complex) or (isinstance(total, np.ndarray)
                                          and total.dtype.kind == "c")


def _lib(x):
    """The module whose sin, sqrt and acos fit x: numpy for a stack, else
    cmath or math by type."""
    if isinstance(x, np.ndarray):
        return np
    return cmath if isinstance(x, complex) else math


# ---------------------------------------------------------------------------
# circular variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircularTriple:
    """(k, a, a*) of one face, or of a stack of faces as equal-shaped arrays
    (qosc fills one with operators to take the flip map's numerators)."""

    k: complex
    a: complex
    a_star: complex

    def as_array(self):
        return np.array([self.k, self.a, self.a_star])


def angles_to_circular(alpha, beta) -> CircularTriple:
    plus, minus = alpha + beta, alpha - beta
    sin = _lib(plus).sin
    sa = sin(alpha)
    _guard(abs(sa) < 1e-14, SingularityError, "alpha = 0 mod pi has no circular variables")
    return CircularTriple(k=sin(beta) / sa, a=sin(plus) / sa, a_star=sin(minus) / sa)


def circular_to_angles(t: CircularTriple):
    """Inverse transform: cos(alpha) = (a - a*)/(2k), cos(beta) = (a + a*)/2.

    A real triple must give both cosines in [-1, 1] up to 1e-12, and they
    are clipped to it; a complex one takes the principal arccos."""
    _guard(abs(t.k) < 1e-14, SingularityError, "k = 0 has no angle preimage")
    ca = (t.a - t.a_star) / (2.0 * t.k)
    cb = (t.a + t.a_star) / 2.0
    lib = _lib(ca)
    if _is_complex(ca, cb):
        if lib is np:  # a real cosine off [-1, 1] too takes the complex branch
            ca, cb = ca.astype(complex, copy=False), cb.astype(complex, copy=False)
        return lib.acos(ca), lib.acos(cb)
    for name, c in (("alpha", ca), ("beta", cb)):
        _guard((c < -1 - 1e-12) | (c > 1 + 1e-12) | (c != c), DomainError,
               "no real %s for this triple (cos = %r)", name, c)
    if lib is np:
        return np.acos(np.clip(ca, -1.0, 1.0)), np.acos(np.clip(cb, -1.0, 1.0))
    return math.acos(min(1.0, max(-1.0, ca))), math.acos(min(1.0, max(-1.0, cb)))


# ---------------------------------------------------------------------------
# local Yang-Baxter relation
# ---------------------------------------------------------------------------

def circular_x(t: CircularTriple) -> np.ndarray:
    """[[k, a*], [-a, k]]; a stack (..., 2, 2) for a stacked triple."""
    out = np.empty(np.shape(t.k) + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = t.k
    out[..., 0, 1] = t.a_star
    out[..., 1, 0] = -t.a
    return out


# X_pq, X_pr and X_qr act on the rows and columns (0, 1), (0, 2) and (1, 2)
# of C^3; the index of each of their block entries in a (3, 3, 3) stack
_PLANES = np.array([[0, 1], [0, 2], [1, 2]])
_BLOCK_ENTRIES = (np.arange(3)[:, None, None], _PLANES[:, :, None], _PLANES[:, None, :])
_IDENTITIES = np.tile(np.eye(3, dtype=complex), (3, 1, 1))


def _embed(blocks) -> np.ndarray:
    """X_pq, X_pr and X_qr from their three 2x2 blocks (..., 2, 2), as a
    (..., 3, 3, 3) stack."""
    blocks = np.stack(blocks, axis=-3)
    out = np.empty(blocks.shape[:-3] + _IDENTITIES.shape, dtype=complex)
    out[...] = _IDENTITIES
    out[(..., *_BLOCK_ENTRIES)] = blocks
    return out


def local_yang_baxter_residual(front, back, matrix=circular_x):
    """Max-entry difference of X_pq(1) X_pr(2) X_qr(3) against
    X_qr(3') X_pr(2') X_pq(1'): a float, or for stacked triples a list of
    floats, each the value its item reads alone."""
    x = _embed([matrix(t) for t in front])
    y = _embed([matrix(u) for u in back])
    lhs = x[..., 0, :, :] @ x[..., 1, :, :] @ x[..., 2, :, :]
    rhs = y[..., 2, :, :] @ y[..., 1, :, :] @ y[..., 0, :, :]
    return np.abs(lhs - rhs).max(axis=(-2, -1)).tolist()


# ---------------------------------------------------------------------------
# the map
# ---------------------------------------------------------------------------

def _constraint_sqrt(radicand, real: bool):
    """k from k^2 = radicand: in real mode the root of the radicand clipped
    at 0, after a guard against a negative one; else the principal root."""
    stacked = isinstance(radicand, np.ndarray)
    if not real:
        return np.sqrt(radicand.astype(complex, copy=False)) if stacked else cmath.sqrt(radicand)
    _guard(radicand < -1e-13, DomainError, "negative radicand %r in real mode", radicand)
    return np.sqrt(np.maximum(radicand, 0.0)) if stacked else math.sqrt(max(radicand, 0.0))


def flip_numerators(t1, t2, t3, eps, mul):
    """The flip map's numerators a1'k2', a1*'k2', a2', a2*', a3'k2' and
    a3*'k2' from three triples, every product taken left to right through
    mul: operator.mul on scalars or stacks, operator.matmul on operators.
    The only place the map's formulas are written."""
    k1, a1, s1 = t1.k, t1.a, t1.a_star
    a2, s2 = t2.a, t2.a_star
    k3, a3, s3 = t3.k, t3.a, t3.a_star
    return (mul(k3, a1) - mul(mul(eps * k1, a2), s3),
            mul(k3, s1) - mul(mul(eps * k1, s2), a3),
            mul(a1, a3) + mul(mul(eps * k1, k3), a2),
            mul(s1, s3) + mul(mul(eps * k1, k3), s2),
            mul(k1, a3) - mul(mul(eps * k3, s1), a2),
            mul(k1, s3) - mul(mul(eps * k3, a1), s2))


def map_r123(t1: CircularTriple, t2: CircularTriple, t3: CircularTriple,
             eps: int = EPS_CLASSICAL):
    """Flip map on three circular triples; eps = +1 (circular branch) or -1.

    The triples may be scalars or equal-shaped stacks.  Real input maps in
    real mode, where a negative radicand is a DomainError; complex input
    takes the principal square roots."""
    if eps not in (1, -1):
        raise DomainError("eps must be +1 or -1")
    real = not _is_complex(t1.k, t1.a, t1.a_star, t2.k, t2.a, t2.a_star,
                           t3.k, t3.a, t3.a_star)
    _guard(abs(t2.k) < 1e-14, SingularityError, "k2 = 0 makes the map singular")
    a1p, s1p, a2p, s2p, a3p, s3p = flip_numerators(t1, t2, t3, eps, operator.mul)
    k2p = _constraint_sqrt(1.0 - a2p * s2p, real)
    _guard(abs(k2p) < 1e-14, SingularityError, "k2' = 0 after the flip")
    a1p, s1p, a3p, s3p = a1p / k2p, s1p / k2p, a3p / k2p, s3p / k2p
    k1p = _constraint_sqrt(1.0 - a1p * s1p, real)
    k3p = _constraint_sqrt(1.0 - a3p * s3p, real)
    return (CircularTriple(k1p, a1p, s1p), CircularTriple(k2p, a2p, s2p),
            CircularTriple(k3p, a3p, s3p))


def draw_angles(rng, n: int):
    """One draw of the 2n angles (alpha, beta, alpha, ...) of n faces, in
    [0.2 pi, 0.45 pi): the values n pairs of scalar draws give."""
    return rng.uniform(0.2 * math.pi, 0.45 * math.pi, 2 * n)


def triples(angles):
    """The n triples of angles (..., 2n) = (alpha, beta, alpha, ...), from
    one angles_to_circular call: each a stack over the leading axes, or of
    Python floats for one draw (2n,).  A block of cases converts the stack
    of its attempts' draws through this one call, so a case reads the same
    triples in a block of any size."""
    t = angles_to_circular(angles[..., 0::2], angles[..., 1::2])
    parts = [x.tolist() if x.ndim == 1 else [x[..., j] for j in range(x.shape[-1])]
             for x in (t.k, t.a, t.a_star)]
    return [CircularTriple(*kas) for kas in zip(*parts)]


# ---------------------------------------------------------------------------
# functional tetrahedron equation
# ---------------------------------------------------------------------------

FTE_SEQUENCE = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))


def apply_flip_sequence(state, sequence, eps):
    state = list(state)
    for fid, (i, j, k) in enumerate(sequence):
        try:
            state[i], state[j], state[k] = map_r123(state[i], state[j], state[k], eps=eps)
        except DomainError as exc:
            err = DomainError("domain exit at flip %d on faces %s: %s"
                              % (fid, (i + 1, j + 1, k + 1), exc))
            err.index, err.flags = exc.index, exc.flags
            raise err from exc
    return state


def state_difference(lhs, rhs):
    """Max component difference between two lists of triples: a float, or
    for lists of stacked triples a list of floats, one per item."""
    diff = [np.abs(a.as_array() - b.as_array()) for a, b in zip(lhs, rhs)]
    return np.max(diff, axis=(0, 1)).tolist()


def fte_sides(state, eps=EPS_CLASSICAL):
    """The two four-flip orderings (123)(145)(246)(356) and
    (356)(246)(145)(123) of six triples."""
    if len(state) != 6:
        raise DomainError("need six triples")
    return (apply_flip_sequence(state, FTE_SEQUENCE, eps),
            apply_flip_sequence(state, tuple(reversed(FTE_SEQUENCE)), eps))


def functional_tetrahedron_residual(state, eps=EPS_CLASSICAL) -> float:
    """Max component difference between the two sides of fte_sides."""
    return state_difference(*fte_sides(state, eps))


# ---------------------------------------------------------------------------
# symplectic structure
# ---------------------------------------------------------------------------

def angle_map(angles6, eps=EPS_CLASSICAL):
    """The flip map in canonical angle coordinates (a1, b1, a2, b2, a3, b3),
    on one state (6,) or a stack (..., 6).  Real angles map in real mode,
    complex ones on the principal branch.  One state runs as a stack of
    one, so it equals its row of any stack bit for bit.  The three faces
    convert to and from angles in one call each, and a failing guard's
    index starts with the position of a state it fails on."""
    x = np.asarray(angles6)
    flipped = map_r123(*triples(x.reshape(1, 6) if x.ndim == 1 else x), eps=eps)
    faces = CircularTriple(*(np.stack(v, axis=-1) for v in zip(
        *((t.k, t.a, t.a_star) for t in flipped))))
    return np.stack(circular_to_angles(faces), axis=-1).reshape(x.shape)


# one [[0, 1], [-1, 0]] block per face, on its (alpha, beta) pair
CANONICAL_OMEGA = np.diag([1.0, 0, 1, 0, 1], 1) - np.diag([1.0, 0, 1, 0, 1], -1)

# x and its shifts by +-2e-5 in every angle, on all of which a sampled
# symplectic state must map; this fixes which draws a seed accepts.  Its
# mapped angles stay _ANGLE_MARGIN from 0 and pi, where acos is singular.
_STENCIL = np.array([[0.0], [2e-5], [-2e-5]])
_ANGLE_MARGIN = 0.05

# the step of the complex-step derivative
COMPLEX_STEP = 1e-20


def draw_symplectic(rng):
    """One attempt's draw of the symplectic sampler: an angle state."""
    return rng.uniform(0.22 * math.pi, 0.43 * math.pi, 6)


def symplectic_admissible(x):
    """Whether the map evaluates on the stencil x, x + 2e-5, x - 2e-5 of
    each state of x (..., 6), in one stacked call, and keeps every mapped
    angle of x at least _ANGLE_MARGIN away from 0 and pi.  A DomainError of
    the map names a state it fails on by exc.index[0]."""
    y = angle_map(x[..., None, :] + _STENCIL)[..., 0, :]
    return np.all((y > _ANGLE_MARGIN) & (y < math.pi - _ANGLE_MARGIN), axis=-1)


def jacobian(fn, x) -> np.ndarray:
    """Jacobian of fn at x, or at each point of a stack x (..., n), by the
    complex step: column j is Im fn(x + i h e_j) / h with h =
    COMPLEX_STEP, all columns from one call of fn on the stack of the
    shifted points.  fn must be analytic and take stacks (..., n).  No
    difference of nearby values is formed, so nothing cancels: the error
    is fn's own roundoff, and the h^2 term lies about 1e-40 below the
    derivative (Squire & Trapp, SIAM Rev. 40, 1998)."""
    x = np.asarray(x, dtype=float)
    shifted = x[..., None, :] + 1j * COMPLEX_STEP * np.eye(x.shape[-1])
    return np.swapaxes(fn(shifted).imag, -1, -2) / COMPLEX_STEP


def symplectic_residual(angles6, fn=angle_map):
    """|| J Omega J^T - Omega ||_max with J the complex-step Jacobian of fn
    (the angle map, or a control's corruption of it) at one state (6,) or a
    stack (..., 6): a float, or a list of floats."""
    jac = jacobian(fn, angles6)
    defect = jac @ CANONICAL_OMEGA @ np.swapaxes(jac, -1, -2) - CANONICAL_OMEGA
    return np.abs(defect).max(axis=(-2, -1)).tolist()


# ---------------------------------------------------------------------------
# covariant lattice evolution
# ---------------------------------------------------------------------------

# every ordered pair (i, j) of directions with its complement k
PAIRS = tuple((i, j, 3 - i - j) for i in range(3) for j in range(3) if i != j)


@dataclass
class CovariantField:
    """Rotation-coefficient field A[s1, s2, s3, i, j] on a box of sites.

    Internally the second lattice direction is stored reversed, which turns
    the mixed shift pattern of the evolution into uniform forward shifts;
    every pair component then propagates in its complementary direction.
    Unset entries are NaN.
    """

    box: tuple
    a: np.ndarray

    @classmethod
    def empty(cls, box):
        n = tuple(b + 1 for b in box)
        return cls(tuple(box), np.full(n + (3, 3), np.nan))

    @classmethod
    def random_boundary(cls, box, rng):
        """Boundary data on the three s_k = 0 walls for the two components
        propagating in direction k, uniform in [-0.2, 0.2)."""
        f = cls.empty(box)
        for (i, j, k) in PAIRS:
            wall = np.moveaxis(f.a[..., i, j], k, 0)[0]
            wall[...] = rng.uniform(-0.2, 0.2, size=wall.shape)
        return f

    def at(self, axis=None):
        """The coefficients at s + e_axis (at s for axis None) for every cube
        site s of the box: a (*box, 3, 3) view."""
        shift = [0, 0, 0]
        if axis is not None:
            shift[axis] = 1
        return self.a[tuple(slice(d, d + b) for d, b in zip(shift, self.box))]


def _k(a, i, j):
    """K_ij = sqrt(1 - A_ij A_ji) of coefficients a (..., 3, 3), for index
    ints or equal-shaped index arrays i, j; a negative radicand means the
    field left the real branch."""
    r = 1.0 - a[..., i, j] * a[..., j, i]
    _guard(r < 0, DomainError, "field left the real branch (1 - A_ij A_ji = %r)", r)
    return np.sqrt(r)


def covariant_evolve(field: CovariantField):
    """Sweep the cubes in anti-diagonal layers, one covariant_step per layer.
    Returns the field (filled in place)."""
    sites = np.indices(field.box).reshape(3, -1).T
    layer = sites.sum(axis=1)
    for n in range(sum(field.box) - 2):
        covariant_step(field, sites[layer == n])
    return field


def covariant_step(field: CovariantField, sites):
    """Update the cubes at sites, one site s or an (n, 3) stack of them:
    for every ordered pair (i, j) with complement k,
    A_ij(s + e_k) = (A_ij - A_ik A_kj) / (K_ik K_kj) at s.

    Each cube reads its own site and writes A_ij only in direction k, so the
    cubes of one anti-diagonal layer are independent.  Each guard runs over
    all the cubes and names its first failing one in the order given."""
    sites = np.reshape(sites, (-1, 3))
    vals = field.a[tuple(sites.T)]
    i, j, k = np.array(PAIRS).T
    try:
        _guard(np.isnan(vals[:, i, j]).any(axis=-1), DomainError, "unset inputs")
        kik, kkj = _k(vals, i, k), _k(vals, k, j)
        bad = (kik < 1e-13) | (kkj < 1e-13)
        _guard(bad, SingularityError, "vanishing K on pair (%d, %d, %d)",
               *(np.broadcast_to(v, bad.shape) for v in (i, k, j)))
    except DomainError as exc:
        raise type(exc)("cube %s: %s" % (tuple(sites[exc.index[0]].tolist()), exc)) from exc
    target = sites[:, None, :] + np.eye(3, dtype=int)[k]
    field.a[(*np.moveaxis(target, -1, 0), i, j)] = (
        (vals[:, i, j] - vals[:, i, k] * vals[:, k, j]) / (kik * kkj))
    return field


def kk_relation_residual(field: CovariantField) -> float:
    """Max residual of K_ij(s+e_k) K_kj(s) = K_kj(s+e_i) K_ij(s) over all
    cubes and index permutations."""
    here = field.at()
    return float(np.max([np.abs(_k(field.at(k), i, j) * _k(here, k, j)
                                - _k(field.at(i), k, j) * _k(here, i, j))
                         for (i, j, k) in PAIRS], initial=0.0))


def cube_triples(field: CovariantField):
    """Front triples of every cube of the box, read off the evolved field:
    three stacks of the box's shape, indexed by the cube's site s."""
    def triple(a, i, j):  # (K_ij, A_ji, A_ij)
        return CircularTriple(_k(a, i, j), a[..., j, i], a[..., i, j])

    here = field.at()
    return triple(here, 1, 2), triple(field.at(1), 0, 2), triple(here, 0, 1)


def covariant_vs_map_residual(field: CovariantField) -> float:
    """Per-cube agreement between the covariant update and the flip map,
    all cubes in one stacked map call."""
    p1, p2, p3 = map_r123(*cube_triples(field), eps=EPS_CLASSICAL)
    x, here, z = field.at(0), field.at(), field.at(2)
    got = np.array([x[..., 2, 1], x[..., 1, 2], here[..., 2, 0], here[..., 0, 2],
                    z[..., 1, 0], z[..., 0, 1]])
    want = np.array([p1.a, p1.a_star, p2.a, p2.a_star, p3.a, p3.a_star])
    return float(np.max(np.abs(got - want), initial=0.0))
