"""Circular-variable transforms, edge-length propagation, the three-face map,
and its verification functionals (local Yang-Baxter, functional tetrahedron,
symplectic form, covariant lattice evolution).

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
branch; the Yang-Baxter residual is branch-sensitive and pins it).

The transforms and the map take Python scalars or equal-shaped numpy arrays
(stacks) through one body; a call on scalars uses the math module only.
Real input stays real and meets the real-domain guards; complex input takes
the principal branch of every root and arccos, which is what the
complex-step Jacobian evaluates.  A guard on a stack names its first
failing item in C order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .geometry import FaceAngles

EPS_CLASSICAL = +1
EPS_MODULAR = -1


def _guard(bad, error, message, *values):
    """Raise error(message % values) if bad holds.  For a stack of flags the
    first true item in C order fails: the message names it, and each value
    that is a stack is taken at it."""
    if bad is False:  # a scalar that passes, the common case
        return
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        at = np.unravel_index(np.argmax(bad), bad.shape)
        values = tuple(v[at].item() if isinstance(v, np.ndarray) else v for v in values)
        message = "item %s: %s" % (tuple(int(i) for i in at), message)
    elif not bad:
        return
    raise error(message % values)


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
    """(k, a, a*) of one face, or of a stack of faces as equal-shaped arrays."""

    k: complex
    a: complex
    a_star: complex

    def constraint_residual(self) -> float:
        return abs(self.a * self.a_star - (1.0 - self.k * self.k))

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
# edge-length propagation
# ---------------------------------------------------------------------------

def propagation_matrix(angles: FaceAngles) -> np.ndarray:
    """The 2x2 matrix sending the incoming pair (lp, lq) to the opposite pair."""
    b, g, d = angles.beta, angles.gamma, angles.delta
    sd = math.sin(d)
    if abs(sd) < 1e-14:
        raise SingularityError("delta = 0 mod pi degenerates the propagation")
    return np.array([
        [math.sin(g) / sd, math.sin(d + b) / sd],
        [math.sin(d + g) / sd, math.sin(b) / sd]])


def propagation_constraint_residual(angles: FaceAngles) -> float:
    """Residual of the determinant relation tying the four entries together.

    With the matrix written [[A, C], [B, D]] column-wise the relation reads
    AD - BC = (AB - CD)/(DB - AC); equivalently, for the entries P Q / R S
    as displayed, det = (PR - QS)/(SR - PQ).
    """
    (p, q), (r, s) = propagation_matrix(angles)
    num = p * r - q * s
    den = s * r - p * q
    if abs(den) < 1e-12:
        raise SingularityError("constraint undefined (symmetric face)")
    return abs((p * s - q * r) - num / den)


def _x3(m2: np.ndarray, rows: tuple[int, int]) -> np.ndarray:
    out = np.eye(3, dtype=complex)
    i, j = rows
    out[i, i], out[i, j] = m2[0, 0], m2[0, 1]
    out[j, i], out[j, j] = m2[1, 0], m2[1, 1]
    return out


def circular_x(t: CircularTriple) -> np.ndarray:
    return np.array([[t.k, t.a_star], [-t.a, t.k]], dtype=complex)


def x_pq(m2):
    return _x3(np.asarray(m2, dtype=complex), (0, 1))


def x_pr(m2):
    return _x3(np.asarray(m2, dtype=complex), (0, 2))


def x_qr(m2):
    return _x3(np.asarray(m2, dtype=complex), (1, 2))


def local_yang_baxter_residual(front, back, matrix=circular_x) -> float:
    """Max-entry difference of X_pq(1) X_pr(2) X_qr(3) against
    X_qr(3') X_pr(2') X_pq(1')."""
    t1, t2, t3 = front
    u1, u2, u3 = back
    lhs = x_pq(matrix(t1)) @ x_pr(matrix(t2)) @ x_qr(matrix(t3))
    rhs = x_qr(matrix(u3)) @ x_pr(matrix(u2)) @ x_pq(matrix(u1))
    return float(np.max(np.abs(lhs - rhs)))


def face_x(angles: FaceAngles) -> np.ndarray:
    return propagation_matrix(angles).astype(complex)


def cube_edge_propagate(lp, lq, lr, face_angles, reverse=False):
    """Propagate the three incoming edge lengths of a hexahedron through its
    front faces (or through the back faces with reverse=True; the two agree
    by the local Yang-Baxter identity)."""
    a1, a2, a3 = face_angles
    if reverse:
        m = x_qr(face_x(a3)) @ x_pr(face_x(a2)) @ x_pq(face_x(a1))
    else:
        m = x_pq(face_x(a1)) @ x_pr(face_x(a2)) @ x_qr(face_x(a3))
    out = m @ np.array([lp, lq, lr], dtype=complex)
    return tuple(float(v.real) for v in out)


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


def map_r123(t1: CircularTriple, t2: CircularTriple, t3: CircularTriple,
             eps: int = EPS_CLASSICAL):
    """Flip map on three circular triples; eps = +1 (circular branch) or -1.

    The triples may be scalars or equal-shaped stacks.  Real input maps in
    real mode, where a negative radicand is a DomainError; complex input
    takes the principal square roots."""
    if eps not in (1, -1):
        raise DomainError("eps must be +1 or -1")
    k1, a1, s1 = t1.k, t1.a, t1.a_star
    k2, a2, s2 = t2.k, t2.a, t2.a_star
    k3, a3, s3 = t3.k, t3.a, t3.a_star
    real = not _is_complex(k1, a1, s1, k2, a2, s2, k3, a3, s3)
    _guard(abs(k2) < 1e-14, SingularityError, "k2 = 0 makes the map singular")
    a2p = a1 * a3 + eps * k1 * k3 * a2
    s2p = s1 * s3 + eps * k1 * k3 * s2
    k2p = _constraint_sqrt(1.0 - a2p * s2p, real)
    _guard(abs(k2p) < 1e-14, SingularityError, "k2' = 0 after the flip")
    a1p = (k3 * a1 - eps * k1 * a2 * s3) / k2p
    s1p = (k3 * s1 - eps * k1 * s2 * a3) / k2p
    a3p = (k1 * a3 - eps * k3 * s1 * a2) / k2p
    s3p = (k1 * s3 - eps * k3 * a1 * s2) / k2p
    k1p = _constraint_sqrt(1.0 - a1p * s1p, real)
    k3p = _constraint_sqrt(1.0 - a3p * s3p, real)
    return (CircularTriple(k1p, a1p, s1p), CircularTriple(k2p, a2p, s2p),
            CircularTriple(k3p, a3p, s3p))


def _sample_triples(rng, n: int):
    """n triples from one draw of their 2n angles (alpha, beta, alpha, ...)
    in [0.2 pi, 0.45 pi), the values n pairs of scalar draws give."""
    angles = rng.uniform(0.2 * math.pi, 0.45 * math.pi, 2 * n).tolist()
    return [angles_to_circular(angles[i], angles[i + 1]) for i in range(0, 2 * n, 2)]


def sample_admissible_front(rng, eps=EPS_CLASSICAL):
    """Three triples for which one flip stays in the real domain, and their
    flip: (front, back)."""
    for _ in range(200):
        front = tuple(_sample_triples(rng, 3))
        try:
            return front, map_r123(*front, eps=eps)
        except (DomainError, SingularityError):
            continue
    raise DomainError("could not sample an admissible front state")


# ---------------------------------------------------------------------------
# functional tetrahedron equation
# ---------------------------------------------------------------------------

FTE_SEQUENCE = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))


def apply_flip_sequence(state, sequence, eps):
    state = list(state)
    for fid, (i, j, k) in enumerate(sequence):
        try:
            state[i], state[j], state[k] = map_r123(state[i], state[j], state[k], eps=eps)
        except (DomainError, SingularityError) as exc:
            raise DomainError("domain exit at flip %d on faces %s: %s"
                              % (fid, (i + 1, j + 1, k + 1), exc)) from exc
    return state


def state_difference(lhs, rhs) -> float:
    """Max component difference between two lists of triples."""
    return float(max(np.max(np.abs(a.as_array() - b.as_array())) for a, b in zip(lhs, rhs)))


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


def sample_admissible_six(rng, eps=EPS_CLASSICAL):
    """Six triples on which both four-flip orderings stay in the real domain,
    and those orderings: (state, lhs, rhs)."""
    for _ in range(500):
        state = _sample_triples(rng, 6)
        try:
            return (state, *fte_sides(state, eps))
        except DomainError:
            continue
    raise DomainError("could not sample an admissible six-face state")


# ---------------------------------------------------------------------------
# symplectic structure
# ---------------------------------------------------------------------------

def angle_map(angles6, eps=EPS_CLASSICAL):
    """The flip map in canonical angle coordinates (a1, b1, a2, b2, a3, b3),
    on one state (6,) or a stack (..., 6).  Real angles map in real mode,
    complex ones on the principal branch.  One state runs as a stack of
    one, so it equals its row of any stack bit for bit."""
    x = np.asarray(angles6)
    cols = x.reshape(-1, 6).T
    ts = [angles_to_circular(cols[2 * j], cols[2 * j + 1]) for j in range(3)]
    out = [c for t in map_r123(*ts, eps=eps) for c in circular_to_angles(t)]
    return np.stack(out, axis=-1).reshape(x.shape)


# one [[0, 1], [-1, 0]] block per face, on its (alpha, beta) pair
CANONICAL_OMEGA = np.diag([1.0, 0, 1, 0, 1], 1) - np.diag([1.0, 0, 1, 0, 1], -1)

# x and its shifts by +-2e-5 in every angle, on all of which a sampled
# symplectic state must map; this fixes which draws a seed accepts.  Its
# mapped angles stay _ANGLE_MARGIN from 0 and pi, where acos is singular.
_STENCIL = np.array([[0.0], [2e-5], [-2e-5]])
_ANGLE_MARGIN = 0.05

# the step of the complex-step derivative
COMPLEX_STEP = 1e-20


def sample_symplectic_state(rng):
    """Random angle state interior to the admissible domain.

    Keeps every mapped angle at least _ANGLE_MARGIN away from 0 and pi, and
    requires the map to evaluate on the stencil x, x + 2e-5, x - 2e-5 (one
    stacked call).
    """
    for _ in range(500):
        x = rng.uniform(0.22 * math.pi, 0.43 * math.pi, 6)
        try:
            y = angle_map(x + _STENCIL)[0]
        except (DomainError, SingularityError):
            continue
        if np.all((y > _ANGLE_MARGIN) & (y < math.pi - _ANGLE_MARGIN)):
            return x
    raise DomainError("could not sample a margin-interior symplectic state")


def jacobian(fn, x) -> np.ndarray:
    """Jacobian of fn at x by the complex step: column j is
    Im fn(x + i h e_j) / h with h = COMPLEX_STEP, all columns from one call
    of fn on the stack of the n shifted points.  fn must be analytic and
    take stacks (..., n).  No difference of nearby values is formed, so
    nothing cancels: the error is fn's own roundoff, and the h^2 term lies
    about 1e-40 below the derivative (Squire & Trapp, SIAM Rev. 40, 1998)."""
    x = np.asarray(x, dtype=float)
    return fn(x + 1j * COMPLEX_STEP * np.eye(len(x))).imag.T / COMPLEX_STEP


def symplectic_residual(angles6) -> float:
    """|| J Omega J^T - Omega ||_max with J the complex-step Jacobian of the
    angle map."""
    jac = jacobian(angle_map, angles6)
    return float(np.max(np.abs(jac @ CANONICAL_OMEGA @ jac.T - CANONICAL_OMEGA)))


def poisson_bracket_residuals(alpha: float, beta: float):
    """Brackets of (k, a, a*) in the chart {alpha, beta} = 1 from their complex-step
    Jacobian, compared with {a, a*} = 2k^2, {k, a} = k a, {k, a*} = -k a*."""
    def kas(x):
        t = angles_to_circular(x[..., 0], x[..., 1])
        return np.stack([t.k, t.a, t.a_star], axis=-1)

    d_al, d_be = jacobian(kas, [alpha, beta]).T
    bracket = lambda i, j: d_al[i] * d_be[j] - d_be[i] * d_al[j]
    k, a, s = kas(np.array([alpha, beta]))
    return (abs(bracket(1, 2) - 2 * k * k),
            abs(bracket(0, 1) - k * a),
            abs(bracket(0, 2) + k * s))


# ---------------------------------------------------------------------------
# covariant lattice evolution
# ---------------------------------------------------------------------------

PAIRS = tuple((i, j) for i in range(3) for j in range(3) if i != j)


def _complement(i, j):
    return 3 - i - j


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
        n1, n2, n3 = (b + 1 for b in box)
        for (i, j) in PAIRS:
            k = _complement(i, j)
            shape = [n1, n2, n3]
            shape[k] = 1
            vals = rng.uniform(-0.2, 0.2, size=tuple(shape))
            sl = [slice(None)] * 3
            sl[k] = 0
            f.a[(*sl, i, j)] = np.squeeze(vals, axis=k)
        return f

    def kk(self, s, i, j):
        prod = self.a[(*s, i, j)] * self.a[(*s, j, i)]
        r = 1.0 - prod
        if r < 0:
            raise DomainError("field left the real branch at site %s" % (s,))
        return math.sqrt(r)

    def value(self, s, i, j):
        return self.a[(*s, i, j)]


def covariant_evolve(field: CovariantField):
    """Sweep all cubes in anti-diagonal order, writing each component to its
    forward-shifted site.  Returns the field (filled in place)."""
    b1, b2, b3 = field.box
    cubes = sorted(np.ndindex(b1, b2, b3), key=sum)
    for s in cubes:
        covariant_step(field, s)
    return field


def covariant_step(field: CovariantField, s):
    """One cube update: for every ordered pair (i, j) with complement k,
    A_ij(s + e_k) = (A_ij - A_ik A_kj) / (K_ik K_kj) at s."""
    vals = field.a[(*s,)]
    if np.isnan(vals[~np.eye(3, dtype=bool)]).any():
        raise DomainError("cube %s has unset inputs" % (s,))
    for (i, j) in PAIRS:
        k = _complement(i, j)
        kik = field.kk(s, i, k)
        kkj = field.kk(s, k, j)
        if kik < 1e-13 or kkj < 1e-13:
            raise SingularityError("vanishing K at site %s, pair %s" % (s, (i, k, j)))
        target = list(s)
        target[k] += 1
        field.a[(*target, i, j)] = (vals[i, j] - vals[i, k] * vals[k, j]) / (kik * kkj)
    return field


def kk_relation_residual(field: CovariantField) -> float:
    """Max residual of K_ij(s+e_k) K_kj(s) = K_kj(s+e_i) K_ij(s) over all
    cubes and index permutations."""
    b1, b2, b3 = field.box
    worst = 0.0
    for s in np.ndindex(b1, b2, b3):
        for (i, j) in PAIRS:
            k = _complement(i, j)
            sk = list(s); sk[k] += 1
            si = list(s); si[i] += 1
            lhs = field.kk(tuple(sk), i, j) * field.kk(s, k, j)
            rhs = field.kk(tuple(si), k, j) * field.kk(s, i, j)
            worst = max(worst, abs(lhs - rhs))
    return worst


def cube_triples(field: CovariantField):
    """Front triples of every cube of the box, read off the evolved field:
    three stacks of the box's shape, indexed by the cube's site s."""
    b1, b2, b3 = field.box

    def triple(d2, i, j):  # (K_ij, A_ji, A_ij) at s + d2 e_2
        a = field.a[:b1, d2:d2 + b2, :b3]
        r = 1.0 - a[..., i, j] * a[..., j, i]
        _guard(r < 0, DomainError, "field left the real branch at K_%d%d of this cube"
               % (i, j))
        return CircularTriple(np.sqrt(r), a[..., j, i], a[..., i, j])

    return triple(0, 1, 2), triple(1, 0, 2), triple(0, 0, 1)


def covariant_vs_map_residual(field: CovariantField) -> float:
    """Per-cube agreement between the covariant update and the flip map,
    all cubes in one stacked map call."""
    b1, b2, b3 = field.box
    p1, p2, p3 = map_r123(*cube_triples(field), eps=EPS_CLASSICAL)
    a = field.a
    got = np.array([a[1:, :b2, :b3, 2, 1], a[1:, :b2, :b3, 1, 2],
                    a[:b1, :b2, :b3, 2, 0], a[:b1, :b2, :b3, 0, 2],
                    a[:b1, :b2, 1:, 1, 0], a[:b1, :b2, 1:, 0, 1]])
    want = np.array([p1.a, p1.a_star, p2.a, p2.a_star, p3.a, p3.a_star])
    return float(np.max(np.abs(got - want), initial=0.0))
