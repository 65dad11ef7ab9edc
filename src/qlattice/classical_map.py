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


# ---------------------------------------------------------------------------
# circular variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircularTriple:
    k: complex
    a: complex
    a_star: complex

    def constraint_residual(self) -> float:
        return abs(self.a * self.a_star - (1.0 - self.k * self.k))

    def as_array(self):
        return np.array([self.k, self.a, self.a_star])

    def is_real(self, tol=1e-12):
        return all(abs(complex(v).imag) < tol for v in (self.k, self.a, self.a_star))


def angles_to_circular(alpha: float, beta: float) -> CircularTriple:
    sa = math.sin(alpha)
    if abs(sa) < 1e-14:
        raise SingularityError("alpha = 0 mod pi has no circular variables")
    return CircularTriple(
        k=math.sin(beta) / sa,
        a=math.sin(alpha + beta) / sa,
        a_star=math.sin(alpha - beta) / sa)


def circular_to_angles(t: CircularTriple) -> tuple[float, float]:
    """Inverse transform: cos(alpha) = (a - a*)/(2k), cos(beta) = (a + a*)/2."""
    if abs(t.k) < 1e-14:
        raise SingularityError("k = 0 has no angle preimage")
    ca = (t.a - t.a_star) / (2.0 * t.k)
    cb = (t.a + t.a_star) / 2.0
    for name, c in (("alpha", ca), ("beta", cb)):
        if abs(complex(c).imag) > 1e-9 or not -1 - 1e-12 <= complex(c).real <= 1 + 1e-12:
            raise DomainError("no real %s for this triple (cos = %r)" % (name, c))
    clip = lambda x: min(1.0, max(-1.0, complex(x).real))
    return math.acos(clip(ca)), math.acos(clip(cb))


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


def edge_propagate(lp: float, lq: float, angles: FaceAngles) -> tuple[float, float]:
    out = propagation_matrix(angles) @ np.array([lp, lq], dtype=float)
    return float(out[0]), float(out[1])


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

def _constraint_sqrt(radicand: complex, real_mode: bool):
    if real_mode:
        r = complex(radicand).real
        if r < -1e-13:
            raise DomainError("negative radicand %r in real mode" % radicand)
        return math.sqrt(max(r, 0.0))
    return cmath.sqrt(radicand)


def map_r123(t1: CircularTriple, t2: CircularTriple, t3: CircularTriple,
             eps: int = EPS_CLASSICAL):
    """Flip map on three circular triples; eps = +1 (circular branch) or -1."""
    if eps not in (1, -1):
        raise DomainError("eps must be +1 or -1")
    real_mode = t1.is_real() and t2.is_real() and t3.is_real()
    if abs(t2.k) < 1e-14:
        raise SingularityError("k2 = 0 makes the map singular")
    k1, a1, s1 = t1.k, t1.a, t1.a_star
    k2, a2, s2 = t2.k, t2.a, t2.a_star
    k3, a3, s3 = t3.k, t3.a, t3.a_star
    a2p = a1 * a3 + eps * k1 * k3 * a2
    s2p = s1 * s3 + eps * k1 * k3 * s2
    k2p = _constraint_sqrt(1.0 - a2p * s2p, real_mode)
    if abs(k2p) < 1e-14:
        raise SingularityError("k2' = 0 after the flip")
    a1p = (k3 * a1 - eps * k1 * a2 * s3) / k2p
    s1p = (k3 * s1 - eps * k1 * s2 * a3) / k2p
    a3p = (k1 * a3 - eps * k3 * s1 * a2) / k2p
    s3p = (k1 * s3 - eps * k3 * a1 * s2) / k2p
    k1p = _constraint_sqrt(1.0 - a1p * s1p, real_mode)
    k3p = _constraint_sqrt(1.0 - a3p * s3p, real_mode)

    def clean(k, a, s):
        if real_mode:
            return CircularTriple(complex(k).real, complex(a).real, complex(s).real)
        return CircularTriple(k, a, s)

    return clean(k1p, a1p, s1p), clean(k2p, a2p, s2p), clean(k3p, a3p, s3p)


def sample_triple(rng, lo: float = 0.2 * math.pi, hi: float = 0.45 * math.pi) -> CircularTriple:
    return angles_to_circular(rng.uniform(lo, hi), rng.uniform(lo, hi))


def sample_admissible_front(rng, eps=EPS_CLASSICAL, max_tries=200):
    """Three triples for which one flip stays in the real domain."""
    for _ in range(max_tries):
        ts = tuple(sample_triple(rng) for _ in range(3))
        try:
            map_r123(*ts, eps=eps)
        except (DomainError, SingularityError):
            continue
        return ts
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


def functional_tetrahedron_residual(state, eps=EPS_CLASSICAL) -> float:
    """Max component difference between the two four-flip orderings
    (123)(145)(246)(356) and (356)(246)(145)(123)."""
    if len(state) != 6:
        raise DomainError("need six triples")
    lhs = apply_flip_sequence(state, FTE_SEQUENCE, eps)
    rhs = apply_flip_sequence(state, tuple(reversed(FTE_SEQUENCE)), eps)
    return float(max(np.max(np.abs(a.as_array() - b.as_array()))
                     for a, b in zip(lhs, rhs)))


def sample_admissible_six(rng, eps=EPS_CLASSICAL, max_tries=500):
    for _ in range(max_tries):
        state = [sample_triple(rng) for _ in range(6)]
        try:
            apply_flip_sequence(state, FTE_SEQUENCE, eps)
            apply_flip_sequence(state, tuple(reversed(FTE_SEQUENCE)), eps)
        except DomainError:
            continue
        return state
    raise DomainError("could not sample an admissible six-face state")


# ---------------------------------------------------------------------------
# symplectic structure
# ---------------------------------------------------------------------------

def angle_map(angles6, eps=EPS_CLASSICAL):
    """The flip map in canonical angle coordinates (a1, b1, a2, b2, a3, b3)."""
    ts = [angles_to_circular(angles6[2 * j], angles6[2 * j + 1]) for j in range(3)]
    out = map_r123(*ts, eps=eps)
    res = []
    for t in out:
        al, be = circular_to_angles(t)
        res.extend([al, be])
    return np.array(res)


CANONICAL_OMEGA = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def sample_symplectic_state(rng, eps=EPS_CLASSICAL, h: float = 1e-5,
                            margin: float = 0.05, max_tries: int = 500):
    """Random angle state interior to the admissible domain.

    Keeps every mapped angle at least `margin` away from 0 and pi (the acos
    chart is singular there, which would spoil the finite-difference
    Jacobian) and requires the map to evaluate on the whole stencil.
    """
    margin = max(margin, 20 * h)
    for _ in range(max_tries):
        x = rng.uniform(0.22 * math.pi, 0.43 * math.pi, 6)
        try:
            y = angle_map(x, eps)
            angle_map(x + 2 * h, eps)
            angle_map(x - 2 * h, eps)
        except (DomainError, SingularityError):
            continue
        if np.all((y > margin) & (y < math.pi - margin)):
            return x
    raise DomainError("could not sample a margin-interior symplectic state")


def jacobian(fn, x, h: float) -> np.ndarray:
    """Jacobian of fn at x: central differences at steps h and h/2, combined
    by Richardson extrapolation, (4 D(h/2) - D(h)) / 3, which cancels their
    h^2 truncation error.  Every evaluation lies within +-h of x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for dx in np.eye(len(x)) * h:
        wide = (fn(x + dx) - fn(x - dx)) / (2 * h)
        narrow = (fn(x + dx / 2) - fn(x - dx / 2)) / h
        cols.append((4 * narrow - wide) / 3)
    return np.column_stack(cols)


def symplectic_residual(angles6, eps=EPS_CLASSICAL, h: float = 1e-5) -> float:
    """|| J Omega J^T - Omega ||_max with J the extrapolated finite-difference
    Jacobian of the angle map."""
    jac = jacobian(lambda y: angle_map(y, eps), angles6, h)
    return float(np.max(np.abs(jac @ CANONICAL_OMEGA @ jac.T - CANONICAL_OMEGA)))


def poisson_bracket_residuals(alpha: float, beta: float, h: float = 1e-5):
    """Finite-difference brackets of (k, a, a*) in the chart {alpha, beta} = 1,
    compared with {a, a*} = 2k^2, {k, a} = k a, {k, a*} = -k a*."""
    def vals(al, be):
        t = angles_to_circular(al, be)
        return np.array([t.k, t.a, t.a_star], dtype=float)

    d_al = (vals(alpha + h, beta) - vals(alpha - h, beta)) / (2 * h)
    d_be = (vals(alpha, beta + h) - vals(alpha, beta - h)) / (2 * h)
    bracket = lambda i, j: d_al[i] * d_be[j] - d_be[i] * d_al[j]
    k, a, s = vals(alpha, beta)
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
    def random_boundary(cls, box, rng, amplitude=0.2):
        """Boundary data on the three s_k = 0 walls for the two components
        propagating in direction k."""
        f = cls.empty(box)
        n1, n2, n3 = (b + 1 for b in box)
        for (i, j) in PAIRS:
            k = _complement(i, j)
            shape = [n1, n2, n3]
            shape[k] = 1
            vals = rng.uniform(-amplitude, amplitude, size=tuple(shape))
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


def cube_triples(field: CovariantField, s):
    """Front triples of the cube at s, read off the evolved field."""
    s2 = list(s); s2[1] += 1
    t1 = CircularTriple(field.kk(s, 1, 2), field.value(s, 2, 1), field.value(s, 1, 2))
    t2 = CircularTriple(field.kk(tuple(s2), 2, 0), field.value(tuple(s2), 2, 0),
                        field.value(tuple(s2), 0, 2))
    t3 = CircularTriple(field.kk(s, 0, 1), field.value(s, 1, 0), field.value(s, 0, 1))
    return t1, t2, t3


def covariant_trajectory_csv(field: CovariantField, path: str):
    """Dump all set field values as CSV rows (s1, s2, s3, i, j, value)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s1", "s2", "s3", "i", "j", "value"])
        n1, n2, n3 = (b + 1 for b in field.box)
        for s in np.ndindex(n1, n2, n3):
            for (i, j) in PAIRS:
                v = field.a[(*s, i, j)]
                if not math.isnan(v):
                    writer.writerow([*s, i + 1, j + 1, repr(float(v))])


def covariant_vs_map_residual(field: CovariantField) -> float:
    """Per-cube agreement between the covariant update and the flip map."""
    b1, b2, b3 = field.box
    worst = 0.0
    for s in np.ndindex(b1, b2, b3):
        t1, t2, t3 = cube_triples(field, s)
        p1, p2, p3 = map_r123(t1, t2, t3, eps=EPS_CLASSICAL)
        s1 = list(s); s1[0] += 1
        s3 = list(s); s3[2] += 1
        got = np.array([
            field.value(tuple(s1), 2, 1), field.value(tuple(s1), 1, 2),
            field.value(s, 2, 0), field.value(s, 0, 2),
            field.value(tuple(s3), 1, 0), field.value(tuple(s3), 0, 1)])
        want = np.array([p1.a, p1.a_star, p2.a, p2.a_star, p3.a, p3.a_star])
        worst = max(worst, float(np.max(np.abs(got - want.real))))
    return worst
