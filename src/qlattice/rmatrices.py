"""The three R-matrix solutions of the tetrahedron equation and their
verification: the Fock-representation matrix with its exhaustive vertex-form
check, the cyclic (root-of-unity) matrix in vertex and
interaction-round-a-cube form, and the modular-double weight built on the
2Psi2 integral.

Index conventions: an element <n1 n2 n3|R|n1' n2' n3'> is stored with rows
labeled by (n1, n2, n3); charge conservation n1+n2 = n1'+n2' and
n2+n3 = n2'+n3' gates every element.  The vertex tetrahedron equation is

    sum_{m} R_{n1 n2 n3}^{m1 m2 m3} R_{m1 n4 n5}^{n1'' m4 m5}
            R_{m2 m4 n6}^{n2'' n4'' m6} R_{m3 m5 m6}^{n3'' n5'' n6''}
  = sum_{m} R_{n3 n5 n6}^{m3 m5 m6} R_{n2 n4 m6}^{m2 m4 n6''}
            R_{n1 m4 m5}^{m1 n4'' n5''} R_{m1 m2 m3}^{n1'' n2'' n3''},

whose internal sums collapse to one free index once the charge deltas are
solved; the ranges are derived (and asserted) from nonnegativity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DegeneracyError, DomainError
from . import specfun as sf

ZERO_FLOOR = 1e-14


def _rel_residual(lhs: complex, rhs: complex) -> float:
    if abs(lhs) < ZERO_FLOOR and abs(rhs) < ZERO_FLOOR:
        return 0.0
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


# ---------------------------------------------------------------------------
# Fock solution
# ---------------------------------------------------------------------------

def fock_element(n1: int, n2: int, n3: int, m1: int, m2: int, m3: int, q):
    """<n1 n2 n3|R|m1 m2 m3> for the Fock solution, in the number type of q.

    The charge-gated value is (-1)^{n2} q^{(m1-n2)(m3-n2)} times a
    terminating q-hypergeometric sum; the binomial prefactor and the series
    are combined into a single manifestly finite sum so that index
    collisions (where the series alone hits a zero denominator against a
    vanishing binomial) evaluate correctly.
    """
    if min(n1, n2, n3, m1, m2, m3) < 0:
        return 0.0
    if n1 + n2 != m1 + m2 or n2 + n3 != m2 + m3:
        return 0.0
    qsq = q * q
    pref = (-1) ** n2 * q ** ((m1 - n2) * (m3 - n2))
    # sum_t (q^{-2 m2}; q^2)_t (q^{2(1+m3)}; q^2)_t q^{2(1+n1) t}
    #       (q^2;q^2)_{n3} / [(q^2;q^2)_t (q^2;q^2)_{m2} (q^2;q^2)_{n3-m2+t}]
    total = 0
    for t in range(max(0, m2 - n3), m2 + 1):
        num = (sf.qpochhammer(q ** (-2 * m2), qsq, t)
               * sf.qpochhammer(q ** (2 * (1 + m3)), qsq, t)
               * q ** (2 * (1 + n1) * t))
        den = (sf.qpochhammer(qsq, qsq, t) * sf.qpochhammer(qsq, qsq, m2)
               * sf.qpochhammer(qsq, qsq, n3 - m2 + t))
        total += num * sf.qpochhammer(qsq, qsq, n3) / den
    return pref * total


# The tetrahedron-equation sums cancel strongly (both sides can be many
# orders below the size of individual terms), so double precision cannot
# reach relative residuals near 1e-12 even though every element is an exact
# finite sum.  The checks therefore evaluate in software floats; elements
# are memoized per deformation parameter.
_MP_DPS = 50


@lru_cache(maxsize=None)
def fock_element_mp(n1: int, n2: int, n3: int, m1: int, m2: int, m3: int, q):
    """fock_element at _MP_DPS digits for a plain (double) q.

    Only this 50-digit entry point is cached: an untyped lru_cache keys
    q = 0.3 and mpf(0.3) alike, so a cache shared with the double path could
    hand one path the other's values.
    """
    import mpmath as mp

    with mp.workdps(_MP_DPS):
        return fock_element(n1, n2, n3, m1, m2, m3, mp.mpmathify(q))


def fock_r_dense(cutoff: int, q: complex) -> np.ndarray:
    """Dense (cutoff+1)^3 matrix of Fock elements, rows = bra index."""
    d = cutoff + 1
    out = np.zeros((d ** 3, d ** 3), dtype=complex)
    for n1 in range(d):
        for n2 in range(d):
            for n3 in range(d):
                row = (n1 * d + n2) * d + n3
                c1, c2 = n1 + n2, n2 + n3
                for m2 in range(d):
                    m1, m3 = c1 - m2, c2 - m2
                    if 0 <= m1 < d and 0 <= m3 < d:
                        col = (m1 * d + m2) * d + m3
                        out[row, col] = fock_element(n1, n2, n3, m1, m2, m3, q)
    return out


def _te_sides(ext, q, element):
    """LHS and RHS of the vertex tetrahedron equation at one external tuple.

    ext = (n1..n6, n1''..n6'').  Each side is a single sum over the one
    internal index left free by the eight charge deltas; the loop range is
    exactly the nonnegativity window of the solved internal indices, so no
    truncation is involved.
    """
    n1, n2, n3, n4, n5, n6, p1, p2, p3, p4, p5, p6 = ext
    lhs = None
    lo = max(0, n1 - n3, p1 - n4, p1 + p4 - n4 - n6)
    hi = min(n1 + n2, n5 + p1)
    for i1 in range(lo, hi + 1):
        i2 = n1 + n2 - i1
        i3 = n3 - n1 + i1
        i4 = i1 + n4 - p1
        i5 = n5 - i1 + p1
        i6 = i4 + n6 - p4
        if min(i2, i3, i4, i5, i6) < 0:
            continue
        term = (element(n1, n2, n3, i1, i2, i3, q)
                * element(i1, n4, n5, p1, i4, i5, q)
                * element(i2, i4, n6, p2, p4, i6, q)
                * element(i3, i5, i6, p3, p5, p6, q))
        lhs = term if lhs is None else lhs + term
    rhs = None
    lo = max(0, n3 - n6, n3 + p6 - n4 - n6, n3 + p6 - n6 - n1 + p4 - n4)
    hi = n3 + n5
    for i3 in range(lo, hi + 1):
        i5 = n3 + n5 - i3
        i6 = n6 - n3 + i3
        i4 = n4 + i6 - p6
        i2 = n2 + n4 - i4
        i1 = n1 + i4 - p4
        if min(i1, i2, i4, i5, i6) < 0:
            continue
        term = (element(n3, n5, n6, i3, i5, i6, q)
                * element(n2, n4, i6, i2, i4, p6, q)
                * element(n1, i4, i5, i1, p4, p5, q)
                * element(i1, i2, i3, p1, p2, p3, q))
        rhs = term if rhs is None else rhs + term
    zero = 0.0 + 0.0j
    return (zero if lhs is None else lhs), (zero if rhs is None else rhs)


def fock_te_residual(ext, q) -> float:
    """Relative residual of the vertex tetrahedron equation at one external
    tuple, summed at _MP_DPS digits."""
    import mpmath as mp

    with mp.workdps(_MP_DPS):
        lhs, rhs = _te_sides(ext, q, fock_element_mp)
        num = abs(lhs - rhs)
        den = abs(lhs) + abs(rhs)
        if num < ZERO_FLOOR and den < ZERO_FLOOR:
            return 0.0
        return float(num / (den + mp.mpf("1e-300")))


def fock_te_consistent(ext) -> bool:
    """Charge consistency of an external tuple; when False both sides vanish."""
    n1, n2, n3, n4, n5, n6, p1, p2, p3, p4, p5, p6 = ext
    return (n1 + n2 + n4 == p1 + p2 + p4
            and n3 + n5 + p1 == n1 + p3 + p5
            and n4 + n5 + n6 == p4 + p5 + p6)


# ---------------------------------------------------------------------------
# dihedral angles of a tetrahedron from four plane normals
# ---------------------------------------------------------------------------

LINE_PAIRS = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
VERTEX_TRIPLES = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))


@dataclass(frozen=True)
class TetraAngles:
    """Inner dihedral angles theta_1..theta_6 of a Euclidean tetrahedron,
    labeled by the plane pairs {12},{13},{23},{14},{24},{34}; the four
    vertices then carry the line triples {123},{145},{246},{356}."""

    normals: tuple
    thetas: tuple

    def angle_arguments(self):
        """The four angle triples parametrizing R123, R145, R246, R356."""
        t = self.thetas
        pi = math.pi
        return ((t[0], t[1], t[2]),
                (t[0], pi - t[3], pi - t[4]),
                (pi - t[1], pi - t[3], t[5]),
                (t[2], t[4], t[5]))


def tetra_angles_from_normals(normals) -> TetraAngles:
    ns = [np.asarray(n, dtype=float) for n in normals]
    if len(ns) != 4:
        raise DomainError("need four normals")
    ns = [n / np.linalg.norm(n) for n in ns]
    thetas = []
    for i, j in LINE_PAIRS:
        c = float(ns[i] @ ns[j])
        if abs(c) > 1.0 - 1e-6:
            raise DegeneracyError("normals %d and %d are nearly parallel" % (i, j))
        thetas.append(math.acos(-c))
    return TetraAngles(tuple(map(tuple, ns)), tuple(thetas))


def outward_normals(vertices) -> list:
    """Outward unit normals of a tetrahedron's faces, face j opposite
    vertex j."""
    v = np.asarray(vertices, dtype=float)
    centroid = v.mean(axis=0)
    normals = []
    for j in range(4):
        others = [v[i] for i in range(4) if i != j]
        n = np.cross(others[1] - others[0], others[2] - others[0])
        nn = np.linalg.norm(n)
        if nn < 1e-12:
            raise DegeneracyError("degenerate face %d" % j)
        n /= nn
        if (centroid - others[0]) @ n > 0:
            n = -n
        normals.append(n)
    return normals


def random_tetra_angles(rng, margin: float = 0.15, max_tries: int = 500) -> TetraAngles:
    """Dihedral angle data of a random well-conditioned tetrahedron.

    Sampling arbitrary unit vectors is not enough: the four normals must be
    outward normals of an actual tetrahedron (they positively span space),
    otherwise the angle set lies outside the admissible five-parameter
    family.  Vertices are sampled instead and the normals derived.
    """
    for _ in range(max_tries):
        v = rng.normal(size=(4, 3))
        if abs(np.linalg.det(v[1:] - v[0])) < 0.3:
            continue
        try:
            ta = tetra_angles_from_normals(outward_normals(v))
        except DegeneracyError:
            continue
        if any(not (margin < t < math.pi - margin) for t in ta.thetas):
            continue
        try:
            for args in ta.angle_arguments():
                sf.spherical_sides_from_angles(*args)
        except DomainError:
            continue
        return ta
    raise DegeneracyError("failed to sample a tetrahedron")


# ---------------------------------------------------------------------------
# cyclic solution: vertex form
# ---------------------------------------------------------------------------

@dataclass
class CyclicRData:
    """Fermat points and cached cyclic-dilogarithm tables for one weight."""

    N: int
    points: tuple

    def __post_init__(self):
        self.tables = tuple(sf.fermat_phi_table(p) for p in self.points)

    @classmethod
    def from_triangle(cls, tri: sf.SphericalTriangle, N: int) -> "CyclicRData":
        return cls(N, sf.fermat_points_from_triangle(tri, N))

    @classmethod
    def from_angles(cls, theta1, theta2, theta3, N) -> "CyclicRData":
        return cls.from_triangle(sf.spherical_sides_from_angles(theta1, theta2, theta3), N)


def cyclic_vertex_element(n, m, data: CyclicRData) -> complex:
    """<n1 n2 n3|R|m1 m2 m3> of the cyclic solution.

    Indices are integers (reduction mod N happens inside the dilogarithm
    tables and the charge deltas); for odd N the value itself is invariant
    under index shifts by N.
    """
    N = data.N
    n1, n2, n3 = n
    m1, m2, m3 = m
    if (n1 + n2 - m1 - m2) % N or (n2 + n3 - m2 - m3) % N:
        return 0.0
    t1, t2, t3, t4 = data.tables
    pref = sf.q_power(N, n1 * n3 - m2 * (n1 + n3))
    total = 0.0 + 0.0j
    for t in range(N):
        total += (sf.q_power(N, -2 * t * m2)
                  * t1[(t + n1 + m3) % N] * t2[t % N]
                  / (t3[(t + n1) % N] * t4[(t + n3) % N]))
    return pref * total


def cyclic_r_tensor(data: CyclicRData) -> np.ndarray:
    """Dense rank-6 tensor R[n1,n2,n3,m1,m2,m3] over Z_N; only the N^4
    charge-allowed entries (m1 + m2 = n1 + n2, m2 + m3 = n2 + n3 mod N) are
    evaluated."""
    N = data.N
    out = np.zeros((N,) * 6, dtype=complex)
    for n in np.ndindex(N, N, N):
        for m2 in range(N):
            m = ((n[0] + n[1] - m2) % N, m2, (n[1] + n[2] - m2) % N)
            out[n + m] = cyclic_vertex_element(n, m, data)
    return out


def cyclic_r_dense(data: CyclicRData) -> np.ndarray:
    N = data.N
    return cyclic_r_tensor(data).reshape(N ** 3, N ** 3)


def vertex_te_residual(ext, datasets) -> float:
    """Vertex tetrahedron equation for the cyclic solution at one external
    tuple; datasets = (d123, d145, d246, d356).  Internal sums run over all
    of Z_N^6 restricted by the charge deltas (the elements gate themselves);
    the one-free-index reduction used for the Fock case does not apply at a
    root of unity, where the deltas only fix indices mod N."""
    d123, d145, d246, d356 = datasets
    N = d123.N
    n1, n2, n3, n4, n5, n6, p1, p2, p3, p4, p5, p6 = ext
    lhs = 0.0 + 0.0j
    rhs = 0.0 + 0.0j
    # mod-N delta solving: i2, i3 determined by i1 mod N etc.; iterate the
    # three genuinely free residues
    for i1 in range(N):
        i2 = (n1 + n2 - i1) % N
        i3 = (n3 - n1 + i1) % N
        i4 = (i1 + n4 - p1) % N
        i5 = (n5 - i1 + p1) % N
        i6 = (i4 + n6 - p4) % N
        lhs += (cyclic_vertex_element((n1, n2, n3), (i1, i2, i3), d123)
                * cyclic_vertex_element((i1, n4, n5), (p1, i4, i5), d145)
                * cyclic_vertex_element((i2, i4, n6), (p2, p4, i6), d246)
                * cyclic_vertex_element((i3, i5, i6), (p3, p5, p6), d356))
        j3 = i1
        j5 = (n3 + n5 - j3) % N
        j6 = (n6 - n3 + j3) % N
        j4 = (n4 + j6 - p6) % N
        j2 = (n2 + n4 - j4) % N
        j1 = (n1 + j4 - p4) % N
        rhs += (cyclic_vertex_element((n3, n5, n6), (j3, j5, j6), d356)
                * cyclic_vertex_element((n2, n4, j6), (j2, j4, p6), d246)
                * cyclic_vertex_element((n1, j4, j5), (j1, p4, p5), d145)
                * cyclic_vertex_element((j1, j2, j3), (p1, p2, p3), d123))
    return _rel_residual(lhs, rhs)


# ---------------------------------------------------------------------------
# cyclic solution: interaction-round-a-cube form
# ---------------------------------------------------------------------------

def cyclic_weight_table(data: CyclicRData) -> np.ndarray:
    """W[a,e,f,g,b,c,d,h] = sum_n q^{2n(b+d-f-h)}
    phi1(n-h+c) phi2(n-f+a) / (phi3(n-b+g) phi4(n-d+e))."""
    N = data.N
    t1, t2, t3, t4 = data.tables
    q2 = np.array([sf.q_power(N, 2 * e) for e in range(N)])
    idx = np.indices((N,) * 8)
    a, e, f, g, b, c, d, h = idx
    out = np.zeros((N,) * 8, dtype=complex)
    for n in range(N):
        phase = q2[(n * (b + d - f - h)) % N]
        out += (phase * t1[(n - h + c) % N] * t2[(n - f + a) % N]
                / (t3[(n - b + g) % N] * t4[(n - d + e) % N]))
    return out


# the two sides of the interaction-round-a-cube tetrahedron equation: slots
# of (W, W', W'', W''') as functions of the 14 external labels and the
# summed/integrated label z
IRC_LHS_SLOTS = (
    ("a4", "c1", "c3", "c2", "b3", "b2", "b1", "z"),
    ("c1", "a3", "b1", "b2", "z", "c6", "c4", "b4"),
    ("b1", "c4", "c3", "z", "b3", "b4", "a2", "c5"),
    ("z", "b4", "b3", "b2", "c2", "c6", "c5", "a1"),
)
IRC_RHS_SLOTS = (
    ("b1", "c4", "c3", "c1", "a4", "a3", "a2", "z"),
    ("c1", "a3", "a4", "b2", "c2", "c6", "z", "a1"),
    ("a4", "z", "c3", "c2", "b3", "a1", "a2", "c5"),
    ("z", "a3", "a2", "a1", "c5", "c6", "c4", "b4"),
)
# order in which the four weight functions appear in the two slot lists
IRC_LHS_WEIGHTS = (0, 1, 2, 3)
IRC_RHS_WEIGHTS = (3, 2, 1, 0)

EXTERNAL_LABELS = ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4",
                   "c1", "c2", "c3", "c4", "c5", "c6")


def irc_te_residual_cyclic(tables, ext: dict) -> float:
    """Relative residual of the IRC tetrahedron equation, cyclic case.

    tables = (W, W', W'', W''') as N^8 arrays; ext maps the 14 external
    labels to spins in Z_N; the internal label z is summed over Z_N.
    """
    N = tables[0].shape[0]
    sides = []
    for slots, order in ((IRC_LHS_SLOTS, IRC_LHS_WEIGHTS), (IRC_RHS_SLOTS, IRC_RHS_WEIGHTS)):
        total = 0.0 + 0.0j
        for z in range(N):
            env = dict(ext, z=z)
            term = 1.0 + 0.0j
            for widx, slot in zip(order, slots):
                term *= tables[widx][tuple(env[s] % N for s in slot)]
            total += term
        sides.append(total)
    return _rel_residual(*sides)


def cyclic_weights_for_tetra(ta: TetraAngles, N: int):
    """The four IRC weight tables attached to a tetrahedron's angle data."""
    return tuple(cyclic_weight_table(CyclicRData.from_angles(*args, N))
                 for args in ta.angle_arguments())


def cross_form_residual(data: CyclicRData, spins: dict) -> tuple[float, complex]:
    """Compare the IRC weight with the vertex element under the corner-spin
    substitution, returning (residual, equivalence factor).

    The two forms differ by the exact factor q^{m2 (e+g-b-d) - n1 n3}
    (an equivalence transformation; derived by re-indexing the internal sum
    and verified exhaustively in the tests)."""
    N = data.N
    a, e, f, g = spins["a"], spins["e"], spins["f"], spins["g"]
    b, c, d, h = spins["b"], spins["c"], spins["d"], spins["h"]
    n = (g + f - a - b, a + c - e - g, e + f - a - d)
    m = (c + d - e - h, f + h - b - d, b + c - g - h)
    w = cyclic_weight_table(data)[a % N, e % N, f % N, g % N, b % N, c % N, d % N, h % N]
    r = cyclic_vertex_element(n, m, data)
    factor = sf.q_power(N, m[1] * (e + g - b - d) - n[0] * n[2])
    return _rel_residual(w, factor * r), factor


def cross_form_sector_scalars(data: CyclicRData):
    """Fit one scalar per conserved-charge sector between the two forms.

    Returns {(c1, c2): (scalar, max residual after fitting)} over all spin
    assignments; the residual reported for a sector is relative to the
    largest element in it.
    """
    N = data.N
    table = cyclic_weight_table(data)
    sectors = {}
    for spins in np.ndindex(*(N,) * 8):
        a, e, f, g, b, c, d, h = spins
        n = (g + f - a - b, a + c - e - g, e + f - a - d)
        m = (c + d - e - h, f + h - b - d, b + c - g - h)
        key = ((n[0] + n[1]) % N, (n[1] + n[2]) % N)
        w = table[spins]
        r = cyclic_vertex_element(n, m, data)
        sectors.setdefault(key, []).append((w, r))
    out = {}
    for key, pairs in sectors.items():
        num = sum(w * np.conj(r) for w, r in pairs)
        den = sum(abs(r) ** 2 for _, r in pairs)
        scalar = num / den if den > 0 else 0.0
        scale = max(max(abs(w) for w, _ in pairs), 1e-300)
        resid = max(abs(w - scalar * r) for w, r in pairs) / scale
        out[key] = (scalar, resid)
    return out


# ---------------------------------------------------------------------------
# modular solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModularWeightSpec:
    """One IRC weight of the modular solution: spectral parameters T1..T3
    and external-field parameters f1..f3."""

    mp: sf.ModularParam
    t: tuple = (0.0, 0.0, 0.0)
    f: tuple = (0.0, 0.0, 0.0)


def sigma_map(spins, t):
    """Edge variables (sigma1..3, sigma1'..3') from the eight corner spins
    (a|e,f,g|b,c,d|h) and the spectral parameters."""
    a, e, f, g, b, c, d, h = (np.asarray(x) for x in spins)
    t1, t2, t3 = t
    s1 = g + f - a - b - t1
    s2 = a + c - e - g + t2
    s3 = e + f - a - d - t3
    s1p = c + d - e - h - t1
    s2p = f + h - b - d + t2
    s3p = b + c - g - h - t3
    return (s1, s2, s3), (s1p, s2p, s3p)


def irc_weight_modular(spec: ModularWeightSpec, spins, tol: float = 1e-9):
    """Boltzmann weight for arrays of corner spins (batched over z-grids).

    Value = exp(sum f_j (sigma_j + sigma_j'))
          * exp(i pi (s1' s3' + i eta (s1' + s3' - s2)))
          * 2Psi2(s1 - s3, s3 - s1; s1 + s3, -s1' - s3'; s2).
    """
    (s1, s2, s3), (s1p, s2p, s3p) = sigma_map(spins, spec.t)
    eta = spec.mp.eta
    pref = np.exp(1j * np.pi * (s1p * s3p + 1j * eta * (s1p + s3p - s2)))
    psi = sf.psi22_quadrature_batch(s1 - s3, s3 - s1, s1 + s3, -s1p - s3p, s2,
                                    spec.mp, tol=tol)
    field = np.exp(spec.f[0] * (s1 + s1p) + spec.f[1] * (s2 + s2p) + spec.f[2] * (s3 + s3p))
    return field * pref * psi


def spectral_sets_from_free(free):
    """(T, T', T'', T''') from six free parameters (T1, T2, T3, T2', T3', T3'')."""
    t1, t2, t3, t2p, t3p, t3pp = free
    return ((t1, t2, t3), (t1, t2p, t3p), (-t2, t2p, t3pp), (t3, -t3p, t3pp))


def field_sets_from_free(free):
    """(f, f', f'', f''') from eight free field parameters
    (f1, f2, f3, f1', f2', f3', f1'', f2'')."""
    f1, f2, f3, f1p, f2p, f3p, f1pp, f2pp = free
    return ((f1, f2, f3), (f1p, f2p, f3p), (f1pp, f2pp, f3p - f3),
            (f1pp - f1p, f2pp + f1, f2 - f2p))


def spectral_tshki_residual(sets) -> float:
    """Exactness of the spectral-parameter constraints for a four-weight set."""
    t, tp, tpp, tppp = sets
    checks = (tp[0] - t[0], tpp[0] + t[1], tppp[0] - t[2],
              tpp[1] - tp[1], tppp[1] + tp[2], tppp[2] - tpp[2])
    return float(max(abs(c) for c in checks))


def field_ashki_residual(sets) -> float:
    f, fp, fpp, fppp = sets
    checks = (fpp[2] - (fp[2] - f[2]), fppp[0] - (fpp[0] - fp[0]),
              fppp[1] - (fpp[1] + f[0]), fppp[2] - (f[1] - fp[1]))
    return float(max(abs(c) for c in checks))


def field_exponent_balance(t_sets, f_sets, rng, trials: int = 20) -> float:
    """Numerical check that the total field exponent matches between the two
    sides of the IRC equation and is z-independent on each side."""
    worst = 0.0
    for _ in range(trials):
        ext = {k: rng.uniform(-1, 1) for k in EXTERNAL_LABELS}
        vals = []
        for zval in (rng.uniform(-1, 1), rng.uniform(-1, 1)):
            env = dict(ext, z=zval)
            for slots, order in ((IRC_LHS_SLOTS, IRC_LHS_WEIGHTS),
                                 (IRC_RHS_SLOTS, IRC_RHS_WEIGHTS)):
                total = 0.0
                for widx, slot in zip(order, slots):
                    spins = [env[s] for s in slot]
                    (s1, s2, s3), (s1p, s2p, s3p) = sigma_map(spins, t_sets[widx])
                    fj = f_sets[widx]
                    total += fj[0] * (s1 + s1p) + fj[1] * (s2 + s2p) + fj[2] * (s3 + s3p)
                vals.append(total)
        worst = max(worst, max(vals) - min(vals))
    return worst


def irc_te_residual_modular(specs, ext: dict, tol: float = 1e-6,
                            z_half_width: float = 4.0, max_nodes: int = 2048) -> float:
    """Relative residual of the IRC tetrahedron equation with a real
    z-integration, modular case.

    specs = (W, W', W'', W''') weight specs whose T's must satisfy the
    constraint chain.  The integration window grows until the integrand has
    decayed and the node count doubles until both sides stabilize.
    """
    t_res = spectral_tshki_residual(tuple(s.t for s in specs))
    if t_res > 1e-12:
        raise DomainError("spectral parameters violate the constraint chain "
                          "(residual %.2e)" % t_res)

    def side(slots, order, z):
        total = np.ones_like(z, dtype=complex)
        for widx, slot in zip(order, slots):
            env = dict(ext, z=z)
            spins = [np.broadcast_to(np.asarray(env[s], dtype=float), z.shape)
                     for s in slot]
            total = total * irc_weight_modular(specs[widx], spins, tol=tol * 1e-2)
        return total

    half = z_half_width
    n = 128
    prev = None
    diff = None  # last relative change between successive node counts
    for _ in range(10):
        nodes, weights = sf.gauss_legendre(n)
        z = half * nodes
        lv = side(IRC_LHS_SLOTS, IRC_LHS_WEIGHTS, z)
        rv = side(IRC_RHS_SLOTS, IRC_RHS_WEIGHTS, z)
        lhs = half * (weights @ lv)
        rhs = half * (weights @ rv)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        edges = np.array([-half, half])
        tail = max(np.max(np.abs(side(IRC_LHS_SLOTS, IRC_LHS_WEIGHTS, edges))),
                   np.max(np.abs(side(IRC_RHS_SLOTS, IRC_RHS_WEIGHTS, edges))))
        if tail * half > 1e-8 * scale:
            half *= 1.4
            prev = diff = None
            continue
        if prev is not None:
            dl, dr = abs(lhs - prev[0]), abs(rhs - prev[1])
            if dl < tol * scale and dr < tol * scale:
                return _rel_residual(lhs, rhs)
            diff = float(max(dl, dr) / scale)
        prev = (lhs, rhs)
        n *= 2
        if n > max_nodes:
            raise AccuracyError(
                "z-integration did not stabilize at the node cap max_nodes=%d "
                "(window [-%.4g, %.4g])" % (max_nodes, half, half), achieved=diff)
    raise AccuracyError(
        "z-integration window kept growing: 10 rounds, final window "
        "[-%.4g, %.4g] at %d nodes (max_nodes=%d)" % (half, half, n, max_nodes),
        achieved=diff)


# ---------------------------------------------------------------------------
# modular vertex element (distributional descriptor)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModularVertexElement:
    """Delta-constraint descriptors plus the smooth factor of the modular
    vertex R-matrix element at real edge variables."""

    charge_defects: tuple  # (s1+s2-s1'-s2', s2+s3-s2'-s3'): deltas live here
    smooth: complex


def modular_vertex_element(sigma, sigma_p, mp: sf.ModularParam,
                           tol: float = 1e-9) -> ModularVertexElement:
    s1, s2, s3 = sigma
    s1p, s2p, s3p = sigma_p
    defects = (s1 + s2 - s1p - s2p, s2 + s3 - s2p - s3p)
    pref = cmath.exp(1j * math.pi * (s1p * s3p + 1j * mp.eta * (s1p + s3p - s2)))
    psi = sf.psi22(s1 - s3, s3 - s1, s1 + s3, -s1p - s3p, s2, mp,
                   method="quadrature", tol=tol)
    return ModularVertexElement(defects, pref * psi)
