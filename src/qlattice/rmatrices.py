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
solved; the ranges are exactly the nonnegativity windows of the solved indices.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, lru_cache

import numpy as np

from .errors import AccuracyError, DegeneracyError, DomainError
from . import specfun as sf

ZERO_FLOOR = 1e-14
_TINY = 1e-300  # keeps the denominator nonzero where both sides vanish
_THETA_MARGIN = 0.15  # sampled dihedral angles stay this far from 0 and pi


def in_mp_context(fn):
    """fn run in the 50-digit context _MP_CTX: every Decimal operation it
    makes (abs and unary minus too) rounds there, whatever context the
    calling thread holds.  Other number types are not affected."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with decimal.localcontext(_MP_CTX):
            return fn(*args, **kwargs)
    return wrapper


def _rel_residual(lhs, rhs):
    """|lhs - rhs| / (|lhs| + |rhs|), and 0 where both sides are below
    ZERO_FLOOR; elementwise on arrays, in the sides' number type.  Object
    arrays (the 50-digit sums) meet ZERO_FLOOR and _TINY as Decimals made
    once, since a Decimal takes no float operand; their callers run in
    _MP_CTX (in_mp_context)."""
    lhs_abs, rhs_abs = abs(lhs), abs(rhs)
    floor, tiny = _MP_GUARDS if np.asarray(lhs_abs).dtype == object else (ZERO_FLOOR, _TINY)
    res = abs(lhs - rhs) / (lhs_abs + rhs_abs + tiny)
    return np.where((lhs_abs < floor) & (rhs_abs < floor), 0.0, res)[()]


# ---------------------------------------------------------------------------
# Fock solution
# ---------------------------------------------------------------------------

def fock_charge_allowed(n1: int, n2: int, n3: int, m1: int, m2: int, m3: int) -> bool:
    """The charge deltas n1+n2 = m1+m2 and n2+n3 = m2+m3 that gate every element."""
    return n1 + n2 == m1 + m2 and n2 + n3 == m2 + m3


def charge_pairs(d: int) -> np.ndarray:
    """The (6, d^4) rows (n1, n2, n3, m1, m2, m3) with n in [0, d)^3, m1 in
    [0, d), m2 = n1 + n2 - m1 and m3 = n2 + n3 - m2: every (n, m) of a charge
    sector, ordered by n and then by m1, so by flat (row, col) wherever m
    lies in [0, d).  m2 and m3 may leave that range; each R applies its own
    rule (the Fock R drops them, the cyclic R reduces them mod N)."""
    n1, n2, n3, m1 = np.indices((d,) * 4).reshape(4, -1)
    m2 = n1 + n2 - m1
    return np.stack([n1, n2, n3, m1, m2, n2 + n3 - m2])


class _FockFactors:
    """The factors of _fock_terms that depend on q alone, each formed on
    first use and kept: powers of q, prefix lists of (q^2; q^2),
    (q^{-2 m2}; q^2) and (q^{2(1+m3)}; q^2), and the products lo_hi and den
    that every term of an element reuses.  Each comes from the operations,
    on the operands, that one element's sum would form it by, so an element
    summed over a shared table equals one summed over a fresh table to the
    last digit, as long as a Decimal q's table is used in one context."""

    def __init__(self, q):
        self.q, self.qsq = q, q * q
        self._powers, self._prefixes, self._lo_hi, self._den = {}, {}, {}, {}

    def power(self, k: int):
        """q ** k."""
        if k not in self._powers:
            self._powers[k] = self.q ** k
        return self._powers[k]

    def prefixes(self, key, x, n: int) -> list:
        """At least [(x; q^2)_0 .. (x; q^2)_n], kept under key.  A running
        product's entries do not depend on its length, so a longer list
        replaces a shorter one."""
        if key not in self._prefixes or len(self._prefixes[key]) <= n:
            self._prefixes[key] = sf.qpochhammer_prefixes(x, self.qsq, n)
        return self._prefixes[key]

    def qq(self, n: int) -> list:
        """At least [(q^2; q^2)_0 .. (q^2; q^2)_n]."""
        return self.prefixes("qq", self.qsq, n)

    def lo_hi(self, m2: int, m3: int) -> list:
        """[(q^{-2 m2}; q^2)_t (q^{2(1+m3)}; q^2)_t for t = 0 .. m2]."""
        key = (m2, m3)
        if key not in self._lo_hi:
            lo = self.prefixes(("lo", m2), self.power(-2 * m2), m2)
            hi = self.prefixes(("hi", m3), self.power(2 * (1 + m3)), m2)
            self._lo_hi[key] = [a * b for a, b in zip(lo, hi)]
        return self._lo_hi[key]

    def den(self, m2: int, n3: int) -> list:
        """[(q^2;q^2)_t (q^2;q^2)_{m2} (q^2;q^2)_{n3-m2+t} for t =
        max(0, m2 - n3) .. m2]."""
        key = (m2, n3)
        if key not in self._den:
            qq = self.qq(max(m2, n3))
            self._den[key] = [qq[t] * qq[m2] * qq[n3 - m2 + t]
                              for t in range(max(0, m2 - n3), m2 + 1)]
        return self._den[key]


def _fock_terms(n1: int, n2: int, n3: int, m1: int, m2: int, m3: int, table: _FockFactors):
    """(prefactor, terms) of <n1 n2 n3|R|m1 m2 m3> for the Fock solution, in
    the number type of table's q; a gated element has the prefactor 0 and no
    term.

    The charge-gated value is (-1)^{n2} q^{(m1-n2)(m3-n2)} times a
    terminating q-hypergeometric sum; the binomial prefactor and the series
    are combined into a single manifestly finite sum so that index
    collisions (where the series alone hits a zero denominator against a
    vanishing binomial) evaluate correctly.
    """
    if min(n1, n2, n3, m1, m2, m3) < 0 or not fock_charge_allowed(n1, n2, n3, m1, m2, m3):
        return 0, []
    pref = (-1) ** n2 * table.power((m1 - n2) * (m3 - n2))
    # sum_t (q^{-2 m2}; q^2)_t (q^{2(1+m3)}; q^2)_t q^{2(1+n1) t}
    #       (q^2;q^2)_{n3} / [(q^2;q^2)_t (q^2;q^2)_{m2} (q^2;q^2)_{n3-m2+t}]
    lo_hi, qq_n3 = table.lo_hi(m2, m3), table.qq(n3)[n3]
    terms = [lo_hi[t] * table.power(2 * (1 + n1) * t) * qq_n3 / den
             for t, den in zip(range(max(0, m2 - n3), m2 + 1), table.den(m2, n3))]
    return pref, terms


def fock_element(n1: int, n2: int, n3: int, m1: int, m2: int, m3: int, q):
    """The prefactor of _fock_terms times their sum, in order, in q's number
    type, from a table of its own: the integer 0 where gated, so an exact q
    gives an exact element."""
    pref, terms = _fock_terms(n1, n2, n3, m1, m2, m3, _FockFactors(q))
    return pref * sum(terms)


# The elements and the tetrahedron-equation sums cancel strongly (far below
# their largest terms), so double precision cannot reach relative residuals
# near 1e-12 even though every element is an exact finite sum.  They are
# evaluated in the standard library's decimal floats: the sums in one
# context of _MP_DPS significant digits, each element in that many or more.
# A Decimal rounds in the context of the calling thread, so every function
# that computes in them enters a context itself and no caller sets a
# precision.  q enters as the Decimal of exactly the double given (to_mp).
_MP_DPS = 52
_MP_CTX = decimal.Context(prec=_MP_DPS)
_MP_SPARE = 24  # digits an element keeps beyond those its sum cancels
_MP_MAX_DPS = 1000  # an element's digits, past which its sum counts as vanishing


def to_mp(x):
    """A double x as the Decimal of exactly its value; any other number (a
    Decimal, an int, a Fraction) is returned as it is."""
    return Decimal(x) if isinstance(x, float) else x


_MP_GUARDS = (to_mp(ZERO_FLOOR), to_mp(_TINY))


@lru_cache(maxsize=None, typed=True)
def _mp_factors(q, prec: int) -> _FockFactors:
    """The one _FockFactors of q for fock_element_mp's sums at prec digits,
    the only precision it is built and filled in (_MP_CTX at _MP_DPS).
    Typed, so an exact q (a Fraction) never shares an equal Decimal's table."""
    return _FockFactors(q)


@lru_cache(maxsize=None)
def fock_element_mp(n1: int, n2: int, n3: int, m1: int, m2: int, m3: int, q):
    """fock_element at a double q or its to_mp value, in Decimals of
    _MP_DPS digits or more.  The sum cancels the digits its largest term has
    above it; one that keeps fewer than _MP_SPARE is summed again with more,
    so every element is good to about 1e-22 relative.  At q = 0.3 that
    takes no fock-te element, 7 of the cutoff-8 R's 2,023 and 583 of the
    cutoff-12 R's 10,791 (which cancel up to 105 digits) past _MP_DPS.
    Every sum takes its factors from the table _mp_factors keeps for its q
    and digits, and equals the sum over a fresh table to the last digit.
    The first pass sums in _MP_CTX; only a re-sum builds a context.

    A double q and its to_mp value are equal numbers, so they share one
    cache entry and one value.  Only this entry point is cached: an untyped
    lru_cache keys q = 0.3 and Decimal(0.3) alike, so a cache shared with
    the double path could hand one path the other's values.
    """
    q, prec, ctx = to_mp(q), _MP_DPS, _MP_CTX
    while True:
        with decimal.localcontext(ctx):
            pref, terms = _fock_terms(n1, n2, n3, m1, m2, m3, _mp_factors(q, prec))
            if not terms:  # gated: the integer 0
                return pref
            total = sum(terms)
            # a sum that is 0 at this precision has cancelled every digit
            lost = max(t.adjusted() for t in terms) - total.adjusted() if total else prec
            if prec - lost >= _MP_SPARE:
                return pref * total
        prec = lost + _MP_SPARE
        if prec > _MP_MAX_DPS:
            raise AccuracyError("Fock element %s cancels beyond %d digits"
                                % ((n1, n2, n3, m1, m2, m3), _MP_MAX_DPS))
        ctx = decimal.Context(prec=prec)


def fock_r_dense(cutoff: int, q: complex) -> np.ndarray:
    """Dense (cutoff+1)^3 matrix of Fock elements, rows = bra index."""
    d = cutoff + 1
    out = np.zeros((d ** 3, d ** 3), dtype=complex)
    for row, (n1, n2, n3) in enumerate(np.ndindex(d, d, d)):
        for m2 in range(d):
            m1, m3 = n1 + n2 - m2, n2 + n3 - m2
            if 0 <= m1 < d and 0 <= m3 < d:
                out[row, (m1 * d + m2) * d + m3] = fock_element(n1, n2, n3, m1, m2, m3, q)
    return out


def te_lhs_indices(ext, i1):
    """Index 6-tuples of the LHS elements R123, R145, R246, R356 of the
    vertex tetrahedron equation, in product order, at the external tuple
    ext = (n1..n6, n1''..n6'') and the free internal index i1; the other
    five internal indices are solved from the charge deltas.  Entries may be
    Python ints or broadcastable integer arrays."""
    n1, n2, n3, n4, n5, n6, p1, p2, p3, p4, p5, p6 = ext
    i2, i3, i4, i5 = n1 + n2 - i1, n3 - n1 + i1, i1 + n4 - p1, n5 - i1 + p1
    i6 = i4 + n6 - p4
    return ((n1, n2, n3, i1, i2, i3), (i1, n4, n5, p1, i4, i5),
            (i2, i4, n6, p2, p4, i6), (i3, i5, i6, p3, p5, p6))


def te_rhs_indices(ext, i3):
    """Index 6-tuples of the RHS elements R356, R246, R145, R123, in product
    order, at the free internal index i3; as te_lhs_indices otherwise."""
    n1, n2, n3, n4, n5, n6, p1, p2, p3, p4, p5, p6 = ext
    i5, i6 = n3 + n5 - i3, n6 - n3 + i3
    i4 = n4 + i6 - p6
    i2, i1 = n2 + n4 - i4, n1 + i4 - p4
    return ((n3, n5, n6, i3, i5, i6), (n2, n4, i6, i2, i4, p6),
            (n1, i4, i5, i1, p4, p5), (i1, i2, i3, p1, p2, p3))


def te_balance(n, p1, p2, p3):
    """(n4'', n5'', n6'') solved from the three total-charge balances of the
    vertex tetrahedron equation, at n = (n1..n6) and n1'', n2'', n3''; both
    sides of the equation vanish at an external tuple that breaks one.
    Entries may be Python ints or broadcastable integer arrays."""
    n1, n2, n3, n4, n5, n6 = n
    p4 = n1 + n2 + n4 - p1 - p2
    p5 = n3 + n5 + p1 - n1 - p3
    return p4, p5, n4 + n5 + n6 - p4 - p5


def fock_te_gate(exts):
    """Terms of the vertex tetrahedron equation for a batch of external tuples.

    exts is a (12, T) integer array whose columns are (n1..n6, n1''..n6'').
    Each side is a single sum over the one internal index left free by the
    eight charge deltas.  On a column whose total charges balance
    (te_balance) every element's charge deltas hold identically, so a term
    is kept exactly where the free index and every index solved by
    te_lhs_indices / te_rhs_indices are nonnegative; the free index runs over
    [0, 2 max(exts)], which holds every such window, so no truncation is
    involved.  An unbalanced column has no term.

    Returns integer arrays (col, side, ids, elements) with one entry of col
    and side and one row of ids per term, ordered by column, then side, then
    ascending free index: the term's column in exts, its side (0 for the
    LHS, 1 for the RHS) and its four elements, in product order, as rows of
    elements, the (E, 6) array of the distinct element index 6-tuples.
    """
    exts = np.asarray(exts, dtype=np.int64)
    balanced = np.all(np.equal(te_balance(exts[:6], *exts[6:9]), exts[9:]), axis=0)
    free = np.arange(2 * int(exts.max(initial=0)) + 1)[:, None]
    ncols = exts.shape[1]

    def side(indices):
        # each of the 24 indices is affine in the free one: its value at 0
        # plus free times the difference of its values at 1 and at 0, formed
        # as one (24, free, columns) array
        at0, at1 = (np.array([i for el in indices(exts, np.full(ncols, f)) for i in el])
                    for f in (0, 1))
        idx = at0[:, None] + (at1 - at0)[:, None] * free
        # row-major over (columns, free): columns, then free index, ascending
        col, k = np.nonzero((balanced & (idx >= 0).all(axis=0)).T)
        return col, idx[:, k, col].T.reshape(-1, 4, 6)

    (lcol, lidx), (rcol, ridx) = side(te_lhs_indices), side(te_rhs_indices)
    col = np.concatenate([lcol, rcol])
    side = np.repeat(np.array([0, 1], dtype=np.int8), [lcol.size, rcol.size])
    # stable: within a column the LHS terms stay first, each side in free-index order
    order = np.argsort(col, kind="stable")
    idx = np.concatenate([lidx, ridx])[order].reshape(-1, 6)
    # one integer key per element, ascending with its 6-tuple: np.unique on
    # keys is much faster than np.unique(idx, axis=0)
    shape = (int(idx.max(initial=-1)) + 1,) * 6
    keys, ids = np.unique(np.ravel_multi_index(idx.T, shape), return_inverse=True)
    elements = np.stack(np.unravel_index(keys, shape), axis=1)
    return col[order], side[order], ids.reshape(-1, 4), elements


@in_mp_context
def fock_te_sides(terms, ncols, q, element=fock_element_mp):
    """(lhs, rhs) of the vertex TE at ncols external tuples: two object
    arrays holding each column's terms (fock_te_gate's arrays) summed in
    ascending free-index order, 0 where a side has no term.  A double q is
    taken into _MP_CTX once (to_mp); any other q keeps its number type.
    element is called once per distinct element the terms use."""
    col, side, ids, elements = terms
    q = to_mp(q)
    used, inv = np.unique(ids, return_inverse=True)
    vals = np.empty(used.size, dtype=object)
    vals[:] = [element(*el, q) for el in elements[used].tolist()]
    f = vals[inv.reshape(ids.shape)]
    sums = np.zeros((2, ncols), dtype=object)
    np.add.at(sums, (side, col), f[:, 0] * f[:, 1] * f[:, 2] * f[:, 3])
    return sums[0], sums[1]


@in_mp_context
def fock_te_residual(terms, ncols, q, q_rhs) -> np.ndarray:
    """Relative residuals of the vertex tetrahedron equation at ncols external
    tuples from their terms (fock_te_gate's arrays), summed in _MP_CTX with
    the LHS at q and the RHS at q_rhs; 0.0 where neither side has a term.
    The check passes q_rhs = q and sums both sides in one fock_te_sides
    call; a negative control passes another deformation and sums each side
    in a call of its own.  Each (side, column) sum adds the same terms in
    the same order either way."""
    if q_rhs == q:
        sums = fock_te_sides(terms, ncols, q)
    else:
        col, side, ids, elements = terms
        sums = []
        for s, at in enumerate((q, q_rhs)):
            on = side == s
            sums.append(fock_te_sides((col[on], side[on], ids[on], elements), ncols, at)[s])
    return _rel_residual(*sums).astype(float)


# ---------------------------------------------------------------------------
# dihedral angles of a tetrahedron from four plane normals
# ---------------------------------------------------------------------------

LINE_PAIRS = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


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


def random_tetra_angles(rng) -> TetraAngles:
    """Dihedral angle data of a random well-conditioned tetrahedron.

    Sampling arbitrary unit vectors is not enough: the four normals must be
    outward normals of an actual tetrahedron (they positively span space),
    otherwise the angle set lies outside the admissible five-parameter
    family.  Vertices are sampled instead and the normals derived.
    """
    for _ in range(500):
        v = rng.normal(size=(4, 3))
        if abs(np.linalg.det(v[1:] - v[0])) < 0.3:
            continue
        try:
            ta = tetra_angles_from_normals(outward_normals(v))
        except DegeneracyError:
            continue
        if any(not (_THETA_MARGIN < t < math.pi - _THETA_MARGIN) for t in ta.thetas):
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

    @cached_property
    def weights(self) -> np.ndarray:
        """The IRC weight table (cyclic_weight_table), built on first use."""
        return cyclic_weight_table(self)

    @classmethod
    def from_triangle(cls, tri: sf.SphericalTriangle, N: int) -> "CyclicRData":
        return cls(N, sf.fermat_points_from_triangle(tri, N))

    @classmethod
    def from_angles(cls, theta1, theta2, theta3, N) -> "CyclicRData":
        return cls.from_triangle(sf.spherical_sides_from_angles(theta1, theta2, theta3), N)


def cyclic_vertex_element(n, m, data: CyclicRData):
    """<n1 n2 n3|R|m1 m2 m3> of the cyclic solution.

    Indices are integers or broadcastable integer arrays, and the result has
    their broadcast shape (reduction mod N happens inside the dilogarithm
    tables and the charge deltas); for odd N the value itself is invariant
    under index shifts by N.
    """
    N = data.N
    n1, n2, n3 = (np.asarray(k) for k in n)
    m1, m2, m3 = (np.asarray(k) for k in m)
    allowed = ((n1 + n2 - m1 - m2) % N == 0) & ((n2 + n3 - m2 - m3) % N == 0)
    pref = sf.q_power(N, n1 * n3 - m2 * (n1 + n3))
    # the internal sum over t runs along a new last axis
    t = np.arange(N)
    n1, n3, m2, m3 = (k[..., None] for k in (n1, n3, m2, m3))
    t1, t2, t3, t4 = data.tables
    terms = (sf.q_power(N, -2 * t * m2) * t1[(t + n1 + m3) % N] * t2
             / (t3[(t + n1) % N] * t4[(t + n3) % N]))
    return np.where(allowed, pref * terms.sum(axis=-1), 0.0)[()]


def _require_odd(N: int):
    if N % 2 == 0:
        raise DomainError("the cyclic vertex element is not a function on Z_N "
                          "for even N = %d (q^N = -1)" % N)


def cyclic_r_dense(data: CyclicRData) -> np.ndarray:
    """Dense N^3 x N^3 matrix of the cyclic R over Z_N, rows = bra index;
    only the N^4 charge-allowed entries (m1 + m2 = n1 + n2, m2 + m3 = n2 + n3
    mod N) are evaluated, in one element call.  Odd N only, as for
    vertex_te_residual."""
    N = data.N
    _require_odd(N)
    n1, n2, n3, m2 = np.indices((N,) * 4)
    m1, m3 = (n1 + n2 - m2) % N, (n2 + n3 - m2) % N
    out = np.zeros((N,) * 6, dtype=complex)
    out[n1, n2, n3, m1, m2, m3] = cyclic_vertex_element((n1, n2, n3), (m1, m2, m3), data)
    return out.reshape(N ** 3, N ** 3)


def consistent_external(rng, N):
    """A random external tuple (n1..n6, n1''..n6'') of the vertex
    tetrahedron equation over Z_N whose total charges balance, so both sides
    can be nonzero."""
    n = [int(x) for x in rng.integers(0, N, 6)]
    p = [int(x) for x in rng.integers(0, N, 3)]
    return (*n, *p, *(x % N for x in te_balance(n, *p)))


def vertex_te_residual(ext, datasets) -> float:
    """Vertex tetrahedron equation for the cyclic solution at one external
    tuple; datasets = (d123, d145, d246, d356).

    At a root of unity the charge deltas fix the internal indices only mod N,
    so each side is a sum over the one free index in Z_N, with the solved
    indices of te_lhs_indices / te_rhs_indices reduced mod N; each factor is
    one element call over all N values of the free index.  Only odd N is
    meaningful: for even N, q^N = -1 and the element is not a function on Z_N.
    """
    N = datasets[0].N
    _require_odd(N)
    free = np.arange(N)
    sides = []
    for indices, order in ((te_lhs_indices, datasets), (te_rhs_indices, datasets[::-1])):
        terms = 1
        for data, idx in zip(order, indices(ext, free)):
            idx = [k % N for k in idx]
            terms = terms * cyclic_vertex_element(idx[:3], idx[3:], data)
        sides.append(terms.sum())
    return _rel_residual(*sides)


# ---------------------------------------------------------------------------
# cyclic solution: interaction-round-a-cube form
# ---------------------------------------------------------------------------

def cyclic_weight_table(data: CyclicRData) -> np.ndarray:
    """W[a,e,f,g,b,c,d,h] = sum_n q^{2n(b+d-f-h)}
    phi1(n-h+c) phi2(n-f+a) / (phi3(n-b+g) phi4(n-d+e)).

    The summand reads the eight spins only through five values mod N:
    u = c-h, v = a-f, w = g-b, x = e-d and s = b+d-f-h.  The sum is formed
    once over the N^5 grid of (u, v, w, x, s), in the same order of n and of
    the factors, and the N^8 table gathers from it, so each entry is the
    same double as a sum over the full grid."""
    N = data.N
    t1, t2, t3, t4 = data.tables
    q2 = sf.q_power(N, 2 * np.arange(N))
    # open index grids: each factor is formed only over the values it reads
    u, v, w, x, s = np.indices((N,) * 5, sparse=True)
    five = np.zeros((N,) * 5, dtype=complex)
    for n in range(N):
        five += (q2[(n * s) % N] * t1[(n + u) % N] * t2[(n + v) % N]
                 / (t3[(n + w) % N] * t4[(n + x) % N]))
    a, e, f, g, b, c, d, h = np.indices((N,) * 8, sparse=True)
    return five[(c - h) % N, (a - f) % N, (g - b) % N, (e - d) % N, (b + d - f - h) % N]


# the two sides (LHS, RHS) of the interaction-round-a-cube tetrahedron
# equation, each a product in this order of (weight index into
# (W, W', W'', W'''), corner slots), the slots naming the 14 external labels
# and the summed/integrated label z
IRC_SIDES = (
    ((0, ("a4", "c1", "c3", "c2", "b3", "b2", "b1", "z")),
     (1, ("c1", "a3", "b1", "b2", "z", "c6", "c4", "b4")),
     (2, ("b1", "c4", "c3", "z", "b3", "b4", "a2", "c5")),
     (3, ("z", "b4", "b3", "b2", "c2", "c6", "c5", "a1"))),
    ((3, ("b1", "c4", "c3", "c1", "a4", "a3", "a2", "z")),
     (2, ("c1", "a3", "a4", "b2", "c2", "c6", "z", "a1")),
     (1, ("a4", "z", "c3", "c2", "b3", "a1", "a2", "c5")),
     (0, ("z", "a3", "a2", "a1", "c5", "c6", "c4", "b4"))),
)

EXTERNAL_LABELS = ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4",
                   "c1", "c2", "c3", "c4", "c5", "c6")


def sigma_map(spins, t):
    """Edge variables (sigma1..3, sigma1'..3') from the eight corner spins
    (a|e,f,g|b,c,d|h) and the spectral parameters, in the spins' number
    type.  At T = (0, 0, 0) integer spins give the cyclic vertex indices
    (n, m) exactly: this is the one corner-spin substitution of both
    families."""
    a, e, f, g, b, c, d, h = spins
    t1, t2, t3 = t
    s1 = g + f - a - b - t1
    s2 = a + c - e - g + t2
    s3 = e + f - a - d - t3
    s1p = c + d - e - h - t1
    s2p = f + h - b - d + t2
    s3p = b + c - g - h - t3
    return (s1, s2, s3), (s1p, s2p, s3p)


@lru_cache(maxsize=None)
def _irc_index(N: int):
    """IRC_SIDES compiled for spins in Z_N: a (14, 8) matrix of flat strides
    and an (N, 8) array of z-offsets plus table offsets.

    Column k is the k-th factor (the four of the LHS, then the four of the
    RHS).  For external spins x in EXTERNAL_LABELS order, x @ strides +
    offsets[z] is the flat index of each factor's weight in the stacked
    (4, N, ..., N) tables at internal spin z.
    """
    factors = [factor for side in IRC_SIDES for factor in side]
    strides = np.zeros((len(EXTERNAL_LABELS), len(factors)), dtype=np.int64)
    offsets = np.zeros((N, len(factors)), dtype=np.int64)
    for col, (widx, slot) in enumerate(factors):
        offsets[:, col] = widx * N ** 8
        for pos, label in enumerate(slot):
            stride = N ** (7 - pos)
            if label == "z":
                offsets[:, col] += stride * np.arange(N)
            else:
                strides[EXTERNAL_LABELS.index(label), col] += stride
    strides.flags.writeable = offsets.flags.writeable = False
    return strides, offsets


def irc_te_residual_cyclic(tables: np.ndarray, ext) -> np.ndarray:
    """Relative residuals of the IRC tetrahedron equation, cyclic case.

    tables is the stacked (4, N, ..., N) array of the weights (W, W', W'',
    W'''); ext is an integer array of shape (..., 14) holding the external
    spins in EXTERNAL_LABELS order (reduced mod N here); the internal label
    z is summed over Z_N.  Returns residuals of shape ext.shape[:-1].
    """
    N = tables.shape[1]
    strides, offsets = _irc_index(N)
    flat = (np.asarray(ext) % N) @ strides
    w = tables.reshape(-1)[flat[..., None, :] + offsets]  # (..., z, factor)
    lhs = (w[..., 0] * w[..., 1] * w[..., 2] * w[..., 3]).sum(axis=-1)
    rhs = (w[..., 4] * w[..., 5] * w[..., 6] * w[..., 7]).sum(axis=-1)
    return _rel_residual(lhs, rhs)


def cyclic_weights_for_tetra(ta: TetraAngles, N: int) -> np.ndarray:
    """The four IRC weight tables attached to a tetrahedron's angle data,
    stacked into one (4, N, ..., N) array, filled one table at a time."""
    out = np.empty((4,) + (N,) * 8, dtype=complex)
    for k, args in enumerate(ta.angle_arguments()):
        out[k] = cyclic_weight_table(CyclicRData.from_angles(*args, N))
    return out


def cross_form_residual(data: CyclicRData, spins: dict,
                        power_shift: int = 0) -> tuple[float, complex]:
    """Compare the IRC weight with the vertex element under the corner-spin
    substitution (sigma_map at T = 0), returning (residual, equivalence factor).

    The two forms differ by the exact factor q^E, E = m2 (e+g-b-d) - n1 n3
    (an equivalence transformation; derived by re-indexing the internal sum
    and verified exhaustively in the tests).  The spins may be integer
    arrays of one shape, and the results then have it.  A nonzero
    power_shift compares with q^(E + power_shift) instead, which differs
    from the weight by a phase at every assignment (a negative control)."""
    N = data.N
    corners = [spins[k] for k in "aefgbcdh"]
    _, e, _, g, b, _, d, _ = corners
    n, m = sigma_map(corners, (0, 0, 0))
    w = data.weights[tuple(x % N for x in corners)]
    r = cyclic_vertex_element(n, m, data)
    factor = sf.q_power(N, m[1] * (e + g - b - d) - n[0] * n[2] + power_shift)
    return _rel_residual(w, factor * r), factor


def cross_form_sector_scalars(data: CyclicRData):
    """Fit one scalar per conserved-charge sector between the two forms.

    Returns {(c1, c2): (scalar, max residual after fitting)} over all N^8
    spin assignments, which are evaluated at once: one sigma_map, one weight
    gather and one element call.  The residual reported for a sector is
    relative to the largest element in it.
    """
    N = data.N
    spins = np.indices((N,) * 8).reshape(8, -1)
    n, m = sigma_map(spins, (0, 0, 0))
    w = data.weights[tuple(spins)]
    r = cyclic_vertex_element(n, m, data)
    sector = (n[0] + n[1]) % N * N + (n[1] + n[2]) % N
    # bincount sums each sector in spin order
    cross = w * np.conj(r)
    num = (np.bincount(sector, cross.real, N * N)
           + 1j * np.bincount(sector, cross.imag, N * N))
    den = np.bincount(sector, abs(r) ** 2, N * N)
    scalar = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    gap, scale = np.zeros(N * N), np.full(N * N, 1e-300)
    np.maximum.at(gap, sector, abs(w - scalar[sector] * r))
    np.maximum.at(scale, sector, abs(w))
    return {divmod(key, N): (complex(scalar[key]), float(gap[key] / scale[key]))
            for key in np.unique(sector).tolist()}


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


def spectral_tshki_residual(sets) -> float:
    """Exactness of the spectral-parameter constraints for a four-weight set."""
    t, tp, tpp, tppp = sets
    checks = (tp[0] - t[0], tpp[0] + t[1], tppp[0] - t[2],
              tpp[1] - tp[1], tppp[1] + tp[2], tppp[2] - tpp[2])
    return float(max(abs(c) for c in checks))


def irc_te_residual_modular(specs, ext: dict, tol: float = 1e-6,
                            max_nodes: int = 2048) -> float:
    """Relative residual of the IRC tetrahedron equation with a real
    z-integration, modular case.

    specs = (W, W', W'', W''') weight specs whose T's must satisfy the
    constraint chain.  Both sides share one nested trapezoid rule in z: the
    window, at first [-4, 4], grows until the integrand has decayed and the
    step halves until both sides stabilize.
    """
    t_res = spectral_tshki_residual(tuple(s.t for s in specs))
    if t_res > 1e-12:
        raise DomainError("spectral parameters violate the constraint chain "
                          "(residual %.2e)" % t_res)

    def sides(z):
        env = dict(ext, z=z)
        out = np.ones(z.shape + (2,), dtype=complex)
        try:
            for col, side in enumerate(IRC_SIDES):
                for widx, slot in side:
                    spins = [np.broadcast_to(np.asarray(env[s], dtype=float), z.shape)
                             for s in slot]
                    out[:, col] *= irc_weight_modular(specs[widx], spins, tol=tol * 1e-2)
        except AccuracyError as exc:
            raise AccuracyError(
                "%s; it is an inner 2Psi2 integral at tol*1e-2 = %.3g, so the inner "
                "tolerance bound, not tol = %.3g" % (exc, tol * 1e-2, tol),
                achieved=exc.achieved) from exc
        return out

    lhs, rhs = sf._nested_trapezoid(sides, 4.0, 16, tol, max_nodes,
                                    tail=1e-8, grow=1.4, what="z-integration")
    return _rel_residual(lhs, rhs)
