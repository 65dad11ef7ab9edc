"""Special-function kernels: q-series, the non-compact quantum dilogarithm,
its 2Psi2 integral transform, and the cyclic (root-of-unity) dilogarithm.

The non-compact quantum dilogarithm used here is

    phi(z) = exp( (1/4) * int_{R+i0} e^{-2 i z x} / (sinh(x b) sinh(x/b) x) dx ),

with poles at z = +i(eta + m b + n/b) and zeros at z = -i(eta + m b + n/b),
m, n >= 0, where eta = (b + 1/b)/2.  Two independent evaluation routes are
provided (shifted-contour quadrature and, for Im b^2 > 0, a convergent
infinite product) and are cross-validated in the test suite; the product
form was derived by summing residues of the defining integral and is not
taken from any closed-form reference.  Where Re(z eta) > 0 the product is
taken at -z, and phi(z) follows from the inversion relation
phi(z) phi(-z) = phi(0)^2 e^{i pi z^2} (Faddeev, Kashaev and Volkov,
hep-th/0006156), so no product sees |e^{2 pi z b} e^{2 pi z / b}| > 1.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    AccuracyError,
    DegeneracyError,
    DomainError,
    PoleProximityError,
    SingularityError,
)

_TWO_PI = 2.0 * math.pi
_PRODUCT_MAX_TERMS = 20000  # per side of the phi product
_RESIDUE_TOL = 1e-16  # relative size of a negligible 2Psi2 residue term
_RESIDUE_MAX_TERMS = 600  # per single series of a 2Psi2 residue family
_QPOCHHAMMER_MAX_TERMS = 100000  # factors of qpochhammer_inf


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


# ---------------------------------------------------------------------------
# q-series basics
# ---------------------------------------------------------------------------

def qpochhammer_prefixes(x, qsq, n: int) -> list:
    """[(x; qsq)_0, ..., (x; qsq)_n] with (x; qsq)_k = prod_{j<k} (1 - qsq^j x),
    in the number type of x and qsq (float, complex, Decimal, mpmath or
    Fraction); a Decimal rounds in the calling thread's context."""
    if n < 0:
        raise DomainError("qpochhammer order must be nonnegative")
    out = [1]
    fac = x
    for _ in range(n):
        out.append(out[-1] * (1 - fac))
        fac *= qsq
    return out


def qpochhammer_inf(x: complex, qsq: complex) -> complex:
    """Infinite product (x; qsq)_inf, requires |qsq| < 1.

    The factors run until |x qsq^k| < 1e-300.  If _QPOCHHAMMER_MAX_TERMS
    factors stop short of that, the factors left can move the product by
    about tail = |x qsq^k| / (1 - |qsq|) relative; AccuracyError names the
    cap, with tail as achieved, when that is above 1e-16.
    """
    if abs(qsq) >= 1.0:
        raise DomainError("qpochhammer_inf requires |qsq| < 1")
    out = 1.0 + 0.0j
    fac = complex(x)
    for _ in range(_QPOCHHAMMER_MAX_TERMS):
        out *= 1.0 - fac
        fac *= qsq
        if abs(fac) < 1e-300:
            return out
    tail = abs(fac) / (1.0 - abs(qsq))
    if tail > 1e-16:
        raise AccuracyError("qpochhammer_inf not converged after %d factors"
                            % _QPOCHHAMMER_MAX_TERMS, achieved=tail)
    return out


# ---------------------------------------------------------------------------
# modular parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModularParam:
    """Modular parameter b with derived quantities q, q~ and eta, each
    computed on first use and kept on the instance."""

    b: complex

    def __post_init__(self):
        if abs(self.b.real) < 1e-14:
            raise DomainError("modular parameter must have Re(b) != 0")

    @cached_property
    def q(self) -> complex:
        return cmath.exp(1j * math.pi * self.b * self.b)

    @cached_property
    def q_tilde(self) -> complex:
        return cmath.exp(-1j * math.pi / (self.b * self.b))

    @cached_property
    def eta(self) -> complex:
        return (self.b + 1.0 / self.b) / 2.0

    @property
    def im_b_sq(self) -> float:
        return (self.b * self.b).imag

    def require_series_domain(self):
        if self.im_b_sq <= 0:
            raise DomainError("series evaluation requires Im(b^2) > 0")


# ---------------------------------------------------------------------------
# quantum dilogarithm
# ---------------------------------------------------------------------------

def _strip_halfwidth(mp: ModularParam) -> float:
    """Distance from the real axis to the nearest pole/zero of phi."""
    return abs(mp.eta.real)


def quantum_dilog(z: complex, mp: ModularParam, method: str) -> complex:
    """Evaluate phi(z) by the requested method.

    method:
      "quadrature"     shifted straight-contour integral of the log
      "product-series" infinite-product form (requires Im b^2 > 0)
    """
    if method == "product-series":
        mp.require_series_domain()
        return complex(dilog_product(np.asarray(z, dtype=complex), mp))
    if method == "quadrature":
        return _dilog_quadrature(complex(z), mp)
    raise DomainError("unknown quantum_dilog method %r" % method)


def dilog_product(z: np.ndarray, mp: ModularParam, tol: float = 1e-18) -> np.ndarray:
    """Vectorized product form of phi, valid for Im b^2 > 0.

    phi(z) = prod_{m>=0} (1 + q^{2m+1} e^{2 pi z b}) / (1 + q~^{2m+1} e^{2 pi z / b}),

    numerator and denominator each a ``_running_product``, stopped at the
    first term whose bound |q^{2m+1}| max|e^{2 pi z b}| (resp. the q~ side)
    is at most tol.  Where Re(z eta) > 0 the product is taken at -z and
    phi(z) follows by the inversion relation (``_reflected``), so no point
    it sees has |e^{2 pi z b} e^{2 pi z / b}| > 1.  A NaN point reads NaN.
    """
    z = np.asarray(z, dtype=complex)
    flip = _reflected(0.0, z, mp)
    zr = np.where(flip, -z, z)
    phi = _phi_ratio(np.exp(_TWO_PI * zr * mp.b), np.exp(_TWO_PI * zr / mp.b), flip, mp, tol)
    phi[flip] *= np.exp(_reflection_log(z[flip], mp))
    return phi


def _reflected(x, s, mp: ModularParam):
    """Where phi(x + s), x real and s complex, is taken from phi(-x - s) by
    the inversion relation: where Re((x + s) eta) > 0, that is where
    |e^{2 pi (x+s) b} e^{2 pi (x+s) / b}| > 1.  A NaN point is not."""
    return x * mp.eta.real > -(s * mp.eta).real


def _reflection_log(z, mp: ModularParam):
    """log(phi(z) phi(-z)) = i pi z^2 + log phi(0)^2, with
    phi(0)^2 = e^{i pi (b^2 + b^-2) / 12}."""
    return 1j * math.pi * (z * z + (mp.b * mp.b + 1.0 / (mp.b * mp.b)) / 12.0)


def _phi_ratio(xb: np.ndarray, xi: np.ndarray, inverse, mp: ModularParam, tol: float) -> np.ndarray:
    """phi at the points with e^{2 pi z b} = xb and e^{2 pi z / b} = xi, or
    1 / phi where inverse is set: the numerator product over the denominator
    product, formed in the numerator's array."""
    mp.require_series_domain()
    phi = np.asarray(_running_product(xb, mp.q, mp.q * mp.q, tol))  # 0-d x gives a scalar
    del xb  # frees a caller's temporary before the second product
    phi /= _running_product(xi, mp.q_tilde, mp.q_tilde * mp.q_tilde, tol)
    return np.reciprocal(phi, out=phi, where=inverse)


# a running product whose bound sum log(1 + |term|) passes _OVERFLOW_LOG
# could leave the double range (e^709); it raises instead
_OVERFLOW_LOG = 600.0
# Small arrays take the product's terms in blocks of up to _BLOCK_ENTRIES
# entries (256 KB), so numpy's per-call cost is paid per block, not per
# term.  Over more than _BLOCK_POINTS points that cost is small next to
# the per-point work, and one pass per term is faster: numpy's outer
# product runs at about half the speed of a product by one scalar.
_BLOCK_ENTRIES = 2 ** 14
_BLOCK_POINTS = 2 ** 10
# factors a new table starts with; it doubles on demand
_TABLE_START = 64


class _FactorTable:
    """The factors fac ratio^m, m = 0, 1, ..., of one running product and
    their moduli |fac ratio^m|, formed by the repeated fac *= ratio on first
    use and kept, up to _PRODUCT_MAX_TERMS + 1 of them."""

    def __init__(self, fac: complex, ratio: complex):
        self._next, self._ratio = fac, ratio  # _next: the factor after the last one kept
        self.factors = np.empty(0, dtype=complex)
        self.moduli = np.empty(0)

    def _extend(self):
        size = len(self.factors)
        facs, fac = [], self._next
        for _ in range(min(max(2 * size, _TABLE_START), _PRODUCT_MAX_TERMS + 1) - size):
            facs.append(fac)
            fac *= self._ratio
        self._next = fac
        self.factors = np.concatenate((self.factors, facs))
        self.moduli = np.concatenate((self.moduli, [abs(f) for f in facs]))
        self.factors.flags.writeable = self.moduli.flags.writeable = False

    def terms(self, scale: float, tol: float) -> int:
        """The first m with |fac ratio^m| scale at most tol, found by
        bisection over the moduli, extending the table while it holds none;
        AccuracyError if that m passes _PRODUCT_MAX_TERMS."""
        lo = 0
        while True:
            m = bisect.bisect_left(self.moduli, True, lo,
                                   key=lambda modulus: not modulus * scale > tol)
            if m < len(self.moduli):
                return m
            if m > _PRODUCT_MAX_TERMS:
                raise AccuracyError("phi product not converged after %d terms"
                                    % _PRODUCT_MAX_TERMS,
                                    achieved=float(self.moduli[-1] * scale))
            lo = m
            self._extend()


@lru_cache(maxsize=64)
def _factor_table(fac: complex, ratio: complex) -> _FactorTable:
    """The one factor table of the running products over fac ratio^m."""
    return _FactorTable(fac, ratio)


def _running_product(x: np.ndarray, fac: complex, ratio: complex, tol: float) -> np.ndarray:
    """prod_{m>=0} (1 + fac ratio^m x) for |ratio| < 1, stopped at the first
    m with |fac ratio^m| max|x| at most tol.  max|x| skips NaN points, and
    they read NaN.

    The bound sum sum_m log1p(|fac ratio^m| max|x|) bounds log|prod|; where
    it passes _OVERFLOW_LOG the product could overflow, and AccuracyError
    names that bound and max|x|.  The reflection in ``dilog_product`` and
    the 2Psi2 integrand keeps every caller far below it.

    The factors fac ratio^m and their moduli come from the table that
    ``_factor_table`` keeps for (fac, ratio), so no call forms them again;
    the term count is a bisection over the moduli.  The terms are then
    applied to all points.  Up to _BLOCK_POINTS points they go a block of
    rows = _BLOCK_ENTRIES // x.size factors at a time (at most the number of
    terms), through one (rows, *x.shape) buffer allocated once per call:
    one outer product with x, plus one, and the product of its rows.  Over
    more points each term is one multiply-add pass.  The blocks change only
    the rounding, never which terms enter.
    """
    scale = float(np.fmax.reduce(np.abs(x), axis=None, initial=0.0))
    table = _factor_table(fac, ratio)
    terms = table.terms(scale, tol)
    if not terms:
        return np.where(np.isnan(x), x, 1.0)
    # the first step is the largest, so the sum is formed only past terms times it
    if (terms * math.log1p(table.moduli[0] * scale) > _OVERFLOW_LOG
            and (bound := float(np.log1p(table.moduli[:terms] * scale).sum())) > _OVERFLOW_LOG):
        raise AccuracyError("phi product may overflow: its bound sum %.4g passes %g at "
                            "max|x| = %.4g" % (bound, _OVERFLOW_LOG, scale), achieved=bound)
    facs = table.factors[:terms]
    rows = min(_BLOCK_ENTRIES // x.size, terms) if x.size <= _BLOCK_POINTS else 1
    if rows == 1:
        prod, tmp = x * facs[0] + 1.0, np.empty_like(x)
        for f in facs[1:]:
            np.multiply(x, f, out=tmp)
            tmp += 1.0
            prod *= tmp
        return prod
    buf = np.empty((rows,) + x.shape, dtype=complex)
    for first in range(0, terms, rows):
        part = buf[:terms - first]
        np.multiply.outer(facs[first:first + rows], x, out=part)
        part += 1.0
        block = np.multiply.reduce(part, axis=0)
        prod = prod * block if first else block
    return prod


def _dilog_quadrature(z: complex, mp: ModularParam, tol: float = 1e-12) -> complex:
    """phi(z) by the nested trapezoid rule on the contour R + i*delta.

    The contour is shifted above the third-order pole at x = 0 by a quarter
    of the width of the pole-free strip, so the integrand is analytic in a
    strip about it and decays along it like exp(-rate |x|); the window
    starts where that bound is e^-50.

    Its reach is limited: at b = 0.8 e^{i pi/40} and 0.8 e^{0.5i} it
    converges for Re z >= -2.2 (checked to Re z = 12), and for Re z <= -3,
    where phi is within 1e-5 of 1, it raises AccuracyError at its
    4,096-node cap; between the two it depends on Im z and b.
    """
    b = mp.b
    strip = math.pi * min(b.real, (1.0 / b).real)
    if strip <= 0:
        raise DomainError("quadrature needs Re(b) > 0 and Re(1/b) > 0")
    half = _strip_halfwidth(mp)
    dist = half - abs(z.imag)
    if dist <= 0.05 * half:
        raise PoleProximityError(
            "z too close to the pole/zero lines of phi", estimate=dist)
    delta = strip / 4.0
    rate = 2.0 * (mp.eta.real - abs(z.imag))
    span = max(50.0 / max(rate, 0.2), 10.0)

    def integrand(t):
        x = t + 1j * delta
        return np.exp(-2j * z * x) / (np.sinh(x * b) * np.sinh(x / b) * x)

    total = _nested_trapezoid(integrand, span, 64, tol, 4096, tail=1e-14, grow=1.5,
                              what="phi quadrature")
    return cmath.exp(0.25 * total)


# ---------------------------------------------------------------------------
# the 2Psi2 integral
# ---------------------------------------------------------------------------

def psi22(c1: complex, c2: complex, c3: complex, c4: complex, c0: complex,
          mp: ModularParam, method: str = "quadrature", tol: float = 1e-9) -> complex:
    """The 2Psi2 transform

      int_R dz e^{2 pi i z (-c0 - i eta)}
            phi(z + (c1+i eta)/2) phi(z + (c2+i eta)/2)
          / (phi(z + (c3-i eta)/2) phi(z + (c4-i eta)/2)).

    Symmetric under c1 <-> c2 and c3 <-> c4.  method is "quadrature" (the
    default) or "residue-series" (Im b^2 > 0 and geometric ratios < 1
    required).
    """
    c = (complex(c1), complex(c2), complex(c3), complex(c4))
    c0 = complex(c0)
    if method == "quadrature":
        return complex(psi22_quadrature_batch(*c, c0, mp, tol=tol))
    if method == "residue-series":
        # near a confluent double pole (c1 = c2) the two residue families
        # cancel, losing ~eps/d^2 at half-split d = (c1 - c2)/2; below delta
        # that passes the error ~eps/delta^2 + delta^4 of a symmetric split.
        # F(d) = 2Psi2(mid + d, mid - d, c3, c4; c0) is even and analytic in
        # d, so it is interpolated linearly in d^2 from d = delta, delta/2
        half, delta = (c[0] - c[1]) / 2, 1e-3
        if abs(half) >= delta:
            return _psi22_residue_series(c, c0, mp)
        mid = (c[0] + c[1]) / 2
        far, near = (_psi22_residue_series((mid + d, mid - d, c[2], c[3]), c0, mp)
                     for d in (delta, delta / 2))
        return near + (far - near) * (half * half / (delta * delta) - 0.25) / 0.75
    raise DomainError("unknown psi22 method %r" % method)


def psi22_quadrature_batch(c1, c2, c3, c4, c0, mp: ModularParam,
                           tol: float = 1e-9, max_nodes: int = 4096) -> np.ndarray:
    """Quadrature evaluation of 2Psi2 for arrays of parameters.

    All parameter arrays broadcast together; the z-contour is the real axis,
    inside a strip of analyticity that the pole-pinch guard keeps open, where
    the nested trapezoid rule ``_nested_trapezoid`` converges geometrically.
    """
    c1, c2, c3, c4, c0 = np.broadcast_arrays(
        *(np.asarray(a, dtype=complex) for a in (c1, c2, c3, c4, c0)))
    er = mp.eta.real
    above = min(float(np.min(-c1.imag)) / 2 + er / 2,
                float(np.min(-c2.imag)) / 2 + er / 2)
    below = min(float(np.min(c3.imag)) / 2 + er / 2,
                float(np.min(c4.imag)) / 2 + er / 2)
    if above <= 1e-3 or below <= 1e-3:
        raise PoleProximityError(
            "2Psi2 poles pinch the real contour", estimate=min(above, below))
    eta = mp.eta
    w = -c0 - 1j * eta
    # the four shifts s_k, shape (4, 1, *c.shape): a leading axis, then one
    # for the nodes.  phi(z + s1) phi(z + s2) multiply, phi(z + s3)
    # phi(z + s4) divide
    shifts = np.stack(((c1 + 1j * eta) / 2, (c2 + 1j * eta) / 2,
                       (c3 - 1j * eta) / 2, (c4 - 1j * eta) / 2))[:, None]
    divides = np.arange(4).reshape((4,) + (1,) * (shifts.ndim - 1)) > 1
    sign = np.where(divides, -1.0, 1.0)

    # e^{2 pi (z + s) b} = e^{2 pi z b} e^{2 pi s b}, and likewise with 1/b;
    # a reflected point (``_reflected``) takes their reciprocals, and the
    # exponent of e^{2 pi i z w} takes its signed inversion factor.  The
    # shifts' factors are formed once per batch, the nodes' once per node
    # array, and each side of phi is one running product over the
    # (4, nodes, *c.shape) stack, whose max|x| sets its term count
    shift_b, shift_i = np.exp(_TWO_PI * shifts * mp.b), np.exp(_TWO_PI * shifts / mp.b)
    inv_shift_b, inv_shift_i = 1.0 / shift_b, 1.0 / shift_i

    def integrand(z):
        # z: 1-D array of real nodes; result shape = z.shape + c.shape
        zz = z.reshape(z.shape + (1,) * c1.ndim)
        node_b, node_i = np.exp(_TWO_PI * zz * mp.b), np.exp(_TWO_PI * zz / mp.b)
        flip = _reflected(zz, shifts, mp)
        phi = _phi_ratio(np.multiply(1.0 / node_b, inv_shift_b, out=node_b * shift_b, where=flip),
                         np.multiply(1.0 / node_i, inv_shift_i, out=node_i * shift_i, where=flip),
                         flip ^ divides, mp, 3e-15)
        # phi(z + s) = e^{_reflection_log(z + s)} / phi(-z - s) where reflected
        refl = _reflection_log(zz + shifts, mp)
        refl *= np.where(flip, sign, 0.0)
        expo = refl.sum(axis=0)
        expo += 2j * np.pi * zz * w
        out = np.multiply.reduce(phi, axis=0)
        out *= np.exp(expo)
        return out

    # the integrand decays like exp(-2 pi eta_re |z|) for real parameters;
    # start the window where that bound alone is ~1e-12
    span = max(28.0 / (2 * math.pi * max(mp.eta.real, 0.25)), 1.0)
    return _nested_trapezoid(integrand, span, 40, tol, max_nodes, tail=1e-10, grow=1.5,
                            what="2Psi2 quadrature")


def _nested_trapezoid(f, span: float, k: int, tol: float, max_nodes: int,
                     tail: float, grow: float, what: str) -> np.ndarray:
    """Trapezoid sum h * sum_{|j| <= k} f(j h), h = span / k, of an integrand
    analytic in a strip about the real axis and decaying along it, where the
    rule converges geometrically in 1/h.  f maps a 1-D array of nodes to
    values with the node axis first.

    While |f| at an end node exceeds tail * scale / span (scale = max|sum|)
    the window widens by grow at fixed h; otherwise h halves until two sums
    differ by less than tol * scale.  Each step evaluates f only at new
    nodes, so the max_nodes cap alone bounds the loop: AccuracyError names
    it and the window, with the last relative change as achieved.
    """
    h = span / k
    z = h * np.arange(-k, k + 1)
    total, widen = 0, True  # widen: z holds the end nodes
    prev = diff = None
    while True:
        vals = f(z)
        total = total + vals.sum(axis=0)
        if widen:
            edge = max(np.max(np.abs(vals[0])), np.max(np.abs(vals[-1])))
        cur = h * total
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        widen = edge * k * h > tail * scale
        if widen:  # at fixed h, so prev stays a sum at step 2h
            new_k = math.ceil(grow * k)
        else:
            if prev is not None:
                diff = float(np.max(np.abs(cur - prev))) / scale
                if diff < tol:
                    return cur
            prev = cur
            new_k = 2 * k
        if 2 * new_k + 1 > max_nodes:
            raise AccuracyError(
                "%s did not stabilize at the node cap max_nodes=%d (window [-%.4g, %.4g])"
                % (what, max_nodes, k * h, k * h), achieved=diff)
        if widen:
            ends = np.arange(k + 1, new_k + 1)
            z = h * np.concatenate((-ends[::-1], ends))
        else:
            h /= 2
            z = h * np.arange(-new_k + 1, new_k, 2)
        k = new_k


def psi22_residue_ratios(c, c0, mp: ModularParam):
    """Asymptotic geometric ratios of the residue series in the two lattice
    directions; both must have modulus < 1 for convergence.

    In the q-direction each step multiplies by exp(-2 pi b w); in the
    q~-direction the phi factors contribute exp(2 pi (v3+v4-u1-u2)/b) on top
    of exp(-2 pi w / b), with v3+v4-u1-u2 = (c3+c4-c1-c2)/2 - 2 i eta.
    """
    w = -c0 - 1j * mp.eta
    rm = cmath.exp(-_TWO_PI * mp.b * w)
    delta = (c[2] + c[3] - c[0] - c[1]) / 2.0
    rn = cmath.exp(_TWO_PI * (-w + delta - 2j * mp.eta) / mp.b)
    return rm, rn


@lru_cache(maxsize=64)
def _residue_prefactor(mp: ModularParam) -> complex:
    """res00 = -b (q^2; q^2)_inf / (2 pi (q~^2; q~^2)_inf), the factor every
    2Psi2 residue of ``_psi22_residue_series`` shares; once per modular
    parameter."""
    qsq = mp.q * mp.q
    qtsq = mp.q_tilde * mp.q_tilde
    return -mp.b * qpochhammer_inf(qsq, qsq) / (_TWO_PI * qpochhammer_inf(qtsq, qtsq))


def _psi22_residue_series(c, c0, mp: ModularParam) -> complex:
    """Residue series for 2Psi2, contour closed in the upper half plane.

    The integrand's upper poles are those of the two numerator phi factors,
    sitting at z = -u_j + i(eta + m b + n/b).  Each residue is the family's
    base residue (m = n = 0) times an m-factor (powers of q) and an
    n-factor (powers of q~), and neither factor depends on the other
    index.  So each family's double sum is the product of two single series,
    sum_m A_m and sum_n B_n, each accumulated with O(1) multiplicative
    updates (``_residue_sum``); the large q~^{-2n} factors cancel exactly
    between the phi values and the residue of phi and are never formed
    explicitly.
    """
    mp.require_series_domain()
    rm, rn = psi22_residue_ratios(c, c0, mp)
    if abs(rm) >= 0.999 or abs(rn) >= 0.999:
        raise DomainError(
            "2Psi2 residue series diverges at these parameters "
            "(ratios %.3f, %.3f); use quadrature or analytic continuation"
            % (abs(rm), abs(rn)))
    eta = mp.eta
    qsq = mp.q * mp.q
    qtsq = mp.q_tilde * mp.q_tilde
    u = [(c[0] + 1j * eta) / 2, (c[1] + 1j * eta) / 2]
    v = [(c[2] - 1j * eta) / 2, (c[3] - 1j * eta) / 2]
    w = -c0 - 1j * eta
    res00 = _residue_prefactor(mp)
    xm = cmath.exp(-_TWO_PI * mp.b * w)   # m-direction prefactor ratio
    xn = cmath.exp(-_TWO_PI * w / mp.b)   # n-direction prefactor ratio

    total = 0.0 + 0.0j
    for uj, uo in ((u[0], u[1]), (u[1], u[0])):
        # base point m = n = 0
        z0 = 1j * eta - uj
        _check_lattice_distance(z0 + uo, mp)
        base = (2j * np.pi * cmath.exp(2j * np.pi * z0 * w) * res00
                * complex(dilog_product(np.asarray(z0 + uo), mp))
                / complex(dilog_product(np.asarray(z0 + v[0]), mp))
                / complex(dilog_product(np.asarray(z0 + v[1]), mp)))
        eb_o, eb_0, eb_1 = (cmath.exp(_TWO_PI * (s - uj) * mp.b) for s in (uo, v[0], v[1]))
        ei_o, ei_0, ei_1 = (cmath.exp(_TWO_PI * (s - uj) / mp.b) for s in (uo, v[0], v[1]))

        def m_step(m):
            qq = qsq ** m
            return xm / (1.0 - qq) * ((1.0 - qq * eb_0) * (1.0 - qq * eb_1) / (1.0 - qq * eb_o))

        def n_step(n):
            y = qtsq ** n  # q~^{2n}, tiny for large n; ratios stay O(1)
            return xn * ((y - ei_0) * (y - ei_1)) / ((y - ei_o) * (y - 1.0))

        total += base * _residue_sum(m_step, "m") * _residue_sum(n_step, "n")
    return complex(total)


def _residue_sum(step, index: str) -> complex:
    """sum_{k>=0} A_k with A_0 = 1 and A_k = A_{k-1} step(k), stopped after
    3 consecutive terms below _RESIDUE_TOL relative to the running sum;
    AccuracyError if _RESIDUE_MAX_TERMS terms do not get there."""
    total = term = 1.0 + 0.0j
    small = 0
    for k in range(1, _RESIDUE_MAX_TERMS):
        term *= step(k)
        total += term
        if abs(term) < _RESIDUE_TOL * abs(total):
            small += 1
            if small == 3:
                return total
        else:
            small = 0
    raise AccuracyError("2Psi2 residue %s-series not converged after %d terms"
                        % (index, _RESIDUE_MAX_TERMS), achieved=abs(term) / abs(total))


def _check_lattice_distance(point: complex, mp: ModularParam):
    """Raise if point is numerically on the pole/zero lattice of phi."""
    # solve point = +-i(eta + m b + n/b) for real (m, n) and check the
    # distance to the nearest nonnegative integer pair
    for sign in (1.0, -1.0):
        rhs = point / (1j * sign) - mp.eta
        # decompose rhs = m*b + n*(1/b) over the reals
        br, bi = mp.b.real, mp.b.imag
        ir, ii = (1 / mp.b).real, (1 / mp.b).imag
        det = br * ii - bi * ir
        if abs(det) < 1e-14:
            continue
        m = (rhs.real * ii - rhs.imag * ir) / det
        n = (rhs.imag * br - rhs.real * bi) / det
        mr, nr = round(m), round(n)
        if mr >= 0 and nr >= 0:
            dist = abs((m - mr) * mp.b + (n - nr) / mp.b)
            if dist < 1e-8:
                raise DegeneracyError(
                    "2Psi2 residue point collides with the phi lattice",
                    estimate=dist)


# ---------------------------------------------------------------------------
# cyclic (root of unity) dilogarithm on the Fermat curve
# ---------------------------------------------------------------------------

def root_of_unity_q(N: int) -> complex:
    """q = -exp(i pi / N), stored as an exact phase."""
    if N < 2:
        raise DomainError("need N >= 2")
    return -cmath.exp(1j * math.pi / N)


@lru_cache(maxsize=None)
def _q_phases(N: int) -> np.ndarray:
    """The 2N values exp(i pi e / N), e = 0 .. 2N-1, read-only."""
    phases = np.array([cmath.exp(1j * math.pi * e / N) for e in range(2 * N)])
    phases.flags.writeable = False
    return phases


def q_power(N: int, exponent):
    """q^exponent for q = -exp(i pi/N), computed from the reduced phase.

    q = exp(i pi (N+1)/N), so q^e = exp(i pi ((N+1) e mod 2N) / N); the
    reduction is done in integers so no floating-point power accumulates.
    exponent may be an integer array; every value is looked up in one table
    of the 2N phases, so a scalar and an array entry agree bit for bit.
    """
    e = ((N + 1) * np.asarray(exponent)) % (2 * N)
    return _q_phases(N)[e]


@dataclass(frozen=True)
class FermatPoint:
    """Point (x, y) with x^N + y^N = 1."""

    x: complex
    y: complex
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise DomainError("need N >= 2")
        if self.curve_residual() > 1e-10:
            raise DomainError(
                "point is off the Fermat curve (residual %.2e)" % self.curve_residual())

    def curve_residual(self) -> float:
        return abs(self.x ** self.N + self.y ** self.N - 1.0)


def fermat_phi_table(p: FermatPoint) -> np.ndarray:
    """All N values of the cyclic dilogarithm phi_p(0..N-1).

    phi_p(0) = 1 and phi_p(n-1)/phi_p(n) = (1 - x q^{2n})/y.
    """
    if abs(p.y) < 1e-300:
        raise SingularityError("cyclic dilogarithm undefined at y = 0")
    N = p.N
    out = np.empty(N, dtype=complex)
    out[0] = 1.0
    for n in range(1, N):
        denom = 1.0 - p.x * q_power(N, 2 * n)
        if abs(denom) < 1e-14:
            raise SingularityError("cyclic dilogarithm hit 1 - x q^{2n} = 0 at n=%d" % n)
        out[n] = out[n - 1] * p.y / denom
    return out


# ---------------------------------------------------------------------------
# spherical triangles and the Fermat points of the cyclic solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalTriangle:
    """Angles theta_j and sides a_j of a spherical triangle plus the derived
    combinations 2 beta_1 = a2+a3-a1 (cyclic) and beta_0 = pi - sum(beta)."""

    theta1: float
    theta2: float
    theta3: float
    a1: float
    a2: float
    a3: float

    @property
    def beta1(self) -> float:
        return 0.5 * (self.a2 + self.a3 - self.a1)

    @property
    def beta2(self) -> float:
        return 0.5 * (self.a1 + self.a3 - self.a2)

    @property
    def beta3(self) -> float:
        return 0.5 * (self.a1 + self.a2 - self.a3)

    @property
    def beta0(self) -> float:
        return math.pi - self.beta1 - self.beta2 - self.beta3


def spherical_sides_from_angles(theta1: float, theta2: float, theta3: float) -> SphericalTriangle:
    """Sides from angles via the dual spherical law of cosines.

    cos a_i = (cos theta_i + cos theta_j cos theta_k) / (sin theta_j sin theta_k).
    """
    th = (theta1, theta2, theta3)
    for j, t in enumerate(th):
        if not (0.0 < t < math.pi):
            raise DomainError("angle theta%d=%r outside (0, pi)" % (j + 1, t))
    s = sum(th)
    if s <= math.pi:
        raise DomainError("angle sum must exceed pi (got %.6f)" % s)
    if s >= 3 * math.pi:
        raise DomainError("angle sum must be below 3*pi")
    names = ("theta2+theta3-theta1", "theta1+theta3-theta2", "theta1+theta2-theta3")
    combos = (th[1] + th[2] - th[0], th[0] + th[2] - th[1], th[0] + th[1] - th[2])
    for name, val in zip(names, combos):
        if val >= math.pi:
            raise DomainError("violated inequality %s < pi (got %.6f)" % (name, val))
    sides = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        ca = (math.cos(th[i]) + math.cos(th[j]) * math.cos(th[k])) / (
            math.sin(th[j]) * math.sin(th[k]))
        if not (-1.0 < ca < 1.0):
            raise DomainError("degenerate triangle: cos a%d = %.6f" % (i + 1, ca))
        sides.append(math.acos(ca))
    return SphericalTriangle(theta1, theta2, theta3, *sides)


def _principal_root(value: float, N: int) -> float:
    if value <= 0:
        raise DomainError("principal N-th root needs a positive radicand")
    return value ** (1.0 / N)


def fermat_points_from_triangle(tri: SphericalTriangle, N: int):
    """The four Fermat-curve points entering the cyclic R-matrix.

    Moduli are principal N-th roots of sine ratios; phases are exact
    exp(i * angle / N) factors.
    """
    b0, b1, b2, b3 = tri.beta0, tri.beta1, tri.beta2, tri.beta3
    s0, s1, s2, s3 = (math.sin(x) for x in (b0, b1, b2, b3))
    sa2 = math.sin(tri.a2)
    for name, s in (("beta0", s0), ("beta1", s1), ("beta2", s2), ("beta3", s3), ("a2", sa2)):
        if s <= 0:
            raise DomainError("sin(%s) must be positive" % name)
    e = lambda ang: cmath.exp(1j * ang / N)
    p1 = FermatPoint(e(-tri.a2) * _principal_root(s2 / s0, N),
                     e(b2) * _principal_root(sa2 / s0, N), N)
    p2 = FermatPoint(e(-tri.a2) * _principal_root(s0 / s2, N),
                     e(b0) * _principal_root(sa2 / s2, N), N)
    p3 = FermatPoint(e(-(tri.a2 + math.pi)) * _principal_root(s3 / s1, N),
                     e(-b3) * _principal_root(sa2 / s1, N), N)
    p4 = FermatPoint(e(-(tri.a2 + math.pi)) * _principal_root(s1 / s3, N),
                     e(-b1) * _principal_root(sa2 / s3, N), N)
    return p1, p2, p3, p4
