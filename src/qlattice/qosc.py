"""Representations of the q-oscillator algebra

    q a* a - q^-1 a a* = q - q^-1,   k a* = q a* k,   k a = q^-1 a k,
    k^2 = q (1 - a* a) = q^-1 (1 - a a*),

as explicit matrices (truncated Fock and cyclic), the two-by-two-block
L-operator built from them, and the intertwining check

    L12(H1) L13(H2) L23(H3) R  =  R  L23(H3) L13(H2) L12(H1).

Products keep the 8 x 8 block structure over the three auxiliary C^2
spaces.  Each block is a sparse operator on V1 x V2 x V3 whose entries keep
the number type of q, so one product serves the double-precision and the
50-digit (Decimal) checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import rmatrices as rm
from .errors import DomainError
from .specfun import SphericalTriangle, root_of_unity_q

# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass
class QOscRep:
    q: complex
    a: np.ndarray
    a_star: np.ndarray
    k: np.ndarray
    exact_levels: int  # relations hold on basis states below this index

    @property
    def dim(self):
        return self.a.shape[0]

    def interior_mask(self) -> np.ndarray:
        """True on basis states where all algebra relations act exactly."""
        return np.arange(self.dim) < self.exact_levels


@rm.in_mp_context
def fock_rep(cutoff: int, q: complex) -> QOscRep:
    """Truncated Fock representation on basis |0> .. |cutoff>.

    a|n+1> = |n>,  a*|n> = (1 - q^{2+2n})|n+1>,  k|n> = q^{n+1/2}|n>.
    The pair relation q a*a - q^-1 a a* = q - q^-1 fails only on the top
    state; the interior mask excludes the top two levels to keep products
    of shifted states exact as well.  The matrices are complex for a double
    q and object arrays of Decimals in rmatrices._MP_CTX for a Decimal q;
    k is q^n times the square root of q, as a Decimal takes no float power.
    """
    if cutoff < 2:
        raise DomainError("need cutoff >= 2")
    d = cutoff + 1
    dtype = np.result_type(np.asarray(q), complex)
    a = np.zeros((d, d), dtype=dtype)
    a_star = np.zeros((d, d), dtype=dtype)
    for n in range(cutoff):
        a[n, n + 1] = q ** 0  # 1 in q's number type
        a_star[n + 1, n] = 1 - q ** (2 + 2 * n)
    root = np.sqrt(q)  # q.sqrt() in the context for a Decimal
    k = np.diag([q ** n * root for n in range(d)]).astype(dtype)
    return QOscRep(q, a, a_star, k, exact_levels=cutoff - 1)


def cyclic_rep(N: int, kappa: complex, rho: complex) -> QOscRep:
    """Cyclic representation at q = -exp(i pi / N) built from the clock and
    shift matrices X|n> = q^n |n>, Z|n> = |n+1 mod N>:

        k = kappa X,  a* = rho^-1 (1 - q^-1 kappa^2 X^2) Z,  a = rho Z^-1.
    """
    if N < 2:
        raise DomainError("need N >= 2")
    if kappa == 0 or rho == 0:
        raise DomainError("kappa and rho must be nonzero")
    q = root_of_unity_q(N)
    x = np.diag(q ** np.arange(N)).astype(complex)
    z = np.zeros((N, N), dtype=complex)
    for n in range(N):
        z[(n + 1) % N, n] = 1.0
    a_star = (np.eye(N) - kappa ** 2 / q * (x @ x)) @ z / rho
    a = rho * np.linalg.inv(z)
    return QOscRep(q, a, a_star, kappa * x, exact_levels=N)


@rm.in_mp_context
def algebra_residuals(rep: QOscRep) -> dict:
    """Masked residuals of the defining relations, in q's number type (in
    rmatrices._MP_CTX for a Decimal rep)."""
    q = rep.q
    eye = np.diag([q ** 0] * rep.dim)  # 1 in q's number type
    rels = {
        "pair": q * rep.a_star @ rep.a - rep.a @ rep.a_star / q - (q - 1 / q) * eye,
        "k_astar": rep.k @ rep.a_star - q * rep.a_star @ rep.k,
        "k_a": rep.k @ rep.a - rep.a @ rep.k / q,
        "ksq_left": rep.k @ rep.k - q * (eye - rep.a_star @ rep.a),
        "ksq_right": rep.k @ rep.k - (eye - rep.a @ rep.a_star) / q,
    }
    m = rep.interior_mask()
    return {name: float(np.max(np.abs(mat[np.ix_(m, m)]))) for name, mat in rels.items()}


# ---------------------------------------------------------------------------
# sparse operators on V1 x V2 x V3, in blocks over C^2 x C^2 x C^2
# ---------------------------------------------------------------------------

class VOp:
    """Sparse operator on V1 x V2 x V3 in CSR form over flat basis indices
    n = (n1 d2 + n2) d3 + n3: row n holds the columns indices[indptr[n] :
    indptr[n + 1]], ascending, with their values in data.  data keeps the
    number type it was built in: complex128 for a double q, an object array
    of Decimals for the 50-digit checks.  Operations on Decimals round in the
    calling thread's context, so the functions that build these enter
    rmatrices._MP_CTX (rmatrices.in_mp_context).

    VOp(dims, rows, cols, vals) takes entries in any order and sums those
    that share a (row, col) in the order given.  Every operation builds its
    result through that one sort-and-reduce step.
    """

    __array_ufunc__ = None  # a numpy scalar times a VOp defers to __rmul__

    def __init__(self, dims, rows, cols, vals):
        self.dims = tuple(dims)
        n = math.prod(self.dims)
        key = np.asarray(rows, dtype=np.int64) * n + np.asarray(cols, dtype=np.int64)
        order = np.argsort(key, kind="stable")
        key, vals = key[order], np.asarray(vals)[order]
        if key.size:
            # a one-entry segment keeps its value as is: no 0 + x, a rounding add
            starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            key, vals = key[starts], np.add.reduceat(vals, starts)
        self.indptr = np.searchsorted(key // n, np.arange(n + 1))
        self.indices = key % n
        self.data = vals

    @property
    def shape(self):
        """Shape of the dense matrix this operator stands for."""
        n = math.prod(self.dims)
        return n, n

    @classmethod
    def from_dense(cls, dims, mat):
        rows, cols = np.nonzero(mat)
        return cls(dims, rows, cols, mat[rows, cols])

    def _rows(self):
        """Row index of every stored entry."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    def __matmul__(self, other):
        if not isinstance(other, VOp):
            return NotImplemented
        # entry (r, m, v) of self meets every entry (m, c, w) of other's row m
        counts = np.diff(other.indptr)[self.indices]
        ends = np.cumsum(counts)
        pos = np.arange(ends[-1] if ends.size else 0) + np.repeat(
            other.indptr[self.indices] - ends + counts, counts)
        return VOp(self.dims, np.repeat(self._rows(), counts), other.indices[pos],
                   np.repeat(self.data, counts) * other.data[pos])

    def __add__(self, other):
        return VOp(self.dims, np.concatenate([self._rows(), other._rows()]),
                   np.concatenate([self.indices, other.indices]),
                   np.concatenate([self.data, other.data]))

    def __neg__(self):
        return VOp(self.dims, self._rows(), self.indices, -self.data)

    def __sub__(self, other):
        return self + -other

    def __rmul__(self, scalar):
        return VOp(self.dims, self._rows(), self.indices, scalar * self.data)

    def restrict(self, rows, cols):
        """The entries whose row is true in the boolean mask rows and whose
        column is true in cols."""
        r = self._rows()
        keep = rows[r] & cols[self.indices]
        return VOp(self.dims, r[keep], self.indices[keep], self.data[keep])

    def max_abs(self):
        # no float initial: a Decimal compares with a float only by converting it
        return np.max(np.abs(self.data)) if self.data.size else 0.0


class BlockOp:
    """Operator kept as an 8 x 8 dict of blocks acting on V1 x V2 x V3: VOps,
    or any other type with @, + and unary minus, such as ndarrays."""

    __array_ufunc__ = None  # make ndarray @ BlockOp defer to __rmatmul__

    def __init__(self, dims, blocks=None):
        self.dims = tuple(dims)
        self.blocks = {} if blocks is None else blocks

    def add(self, i, j, mat):
        key = (i, j)
        self.blocks[key] = self.blocks[key] + mat if key in self.blocks else mat

    def __matmul__(self, other):
        if isinstance(other, BlockOp):
            out = BlockOp(self.dims)
            for (i, j), a in self.blocks.items():
                for (jj, k), b in other.blocks.items():
                    if j == jj:
                        out.add(i, k, a @ b)
            return out
        # a plain operator acts on the V factors only
        out = BlockOp(self.dims)
        for (i, j), a in self.blocks.items():
            out.add(i, j, a @ other)
        return out

    def __rmatmul__(self, other):
        out = BlockOp(self.dims)
        for (i, j), a in self.blocks.items():
            out.add(i, j, other @ a)
        return out

    def __sub__(self, other):
        out = BlockOp(self.dims, dict(self.blocks))
        for key, b in other.blocks.items():
            out.add(*key, -b)
        return out

    def restrict(self, rows, cols):
        """Every block restricted as VOp.restrict(rows, cols)."""
        return BlockOp(self.dims, {key: b.restrict(rows, cols) for key, b in self.blocks.items()})

    def max_abs(self):
        return max((b.max_abs() for b in self.blocks.values()), default=0.0)


def _loper_entries(rep: QOscRep, lam, mu):
    """Nonzero entries of the two-by-two-block L-matrix.

    Row/column indices are (c, i) with c the second auxiliary space and i
    the first; entry (0,0)=1, (1,1)=lam k, (1,2)=a*, (2,1)=lam mu a,
    (2,2)=-mu k, (3,3)=lam mu.  Entries carry the representation's dtype,
    and each value q's number type, so for a Decimal q every entry is a
    Decimal; lam and mu must then be ints or Decimals, not floats.
    """
    eye = rep.q ** 0 * np.eye(rep.dim, dtype=rep.k.dtype)
    return {
        (0, 0): eye,
        (1, 1): lam * rep.k,
        (1, 2): rep.a_star,
        (2, 1): lam * mu * rep.a,
        (2, 2): -mu * rep.k,
        (3, 3): lam * mu * eye,
    }


# (first aux, second aux, rep index) of L12(H1), L13(H2), L23(H3)
PLACEMENTS = ((0, 1, 0), (0, 2, 1), (1, 2, 2))


def _placed_entries(rep: QOscRep, lam, mu, first: int, second: int):
    """Yield (aux row bits, aux col bits, V-matrix) of L_{first,second}: each
    L entry once per value of the spectator auxiliary bit."""
    spect_axis = 3 - first - second
    for (row, col), mat in _loper_entries(rep, lam, mu).items():
        c, i = divmod(row, 2)
        d, j = divmod(col, 2)
        for spect in range(2):
            bits_row = [0, 0, 0]
            bits_col = [0, 0, 0]
            bits_row[first], bits_col[first] = i, j
            bits_row[second], bits_col[second] = c, d
            bits_row[spect_axis] = bits_col[spect_axis] = spect
            yield tuple(bits_row), tuple(bits_col), mat


def _aux_index(bits) -> int:
    return bits[0] * 4 + bits[1] * 2 + bits[2]


def _lift(dims, axis: int, mat) -> VOp:
    """The single-factor matrix mat acting on factor axis of V1 x V2 x V3."""
    r, c = np.nonzero(mat)
    stride = math.prod(dims[axis + 1:])
    # flat index of every basis state whose factor axis is 0, as a column
    base = np.arange(math.prod(dims)).reshape(dims).take(0, axis=axis).reshape(-1, 1)
    return VOp(dims, (base + r * stride).ravel(), (base + c * stride).ravel(),
               np.tile(mat[r, c], base.size))


def _relative_gap(lhs, rhs) -> float:
    """max|lhs - rhs| relative to the largest entry of either side; 0.0 where
    both sides vanish."""
    scale = max(lhs.max_abs(), rhs.max_abs())
    return float((lhs - rhs).max_abs() / scale) if scale else 0.0


@rm.in_mp_context
def build_l(reps, lambdas, mus) -> tuple[BlockOp, BlockOp, BlockOp]:
    """L12(H1), L13(H2), L23(H3) on C^2 x C^2 x C^2 (x) V1 x V2 x V3.

    reps, lambdas, mus are triples; all reps must share one q.  Each block
    is a VOp acting on its representation's factor only, with entries in
    the representations' number type.
    """
    if len({np.round(complex(r.q), 12) for r in reps}) != 1:
        raise DomainError("representations must share the deformation parameter")
    dims = tuple(r.dim for r in reps)
    out = []
    for first, second, ridx in PLACEMENTS:
        op = BlockOp(dims)
        for bits_row, bits_col, mat in _placed_entries(
                reps[ridx], lambdas[ridx], mus[ridx], first, second):
            op.add(_aux_index(bits_row), _aux_index(bits_col), _lift(dims, ridx, mat))
        out.append(op)
    return tuple(out)


@rm.in_mp_context
def intertwine_residual(l_ops, r_matrix, mask: np.ndarray | None = None) -> float:
    """Normalized max-entry residual of LLL . R - R . (reversed LLL).

    r_matrix is a VOp or a dense matrix over V1 x V2 x V3.  mask, if given,
    is a boolean vector over that basis; rows and columns outside it are
    ignored (truncated-Fock boundary).  The outermost factor of each side is
    restricted to the masked rows or columns before multiplying, so no
    entry outside the compared block is formed.  The arithmetic is that of
    the entries: double, or Decimal in rmatrices._MP_CTX.
    """
    l12, l13, l23 = l_ops
    dims = l12.dims
    every = np.ones(math.prod(dims), dtype=bool)
    mask = every if mask is None else mask
    r = r_matrix if isinstance(r_matrix, VOp) else VOp.from_dense(dims, r_matrix)
    lhs = ((l12.restrict(mask, every) @ l13) @ l23) @ r.restrict(every, mask)
    rhs = r.restrict(mask, every) @ ((l23 @ l13) @ l12.restrict(every, mask))
    return _relative_gap(lhs, rhs)


def product_state_mask(reps) -> np.ndarray:
    """Boolean mask over V1 x V2 x V3 selecting exact-action product states."""
    masks = [r.interior_mask() for r in reps]
    out = masks[0][:, None, None] & masks[1][None, :, None] & masks[2][None, None, :]
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# extended-precision Fock checks
# ---------------------------------------------------------------------------
#
# Both Fock checks below (intertwining and flip-map relations) run in
# 52-digit decimal floats (the 50-digit checks), on one R that holds only the
# elements reaching a masked entry.  q enters as the Decimal of exactly the
# double given, once per call, and every element and representation entry is
# a Decimal computed in rmatrices._MP_CTX.  A Decimal rounds in the context
# of the calling thread, so each function here that computes in them enters
# that context itself and no caller has to set a precision.  The elements
# need those digits; the operator products do not.  Each element is a
# terminating q-series that cancels far below its terms: with
# double-precision elements the masked intertwining residual reads 1.0 at
# cutoff 8 (q = 0.3), while 50-digit elements rounded to double give 2.2e-16
# with double products at cutoffs 5, 8 and 10 (max|R| = 1).  Against
# 150-digit elements the 52-digit ones are off by up to 2.8e-36 at cutoff 8
# and 3.0e-22 at cutoff 10, and both checks read about that much.

@rm.in_mp_context
def fock_r_sparse(cutoff: int, q, element_fn):
    """(reps, mask, R) for the masked 50-digit Fock checks.

    reps are three Fock representations at to_mp(q), a Decimal converted
    once, and the interior mask keeps oscillator indices < cutoff - 1.
    element_fn(n1, n2, n3, m1, m2, m3, q) is called with that Decimal and
    must return the R element as a Decimal; it runs in rmatrices._MP_CTX.
    R is filled over charge sectors (m1 + m2 = n1 + n2, m2 + m3 = n2 + n3)
    and only where its row n is masked, or its column is masked and no index
    of n is at the cutoff: every L, and every operator of the flip-map
    relations, moves each index by at most one, so no other element reaches
    a masked entry.
    """
    q = rm.to_mp(q)
    reps = (fock_rep(cutoff, q),) * 3
    mask = product_state_mask(reps)
    dims = tuple(r.dim for r in reps)
    kept = mask.reshape(dims)
    flat = np.arange(mask.size).reshape(dims)
    rows, cols, vals = [], [], []
    for n in np.ndindex(*dims):
        c1, c2 = n[0] + n[1], n[1] + n[2]
        for m2 in range(max(0, c2 - cutoff, c1 - cutoff), min(c1, c2, cutoff) + 1):
            m = (c1 - m2, m2, c2 - m2)
            if kept[n] or (kept[m] and max(n) < cutoff):
                el = element_fn(*n, *m, q)
                if el:
                    rows.append(flat[n])
                    cols.append(flat[m])
                    vals.append(el)
    return reps, mask, VOp(dims, rows, cols, vals)


def fock_intertwine_extended(cutoff: int, q, element_fn) -> float:
    """Masked 50-digit intertwining residual, with lambda = 1 and mu = -1
    (ints, which a Decimal takes), on the R of fock_r_sparse(cutoff, q,
    element_fn)."""
    reps, mask, r = fock_r_sparse(cutoff, q, element_fn)
    return intertwine_residual(build_l(reps, (1,) * 3, (-1,) * 3), r, mask)


# ---------------------------------------------------------------------------
# automorphism relations of the flip map, operator level
# ---------------------------------------------------------------------------

@rm.in_mp_context
def map_operator_residuals(reps, r_matrix, eps: int = 1,
                           mask: np.ndarray | None = None) -> dict:
    """Residuals of R . F = F' . R for the six flip-map relations plus the
    primed constraint (k2')^2 = q (1 - a2*' a2'), each relative to the
    larger of its two masked sides.

    r_matrix is a VOp or a dense matrix over V1 x V2 x V3.  mask, if given,
    selects the rows and columns compared; R and each relation operator
    are restricted to them before multiplying.  The arithmetic is that of
    the entries: double, or Decimal in rmatrices._MP_CTX.
    """
    q = reps[0].q
    dims = tuple(r.dim for r in reps)
    every = np.ones(math.prod(dims), dtype=bool)
    mask = every if mask is None else mask
    r = r_matrix if isinstance(r_matrix, VOp) else VOp.from_dense(dims, r_matrix)
    (k1, a1, s1), (k2, a2, s2), (k3, a3, s3) = (
        (_lift(dims, axis, rep.k), _lift(dims, axis, rep.a), _lift(dims, axis, rep.a_star))
        for axis, rep in enumerate(reps))
    one = _lift(dims, 0, np.eye(dims[0], dtype=int))  # the identity on V1 x V2 x V3
    img_a2 = a1 @ a3 + eps * k1 @ k3 @ a2
    img_s2 = s1 @ s3 + eps * k1 @ k3 @ s2
    rels = {
        "k2a1s": (k2 @ s1, k3 @ s1 - eps * k1 @ s2 @ a3),
        "k2a1": (k2 @ a1, k3 @ a1 - eps * k1 @ a2 @ s3),
        "a2s": (s2, img_s2),
        "a2": (a2, img_a2),
        "k2a3s": (k2 @ s3, k1 @ s3 - eps * k3 @ a1 @ s2),
        "k2a3": (k2 @ a3, k1 @ a3 - eps * k3 @ s1 @ a2),
        "k2sq_constraint": (k2 @ k2, q * (one - img_s2 @ img_a2)),
    }
    r_rows, r_cols = r.restrict(mask, every), r.restrict(every, mask)
    return {name: _relative_gap(r_rows @ pre.restrict(every, mask),
                                post.restrict(mask, every) @ r_cols)
            for name, (pre, post) in rels.items()}


# ---------------------------------------------------------------------------
# cyclic parameters from a spherical triangle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicParams:
    """Representation and L-operator parameters of the cyclic solution."""

    N: int
    kappas: tuple
    rhos: tuple
    lambdas: tuple
    mus: tuple

    @classmethod
    def from_triangle(cls, tri: SphericalTriangle, N: int) -> "CyclicParams":
        """Gauge-fixed parameters: lambda2 = mu2 = mu3 = 1 and rho2 = rho3 = 1;
        the free combinations are carried by lambda1, lambda3, mu1, rho1."""
        root = lambda v: v ** (1.0 / N)
        if math.sin(tri.beta0) <= 0 or math.sin(tri.beta2) <= 0:
            raise DomainError("triangle outside the admissible region")
        kappas = (1j * root(math.tan(tri.theta1 / 2)),
                  1j * root(1.0 / math.tan(tri.theta2 / 2)),
                  1j * root(math.tan(tri.theta3 / 2)))
        rho1 = cmath.exp(-1j * tri.beta2 / N) * root(
            math.sin(tri.a2) / math.sin(tri.beta0))
        lambdas = (cmath.exp(-1j * tri.a2 / N), 1.0, cmath.exp(1j * tri.a1 / N))
        mus = (cmath.exp(1j * tri.a3 / N), 1.0, 1.0)
        return cls(N, kappas, (rho1, 1.0, 1.0), lambdas, mus)

    def reps(self):
        return tuple(cyclic_rep(self.N, self.kappas[j], self.rhos[j]) for j in range(3))


def parameter_combinations(lambdas, mus):
    """The three combinations the intertwining relation depends on:
    lambda2/lambda3, lambda1 mu3, mu1/mu2."""
    if lambdas[2] == 0 or mus[1] == 0:
        raise DomainError("zero parameter in a denominator")
    return (lambdas[1] / lambdas[2], lambdas[0] * mus[2], mus[0] / mus[1])

