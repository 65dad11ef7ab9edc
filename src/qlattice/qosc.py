"""Representations of the q-oscillator algebra

    q a* a - q^-1 a a* = q - q^-1,   k a* = q a* k,   k a = q^-1 a k,
    k^2 = q (1 - a* a) = q^-1 (1 - a a*),

as explicit matrices (truncated Fock and cyclic), the two-by-two-block
L-operator built from them, and the intertwining check

    L12(H1) L13(H2) L23(H3) R  =  R  L23(H3) L13(H2) L12(H1).

Products keep the 8 x 8 block structure over the three auxiliary C^2
spaces.  Each block is a complex128 VOp on V1 x V2 x V3, a short sum of
diagonal-times-index-shift terms, as is each R, built on the charge
sectors of rmatrices.charge_pairs: a and a* move one index by one, k is
diagonal, and R conserves n1 + n2 and n2 + n3.  A product is a gather and
a multiply per pair of terms, so nothing is sorted.  The Fock checks
compute only the R elements in extended precision (in rmatrices); every
product is double.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import rmatrices as rm
from .classical_map import CircularTriple, flip_numerators
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


def fock_rep(cutoff: int, q: complex) -> QOscRep:
    """Truncated Fock representation on basis |0> .. |cutoff>.

    a|n+1> = |n>,  a*|n> = (1 - q^{2+2n})|n+1>,  k|n> = q^{n+1/2}|n>,
    with the principal root of q, so a negative q has its representation.
    The pair relation q a*a - q^-1 a a* = q - q^-1 fails only on the top
    state; the interior mask excludes the top two levels to keep products
    of shifted states exact as well.  The matrices are complex128.
    """
    if cutoff < 2:
        raise DomainError("need cutoff >= 2")
    n = np.arange(cutoff + 1)
    a = np.eye(cutoff + 1, k=1, dtype=complex)
    a_star = np.diag((1 - q ** (2 + 2 * n[:-1])).astype(complex), k=-1)
    k = np.diag((q ** n * np.sqrt(complex(q))).astype(complex))
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


# ---------------------------------------------------------------------------
# operators on V1 x V2 x V3 as shift-diagonal terms, in blocks over C^2 x C^2 x C^2
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _source(dims, shift) -> np.ndarray:
    """Flat index of (n - shift) mod dims for every flat index n, read-only."""
    src = np.roll(np.arange(math.prod(dims)).reshape(dims), shift, axis=(0, 1, 2)).ravel()
    src.flags.writeable = False
    return src


class VOp:
    """Operator on V1 x V2 x V3 over flat basis indices n = (n1 d2 + n2) d3
    + n3, kept as a dict from a shift s in Z_d1 x Z_d2 x Z_d3 to a
    coefficient array c_s over the flat basis: entry (n, (n - s) mod dims)
    is c_s[n].  Every matrix has exactly one such decomposition; a
    truncated (Fock) factor is the same rule with zeros in the coefficients.
    The arrays keep the dtype they were built in and may be shared between
    operators, so no operation writes into an array it did not make.

    A product sums, per output shift, one gathered product per pair of
    terms, left terms in the outer loop and right terms in the inner, each
    in insertion order; sums and differences merge the dicts.
    """

    __array_ufunc__ = None  # a numpy scalar times a VOp defers to __rmul__

    def __init__(self, dims, terms):
        self.dims = tuple(dims)
        self.terms = terms

    @property
    def shape(self):
        """Shape of the dense matrix this operator stands for."""
        n = math.prod(self.dims)
        return n, n

    def __matmul__(self, other):
        if not isinstance(other, VOp):
            return NotImplemented
        d1, d2, d3 = self.dims
        out = {}
        for s, c in self.terms.items():
            src = _source(self.dims, s)
            for t, e in other.terms.items():
                u = ((s[0] + t[0]) % d1, (s[1] + t[1]) % d2, (s[2] + t[2]) % d3)
                out[u] = out[u] + c * e[src] if u in out else c * e[src]
        return VOp(self.dims, out)

    def __add__(self, other):
        out = dict(self.terms)
        for t, e in other.terms.items():
            out[t] = out[t] + e if t in out else e
        return VOp(self.dims, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for t, e in other.terms.items():
            out[t] = out[t] - e if t in out else -e
        return VOp(self.dims, out)

    def __neg__(self):
        return VOp(self.dims, {s: -c for s, c in self.terms.items()})

    def __rmul__(self, scalar):
        return VOp(self.dims, {s: scalar * c for s, c in self.terms.items()})

    def restrict(self, rows, cols):
        """The entries whose row is true in the boolean mask rows and whose
        column is true in cols; every other entry reads 0."""
        return VOp(self.dims, {s: np.where(rows & cols[_source(self.dims, s)], c, 0)
                               for s, c in self.terms.items()})

    def max_abs(self):
        return np.abs(list(self.terms.values())).max(initial=0.0)


class BlockOp:
    """Operator kept as an 8 x 8 dict of blocks acting on V1 x V2 x V3: VOps,
    or any other type with @ and +, such as ndarrays.  A plain operator on
    the left acts on the V factors only."""

    __array_ufunc__ = None  # make ndarray @ BlockOp defer to __rmatmul__

    def __init__(self, dims, blocks=None):
        self.dims = tuple(dims)
        self.blocks = {} if blocks is None else blocks

    def add(self, i, j, mat):
        key = (i, j)
        self.blocks[key] = self.blocks[key] + mat if key in self.blocks else mat

    def __matmul__(self, other):
        if not isinstance(other, BlockOp):
            return NotImplemented
        out = BlockOp(self.dims)
        for (i, j), a in self.blocks.items():
            for (jj, k), b in other.blocks.items():
                if j == jj:
                    out.add(i, k, a @ b)
        return out

    def __rmatmul__(self, other):
        # the checks never multiply so; bench/tracer.py wraps it by name
        out = BlockOp(self.dims)
        for (i, j), a in self.blocks.items():
            out.add(i, j, other @ a)
        return out

    def restrict(self, rows, cols):
        """Every block restricted as VOp.restrict(rows, cols)."""
        return BlockOp(self.dims, {key: b.restrict(rows, cols) for key, b in self.blocks.items()})


def _loper_entries(rep: QOscRep, lam, mu):
    """Nonzero entries of the two-by-two-block L-matrix.

    Row/column indices are (c, i) with c the second auxiliary space and i
    the first; entry (0,0)=1, (1,1)=lam k, (1,2)=a*, (2,1)=lam mu a,
    (2,2)=-mu k, (3,3)=lam mu, each complex128.
    """
    eye = np.eye(rep.dim, dtype=complex)
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
    """The single-factor matrix mat acting on factor axis of V1 x V2 x V3:
    one term per nonzero diagonal of mat, the diagonal s (entries
    mat[i, (i - s) mod d]) at shift s along axis, in ascending s."""
    i = np.arange(len(mat))
    diags = mat[i, (i - i[:, None]) % len(mat)]  # row s is the diagonal s
    shape = [-1 if k == axis else 1 for k in range(3)]
    return VOp(dims, {tuple(s if k == axis else 0 for k in range(3)):
                      np.broadcast_to(diags[s].reshape(shape), dims).ravel()
                      for s in np.flatnonzero((diags != 0).any(axis=1)).tolist()})


def _commutation_gap(left, r: VOp, right, mask) -> float:
    """max|lhs - rhs| relative to the largest entry of either side, 0.0
    where both vanish, for lhs = left[0] ... left[-1] . R and rhs =
    R . right[0] ... right[-1], each product taken left to right.

    r is the VOp of R over V1 x V2 x V3.  mask, if not None, is a boolean
    vector over that basis; rows and columns outside it are ignored
    (truncated-Fock boundary).  The outermost factor of each side is
    restricted to the masked rows or columns before multiplying, so every
    entry outside the compared block reads 0 on both sides.  Where the
    factors multiply to BlockOps, R multiplies one block at a time and each
    pair of blocks is compared at once, so no more than one block of each
    side is held.
    """
    left, right = list(left), list(right)
    if mask is not None:
        every = np.ones(math.prod(r.dims), dtype=bool)
        left[0], right[-1] = left[0].restrict(mask, every), right[-1].restrict(every, mask)
        r_rows, r_cols = r.restrict(mask, every), r.restrict(every, mask)
    else:
        r_rows = r_cols = r
    lhs, rhs = (op.blocks if isinstance(op, BlockOp) else {(0, 0): op}
                for op in (reduce(operator.matmul, left), reduce(operator.matmul, right)))
    empty = VOp(r.dims, {})
    sides, gaps = [0.0], [0.0]
    for key in dict.fromkeys([*lhs, *rhs]):
        a, b = lhs.get(key, empty) @ r_cols, r_rows @ rhs.get(key, empty)
        sides += [a.max_abs(), b.max_abs()]
        gaps.append((a - b).max_abs())
    scale = np.max(sides)  # np.max, not max: a nan anywhere reads nan
    return float(np.max(gaps) / scale) if scale else 0.0


def build_l(reps, lambdas, mus) -> tuple[BlockOp, BlockOp, BlockOp]:
    """L12(H1), L13(H2), L23(H3) on C^2 x C^2 x C^2 (x) V1 x V2 x V3.

    reps, lambdas, mus are triples; all reps must share one q.  Each block
    is a VOp acting on its representation's factor only.
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


def intertwine_residual(l_ops, r: VOp, mask: np.ndarray | None = None) -> float:
    """Normalized max-entry residual of LLL . R - R . (reversed LLL), on the
    VOp r, masked and scaled as in _commutation_gap."""
    return _commutation_gap(l_ops, r, l_ops[::-1], mask)


def product_state_mask(reps) -> np.ndarray:
    """Boolean mask over V1 x V2 x V3 selecting exact-action product states."""
    masks = [r.interior_mask() for r in reps]
    out = masks[0][:, None, None] & masks[1][None, :, None] & masks[2][None, None, :]
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# Fock checks on extended-precision elements
# ---------------------------------------------------------------------------

def _charge_r(d: int, nm, vals) -> VOp:
    """The R over Z_d^3 with element vals[k] at (n, m) = nm[:, k], zero
    elsewhere, as its d terms: R conserves n1 + n2 and n2 + n3, so n - m =
    (j, -j, j), at shift (j, -j, j) mod d.  The arrays are read-only."""
    dims = (d,) * 3
    coef = np.zeros((d, d ** 3), dtype=vals.dtype)
    coef[(nm[0] - nm[3]) % d, np.ravel_multi_index(nm[:3], dims)] = vals
    coef.flags.writeable = False
    return VOp(dims, {(j, -j % d, j): coef[j] for j in range(d)})


@lru_cache(maxsize=8)
def fock_r_sparse(cutoff: int, q: float):
    """(reps, mask, R) for the masked Fock checks, all complex128.

    reps are three Fock representations at q, and the interior mask keeps
    oscillator indices < cutoff - 1.  Each element of R is
    rmatrices.fock_element_mp rounded to double once: an element is a
    terminating q-series that cancels far below its terms, so it is summed
    in as many digits as it cancels, and only the products are double.
    R holds the charge sectors of rmatrices.charge_pairs whose m lies
    inside the cutoff, as the cutoff + 1 terms of _charge_r: shifts j and
    j - (cutoff + 1) share a key and fill different rows.  An element is
    computed only where its row n is masked, or its column is masked and no
    index of n is at the cutoff: every L, and every operator of the
    flip-map relations, moves each index by at most one, so no other
    element reaches a masked entry; the others read 0.  The result is
    cached per (cutoff, q), with read-only arrays, so the checks of one run
    at one q build R once.
    """
    reps = (fock_rep(cutoff, q),) * 3
    mask = product_state_mask(reps)
    dims = tuple(r.dim for r in reps)
    nm = rm.charge_pairs(cutoff + 1)
    nm = nm[:, ((nm >= 0) & (nm <= cutoff)).all(axis=0)]
    rows, cols = np.ravel_multi_index(nm[:3], dims), np.ravel_multi_index(nm[3:], dims)
    nm = nm[:, mask[rows] | (mask[cols] & (nm[:3].max(axis=0) < cutoff))]
    els = [rm.fock_element_mp(*idx, q) for idx in nm.T.tolist()]
    for a in (reps[0].a, reps[0].a_star, reps[0].k, mask):
        a.flags.writeable = False
    return reps, mask, _charge_r(cutoff + 1, nm, np.array(els, dtype=object).astype(complex))


def fock_intertwine_extended(cutoff: int, q: float) -> float:
    """Masked intertwining residual, with lambda = 1 and mu = -1, on the R
    of fock_r_sparse(cutoff, q)."""
    reps, mask, r = fock_r_sparse(cutoff, q)
    return intertwine_residual(build_l(reps, (1.0,) * 3, (-1.0,) * 3), r, mask)


# ---------------------------------------------------------------------------
# automorphism relations of the flip map, operator level
# ---------------------------------------------------------------------------

def map_operator_residuals(reps, r: VOp, eps: int = 1,
                           mask: np.ndarray | None = None) -> dict:
    """Residuals of R . F = F' . R for the six flip-map relations plus the
    primed constraint (k2')^2 = q (1 - a2*' a2'), each relative to the
    larger of its two masked sides (see _commutation_gap).

    F' is classical_map.flip_numerators on the lifted k, a, a* of each
    factor; r is the VOp of R over V1 x V2 x V3.
    """
    q = reps[0].q
    dims = r.dims
    t1, t2, t3 = (CircularTriple(_lift(dims, axis, rep.k), _lift(dims, axis, rep.a),
                                 _lift(dims, axis, rep.a_star))
                  for axis, rep in enumerate(reps))
    a1p, s1p, a2p, s2p, a3p, s3p = flip_numerators(t1, t2, t3, eps, operator.matmul)
    k2 = t2.k
    one = _lift(dims, 0, np.eye(dims[0]))  # the identity on V1 x V2 x V3
    rels = {
        "k2a1s": (k2 @ t1.a_star, s1p),
        "k2a1": (k2 @ t1.a, a1p),
        "a2s": (t2.a_star, s2p),
        "a2": (t2.a, a2p),
        "k2a3s": (k2 @ t3.a_star, s3p),
        "k2a3": (k2 @ t3.a, a3p),
        "k2sq_constraint": (k2 @ k2, q * (one - s2p @ a2p)),
    }
    return {name: _commutation_gap([post], r, [pre], mask)
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


def cyclic_r_sparse(data: rm.CyclicRData) -> VOp:
    """The cyclic R over Z_N as the N terms of _charge_r: the rows of
    rmatrices.charge_pairs(N) reduced mod N, every element in one
    cyclic_vertex_element call.  Odd N only: even N raises the vertex form's
    DomainError."""
    rm._require_odd(data.N)
    nm = rm.charge_pairs(data.N) % data.N
    return _charge_r(data.N, nm, rm.cyclic_vertex_element(nm[:3], nm[3:], data))
