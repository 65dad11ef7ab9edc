"""Representations of the q-oscillator algebra

    q a* a - q^-1 a a* = q - q^-1,   k a* = q a* k,   k a = q^-1 a k,
    k^2 = q (1 - a* a) = q^-1 (1 - a a*),

as explicit matrices (truncated Fock and cyclic), the two-by-two-block
L-operator built from them, and the intertwining check

    L12(H1) L13(H2) L23(H3) R  =  R  L23(H3) L13(H2) L12(H1).

Products keep the 8 x 8 block structure over the three auxiliary C^2
spaces.  Each block is a sparse operator on V1 x V2 x V3 whose entries keep
the number type of q, so one product serves the double-precision and the
50-digit checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rmatrices import _MP_DPS
from .specfun import SphericalTriangle, root_of_unity_q

# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass
class QOscRep:
    kind: str
    q: complex
    a: np.ndarray
    a_star: np.ndarray
    k: np.ndarray
    k_inv: np.ndarray
    exact_levels: int  # relations hold on basis states below this index

    @property
    def dim(self):
        return self.a.shape[0]

    def interior_mask(self) -> np.ndarray:
        """True on basis states where all algebra relations act exactly."""
        return np.arange(self.dim) < self.exact_levels


def fock_rep(cutoff: int, q: complex) -> QOscRep:
    """Truncated Fock representation on basis |0> .. |cutoff>.

    a|n+1> = |n>,  a*|n> = (1 - q^{2+2n})|n+1>,  k|n> = q^{n+1/2}|n>.
    The pair relation q a*a - q^-1 a a* = q - q^-1 fails only on the top
    state; the interior mask excludes the top two levels to keep products
    of shifted states exact as well.  The matrices are complex for a double
    q and object arrays of mpmath numbers for an mpmath q.
    """
    if cutoff < 2:
        raise DomainError("need cutoff >= 2")
    d = cutoff + 1
    dtype = np.result_type(np.asarray(q), complex)
    a = np.zeros((d, d), dtype=dtype)
    a_star = np.zeros((d, d), dtype=dtype)
    for n in range(cutoff):
        a[n, n + 1] = 1.0
        a_star[n + 1, n] = 1.0 - q ** (2 + 2 * n)
    levels = np.arange(d) + 0.5
    k = np.diag(q ** levels).astype(dtype)
    k_inv = np.diag(q ** -levels).astype(dtype)
    return QOscRep("fock", q, a, a_star, k, k_inv, exact_levels=cutoff - 1)


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
    k = kappa * x
    k_inv = np.linalg.inv(k)
    a_star = (np.eye(N) - kappa ** 2 / q * (x @ x)) @ z / rho
    a = rho * np.linalg.inv(z)
    return QOscRep("cyclic", q, a, a_star, k, k_inv, exact_levels=N)


def algebra_residuals(rep: QOscRep) -> dict:
    """Masked residuals of the defining relations."""
    q = rep.q
    eye = np.eye(rep.dim)
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
    """Sparse operator on V1 x V2 x V3.

    rows maps a basis index triple (n1, n2, n3) to a list of (column triple,
    value) entries.  Values keep the number type they were built in: complex
    for a double q, mpmath numbers for the 50-digit checks.
    """

    def __init__(self, dims, rows):
        self.dims = tuple(dims)
        self.rows = rows

    @property
    def shape(self):
        """Shape of the dense matrix this operator stands for."""
        n = math.prod(self.dims)
        return n, n

    @classmethod
    def from_dense(cls, dims, mat):
        triples = list(np.ndindex(*dims))
        vals = mat.tolist()
        rows = {}
        for r, c in np.argwhere(mat).tolist():
            rows.setdefault(triples[r], []).append((triples[c], vals[r][c]))
        return cls(dims, rows)

    def __matmul__(self, other):
        if not isinstance(other, VOp):
            return NotImplemented
        out = {}
        for r, entries in self.rows.items():
            acc = {}
            for mid, v in entries:
                for c, w in other.rows.get(mid, ()):
                    vw = v * w  # stored as is when new: no 0 + x, an mpmath add
                    acc[c] = acc[c] + vw if c in acc else vw
            out[r] = list(acc.items())
        return VOp(self.dims, out)

    def __add__(self, other):
        out = dict(self.rows)
        for r, entries in other.rows.items():
            acc = dict(out.get(r, ()))
            for c, w in entries:
                acc[c] = acc[c] + w if c in acc else w
            out[r] = list(acc.items())
        return VOp(self.dims, out)

    def __neg__(self):
        return VOp(self.dims, {r: [(c, -v) for c, v in e] for r, e in self.rows.items()})

    def max_abs(self, keep=None):
        """Largest |entry| with row and column in keep (None keeps all)."""
        return max((abs(v) for r, e in self.rows.items() if keep is None or r in keep
                    for c, v in e if keep is None or c in keep), default=0.0)


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

    def max_abs(self, keep=None):
        return max((b.max_abs(keep) for b in self.blocks.values()), default=0.0)


def _kron3(ops):
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


def _loper_entries(rep: QOscRep, lam, mu):
    """Nonzero entries of the two-by-two-block L-matrix.

    Row/column indices are (c, i) with c the second auxiliary space and i
    the first; entry (0,0)=1, (1,1)=lam k, (1,2)=a*, (2,1)=lam mu a,
    (2,2)=-mu k, (3,3)=lam mu.  Entries carry the representation's dtype.
    """
    eye = np.eye(rep.dim, dtype=rep.k.dtype)
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
        others = [dim for axis, dim in enumerate(dims) if axis != ridx]
        for bits_row, bits_col, mat in _placed_entries(
                reps[ridx], lambdas[ridx], mus[ridx], first, second):
            vals, nonzero = mat.tolist(), np.argwhere(mat).tolist()
            rows = {}
            for rest in np.ndindex(*others):
                for r, c in nonzero:
                    rows.setdefault(rest[:ridx] + (r,) + rest[ridx:], []).append(
                        (rest[:ridx] + (c,) + rest[ridx:], vals[r][c]))
            op.add(_aux_index(bits_row), _aux_index(bits_col), VOp(dims, rows))
        out.append(op)
    return tuple(out)


def intertwine_residual(l_ops, r_matrix, mask: np.ndarray | None = None) -> float:
    """Normalized max-entry residual of LLL . R - R . (reversed LLL).

    r_matrix is a VOp or a dense matrix over V1 x V2 x V3.  mask, if given,
    is a boolean vector over that basis; rows and columns outside it are
    ignored (truncated-Fock boundary), and only masked rows are multiplied
    by R.  The arithmetic is that of the entries: double or mpmath.
    """
    l12, l13, l23 = l_ops
    dims = l12.dims
    if mask is None:
        mask = np.ones(math.prod(dims), dtype=bool)
    proj = VOp(dims, {n: [(n, 1)] for n, ok in zip(np.ndindex(*dims), mask) if ok})
    r = r_matrix if isinstance(r_matrix, VOp) else VOp.from_dense(dims, r_matrix)
    lhs = (((proj @ l12) @ l13) @ l23) @ r
    rhs = (proj @ r) @ ((l23 @ l13) @ l12)
    keep = proj.rows
    scale = max(lhs.max_abs(keep), rhs.max_abs(keep), 1e-300)
    return float((lhs - rhs).max_abs(keep) / scale)


def product_state_mask(reps) -> np.ndarray:
    """Boolean mask over V1 x V2 x V3 selecting exact-action product states."""
    masks = [r.interior_mask() for r in reps]
    out = masks[0][:, None, None] & masks[1][None, :, None] & masks[2][None, None, :]
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# extended-precision Fock intertwining
# ---------------------------------------------------------------------------
#
# At larger cutoffs the R elements within one charge sector span enormous
# magnitude ranges (q^{+-(cutoff^2)} prefactors), so double-precision
# products lose every significant digit even though the masked identity is
# exact.  The check below runs the same sparse product in software floats.

def fock_intertwine_extended(cutoff: int, q, element_fn) -> float:
    """Masked intertwining residual at _MP_DPS digits, with lambda = 1 and
    mu = -1.

    element_fn(n1, n2, n3, m1, m2, m3, q) must return the R element as an
    mp number; the interior mask keeps oscillator indices < cutoff - 1.
    R is filled over charge sectors (m1 + m2 = n1 + n2, m2 + m3 = n2 + n3)
    and only where its row or column is masked: no other element reaches a
    masked entry of either side.
    """
    import mpmath as mp

    with mp.workdps(_MP_DPS):
        reps = (fock_rep(cutoff, mp.mpmathify(q)),) * 3
        mask = product_state_mask(reps)
        dims = tuple(r.dim for r in reps)
        kept = mask.reshape(dims)
        rows = {}
        for n in np.ndindex(*dims):
            c1, c2 = n[0] + n[1], n[1] + n[2]
            for m2 in range(max(0, c2 - cutoff, c1 - cutoff), min(c1, c2, cutoff) + 1):
                m = (c1 - m2, m2, c2 - m2)
                if kept[n] or kept[m]:
                    el = element_fn(*n, *m, q)
                    if el:
                        rows.setdefault(n, []).append((m, el))
        ls = build_l(reps, (1.0,) * 3, (-1.0,) * 3)
        return intertwine_residual(ls, VOp(dims, rows), mask)


# ---------------------------------------------------------------------------
# automorphism relations of the flip map, operator level
# ---------------------------------------------------------------------------

def map_operator_residuals(reps, r_matrix: np.ndarray, eps: int = 1,
                           mask: np.ndarray | None = None) -> dict:
    """Residuals of R . F = F' . R for the six flip-map relations plus the
    primed constraint (k2')^2 = q (1 - a2*' a2')."""
    r1, r2, r3 = reps
    q = r1.q
    eyes = [np.eye(r.dim, dtype=complex) for r in reps]

    def op(o1, o2, o3):
        return _kron3([o1 if o1 is not None else eyes[0],
                       o2 if o2 is not None else eyes[1],
                       o3 if o3 is not None else eyes[2]])

    k1, a1, s1 = op(r1.k, None, None), op(r1.a, None, None), op(r1.a_star, None, None)
    k2, a2, s2 = op(None, r2.k, None), op(None, r2.a, None), op(None, r2.a_star, None)
    k3, a3, s3 = op(None, None, r3.k), op(None, None, r3.a), op(None, None, r3.a_star)
    img_a2 = a1 @ a3 + eps * k1 @ k3 @ a2
    img_s2 = s1 @ s3 + eps * k1 @ k3 @ s2
    rels = {
        "k2a1s": (k2 @ s1, k3 @ s1 - eps * k1 @ s2 @ a3),
        "k2a1": (k2 @ a1, k3 @ a1 - eps * k1 @ a2 @ s3),
        "a2s": (s2, img_s2),
        "a2": (a2, img_a2),
        "k2a3s": (k2 @ s3, k1 @ s3 - eps * k3 @ a1 @ s2),
        "k2a3": (k2 @ a3, k1 @ a3 - eps * k3 @ s1 @ a2),
        "k2sq_constraint": (k2 @ k2, q * (op(None, None, None) - img_s2 @ img_a2)),
    }
    out = {}
    for name, (pre, post) in rels.items():
        diff = r_matrix @ pre - post @ r_matrix
        if mask is not None:
            diff = diff[np.ix_(mask, mask)]
        scale = max(float(np.max(np.abs(r_matrix))), 1e-300)
        out[name] = float(np.max(np.abs(diff))) / scale
    return out


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


def regauge(lambdas, mus, c1: complex, c2: complex, c3: complex):
    """Rescale (lambda, mu) without changing the three combinations."""
    lams = (lambdas[0] * c3, lambdas[1] * c1, lambdas[2] * c1)
    ms = (mus[0] * c2, mus[1] * c2, mus[2] / c3)
    return lams, ms
