import cmath
import decimal
import math
from decimal import Decimal

import mpmath as mp
import numpy as np
import pytest

from qlattice.errors import DomainError
from qlattice import qosc
from qlattice import rmatrices as rm
from qlattice import specfun as sf


def sample_triangle(rng):
    while True:
        th = rng.uniform(0.5, math.pi - 0.5, 3)
        try:
            return sf.spherical_sides_from_angles(*th)
        except DomainError:
            continue


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def test_fock_rep_lowest_weight():
    rep = qosc.fock_rep(6, 0.3)
    e0 = np.zeros(7)
    e0[0] = 1.0
    assert np.all(rep.a @ e0 == 0)
    # a a* |0> = (1 - q^2)|0>
    v = rep.a @ (rep.a_star @ e0)
    assert v[0] == pytest.approx(1 - 0.3 ** 2, abs=1e-14)


def test_fock_relations_masked():
    for q in (0.3, 0.5, 0.2 + 0.4j):
        rep = qosc.fock_rep(8, q)
        res = qosc.algebra_residuals(rep)
        assert max(res.values()) < 1e-12
    # the pair relation genuinely fails on the boundary level
    rep = qosc.fock_rep(4, 0.3)
    q = 0.3
    full = q * rep.a_star @ rep.a - rep.a @ rep.a_star / q - (q - 1 / q) * np.eye(5)
    assert np.max(np.abs(full)) > 0.1


def test_fock_relations_on_the_50_digit_rep():
    # the identity is built in q's number type and the relations are
    # evaluated in the 50-digit context, whatever the thread's context
    rep = qosc.fock_rep(5, rm.to_mp(0.3))
    with decimal.localcontext(decimal.Context(prec=10)):
        res = qosc.algebra_residuals(rep)
    assert sorted(res) == ["k_a", "k_astar", "ksq_left", "ksq_right", "pair"]
    assert max(res.values()) < 1e-40


def test_fock_k_squared():
    rep = qosc.fock_rep(5, 0.41)
    n = np.arange(6)
    assert np.allclose(np.diag(rep.k @ rep.k), 0.41 ** (2 * n + 1), atol=1e-14)


@pytest.mark.parametrize("N", [3, 5])
def test_cyclic_relations_exact(N):
    rng = np.random.default_rng(N)
    kappa = complex(rng.normal(), rng.normal())
    rho = complex(rng.normal(), rng.normal())
    rep = qosc.cyclic_rep(N, kappa, rho)
    res = qosc.algebra_residuals(rep)
    assert max(res.values()) < 1e-13


def test_cyclic_even_n_partial_relations():
    # clock/shift matrices obey X Z = q Z X only when q^N = 1, i.e. odd N;
    # at N = 2 the pair relation and both k^2 relations still hold exactly
    # while the k-commutation relations fail (the construction is odd-N only)
    rep = qosc.cyclic_rep(2, 0.8 + 0.3j, 1.2)
    res = qosc.algebra_residuals(rep)
    assert res["pair"] < 1e-13
    assert res["ksq_left"] < 1e-13
    assert res["ksq_right"] < 1e-13
    assert res["k_astar"] > 1e-2
    assert res["k_a"] > 1e-2


def test_cyclic_clock_shift_orders():
    # X^N = Z^N = 1 needs q^N = 1, so odd N
    N = 5
    rep = qosc.cyclic_rep(N, 0.7 + 0.2j, 1.1)
    q = sf.root_of_unity_q(N)
    x = np.diag(q ** np.arange(N))
    assert np.allclose(np.linalg.matrix_power(x, N), np.eye(N), atol=1e-12)
    # k^N = kappa^N Id
    kn = np.linalg.matrix_power(rep.k, N)
    assert np.allclose(kn, (0.7 + 0.2j) ** N * np.eye(N), atol=1e-12)


# ---------------------------------------------------------------------------
# L operators
# ---------------------------------------------------------------------------

def trivial_rep():
    one = np.ones((1, 1), dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    return qosc.QOscRep(0.3, zero, zero, one, exact_levels=0)


def test_l_block_pattern_trivial_rep():
    rep = trivial_rep()
    entries = qosc._loper_entries(rep, 1.0, 1.0)
    dense = np.zeros((4, 4), dtype=complex)
    for (i, j), m in entries.items():
        dense[i, j] = m[0, 0]
    expected = np.diag([1.0, 1.0, -1.0, 1.0]).astype(complex)
    expected[1, 2] = 0.0
    expected[2, 1] = 0.0
    assert np.allclose(dense, expected)
    # zero blocks exactly where the displayed matrix has zeros
    zero_slots = {(0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (2, 0), (2, 3),
                  (3, 0), (3, 1), (3, 2)}
    assert zero_slots.isdisjoint(entries.keys())


def test_l_product_associativity():
    rng = np.random.default_rng(0)
    tri = sample_triangle(rng)
    params = qosc.CyclicParams.from_triangle(tri, 3)
    ls = qosc.build_l(params.reps(), params.lambdas, params.mus)
    l12, l13, l23 = ls
    left = (l12 @ l13) @ l23
    right = l12 @ (l13 @ l23)
    assert (left - right).max_abs() < 1e-13


def test_build_l_same_entries_for_double_and_mpmath_q():
    # one build_l serves both number types; compare every entry of all
    # three placements
    import mpmath as mp
    q, cutoff = 0.3, 3
    ls = qosc.build_l((qosc.fock_rep(cutoff, q),) * 3, (1.0,) * 3, (-1.0,) * 3)
    with mp.workdps(50):
        mp_ls = qosc.build_l((qosc.fock_rep(cutoff, mp.mpf(q)),) * 3, (1.0,) * 3, (-1.0,) * 3)
    for op, mp_op in zip(ls, mp_ls):
        assert op.blocks.keys() == mp_op.blocks.keys()
        for key, block in op.blocks.items():
            mp_block = mp_op.blocks[key]
            # same stored (row, column) pattern
            assert np.array_equal(block.indptr, mp_block.indptr)
            assert np.array_equal(block.indices, mp_block.indices)
            want = block.data
            got = np.array([complex(val) for val in mp_block.data])
            assert got.shape == want.shape
            assert all(abs(g - w) <= 1e-15 * abs(g) for g, w in zip(got, want))


def test_mpmath_l_stores_only_mpf_entries():
    # the identity, lam mu and a entries used to stay Python ints and floats,
    # which every 50-digit product converted again
    with mp.workdps(50):
        reps = (qosc.fock_rep(4, mp.mpf("0.3")),) * 3
        for mat in (reps[0].a, reps[0].a_star, reps[0].k):
            assert all(isinstance(val, mp.mpf) for val in mat[np.nonzero(mat)])
        for key, mat in qosc._loper_entries(reps[0], 1.0, -1.0).items():
            assert all(isinstance(val, mp.mpf) for val in mat[np.nonzero(mat)]), key
        for op in qosc.build_l(reps, (1.0,) * 3, (-1.0,) * 3):
            for block in op.blocks.values():
                assert block.data.size
                assert all(isinstance(val, mp.mpf) for val in block.data)


def test_decimal_l_stores_only_decimal_entries():
    # the mpmath test above, on the checks' number type: every stored entry
    # of the reps, the L table and build_l is a Decimal, with lam and mu
    # passed as ints
    with decimal.localcontext(rm._MP_CTX):
        reps = (qosc.fock_rep(4, Decimal(0.3)),) * 3
        for mat in (reps[0].a, reps[0].a_star, reps[0].k):
            assert all(type(val) is Decimal for val in mat[np.nonzero(mat)])
        for key, mat in qosc._loper_entries(reps[0], 1, -1).items():
            assert all(type(val) is Decimal for val in mat[np.nonzero(mat)]), key
    for op in qosc.build_l(reps, (1,) * 3, (-1,) * 3):
        for block in op.blocks.values():
            assert block.data.size
            assert all(type(val) is Decimal for val in block.data)


# ---------------------------------------------------------------------------
# the sparse kernel against dense numpy products
# ---------------------------------------------------------------------------

KERNEL_DIMS = (3, 2, 4)
KERNEL_N = 24
EMPTY_ROWS = (0, 5, 17)


def kernel_values(rng, size, kind):
    vals = rng.normal(size=size) + 1j * rng.normal(size=size)
    if kind == "complex":
        return vals
    # 50-digit values that no double holds
    return np.array([mp.mpf(v.real) / 3 + mp.mpf(v.imag) / 7 for v in vals], dtype=object)


def random_coo(rng, nnz, kind):
    """Entries in random order, a quarter of them repeating an earlier
    (row, col), and none in EMPTY_ROWS."""
    rows = rng.choice([r for r in range(KERNEL_N) if r not in EMPTY_ROWS], nnz)
    cols = rng.integers(0, KERNEL_N, nnz)
    rows[-(nnz // 4):], cols[-(nnz // 4):] = rows[:nnz // 4], cols[:nnz // 4]
    return rows, cols, kernel_values(rng, nnz, kind)


def dense_from_coo(rows, cols, vals):
    out = np.zeros((KERNEL_N, KERNEL_N), dtype=vals.dtype)
    for r, c, v in zip(rows, cols, vals):
        out[r, c] = out[r, c] + v
    return out


def to_dense(op):
    """The dense matrix of a VOp read from its CSR fields, which must be
    canonical: one entry per (row, col), columns ascending in each row."""
    assert op.shape == (KERNEL_N, KERNEL_N)
    assert len(op.indptr) == KERNEL_N + 1 and op.indptr[0] == 0
    assert op.indptr[-1] == len(op.indices) == len(op.data)
    out = np.zeros(op.shape, dtype=object if op.data.dtype == object else complex)
    for row in range(KERNEL_N):
        cols = op.indices[op.indptr[row]:op.indptr[row + 1]]
        assert np.all(np.diff(cols) > 0)
        out[row, cols] = op.data[op.indptr[row]:op.indptr[row + 1]]
    return out


def assert_close(got, want, kind):
    tol = 1e-13 if kind == "complex" else 1e-45
    diff = np.max(np.abs(to_dense(got) - want), initial=0.0)
    assert diff <= tol * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("kind", ["complex", "mpf"])
def test_vop_kernel_matches_dense_products(kind):
    rng = np.random.default_rng(11)
    with mp.workdps(50):
        coo_a, coo_b = random_coo(rng, 60, kind), random_coo(rng, 40, kind)
        a, b = qosc.VOp(KERNEL_DIMS, *coo_a), qosc.VOp(KERNEL_DIMS, *coo_b)
        da, db = dense_from_coo(*coo_a), dense_from_coo(*coo_b)
        empty = qosc.VOp(KERNEL_DIMS, [], [], [])
        zero = np.zeros((KERNEL_N, KERNEL_N), dtype=da.dtype)
        scalar = kernel_values(rng, 1, kind)[0]
        rows, cols = rng.random(KERNEL_N) < 0.6, rng.random(KERNEL_N) < 0.6
        keep = np.outer(rows, cols)
        assert_close(a, da, kind)
        assert_close(a @ b, da @ db, kind)
        assert_close(b @ a, db @ da, kind)
        assert_close(a + b, da + db, kind)
        assert_close(a - b, da - db, kind)
        assert_close(-a, -da, kind)
        assert_close(scalar * a, scalar * da, kind)
        assert_close(a.restrict(rows, cols), np.where(keep, da, 0), kind)
        assert_close((a @ b).restrict(rows, cols), np.where(keep, da @ db, 0), kind)
        assert_close(a @ empty, zero, kind)
        assert_close(empty @ a, zero, kind)
        assert_close(empty + a, da, kind)
        assert_close(empty.restrict(rows, cols), zero, kind)
        assert len((empty @ empty).data) == 0
        for op in (a, b, a @ b):
            assert all(op.indptr[r] == op.indptr[r + 1] for r in EMPTY_ROWS)
        # from_dense keeps exactly the nonzero entries, with their values
        back = qosc.VOp.from_dense(KERNEL_DIMS, da)
        assert len(back.data) == np.count_nonzero(da)
        assert np.array_equal(to_dense(back), da)
        assert np.array_equal(to_dense(qosc.VOp.from_dense(KERNEL_DIMS, to_dense(a))), to_dense(a))
    assert a.max_abs() == np.max(np.abs(da))
    assert empty.max_abs() == 0.0


# ---------------------------------------------------------------------------
# intertwining
# ---------------------------------------------------------------------------

def test_fock_intertwining_masked():
    q = 0.3
    rep = qosc.fock_rep(6, q)
    reps = (rep, rep, rep)
    ls = qosc.build_l(reps, (1.0,) * 3, (-1.0,) * 3)
    r = rm.fock_r_dense(6, q)
    mask = qosc.product_state_mask(reps)
    assert qosc.intertwine_residual(ls, r, mask) < 1e-10
    # unmasked, the truncation boundary dominates
    assert qosc.intertwine_residual(ls, r, None) > 1e-2


def test_fock_intertwine_extended_evaluates_only_reachable_elements():
    calls = []

    def counting_element(*args):
        calls.append(args)
        return rm.fock_element_mp(*args)

    res = qosc.fock_intertwine_extended(5, 0.3, counting_element)
    assert len(calls) == 256
    assert repr(res) == "2.71477602e-49"


@pytest.mark.parametrize("cutoff, bound", [(8, 3.43e-36), (10, 8.47e-22)])
def test_fock_r_sparse_elements_match_150_digit_oracle(cutoff, bound):
    # every stored element of the 50-digit R against fock_element in a
    # 150-digit mpmath context at the same double q; the bounds are the
    # errors of the 50-digit binary elements these replaced
    ctx = mp.MPContext()
    ctx.dps = 150
    _, _, r = qosc.fock_r_sparse(cutoff, 0.3, rm.fock_element_mp)
    n = np.unravel_index(r._rows(), r.dims)
    m = np.unravel_index(r.indices, r.dims)
    indices = np.stack([*n, *m], axis=1).tolist()
    assert len(indices) == {8: 2023, 10: 5121}[cutoff]
    q = ctx.mpf(0.3)
    worst = max(abs(ctx.mpf(str(val)) - rm.fock_element(*idx, q))
                for val, idx in zip(r.data, indices))
    assert worst <= bound


def kron3(ops):
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


def dense_l_oracle(reps, lambdas, mus):
    """L12(H1), L13(H2), L23(H3) as dense matrices on C^2 x C^2 x C^2 x V1 x
    V2 x V3, written from the displayed L-matrix with np.kron."""
    def unit(i, j):
        e = np.zeros((2, 2))
        e[i, j] = 1.0
        return e

    out = []
    for first, second, ridx in ((0, 1, 0), (0, 2, 1), (1, 2, 2)):
        rep, lam, mu = reps[ridx], lambdas[ridx], mus[ridx]
        one = np.eye(rep.dim)
        # rows and columns (c, i): c the second auxiliary bit, i the first
        entries = {(0, 0): one, (1, 1): lam * rep.k, (1, 2): rep.a_star,
                   (2, 1): lam * mu * rep.a, (2, 2): -mu * rep.k, (3, 3): lam * mu * one}
        total = 0
        for (row, col), mat in entries.items():
            aux = [np.eye(2)] * 3
            aux[second] = unit(row // 2, col // 2)
            aux[first] = unit(row % 2, col % 2)
            vops = [np.eye(r.dim) for r in reps]
            vops[ridx] = mat
            total = total + np.kron(kron3(aux), kron3(vops))
        out.append(total)
    return out


def dense_residual_oracle(reps, lambdas, mus, r, mask):
    l12, l13, l23 = dense_l_oracle(reps, lambdas, mus)
    big_r = np.kron(np.eye(8), r)
    lhs = l12 @ l13 @ l23 @ big_r
    rhs = big_r @ l23 @ l13 @ l12
    keep = np.tile(mask, 8)
    sub = np.ix_(keep, keep)
    scale = max(np.max(np.abs(lhs[sub])), np.max(np.abs(rhs[sub])))
    return float(np.max(np.abs(lhs - rhs)[sub]) / scale)


def cyclic_case():
    tri = sample_triangle(np.random.default_rng(5))
    params = qosc.CyclicParams.from_triangle(tri, 3)
    r = rm.cyclic_r_dense(rm.CyclicRData.from_triangle(tri, 3))
    return params.reps(), params.lambdas, params.mus, r, np.ones(27, dtype=bool)


def fock_case():
    reps = (qosc.fock_rep(4, 0.3),) * 3
    return reps, (1.0,) * 3, (-1.0,) * 3, rm.fock_r_dense(4, 0.3), qosc.product_state_mask(reps)


@pytest.mark.parametrize("make_case", [cyclic_case, fock_case], ids=["cyclic-N3", "fock-cutoff4"])
def test_intertwine_residual_matches_dense_oracle(make_case):
    reps, lams, mus, r, mask = make_case()
    ls = qosc.build_l(reps, lams, mus)
    assert qosc.intertwine_residual(ls, r, mask) < 1e-12
    assert dense_residual_oracle(reps, lams, mus, r, mask) < 1e-12
    bad = r.copy()
    bad[0, 0] += 0.05 * np.max(np.abs(r))
    got = qosc.intertwine_residual(ls, bad, mask)
    want = dense_residual_oracle(reps, lams, mus, bad, mask)
    assert got > 1e-3
    assert abs(got - want) <= 1e-10 * want


def test_cyclic_intertwining_and_identity_control():
    rng = np.random.default_rng(2)
    for _ in range(3):
        tri = sample_triangle(rng)
        params = qosc.CyclicParams.from_triangle(tri, 3)
        ls = qosc.build_l(params.reps(), params.lambdas, params.mus)
        data = rm.CyclicRData.from_triangle(tri, 3)
        r = rm.cyclic_r_dense(data)
        assert qosc.intertwine_residual(ls, r) < 1e-10
        assert qosc.intertwine_residual(ls, np.eye(27, dtype=complex)) > 0.1


def test_gauge_invariance_of_intertwining():
    rng = np.random.default_rng(3)
    tri = sample_triangle(rng)
    params = qosc.CyclicParams.from_triangle(tri, 3)
    data = rm.CyclicRData.from_triangle(tri, 3)
    r = rm.cyclic_r_dense(data)
    base_combo = qosc.parameter_combinations(params.lambdas, params.mus)
    base = qosc.intertwine_residual(
        qosc.build_l(params.reps(), params.lambdas, params.mus), r)
    for _ in range(20):
        c1, c2, c3 = (complex(rng.normal(), rng.normal()) for _ in range(3))
        # rescale (lambda, mu) without changing the three combinations
        lams = (params.lambdas[0] * c3, params.lambdas[1] * c1, params.lambdas[2] * c1)
        mus = (params.mus[0] * c2, params.mus[1] * c2, params.mus[2] / c3)
        combo = qosc.parameter_combinations(lams, mus)
        assert np.allclose(combo, base_combo, atol=1e-12)
        res = qosc.intertwine_residual(qosc.build_l(params.reps(), lams, mus), r)
        assert abs(res - base) < 1e-12


def test_parameter_combinations_values():
    assert qosc.parameter_combinations((1, 1, 1), (1, 1, 1)) == (1, 1, 1)
    rng = np.random.default_rng(4)
    tri = sample_triangle(rng)
    N = 3
    p = qosc.CyclicParams.from_triangle(tri, N)
    c = qosc.parameter_combinations(p.lambdas, p.mus)
    assert c[0] == pytest.approx(cmath.exp(-1j * tri.a1 / N), abs=1e-12)
    assert c[1] == pytest.approx(cmath.exp(-1j * tri.a2 / N), abs=1e-12)
    assert c[2] == pytest.approx(cmath.exp(1j * tri.a3 / N), abs=1e-12)
    with pytest.raises(DomainError):
        qosc.parameter_combinations((1, 1, 0), (1, 1, 1))


# ---------------------------------------------------------------------------
# flip-map automorphism at operator level
# ---------------------------------------------------------------------------

def test_map_operator_relations_fock():
    q = 0.3
    rep = qosc.fock_rep(6, q)
    reps = (rep, rep, rep)
    r = rm.fock_r_dense(6, q)
    mask = qosc.product_state_mask(reps)
    res = qosc.map_operator_residuals(reps, r, eps=1, mask=mask)
    assert max(res.values()) < 1e-10
    # wrong eps must fail
    bad = qosc.map_operator_residuals(reps, r, eps=-1, mask=mask)
    assert max(bad.values()) > 1e-3


def test_map_operator_relations_fock_in_50_digits_at_global_double_precision():
    # cutoff 8, on the sparse R the intertwining check uses.  No precision is
    # set around these calls: the checks enter their own 52-digit context,
    # where a q at the global precision gave 3.7e-16
    assert mp.mp.dps == 15 and decimal.getcontext().prec == 28
    reps, mask, r = qosc.fock_r_sparse(8, 0.3, rm.fock_element_mp)
    res = qosc.map_operator_residuals(reps, r, eps=1, mask=mask)
    bad = qosc.map_operator_residuals(reps, r, eps=-1, mask=mask)
    assert max(res.values()) < 1e-30
    assert max(bad.values()) > 1e-3
    values = list(r.data)
    for rep in reps:
        for mat in (rep.a, rep.a_star, rep.k):
            values += list(mat[np.nonzero(mat)])
    assert len(values) > len(r.data)
    assert all(type(val) is Decimal for val in values)
    assert rm._MP_CTX.prec == rm._MP_DPS == 52


def test_map_relations_scale_by_the_compared_sides():
    # the full dense R at cutoff 8 reaches max|R| = 7e13 in entries outside
    # the mask; a scale taken from them would let the wrong map pass
    q = 0.3
    reps = (qosc.fock_rep(8, q),) * 3
    mask = qosc.product_state_mask(reps)
    r = rm.fock_r_dense(8, q)
    assert np.max(np.abs(r)) > 1e13
    bad = qosc.map_operator_residuals(reps, r, eps=-1, mask=mask)
    assert max(bad.values()) > 1e-3


def dense_map_oracle(reps, r, eps, mask):
    """Residuals of the flip-map relations written with np.kron matrices."""
    def op(axis, mat):
        ops = [np.eye(rep.dim) for rep in reps]
        ops[axis] = mat
        return kron3(ops)

    k1, k2, k3 = (op(i, rep.k) for i, rep in enumerate(reps))
    a1, a2, a3 = (op(i, rep.a) for i, rep in enumerate(reps))
    s1, s2, s3 = (op(i, rep.a_star) for i, rep in enumerate(reps))
    img_a2 = a1 @ a3 + eps * k1 @ k3 @ a2
    img_s2 = s1 @ s3 + eps * k1 @ k3 @ s2
    rels = {
        "k2a1s": (k2 @ s1, k3 @ s1 - eps * k1 @ s2 @ a3),
        "k2a1": (k2 @ a1, k3 @ a1 - eps * k1 @ a2 @ s3),
        "a2s": (s2, img_s2),
        "a2": (a2, img_a2),
        "k2a3s": (k2 @ s3, k1 @ s3 - eps * k3 @ a1 @ s2),
        "k2a3": (k2 @ a3, k1 @ a3 - eps * k3 @ s1 @ a2),
        "k2sq_constraint": (k2 @ k2, reps[0].q * (np.eye(len(r)) - img_s2 @ img_a2)),
    }
    sub = np.ix_(mask, mask)
    out = {}
    for name, (pre, post) in rels.items():
        lhs, rhs = (r @ pre)[sub], (post @ r)[sub]
        out[name] = float(np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(lhs)),
                                                           np.max(np.abs(rhs))))
    return out


def test_map_operator_residuals_match_dense_oracle():
    reps = (qosc.fock_rep(5, 0.3),) * 3
    mask = qosc.product_state_mask(reps)
    r = rm.fock_r_dense(5, 0.3)
    bad = r.copy()
    bad[0, 0] += 0.05 * np.max(np.abs(r))
    got = qosc.map_operator_residuals(reps, r, eps=1, mask=mask)
    assert max(got.values()) < 1e-12
    assert max(dense_map_oracle(reps, r, 1, mask).values()) < 1e-12
    for mat, eps in ((r, -1), (bad, 1)):
        got = qosc.map_operator_residuals(reps, mat, eps=eps, mask=mask)
        want = dense_map_oracle(reps, mat, eps, mask)
        assert max(got.values()) > 1e-3
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-12 + 1e-10 * want[k] for k in got)
