import cmath
import decimal
import math

import mpmath as mp
import numpy as np
import pytest

from qlattice.errors import DomainError
from qlattice import qosc
from qlattice import rmatrices as rm
from qlattice import specfun as sf

import oracles


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
        res = oracles.algebra_residuals(rep)
        assert max(res.values()) < 1e-12
    # the pair relation genuinely fails on the boundary level
    rep = qosc.fock_rep(4, 0.3)
    q = 0.3
    full = q * rep.a_star @ rep.a - rep.a @ rep.a_star / q - (q - 1 / q) * np.eye(5)
    assert np.max(np.abs(full)) > 0.1


@pytest.mark.parametrize("q, cutoff", [(-0.5, 8), (-0.3, 10)])
def test_fock_rep_takes_the_principal_root_of_a_negative_q(q, cutoff):
    # k|n> = q^{n+1/2}|n>: the real root of a negative q is nan, which made
    # every relation with k and the whole intertwining check read nan
    from qlattice.harness.suites import SuiteConfig, run_suite

    rep = qosc.fock_rep(6, q)
    assert max(oracles.algebra_residuals(rep).values()) < 1e-14
    assert np.allclose(np.diag(rep.k @ rep.k), q ** (2 * np.arange(7) + 1), atol=1e-15)
    check = run_suite(SuiteConfig(suite="fock-intertwine", cutoff=cutoff, q=q))
    control = run_suite(SuiteConfig(suite="fock-intertwine", cutoff=cutoff, q=q,
                                    perturb=True))
    assert check.passed and check.max_residual < 1e-15
    assert control.passed and control.max_residual > 1e-2


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
    res = oracles.algebra_residuals(rep)
    assert max(res.values()) < 1e-13


def test_cyclic_even_n_partial_relations():
    # clock/shift matrices obey X Z = q Z X only when q^N = 1, i.e. odd N;
    # at N = 2 the pair relation and both k^2 relations still hold exactly
    # while the k-commutation relations fail (the construction is odd-N only)
    rep = qosc.cyclic_rep(2, 0.8 + 0.3j, 1.2)
    res = oracles.algebra_residuals(rep)
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
    assert left.blocks.keys() == right.blocks.keys()
    assert max((left.blocks[k] - right.blocks[k]).max_abs() for k in left.blocks) < 1e-13


def test_build_l_same_entries_for_double_and_mpmath_q():
    # a q of another real type gives the double L: compare every entry of
    # all three placements
    import mpmath as mp
    q, cutoff = 0.3, 3
    ls = qosc.build_l((qosc.fock_rep(cutoff, q),) * 3, (1.0,) * 3, (-1.0,) * 3)
    with mp.workdps(50):
        mp_ls = qosc.build_l((qosc.fock_rep(cutoff, mp.mpf(q)),) * 3, (1.0,) * 3, (-1.0,) * 3)
    for op, mp_op in zip(ls, mp_ls):
        assert op.blocks.keys() == mp_op.blocks.keys()
        for key, block in op.blocks.items():
            mp_block = mp_op.blocks[key]
            # same shifts, in the same order
            assert list(block.terms) == list(mp_block.terms)
            for shift, want in block.terms.items():
                got = np.array([complex(val) for val in mp_block.terms[shift]])
                assert got.shape == want.shape
                assert all(abs(g - w) <= 1e-15 * abs(g) for g, w in zip(got, want))


def test_fock_checks_compute_in_complex128():
    # the reps, every block of the three L-operators and R, as the Fock
    # checks build them
    reps, _, r = qosc.fock_r_sparse(5, 0.3)
    assert all(mat.dtype == np.complex128 for rep in reps
               for mat in (rep.a, rep.a_star, rep.k))
    for op in qosc.build_l(reps, (1.0,) * 3, (-1.0,) * 3):
        assert op.blocks and all(c.dtype == np.complex128 for b in op.blocks.values()
                                 for c in b.terms.values())
    assert all(c.dtype == np.complex128 for c in r.terms.values())
    assert sum(np.count_nonzero(c) for c in r.terms.values()) == 256


# ---------------------------------------------------------------------------
# the shift-diagonal kernel against dense arithmetic
# ---------------------------------------------------------------------------

def kernel_values(rng, size, kind):
    vals = rng.normal(size=size) + 1j * rng.normal(size=size)
    if kind == "complex":
        return vals
    # 50-digit values that no double holds
    return np.array([mp.mpf(v.real) / 3 + mp.mpf(v.imag) / 7 for v in vals], dtype=object)


def random_vop(rng, dims, kind):
    """A VOp on four distinct random shifts, a quarter of each coefficient
    array zero, and its dense matrix, whose entry (n, (n - s) mod dims) is
    coefficient n of shift s."""
    n = math.prod(dims)
    grid = np.indices(dims).reshape(3, -1)
    terms, dense = {}, np.zeros((n, n), dtype=complex if kind == "complex" else object)
    for flat in rng.choice(n, 4, replace=False):
        shift = tuple(int(i) for i in np.unravel_index(flat, dims))
        terms[shift] = kernel_values(rng, n, kind) * (rng.random(n) < 0.75)
        cols = np.ravel_multi_index([(g - s) % d for g, s, d in zip(grid, shift, dims)], dims)
        dense[np.arange(n), cols] = terms[shift]
    return qosc.VOp(dims, terms), dense


def dense_lift(dims, axis, mat):
    """mat on factor axis of V1 x V2 x V3, written entry by entry."""
    flat = np.arange(math.prod(dims)).reshape(dims)
    out = np.zeros((flat.size,) * 2, dtype=mat.dtype)
    for i, j in zip(*np.nonzero(mat)):
        out[flat.take(i, axis=axis).ravel(), flat.take(j, axis=axis).ravel()] = mat[i, j]
    return out


def dense_product(a, b):
    """a @ b over the nonzero entries of a and b, for object entries too."""
    out = np.zeros((len(a), b.shape[1]), dtype=np.result_type(a, b))
    for row in range(len(a)):
        for col in np.flatnonzero(a[row] != 0):
            nz = np.flatnonzero(b[col] != 0)
            out[row, nz] = out[row, nz] + b[col, nz] * a[row, col]
    return out


def assert_close(got, want, kind):
    tol = 1e-13 if kind == "complex" else 1e-45
    diff = oracles.to_dense(got) - want
    assert (np.max(np.abs(diff[diff != 0]), initial=0.0)
            <= tol * np.max(np.abs(want[want != 0]), initial=0.0))


@pytest.mark.parametrize("kind", ["complex", "mpf"])
@pytest.mark.parametrize("dims", [(3, 4, 2), (5, 5, 5)], ids=["3x4x2", "5x5x5"])
def test_vop_matches_dense_arithmetic(dims, kind):
    # random terms, and a truncated Fock lift whose shifts +2 and 2 - d share
    # one key, against the same operations on their dense matrices
    rng = np.random.default_rng(11)
    n = math.prod(dims)
    axis = int(np.argmax(dims))
    rep = qosc.fock_rep(dims[axis] - 1, 0.3)
    fock = rep.a_star @ rep.a_star + np.linalg.matrix_power(rep.a, dims[axis] - 2)
    with mp.workdps(50):
        if kind == "mpf":
            fock = np.array([[mp.mpf(v) / 3 for v in row] for row in fock.real.tolist()],
                            dtype=object)
        a, da = random_vop(rng, dims, kind)
        b, db = random_vop(rng, dims, kind)
        f, df = qosc._lift(dims, axis, fock), dense_lift(dims, axis, fock)
        empty, zero = qosc.VOp(dims, {}), np.zeros((n, n), dtype=da.dtype)
        scalar = kernel_values(rng, 1, kind)[0]
        rows, cols = rng.random(n) < 0.6, rng.random(n) < 0.6
        keep = np.outer(rows, cols)
        assert list(f.terms) == [tuple(2 if i == axis else 0 for i in range(3))]
        for got, want in [
                (a, da), (f, df), (a @ b, dense_product(da, db)),
                (b @ a, dense_product(db, da)), (a @ f, dense_product(da, df)),
                (f @ a, dense_product(df, da)), (f @ f, dense_product(df, df)),
                (a + b, da + db), (a + f, da + df), (a - b, da - db), (f - a, df - da),
                (-a, -da), (scalar * a, scalar * da),
                (a.restrict(rows, cols), np.where(keep, da, 0)),
                ((a @ f).restrict(rows, cols), np.where(keep, dense_product(da, df), 0)),
                (a @ empty, zero), (empty @ a, zero), (empty + a, da),
                (empty.restrict(rows, cols), zero)]:
            assert_close(got, want, kind)
        # the oracles keep exactly the nonzero diagonals, with their values
        back = oracles.vop_from_dense(dims, da)
        assert sorted(back.terms) == sorted(a.terms)
        assert all(np.array_equal(back.terms[s], a.terms[s]) for s in a.terms)
        assert np.array_equal(oracles.to_dense(back), da)
        assert np.array_equal(oracles.to_dense(oracles.vop_from_dense(dims, df)), df)
    assert a.max_abs() == np.max(np.abs(da))
    assert f.max_abs() == np.max(np.abs(df))
    assert empty.max_abs() == 0.0


def test_build_l_sorts_no_entries(monkeypatch):
    # every L block arrives from _lift in ascending (row, col) order
    def refuse(*args, **kwargs):
        raise AssertionError("np.argsort called")

    params = qosc.CyclicParams.from_triangle(sample_triangle(np.random.default_rng(3)), 5)
    monkeypatch.setattr(np, "argsort", refuse)
    qosc.build_l(params.reps(), params.lambdas, params.mus)
    qosc.build_l((qosc.fock_rep(8, 0.3),) * 3, (1.0,) * 3, (-1.0,) * 3)


def test_fock_r_sparse_sorts_no_entries(monkeypatch):
    # the charge sectors arrive in flat (row, col) order
    def refuse(*args, **kwargs):
        raise AssertionError("np.argsort called")

    monkeypatch.setattr(np, "argsort", refuse)
    qosc.fock_r_sparse.__wrapped__(8, 0.3)


def test_operator_checks_sort_nothing(monkeypatch):
    # a product is a gather and a multiply per pair of terms: the cyclic and
    # the masked Fock intertwining checks and the flip-map relations run
    # with every sort and segmented sum refusing
    def refuse(*args, **kwargs):
        raise AssertionError("sorted")

    class AddWithoutReduceat:
        def __getattr__(self, name):
            return getattr(add, name)

        def __call__(self, *args, **kwargs):
            return add(*args, **kwargs)

        reduceat = staticmethod(refuse)

    add = np.add
    tri = sample_triangle(np.random.default_rng(3))
    params = qosc.CyclicParams.from_triangle(tri, 5)
    cyclic_r = qosc.cyclic_r_sparse(rm.CyclicRData.from_triangle(tri, 5))
    reps, mask, fock_r = qosc.fock_r_sparse(8, 0.3)
    monkeypatch.setattr(np, "argsort", refuse)
    monkeypatch.setattr(np, "lexsort", refuse)
    monkeypatch.setattr(np, "add", AddWithoutReduceat())
    ls = qosc.build_l(params.reps(), params.lambdas, params.mus)
    assert qosc.intertwine_residual(ls, cyclic_r) < 1e-13
    ls = qosc.build_l(reps, (1.0,) * 3, (-1.0,) * 3)
    assert qosc.intertwine_residual(ls, fock_r, mask) < 1e-15
    assert max(qosc.map_operator_residuals(reps, fock_r, eps=1, mask=mask).values()) < 1e-15


# ---------------------------------------------------------------------------
# intertwining
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_cyclic_r_sparse_equals_the_dense_reference_bit_for_bit(N):
    data = rm.CyclicRData.from_triangle(sample_triangle(np.random.default_rng(N)), N)
    got = qosc.cyclic_r_sparse(data)
    want = oracles.vop_from_dense((N,) * 3, rm.cyclic_r_dense(data))
    assert got.dims == want.dims
    assert list(got.terms) == list(want.terms)
    for shift, a in got.terms.items():
        b = want.terms[shift]
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), shift


def test_cyclic_r_sparse_rejects_even_n():
    data = rm.CyclicRData.from_triangle(sample_triangle(np.random.default_rng(4)), 4)
    with pytest.raises(DomainError, match="even N = 4"):
        qosc.cyclic_r_sparse(data)


def test_fock_intertwining_masked():
    q = 0.3
    rep = qosc.fock_rep(6, q)
    reps = (rep, rep, rep)
    ls = qosc.build_l(reps, (1.0,) * 3, (-1.0,) * 3)
    r = oracles.vop_from_dense((7,) * 3, rm.fock_r_dense(6, q))
    mask = qosc.product_state_mask(reps)
    assert qosc.intertwine_residual(ls, r, mask) < 1e-10
    # unmasked, the truncation boundary dominates
    assert qosc.intertwine_residual(ls, r, None) > 1e-2


def test_fock_intertwine_extended_evaluates_only_reachable_elements(monkeypatch):
    calls = []
    element = rm.fock_element_mp

    def counting_element(*args):
        calls.append(args)
        return element(*args)

    monkeypatch.setattr(rm, "fock_element_mp", counting_element)
    qosc.fock_r_sparse.cache_clear()
    res = qosc.fock_intertwine_extended(5, 0.3)
    assert len(calls) == 256
    assert repr(res) == "2.220446049250313e-16"


@pytest.mark.parametrize("cutoff", [8, 10, 12])
def test_fock_r_sparse_elements_match_150_digit_oracle(cutoff):
    # every stored element of the double R is fock_element in a 150-digit
    # mpmath context at the same double q, rounded once: within half an ulp.
    # With 52-digit elements cutoff 12 is off by up to 2e-4; its elements
    # cancel up to 105 digits, and the oracle keeps 45 more
    ctx = mp.MPContext()
    ctx.dps = 150
    _, _, r = qosc.fock_r_sparse(cutoff, 0.3)
    entries = list(oracles.vop_entries(r))
    assert len(entries) == {8: 2023, 10: 5121, 12: 10791}[cutoff]
    assert not any(val.imag for _, _, val in entries)
    q = ctx.mpf(0.3)
    for row, col, val in entries:
        idx = np.transpose(np.unravel_index([row, col], r.dims)).ravel().tolist()
        exact = rm.fock_element(*idx, q)
        val = float(val.real)
        assert abs(val - exact) <= 2.0 ** -53 * abs(exact), idx


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
    dims = tuple(rep.dim for rep in reps)
    assert qosc.intertwine_residual(ls, oracles.vop_from_dense(dims, r), mask) < 1e-12
    assert dense_residual_oracle(reps, lams, mus, r, mask) < 1e-12
    bad = r.copy()
    bad[0, 0] += 0.05 * np.max(np.abs(r))
    got = qosc.intertwine_residual(ls, oracles.vop_from_dense(dims, bad), mask)
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
        r = oracles.vop_from_dense((3,) * 3, rm.cyclic_r_dense(data))
        assert qosc.intertwine_residual(ls, r) < 1e-10
        one = oracles.vop_from_dense((3,) * 3, np.eye(27, dtype=complex))
        assert qosc.intertwine_residual(ls, one) > 0.1


def test_intertwine_residual_restricts_only_with_a_mask(monkeypatch):
    # without a mask every row and column is compared, as it is restricted
    # to an all-true mask, and no restricted copy is built
    tri = sample_triangle(np.random.default_rng(6))
    params = qosc.CyclicParams.from_triangle(tri, 3)
    ls = qosc.build_l(params.reps(), params.lambdas, params.mus)
    r = oracles.vop_from_dense((3,) * 3, rm.cyclic_r_dense(rm.CyclicRData.from_triangle(tri, 3)))
    want = qosc.intertwine_residual(ls, r, np.ones(27, dtype=bool))
    monkeypatch.setattr(qosc.VOp, "restrict", None)
    assert qosc.intertwine_residual(ls, r) == want < 1e-10


def test_gauge_invariance_of_intertwining():
    rng = np.random.default_rng(3)
    tri = sample_triangle(rng)
    params = qosc.CyclicParams.from_triangle(tri, 3)
    data = rm.CyclicRData.from_triangle(tri, 3)
    r = oracles.vop_from_dense((3,) * 3, rm.cyclic_r_dense(data))
    base_combo = oracles.parameter_combinations(params.lambdas, params.mus)
    base = qosc.intertwine_residual(
        qosc.build_l(params.reps(), params.lambdas, params.mus), r)
    for _ in range(20):
        c1, c2, c3 = (complex(rng.normal(), rng.normal()) for _ in range(3))
        # rescale (lambda, mu) without changing the three combinations
        lams = (params.lambdas[0] * c3, params.lambdas[1] * c1, params.lambdas[2] * c1)
        mus = (params.mus[0] * c2, params.mus[1] * c2, params.mus[2] / c3)
        combo = oracles.parameter_combinations(lams, mus)
        assert np.allclose(combo, base_combo, atol=1e-12)
        res = qosc.intertwine_residual(qosc.build_l(params.reps(), lams, mus), r)
        assert abs(res - base) < 1e-12


def test_parameter_combinations_values():
    assert oracles.parameter_combinations((1, 1, 1), (1, 1, 1)) == (1, 1, 1)
    rng = np.random.default_rng(4)
    tri = sample_triangle(rng)
    N = 3
    p = qosc.CyclicParams.from_triangle(tri, N)
    c = oracles.parameter_combinations(p.lambdas, p.mus)
    assert c[0] == pytest.approx(cmath.exp(-1j * tri.a1 / N), abs=1e-12)
    assert c[1] == pytest.approx(cmath.exp(-1j * tri.a2 / N), abs=1e-12)
    assert c[2] == pytest.approx(cmath.exp(1j * tri.a3 / N), abs=1e-12)
    with pytest.raises(DomainError):
        oracles.parameter_combinations((1, 1, 0), (1, 1, 1))


# ---------------------------------------------------------------------------
# flip-map automorphism at operator level
# ---------------------------------------------------------------------------

def test_map_operator_relations_fock():
    q = 0.3
    rep = qosc.fock_rep(6, q)
    reps = (rep, rep, rep)
    r = oracles.vop_from_dense((7,) * 3, rm.fock_r_dense(6, q))
    mask = qosc.product_state_mask(reps)
    res = qosc.map_operator_residuals(reps, r, eps=1, mask=mask)
    assert max(res.values()) < 1e-10
    # wrong eps must fail
    bad = qosc.map_operator_residuals(reps, r, eps=-1, mask=mask)
    assert max(bad.values()) > 1e-3


def test_map_operator_relations_fock_in_50_digits_at_global_double_precision():
    # cutoff 8, on the sparse R the intertwining check uses.  No precision is
    # set around these calls: the elements take 52 digits or more in a
    # context of their own, and the relations read roundoff in double
    assert mp.mp.dps == 15 and decimal.getcontext().prec == 28
    reps, mask, r = qosc.fock_r_sparse(8, 0.3)
    res = qosc.map_operator_residuals(reps, r, eps=1, mask=mask)
    bad = qosc.map_operator_residuals(reps, r, eps=-1, mask=mask)
    assert max(res.values()) < 1e-15
    assert max(bad.values()) > 1e-3


def test_map_relations_scale_by_the_compared_sides():
    # the full dense R at cutoff 8 reaches max|R| = 7e13 in entries outside
    # the mask; a scale taken from them would let the wrong map pass
    q = 0.3
    reps = (qosc.fock_rep(8, q),) * 3
    mask = qosc.product_state_mask(reps)
    r = rm.fock_r_dense(8, q)
    assert np.max(np.abs(r)) > 1e13
    bad = qosc.map_operator_residuals(reps, oracles.vop_from_dense((9,) * 3, r), eps=-1,
                                      mask=mask)
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
    got = qosc.map_operator_residuals(reps, oracles.vop_from_dense((6,) * 3, r), eps=1,
                                      mask=mask)
    assert max(got.values()) < 1e-12
    assert max(dense_map_oracle(reps, r, 1, mask).values()) < 1e-12
    for mat, eps in ((r, -1), (bad, 1)):
        got = qosc.map_operator_residuals(reps, oracles.vop_from_dense((6,) * 3, mat), eps=eps,
                                          mask=mask)
        want = dense_map_oracle(reps, mat, eps, mask)
        assert max(got.values()) > 1e-3
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-12 + 1e-10 * want[k] for k in got)
