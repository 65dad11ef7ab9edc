import cmath
import math

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
    return qosc.QOscRep("trivial", 0.3, zero, zero, one, one, exact_levels=0)


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
            mp_rows = mp_op.blocks[key].rows
            assert block.rows.keys() == mp_rows.keys()
            for row, entries in block.rows.items():
                want = dict(entries)
                got = {col: complex(val) for col, val in mp_rows[row]}
                assert got.keys() == want.keys()
                assert all(abs(got[c] - want[c]) <= 1e-15 * abs(got[c]) for c in got)


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
        lams, mus = qosc.regauge(params.lambdas, params.mus, c1, c2, c3)
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
