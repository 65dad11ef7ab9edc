import decimal
import functools
import itertools
import math

import numpy as np
import pytest

from qlattice.errors import AccuracyError, DegeneracyError, DomainError
from qlattice import rmatrices as rm
from qlattice import specfun as sf

import oracles

PI = math.pi
MP = sf.ModularParam(0.8 * np.exp(1j * PI / 40))


# ---------------------------------------------------------------------------
# Fock elements and vertex TE
# ---------------------------------------------------------------------------

def test_fock_element_spot_values():
    q = 0.3
    assert rm.fock_element(0, 0, 0, 0, 0, 0, q) == pytest.approx(1.0, abs=1e-15)
    # two-term terminating series, hand-checked: 1 - q^2
    assert rm.fock_element(1, 0, 1, 0, 1, 0, q) == pytest.approx(0.91, abs=1e-14)
    assert rm.fock_element(0, 0, 0, 1, 0, 0, q) == 0.0


def test_fock_element_charge_sparsity():
    q = 0.45
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(0, 4, 6)
        ok = n[0] + n[1] == n[3] + n[4] and n[1] + n[2] == n[4] + n[5]
        val = rm.fock_element(*n, q)
        if not ok:
            assert val == 0.0


def test_fock_element_matches_displayed_product_generic():
    # away from index collisions the combined sum equals
    # binom(n3, m2) * 2phi1 as displayed
    q = 0.37
    qsq = q * q
    for (n1, n2, n3, m2) in [(0, 1, 2, 1), (1, 1, 2, 2), (2, 0, 3, 1), (1, 2, 3, 2)]:
        m1 = n1 + n2 - m2
        m3 = n2 + n3 - m2
        if m1 < 0 or m3 < 0 or m2 > n3:
            continue
        direct = ((-1) ** n2 * q ** ((m1 - n2) * (m3 - n2))
                  * oracles.qbinomial(n3, m2, qsq)
                  * oracles.qgauss_2phi1(q ** (-2 * m2), q ** (2 * (1 + m3)),
                                    q ** (2 * (1 - m2 + n3)), qsq, q ** (2 * (1 + n1))))
        assert rm.fock_element(n1, n2, n3, m1, m2, m3, q) == pytest.approx(direct, abs=1e-12)


def fock_te_consistent(ext) -> bool:
    """Charge consistency of an external tuple; when False both sides vanish."""
    n1, n2, n3, n4, n5, n6, p1, p2, p3, p4, p5, p6 = ext
    return (n1 + n2 + n4 == p1 + p2 + p4
            and n3 + n5 + p1 == n1 + p3 + p5
            and n4 + n5 + n6 == p4 + p5 + p6)


def _te_terms_oracle(ext):
    # every value of each side's free index up to the sum of the externals,
    # which bounds every index, with the internal indices solved from the
    # deltas and each of the four elements checked on its own
    n1, n2, n3, n4, n5, n6, p1, p2, p3, p4, p5, p6 = ext
    lhs, rhs = [], []
    for free in range(sum(ext) + 1):
        i1 = free
        i2, i3, i4, i5 = n1 + n2 - i1, n3 - n1 + i1, i1 + n4 - p1, n5 - i1 + p1
        i6 = i4 + n6 - p4
        lhs.append(((n1, n2, n3, i1, i2, i3), (i1, n4, n5, p1, i4, i5),
                    (i2, i4, n6, p2, p4, i6), (i3, i5, i6, p3, p5, p6)))
        i3 = free
        i5, i6 = n3 + n5 - i3, n6 - n3 + i3
        i4 = n4 + i6 - p6
        i2, i1 = n2 + n4 - i4, n1 + i4 - p4
        rhs.append(((n3, n5, n6, i3, i5, i6), (n2, n4, i6, i2, i4, p6),
                    (n1, i4, i5, i1, p4, p5), (i1, i2, i3, p1, p2, p3)))
    return tuple([t for t in side if min(map(min, t)) >= 0
                  and all(rm.fock_charge_allowed(*el) for el in t)] for side in (lhs, rhs))


def _terms_by_column(gated, ncols):
    # fock_te_gate's arrays as each column's (lhs, rhs) lists of terms, a term
    # being its four elements' index 6-tuples of Python ints
    col, side, ids, elements = gated
    out = [([], []) for _ in range(ncols)]
    for c, s, term in zip(col.tolist(), side.tolist(), elements[ids].tolist()):
        out[c][s].append(tuple(map(tuple, term)))
    return out


def _gate_one(ext):
    return rm.fock_te_gate(np.reshape(ext, (12, 1)))


def test_te_gate_terms_match_brute_force_oracle():
    rng = np.random.default_rng(12)
    exts = list(itertools.product(range(2), repeat=12))
    exts += [tuple(int(x) for x in rng.integers(0, 4, 12)) for _ in range(2000)]
    # about 1 in 270 random tuples is consistent: draw 300 more that are
    consistent = []
    while len(consistent) < 300:
        draws = map(tuple, rng.integers(0, 4, (10000, 12)).tolist())
        consistent += filter(fock_te_consistent, draws)
    exts += consistent[:300]
    with_terms = 0
    for ext in exts:
        gated = _gate_one(ext)
        (terms,) = _terms_by_column(gated, 1)
        assert terms == _te_terms_oracle(ext)
        assert all(a.dtype.kind == "i" for a in gated)
        with_terms += any(terms)
    assert with_terms == 152 + 5 + 300
    # a batch gives each column the terms its one-column call gives
    batch = rm.fock_te_gate(np.array(exts[-200:]).T)
    assert _terms_by_column(batch, 200) == [_terms_by_column(_gate_one(ext), 1)[0]
                                            for ext in exts[-200:]]
    assert all(a.dtype.kind == "i" for a in batch)


def test_te_gate_finds_terms_exactly_on_consistent_tuples():
    inner = np.indices((3,) * 6).reshape(6, -1)
    hits = []
    for outer in itertools.product(range(3), repeat=6):
        exts = np.vstack([np.repeat(np.reshape(outer, (6, 1)), inner.shape[1], axis=1), inner])
        hits += list(map(tuple, exts[:, np.unique(rm.fock_te_gate(exts)[0])].T.tolist()))
    consistent = [ext for ext in itertools.product(range(3), repeat=12)
                  if fock_te_consistent(ext)]
    assert len(consistent) == 4743
    assert hits == consistent


def _te_sides_per_tuple(terms, q):
    # one external tuple's (lhs, rhs) summed on their own in 50 digits; a
    # Decimal rounds in the thread's context, so the oracle enters the
    # checks' context for its own sums
    el = rm.fock_element_mp
    with decimal.localcontext(rm._MP_CTX):
        return tuple(sum(el(*a, q) * el(*b, q) * el(*c, q) * el(*d, q)
                         for a, b, c, d in side)
                     for side in terms)


@functools.lru_cache(maxsize=None)
def _outer_tuple_terms(max_index, idx):
    # the terms of every inner tuple with one, for the outer tuple of case idx
    # of the sweep, from one gate call over the full inner grid
    base = max_index + 1
    outer = [idx // base ** k % base for k in range(6)]
    inner = np.indices((base,) * 6).reshape(6, -1)
    exts = np.vstack([np.repeat(np.reshape(outer, (6, 1)), inner.shape[1], axis=1), inner])
    return [terms for terms in _terms_by_column(rm.fock_te_gate(exts), exts.shape[1])
            if any(terms)]


def _fock_te_case_oracle(cfg, idx):
    # the sweep a fock-te case made before it ran on arrays: the full inner
    # grid of its outer tuple through the gate, then each tuple with a term
    # summed and compared on its own
    worst = 0.0
    for terms in _outer_tuple_terms(cfg.max_index, idx):
        if cfg.perturb:
            (lhs,) = _te_sides_per_tuple(terms[:1], cfg.q)
            (rhs,) = _te_sides_per_tuple(terms[1:], cfg.q * (1 + 1e-3))
        else:
            lhs, rhs = _te_sides_per_tuple(terms, cfg.q)
        with decimal.localcontext(rm._MP_CTX):
            worst = max(worst, float(rm._rel_residual(lhs, rhs)))
    return worst


@pytest.mark.parametrize("max_index, q, perturb", [
    (1, 0.3, False), (1, 0.5, False), (1, 0.7, False), (1, 0.3, True),
    (2, 0.3, False), (2, 0.5, False), (2, 0.7, False), (2, 0.3, True),
])
def test_fock_te_cases_match_the_per_tuple_sweep(max_index, q, perturb):
    # the suite gates only charge-consistent tuples, per block of cases, and
    # sums each case's tuples on arrays; every case reads what the per-tuple
    # sweep reads, repr for repr
    from qlattice.harness.suites import SuiteConfig, run_suite

    cfg = SuiteConfig(suite="fock-te", q=q, max_index=max_index, perturb=perturb,
                      keep_cases=True)
    got = [repr(res) for _, res in run_suite(cfg).cases]
    assert got == [repr(_fock_te_case_oracle(cfg, idx)) for idx in range(len(got))]


def test_fock_te_exhaustive_small():
    exts = np.array(list(itertools.product(range(2), repeat=12))).T
    res = rm.fock_te_residual(rm.fock_te_gate(exts), 4096, 0.5, 0.5)
    assert res.shape == (4096,) and res.max() < 1e-12


def test_fock_te_inconsistent_externals_vanish():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 50:
        ext = tuple(int(x) for x in rng.integers(0, 3, 12))
        if fock_te_consistent(ext):
            continue
        (lhs,), (rhs,) = rm.fock_te_sides(_gate_one(ext), 1, 0.3, rm.fock_element)
        assert abs(lhs) < 1e-14 and abs(rhs) < 1e-14
        assert rm.fock_te_residual(_gate_one(ext), 1, 0.3, 0.3)[0] == 0.0
        checked += 1


def test_fock_double_path_does_not_feed_the_extended_cache():
    # an untyped cache keys 0.3 and Decimal(0.3) alike: double values built
    # first must not be served to the 50-digit check
    rm.fock_element_mp.cache_clear()
    rm.fock_r_dense(4, 0.3)
    assert rm.fock_te_residual(_gate_one((1,) * 12), 1, 0.3, 0.3)[0] < 1e-30


def _qpoch_oracle(x, qsq, n):
    out = 1
    fac = x
    for _ in range(n):
        out *= 1 - fac
        fac *= qsq
    return out


def _fock_terms_oracle(n1, n2, n3, m1, m2, m3, q):
    # the terms of a charge-allowed element with every q-Pochhammer factor
    # and power of q built anew, grouped as _fock_terms groups them
    qsq = q * q
    pref = (-1) ** n2 * q ** ((m1 - n2) * (m3 - n2))
    terms = []
    for t in range(max(0, m2 - n3), m2 + 1):
        num = (_qpoch_oracle(q ** (-2 * m2), qsq, t)
               * _qpoch_oracle(q ** (2 * (1 + m3)), qsq, t)
               * q ** (2 * (1 + n1) * t))
        den = (_qpoch_oracle(qsq, qsq, t) * _qpoch_oracle(qsq, qsq, m2)
               * _qpoch_oracle(qsq, qsq, n3 - m2 + t))
        terms.append(num * _qpoch_oracle(qsq, qsq, n3) / den)
    return pref, terms


def _fock_element_oracle(n1, n2, n3, m1, m2, m3, q):
    pref, terms = _fock_terms_oracle(n1, n2, n3, m1, m2, m3, q)
    return pref * sum(terms)


def test_fock_element_prefix_tables_match_direct_products():
    import mpmath as mp

    for q in (0.3, mp.mpf(0.3)):
        with mp.workdps(rm._MP_DPS):
            checked = 0
            for n1, n2, n3, m2 in itertools.product(range(5), repeat=4):
                m1, m3 = n1 + n2 - m2, n2 + n3 - m2
                if not (0 <= m1 <= 4 and 0 <= m3 <= 4):
                    continue
                got = rm.fock_element(n1, n2, n3, m1, m2, m3, q)
                assert repr(got) == repr(_fock_element_oracle(n1, n2, n3, m1, m2, m3, q))
                checked += 1
        assert checked == 325


def _fock_element_mp_oracle(idx, q):
    # (value, digits) of fock_element_mp's sum of a charge-allowed element,
    # taking more digits as it does, over _fock_terms_oracle
    q, prec = rm.to_mp(q), rm._MP_DPS
    while True:
        with decimal.localcontext(decimal.Context(prec=prec)):
            pref, terms = _fock_terms_oracle(*idx, q)
            total = sum(terms)
            lost = max(t.adjusted() for t in terms) - total.adjusted() if total else prec
            if prec - lost >= rm._MP_SPARE:
                return pref * total, prec
        prec = lost + rm._MP_SPARE


def _r_elements(cutoff, q, monkeypatch):
    # the elements qosc.fock_r_sparse evaluates, in its order
    from qlattice import qosc

    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(rm, "fock_element_mp", lambda *args: seen.append(args[:6]) or 1)
        qosc.fock_r_sparse.__wrapped__(cutoff, q)
    return seen


def _te_sweep_elements(max_index):
    # the elements of the exhaustive fock-te sweep: every charge-consistent
    # external tuple with entries <= max_index, gated
    n_p = np.indices((max_index + 1,) * 9).reshape(9, -1)
    exts = np.vstack([n_p, rm.te_balance(n_p[:6], *n_p[6:])])
    exts = exts[:, ((exts >= 0) & (exts <= max_index)).all(axis=0)]
    return exts.shape[1], rm.fock_te_gate(exts)[3].tolist()


def test_fock_elements_from_shared_tables_equal_their_own_sums(monkeypatch):
    # every element summed over the tables shared per (q, digits) equals,
    # as a Decimal and as a string, the sum over factors formed for it
    # alone: the cutoff-12 R's elements at q = 0.3 (583 of them take more
    # than _MP_DPS digits), the max_index 2 sweep's at q = 0.5 and 0.7,
    # and (0, 7, 9, 0, 7, 9), whose 52-digit sum is exactly 0.  So do they
    # with emptied caches, in reverse order, and in threads whose own
    # context holds 10 or 200 digits
    r_elements = _r_elements(12, 0.3, monkeypatch)
    ncols, sweep = _te_sweep_elements(2)
    assert len(r_elements) == 10791 and ncols == 4743
    assert (0, 7, 9, 0, 7, 9) in r_elements
    cases = [(0.3, r_elements), (0.5, sweep), (0.7, sweep)]
    want = {}
    for q, elements in cases:
        for idx in elements:
            want[tuple(idx), q] = _fock_element_mp_oracle(idx, q)
    wider = sum(prec > rm._MP_DPS for (_, q), (_, prec) in want.items() if q == 0.3)
    assert wider == 583

    def check(reverse):
        for (idx, q), (value, _) in sorted(want.items(), reverse=reverse):
            got = rm.fock_element_mp(*idx, q)
            assert got == value and str(got) == str(value), (idx, q)

    def clear():
        rm.fock_element_mp.cache_clear()
        rm._mp_factors.cache_clear()

    check(reverse=False)
    clear()
    check(reverse=True)
    for prec in (10, 200):
        clear()
        with decimal.localcontext(decimal.Context(prec=prec)):
            check(reverse=False)


def _te_sides_ungated(ext, q, element):
    # every term of both single sums, charge-gated elements included
    n1, n2, n3, n4, n5, n6, p1, p2, p3, p4, p5, p6 = ext
    lhs = rhs = None
    for i1 in range(max(0, n1 - n3, p1 - n4, p1 + p4 - n4 - n6), min(n1 + n2, n5 + p1) + 1):
        i2, i3, i4, i5 = n1 + n2 - i1, n3 - n1 + i1, i1 + n4 - p1, n5 - i1 + p1
        i6 = i4 + n6 - p4
        if min(i2, i3, i4, i5, i6) < 0:
            continue
        term = (element(n1, n2, n3, i1, i2, i3, q) * element(i1, n4, n5, p1, i4, i5, q)
                * element(i2, i4, n6, p2, p4, i6, q) * element(i3, i5, i6, p3, p5, p6, q))
        lhs = term if lhs is None else lhs + term
    for i3 in range(max(0, n3 - n6, n3 + p6 - n4 - n6, n3 + p6 - n6 - n1 + p4 - n4),
                    n3 + n5 + 1):
        i5, i6 = n3 + n5 - i3, n6 - n3 + i3
        i4 = n4 + i6 - p6
        i2, i1 = n2 + n4 - i4, n1 + i4 - p4
        if min(i1, i2, i4, i5, i6) < 0:
            continue
        term = (element(n3, n5, n6, i3, i5, i6, q) * element(n2, n4, i6, i2, i4, p6, q)
                * element(n1, i4, i5, i1, p4, p5, q) * element(i1, i2, i3, p1, p2, p3, q))
        rhs = term if rhs is None else rhs + term
    return (0 if lhs is None else lhs), (0 if rhs is None else rhs)


def test_te_sides_gated_sum_equals_ungated_sum():
    rng = np.random.default_rng(5)
    exts = list(itertools.product(range(2), repeat=12))
    exts += [tuple(int(x) for x in rng.integers(0, 3, 12)) for _ in range(2000)]
    evaluated = []

    def recording_element(*args):
        evaluated.append(args[:6])
        return rm.fock_element_mp(*args)

    sides = rm.fock_te_sides(rm.fock_te_gate(np.array(exts).T), len(exts), 0.5,
                             recording_element)
    with decimal.localcontext(rm._MP_CTX):  # the oracle's own Decimal sums
        for ext, lhs, rhs in zip(exts, *sides):
            assert (lhs, rhs) == _te_sides_ungated(ext, 0.5, rm.fock_element_mp)
    # gated terms are skipped before any of their elements is evaluated
    assert evaluated
    assert all(rm.fock_charge_allowed(*idx) for idx in evaluated)


def test_fock_te_exact_for_rational_q():
    from fractions import Fraction

    q = Fraction(3, 10)
    consistent = [ext for ext in itertools.product(range(2), repeat=12)
                  if fock_te_consistent(ext)]
    assert len(consistent) == 152
    gated = rm.fock_te_gate(np.array(consistent).T)
    differ = 0
    sides = rm.fock_te_sides(gated, 152, q, rm.fock_element)
    # negative control: q off by a factor 1 + 1/1000 on the right side
    _, bad = rm.fock_te_sides(gated, 152, q * (1 + Fraction(1, 1000)), rm.fock_element)
    for lhs, rhs, bad_rhs in zip(*sides, bad):
        assert isinstance(lhs, Fraction) and lhs == rhs
        differ += lhs != bad_rhs
    # the other 8 tuples have sides +-1, independent of q
    assert differ == 144


def _assert_flat_keys_ascend(nm, d):
    keys = (np.ravel_multi_index(nm[:3], (d,) * 3) * d ** 3
            + np.ravel_multi_index(nm[3:], (d,) * 3))
    assert (np.diff(keys) > 0).all()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_charge_pairs_inside_the_cutoff_are_the_fock_charge_sectors(d):
    nm = rm.charge_pairs(d)
    assert nm.shape == (6, d ** 4)
    inside = nm[:, ((nm >= 0) & (nm < d)).all(axis=0)]
    got = [tuple(t) for t in inside.T.tolist()]
    want = {t for t in itertools.product(range(d), repeat=6) if rm.fock_charge_allowed(*t)}
    assert len(set(got)) == len(got) and set(got) == want
    _assert_flat_keys_ascend(inside, d)


@pytest.mark.parametrize("N", [3, 5, 7])
def test_charge_pairs_mod_n_are_the_sectors_over_z_n(N):
    nm = rm.charge_pairs(N) % N
    n1, n2, n3, m1, m2, m3 = every = np.indices((N,) * 6).reshape(6, -1)
    want = every[:, ((n1 + n2 - m1 - m2) % N == 0) & ((n2 + n3 - m2 - m3) % N == 0)]
    got = {tuple(t) for t in nm.T.tolist()}
    assert len(got) == nm.shape[1] and got == {tuple(t) for t in want.T.tolist()}
    _assert_flat_keys_ascend(nm, N)


def test_fock_r_dense_charge_structure():
    q = 0.3
    r = rm.fock_r_dense(3, q)
    d = 4
    for row in range(d ** 3):
        n1, rem = divmod(row, d * d)
        n2, n3 = divmod(rem, d)
        for col in range(d ** 3):
            m1, rem = divmod(col, d * d)
            m2, m3 = divmod(rem, d)
            if n1 + n2 != m1 + m2 or n2 + n3 != m2 + m3:
                assert r[row, col] == 0.0


# ---------------------------------------------------------------------------
# tetrahedron angle data
# ---------------------------------------------------------------------------

def test_regular_tetrahedron_angles():
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    ta = rm.tetra_angles_from_normals(rm.outward_normals(v))
    expected = math.acos(1 / 3)
    assert np.allclose(ta.thetas, expected, atol=1e-12)


def test_random_tetra_angles_valid():
    rng = np.random.default_rng(2)
    for _ in range(20):
        ta = rm.random_tetra_angles(rng)
        for t in ta.thetas:
            assert 0 < t < PI
        for args in ta.angle_arguments():
            sf.spherical_sides_from_angles(*args)  # must not raise


def test_parallel_normals_rejected():
    ns = [np.array([1.0, 0, 0]), np.array([1.0, 1e-9, 0]),
          np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
    with pytest.raises(DegeneracyError):
        rm.tetra_angles_from_normals(ns)


# ---------------------------------------------------------------------------
# cyclic vertex form
# ---------------------------------------------------------------------------

def tetra(seed=5):
    return rm.random_tetra_angles(np.random.default_rng(seed))


def vertex_sectors(datasets):
    """The stacked cyclic_r_sectors of (R123, R145, R246, R356)."""
    return np.stack([rm.cyclic_r_sectors(data) for data in datasets])


def externals(rng, N, count):
    """count balanced external tuples, a (count, 12) array."""
    return np.array([oracles.consistent_external(rng, N) for _ in range(count)])


def tetra_weights(ta, N):
    """The stacked IRC weight tables of a tetrahedron's angle data."""
    return rm.cyclic_weights_for_tetra(
        tuple(rm.CyclicRData.from_angles(*args, N) for args in ta.angle_arguments()))


def test_cyclic_element_charge_and_periodicity():
    ta = tetra()
    data = rm.CyclicRData.from_angles(*ta.angle_arguments()[0], 3)
    assert rm.cyclic_vertex_element((0, 1, 0), (0, 0, 0), data) == 0.0
    # odd N: shifting an index by N leaves the value unchanged
    v1 = rm.cyclic_vertex_element((1, 2, 0), (0, 0, 2), data)
    v2 = rm.cyclic_vertex_element((1, 2, 0), (0, 0 + 3, 2 - 3), data)
    v3 = rm.cyclic_vertex_element((1 + 3, 2, 0), (0 + 3, 0, 2), data)
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert v1 == pytest.approx(v3, abs=1e-12)


def test_cyclic_element_independent_sum_oracle():
    # independent re-implementation of the N=2 all-zero-index element
    ta = tetra()
    data = rm.CyclicRData.from_angles(*ta.angle_arguments()[0], 2)
    phi1, phi2, phi3, phi4 = (sf.fermat_phi_table(p) for p in data.points)
    q = sf.root_of_unity_q(2)
    total = 0.0 + 0.0j
    for n in range(2):
        total += phi1[n] * phi2[n] / (phi3[n] * phi4[n])
    got = rm.cyclic_vertex_element((0, 0, 0), (0, 0, 0), data)
    assert got == pytest.approx(total, abs=1e-13)


def test_cyclic_vertex_te_n3():
    ta = tetra()
    ds = tuple(rm.CyclicRData.from_angles(*a, 3) for a in ta.angle_arguments())
    res = rm.vertex_te_residual(externals(np.random.default_rng(3), 3, 40), vertex_sectors(ds))
    assert res.shape == (40,) and res.max() < 1e-10


@pytest.mark.parametrize("N", [3, 5])
def test_cyclic_vertex_te_negative_controls(N):
    # the index maps are shared with the Fock gate: exchanging two vertices
    # or a 5% phase on one phi table must break the equation visibly
    ds = tuple(rm.CyclicRData.from_angles(*a, N) for a in tetra().angle_arguments())
    exts = externals(np.random.default_rng(3), N, 40)
    bad = rm.CyclicRData(N, ds[3].points)
    bad.tables = bad.tables[:3] + (bad.tables[3] * np.exp(0.05j * np.arange(N)),)

    def worst(datasets):
        return rm.vertex_te_residual(exts, vertex_sectors(datasets)).max()

    assert worst(ds) < 1e-13
    assert worst((ds[0], ds[2], ds[1], ds[3])) > 0.5
    assert worst(ds[:3] + (bad,)) > 0.05


@pytest.mark.parametrize("N", [2, 4])
def test_cyclic_vertex_te_rejects_even_n(N):
    # q^N = -1 for even N, so the element is not a function on Z_N and the
    # mod-N sums are meaningless (the residual read ~1 on consistent
    # tuples): the sector tables the residual reads are not built
    for args in tetra().angle_arguments():
        with pytest.raises(DomainError, match="even N = %d" % N):
            rm.cyclic_r_sectors(rm.CyclicRData.from_angles(*args, N))


def test_cyclic_r_dense_rejects_even_n():
    data = rm.CyclicRData.from_angles(*tetra().angle_arguments()[0], 4)
    with pytest.raises(DomainError, match="even N = 4"):
        rm.cyclic_r_dense(data)

# The scalar form the array code replaced, kept as an oracle: one call per
# matrix entry.

def _cyclic_r_dense_oracle(data):
    N = data.N
    out = np.zeros((N,) * 6, dtype=complex)
    for n in np.ndindex(N, N, N):
        for m2 in range(N):
            m = ((n[0] + n[1] - m2) % N, m2, (n[1] + n[2] - m2) % N)
            out[n + m] = oracles.cyclic_element_scalar(n, m, data)
    return out.reshape(N ** 3, N ** 3)


@pytest.mark.parametrize("N", [3, 5, 7])
def test_cyclic_r_dense_matches_entry_loop(N):
    data = rm.CyclicRData.from_angles(*tetra().angle_arguments()[0], N)
    got = rm.cyclic_r_dense(data)
    want = _cyclic_r_dense_oracle(data)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # entries off the charge-allowed set are exactly 0
    n1, n2, n3, m1, m2, m3 = np.indices((N,) * 6).reshape(6, -1)
    allowed = ((n1 + n2 - m1 - m2) % N == 0) & ((n2 + n3 - m2 - m3) % N == 0)
    assert np.count_nonzero(allowed) == N ** 4
    assert np.all(got.reshape(-1)[~allowed] == 0)


def test_cyclic_element_broadcasts_like_scalar_calls():
    # unreduced indices, charge-allowed up to shifts by N, except in every
    # other column
    data = rm.CyclicRData.from_angles(*tetra().angle_arguments()[1], 5)
    rng = np.random.default_rng(19)
    n = rng.integers(-7, 12, (3, 4, 1))
    m2 = rng.integers(-7, 12, (1, 6))
    shift = 5 * rng.integers(-2, 3, (4, 6))
    m = np.stack([n[0] + n[1] - m2 + shift, np.broadcast_to(m2, (4, 6)),
                  n[1] + n[2] - m2 - shift])
    m[0, :, ::2] += 1
    got = rm.cyclic_vertex_element(n, m, data)
    assert got.shape == (4, 6)
    assert np.all(got[:, ::2] == 0) and np.all(got[:, 1::2] != 0)
    for i, j in np.ndindex(4, 6):
        want = oracles.cyclic_element_scalar([int(k) for k in n[:, i, 0]],
                                             [int(k) for k in m[:, i, j]], data)
        assert abs(got[i, j] - want) <= 1e-14 * max(abs(want), 1.0)


@pytest.mark.parametrize("N", [3, 5])
def test_cyclic_vertex_te_matches_scalar_loop(N):
    ds = tuple(rm.CyclicRData.from_angles(*a, N) for a in tetra().angle_arguments())
    bad = rm.CyclicRData(N, ds[3].points)
    bad.tables = bad.tables[:3] + (bad.tables[3] * np.exp(0.05j * np.arange(N)),)
    rng = np.random.default_rng(20)
    for datasets in (ds, ds[:3] + (bad,)):
        exts = externals(rng, N, 20)
        got = rm.vertex_te_residual(exts, vertex_sectors(datasets))
        for ext, res in zip(exts.tolist(), got):
            want = oracles.vertex_te_scalar_loop(ext, datasets)
            assert abs(res - want) <= 1e-12 * want + 1e-14


@pytest.mark.parametrize("N", [3, 5, 7])
def test_vertex_te_rows_equal_their_block_of_one_bit_for_bit(N):
    ds = tuple(rm.CyclicRData.from_angles(*a, N) for a in tetra().angle_arguments())
    sectors = vertex_sectors(ds)
    exts = externals(np.random.default_rng(21), N, 60)
    block = rm.vertex_te_residual(exts, sectors)
    rows = [rm.vertex_te_residual(ext[None], sectors)[0] for ext in exts]
    assert block.tolist() == [float(r) for r in rows]
    # any leading shape stacks the same rows
    assert rm.vertex_te_residual(exts.reshape(4, 15, 12), sectors).reshape(-1).tolist() == \
        block.tolist()


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_vertex_te_agrees_with_the_per_tuple_path(N):
    # the sector tables hold the elements the per-tuple path computes, at
    # the same reduced indices; only the order of the internal sums differs
    from qlattice.harness.rng import case_rng
    from qlattice.harness.suites import SETUP_STREAM

    for seed in (7, 183, 20240501):
        ta = rm.random_tetra_angles(case_rng(seed, SETUP_STREAM))
        ds = tuple(rm.CyclicRData.from_angles(*a, N) for a in ta.angle_arguments())
        bad = rm.CyclicRData(N, ds[3].points)
        bad.tables = bad.tables[:3] + (bad.tables[3] * np.exp(0.05j * np.arange(N)),)
        exts = externals(np.random.default_rng(seed), N, 100)
        for datasets in (ds, ds[:3] + (bad,)):
            got = rm.vertex_te_residual(exts, vertex_sectors(datasets))
            want = np.array([oracles.vertex_te_residual_per_tuple(ext, datasets)
                             for ext in exts.tolist()])
            assert np.all(np.abs(got - want) <= 1e-15 * want)


# ---------------------------------------------------------------------------
# cyclic IRC form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", range(2, 7))
def test_cyclic_weight_table_is_the_full_grid_sum_bit_for_bit(N):
    # the sum over the five spin differences gathers to the same doubles,
    # signed zeros included, as the sum over all eight spins
    from qlattice.harness.rng import case_rng
    from qlattice.harness.suites import SETUP_STREAM

    for seed in (1, 7, 183, 20240501):
        ta = rm.random_tetra_angles(case_rng(seed, SETUP_STREAM))
        for args in ta.angle_arguments():
            data = rm.CyclicRData.from_angles(*args, N)
            got = rm.cyclic_weight_table(data)
            want = oracles.cyclic_weight_table_full_grid(data)
            assert got.shape == want.shape == (N,) * 8
            assert np.array_equal(got.view(float).view(np.uint64),
                                  want.view(float).view(np.uint64)), (seed, args)


def test_cyclic_weight_shift_invariance():
    ta = tetra()
    data = rm.CyclicRData.from_angles(*ta.angle_arguments()[0], 3)
    table = rm.cyclic_weight_table(data)
    rng = np.random.default_rng(4)
    for _ in range(30):
        spins = rng.integers(0, 3, 8)
        shifted = (spins + 1) % 3
        assert table[tuple(spins)] == pytest.approx(table[tuple(shifted)], abs=1e-12)


def test_cyclic_weight_equal_spins_oracle():
    ta = tetra()
    data = rm.CyclicRData.from_angles(*ta.angle_arguments()[0], 3)
    t1, t2, t3, t4 = data.tables
    direct = sum(t1[n] * t2[n] / (t3[n] * t4[n]) for n in range(3))
    assert rm.cyclic_weight_table(data)[(1,) * 8] == pytest.approx(direct, abs=1e-12)


def test_irc_te_cyclic_n2_sampled():
    ta = tetra()
    tabs = tetra_weights(ta, 2)
    rng = np.random.default_rng(5)
    for _ in range(300):
        ext = rng.integers(0, 2, 14)
        assert rm.irc_te_residual_cyclic(tabs, ext) < 1e-10


def test_irc_te_cyclic_n3_and_n4_sampled():
    ta = tetra(seed=6)
    for N in (3, 4):
        tabs = tetra_weights(ta, N)
        rng = np.random.default_rng(N)
        for _ in range(100):
            ext = rng.integers(0, N, 14)
            assert rm.irc_te_residual_cyclic(tabs, ext) < 1e-9


def test_irc_te_labeling_ablation():
    # swapping theta_1 and theta_4 alone is not induced by any relabeling of
    # the four planes, so it must break the equation visibly
    ta = tetra(seed=7)
    t = list(ta.thetas)
    t[0], t[3] = t[3], t[0]
    bad = rm.TetraAngles(ta.normals, tuple(t))
    try:
        tabs = tetra_weights(bad, 2)
    except DomainError:
        return  # invalid triangle data also demonstrates the sensitivity
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        ext = rng.integers(0, 2, 14)
        worst = max(worst, rm.irc_te_residual_cyclic(tabs, ext))
    assert worst > 1e-2


def test_irc_te_plane_relabeling_symmetry():
    # relabeling planes 2<->3 induces theta_1<->theta_2, theta_5<->theta_6
    # and must preserve the equation
    ta = tetra(seed=9)
    t = list(ta.thetas)
    t[0], t[1] = t[1], t[0]
    t[4], t[5] = t[5], t[4]
    sym = rm.TetraAngles(ta.normals, tuple(t))
    tabs = tetra_weights(sym, 2)
    rng = np.random.default_rng(10)
    for _ in range(100):
        ext = rng.integers(0, 2, 14)
        assert rm.irc_te_residual_cyclic(tabs, ext) < 1e-10

# The dict-loop IRC contraction the index matrix replaced, kept as an oracle.

def _irc_te_oracle(tables, ext):
    N = tables.shape[1]
    labels = dict(zip(rm.EXTERNAL_LABELS, (int(x) for x in ext)))
    sides = []
    for side in rm.IRC_SIDES:
        total = 0.0 + 0.0j
        for z in range(N):
            env = dict(labels, z=z)
            term = 1.0 + 0.0j
            for widx, slot in side:
                term *= tables[widx][tuple(env[s] % N for s in slot)]
            total += term
        sides.append(total)
    return float(rm._rel_residual(*sides))


def _phase_perturbed(tables):
    bad = tables.copy()
    bad[3] *= np.exp(0.05j * np.arange(tables.shape[1]))
    return bad


def test_irc_te_batch_matches_dict_loop_n2_exhaustive():
    tabs = tetra_weights(tetra(), 2)
    exts = (np.arange(2 ** 14)[:, None] >> np.arange(14)) & 1
    got = rm.irc_te_residual_cyclic(tabs, exts)
    want = np.array([_irc_te_oracle(tabs, ext) for ext in exts])
    assert got.shape == (2 ** 14,)
    assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-14)
    assert np.max(got) < 1e-10


@pytest.mark.parametrize("N", [3, 4])
def test_irc_te_batch_matches_dict_loop_sampled(N):
    # also on phase-perturbed tables, whose O(1) residuals expose any
    # misplaced stride or offset
    tabs = tetra_weights(tetra(seed=6), N)
    rng = np.random.default_rng(30 + N)
    exts = rng.integers(-N, 2 * N, (200, 14))
    for tables in (tabs, _phase_perturbed(tabs)):
        got = rm.irc_te_residual_cyclic(tables, exts)
        want = np.array([_irc_te_oracle(tables, ext) for ext in exts])
        assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-14)
    assert np.max(want) > 1e-2


def test_irc_te_batch_rows_equal_single_calls():
    tabs = tetra_weights(tetra(seed=6), 3)
    exts = np.random.default_rng(22).integers(0, 3, (4, 50, 14))
    got = rm.irc_te_residual_cyclic(_phase_perturbed(tabs), exts)
    assert got.shape == (4, 50)
    single = [[rm.irc_te_residual_cyclic(_phase_perturbed(tabs), e) for e in row]
              for row in exts]
    assert np.max(np.abs(got - np.array(single))) <= 1e-15


# ---------------------------------------------------------------------------
# cross-form equivalence
# ---------------------------------------------------------------------------

def test_cross_form_exact_factor_n2_exhaustive():
    ta = tetra()
    data = rm.CyclicRData.from_angles(*ta.angle_arguments()[0], 2)
    for spins in itertools.product(range(2), repeat=8):
        s = dict(zip("aefgbcdh", spins))
        res, _ = rm.cross_form_residual(data, s)
        assert res < 1e-12


def test_cross_form_exact_factor_n3_sampled():
    ta = tetra()
    data = rm.CyclicRData.from_angles(*ta.angle_arguments()[0], 3)
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = dict(zip("aefgbcdh", (int(x) for x in rng.integers(0, 3, 8))))
        res, _ = rm.cross_form_residual(data, s)
        assert res < 1e-12


def test_cross_form_sector_scalars_reported():
    # a single scalar per charge sector cannot absorb the equivalence factor;
    # the fit is reported but its residuals are O(1)
    ta = tetra()
    data = rm.CyclicRData.from_angles(*ta.angle_arguments()[0], 2)
    fits = rm.cross_form_sector_scalars(data)
    assert len(fits) == 4
    assert max(res for _, res in fits.values()) > 1e-2

def _sector_scalars_oracle(data):
    N = data.N
    sectors = {}
    for spins in np.ndindex(*(N,) * 8):
        n, m = rm.sigma_map(spins, (0, 0, 0))
        key = ((n[0] + n[1]) % N, (n[1] + n[2]) % N)
        sectors.setdefault(key, []).append((data.weights[spins],
                                            oracles.cyclic_element_scalar(n, m, data)))
    out = {}
    for key, pairs in sectors.items():
        num = sum(w * np.conj(r) for w, r in pairs)
        den = sum(abs(r) ** 2 for _, r in pairs)
        scalar = num / den if den > 0 else 0.0
        scale = max(max(abs(w) for w, _ in pairs), 1e-300)
        out[key] = (scalar, max(abs(w - scalar * r) for w, r in pairs) / scale)
    return out


@pytest.mark.parametrize("N", [2, 3])
def test_cross_form_sector_scalars_match_loop(N):
    data = rm.CyclicRData.from_angles(*tetra().angle_arguments()[0], N)
    got = rm.cross_form_sector_scalars(data)
    want = _sector_scalars_oracle(data)
    assert sorted(got) == sorted(want)
    for key, (scalar, resid) in want.items():
        assert abs(got[key][0] - scalar) <= 1e-14 * abs(scalar)
        assert abs(got[key][1] - resid) <= 1e-14 * resid


# ---------------------------------------------------------------------------
# modular weights
# ---------------------------------------------------------------------------

def test_sigma_map_charge_identities():
    rng = np.random.default_rng(12)
    spins = rng.uniform(-1, 1, 8)
    t = rng.uniform(-0.5, 0.5, 3)
    (s1, s2, s3), (s1p, s2p, s3p) = rm.sigma_map(spins, t)
    assert s1 + s2 == pytest.approx(s1p + s2p, abs=1e-12)
    assert s2 + s3 == pytest.approx(s2p + s3p, abs=1e-12)


def test_modular_weight_matches_residue_series():
    # random spins whose residue-series ratios are small (0.040 and 0.030):
    # the quadrature weight agrees with prefactor * residue-series 2Psi2
    rng = np.random.default_rng(1)
    spins = rng.uniform(-0.3, 0.3, 8)
    spec = rm.ModularWeightSpec(MP, t=(0.0, 0.0, 0.0))
    w = rm.irc_weight_modular(spec, [np.array([s]) for s in spins])[0]
    (s1, s2, s3), (s1p, s2p, s3p) = rm.sigma_map(spins, spec.t)
    c = (s1 - s3, s3 - s1, s1 + s3, -s1p - s3p)
    ratios = sf.psi22_residue_ratios(tuple(map(complex, c)), complex(s2), MP)
    assert max(abs(r) for r in ratios) < 0.1
    pref = np.exp(1j * np.pi * (s1p * s3p + 1j * MP.eta * (s1p + s3p - s2)))
    psi = sf.psi22(*c, s2, MP, method="residue-series")
    assert abs(w - pref * psi) / abs(w) < 1e-10


def test_modular_weight_t_shift_invariance():
    # shifting all spins and T's so the sigmas are unchanged fixes the weight
    rng = np.random.default_rng(14)
    spins = list(rng.uniform(-0.3, 0.3, 8))
    t = (0.05, -0.1, 0.2)
    spec1 = rm.ModularWeightSpec(MP, t=t)
    w1 = rm.irc_weight_modular(spec1, [np.array([s]) for s in spins])[0]
    # shifting the two body-diagonal corners a and h by d is absorbed by
    # T -> (T1-d, T2-d, T3-d), leaving every sigma fixed
    d = 0.17
    spins2 = list(spins)
    spins2[0] += d
    spins2[7] += d
    t2 = (t[0] - d, t[1] - d, t[2] - d)
    spec2 = rm.ModularWeightSpec(MP, t=t2)
    sig1, sig1p = rm.sigma_map(spins, t)
    sig2, sig2p = rm.sigma_map(spins2, t2)
    assert np.allclose(sig1, sig2) and np.allclose(sig1p, sig2p)
    w2 = rm.irc_weight_modular(spec2, [np.array([s]) for s in spins2])[0]
    assert abs(w1 - w2) / abs(w1) < 1e-9


def test_modular_weight_field_factor():
    rng = np.random.default_rng(15)
    spins = [np.array([s]) for s in rng.uniform(-0.3, 0.3, 8)]
    bare = rm.ModularWeightSpec(MP)
    f = (0.2, -0.1, 0.15)
    dressed = rm.ModularWeightSpec(MP, f=f)
    w0 = rm.irc_weight_modular(bare, spins)[0]
    w1 = rm.irc_weight_modular(dressed, spins)[0]
    sig, sigp = rm.sigma_map([float(s[0]) for s in spins], (0, 0, 0))
    expected = w0 * np.exp(sum(f[j] * (sig[j] + sigp[j]) for j in range(3)))
    assert abs(w1 - expected) / abs(expected) < 1e-10


def test_modular_weight_zero_spins_cross_method():
    # zero corner spins and T = 0 sit exactly on the confluent c1 = c2 line
    spec = rm.ModularWeightSpec(MP, t=(0.0, 0.0, 0.0))
    w_quad = rm.irc_weight_modular(spec, [np.array([0.0])] * 8)[0]
    sig, sigp = rm.sigma_map([0.0] * 8, (0.0, 0.0, 0.0))
    pref = np.exp(1j * np.pi * (sigp[0] * sigp[2]
                                + 1j * MP.eta * (sigp[0] + sigp[2] - sig[1])))
    psi = sf.psi22(sig[0] - sig[2], sig[2] - sig[0], sig[0] + sig[2],
                   -sigp[0] - sigp[2], sig[1], MP, method="residue-series")
    assert abs(w_quad - pref * psi) / abs(w_quad) < 1e-5


def test_cyclic_te_many_tetrahedra():
    # parametrization freedom: the five-parameter family of tetrahedra
    rng = np.random.default_rng(100)
    for trial in range(20):
        ta = rm.random_tetra_angles(rng)
        tabs = tetra_weights(ta, 2)
        for _ in range(20):
            ext = rng.integers(0, 2, 14)
            assert rm.irc_te_residual_cyclic(tabs, ext) < 1e-9


def test_same_triangle_data_passes_intertwining_and_te():
    # one tetrahedron: its first vertex triangle drives the intertwiner and
    # all four triangles drive the vertex TE, at the same N
    from qlattice import qosc

    ta = tetra(seed=42)
    N = 3
    args = ta.angle_arguments()
    tri = sf.spherical_sides_from_angles(*args[0])
    params = qosc.CyclicParams.from_triangle(tri, N)
    ls = qosc.build_l(params.reps(), params.lambdas, params.mus)
    datasets = tuple(rm.CyclicRData.from_angles(*a, N) for a in args)
    r = oracles.vop_from_dense((N,) * 3, rm.cyclic_r_dense(datasets[0]))
    assert qosc.intertwine_residual(ls, r) < 1e-9
    exts = externals(np.random.default_rng(43), N, 20)
    assert rm.vertex_te_residual(exts, vertex_sectors(datasets)).max() < 1e-9


def test_spectral_and_field_constraint_builders():
    rng = np.random.default_rng(16)
    tsets = rm.spectral_sets_from_free(rng.uniform(-0.4, 0.4, 6))
    assert rm.spectral_tshki_residual(tsets) == 0.0
    # the field builder's constraints are checked through the exponent
    # balance they imply, in test_field_exponent_balance


def test_field_exponent_balance():
    # with the constrained field parameters the total exponent is the same
    # on both sides and independent of the integration label
    rng = np.random.default_rng(17)
    tsets = rm.spectral_sets_from_free(rng.uniform(-0.4, 0.4, 6))
    fsets = oracles.field_sets_from_free(rng.uniform(-0.4, 0.4, 8))
    assert oracles.field_exponent_balance(tsets, fsets, rng) < 1e-12
    # unconstrained fields break the balance
    bad = ((0.3, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert oracles.field_exponent_balance(tsets, bad, rng) > 1e-3


def _wide_b_tuple():
    rng = np.random.default_rng(3)
    mp = sf.ModularParam(0.8 * np.exp(0.5j))
    tsets = rm.spectral_sets_from_free(rng.uniform(-0.3, 0.3, 6))
    specs = tuple(rm.ModularWeightSpec(mp, t) for t in tsets)
    ext = {k: float(x) for k, x in zip(rm.EXTERNAL_LABELS, rng.uniform(-0.25, 0.25, 14))}
    return specs, ext


def test_modular_irc_node_cap_reports_window():
    # one node count runs before the cap, so there is no change to report
    specs, ext = _wide_b_tuple()
    with pytest.raises(AccuracyError, match=r"max_nodes=33 \(window \[-4, 4\]\)") as info:
        rm.irc_te_residual_modular(specs, ext, tol=1e-5, max_nodes=33)
    assert info.value.achieved is None


def test_modular_irc_reaches_tight_tolerance():
    # the inner 2Psi2 integrals run at tol * 1e-2 = 1e-11; a rule that
    # restarts at every node count hits their node cap here
    specs, ext = _wide_b_tuple()
    assert rm.irc_te_residual_modular(specs, ext, tol=1e-9) < 1e-14


def test_modular_irc_names_the_inner_tolerance(monkeypatch):
    # an inner 2Psi2 failure says that tol * 1e-2 bound, not the outer tol
    batch = sf.psi22_quadrature_batch
    monkeypatch.setattr(sf, "psi22_quadrature_batch",
                        lambda *a, **k: batch(*a, **k, max_nodes=81))
    specs, ext = _wide_b_tuple()
    with pytest.raises(AccuracyError, match=r"2Psi2 quadrature did not stabilize.*"
                       r"inner 2Psi2 integral at tol\*1e-2 = 1e-07"):
        rm.irc_te_residual_modular(specs, ext, tol=1e-5)


def test_modular_irc_te_single_tuple():
    rng = np.random.default_rng(18)
    tsets = rm.spectral_sets_from_free(rng.uniform(-0.3, 0.3, 6))
    specs = tuple(rm.ModularWeightSpec(MP, t) for t in tsets)
    ext = {k: float(x) for k, x in zip(rm.EXTERNAL_LABELS, rng.uniform(-0.25, 0.25, 14))}
    assert rm.irc_te_residual_modular(specs, ext, tol=1e-5) < 1e-4


def test_fock_element_takes_the_digits_its_sum_cancels(monkeypatch):
    # at q = 0.3 the terms of (0, 7, 9, 0, 7, 9) reach 1e22 and sum to
    # 1.2e-44, so its 52-digit sum is exactly 0.  It is summed again until
    # 24 digits survive the cancellation (76, then 90 digits), and past the
    # digit cap it raises
    import mpmath as mp

    idx = (0, 7, 9, 0, 7, 9)
    ctx = mp.MPContext()
    ctx.dps = 150
    with decimal.localcontext(rm._MP_CTX):
        assert rm.fock_element(*idx, rm.to_mp(0.3)) == 0
    rm.fock_element_mp.cache_clear()
    assert float(rm.fock_element_mp(*idx, 0.3)) == float(rm.fock_element(*idx, ctx.mpf(0.3)))
    rm.fock_element_mp.cache_clear()
    monkeypatch.setattr(rm, "_MP_MAX_DPS", 80)
    with pytest.raises(AccuracyError, match="cancels beyond 80 digits"):
        rm.fock_element_mp(*idx, 0.3)
    rm.fock_element_mp.cache_clear()
