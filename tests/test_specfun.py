import cmath
import math
import re

import numpy as np
import pytest

from qlattice.errors import AccuracyError, DomainError, PoleProximityError
from qlattice import specfun as sf
from qlattice.harness.suites import SUITES, SuiteConfig, run_suite

import oracles

B_TEST = sf.ModularParam(0.8 * cmath.exp(1j * math.pi / 40))
B_WIDE = sf.ModularParam(0.8 * cmath.exp(0.5j))


# ---------------------------------------------------------------------------
# q-series
# ---------------------------------------------------------------------------

def test_qpochhammer_empty_product():
    assert sf.qpochhammer_prefixes(0.3 + 0.1j, 0.5, 0)[0] == 1.0


def test_qpochhammer_at_one_vanishes():
    assert sf.qpochhammer_prefixes(1.0, 0.37 + 0.1j, 3)[3] == 0.0


def test_qpochhammer_direct_two_factor():
    q = 0.3
    qsq = q * q
    # oracle: literal two-factor product
    expected = (1 - qsq) * (1 - qsq * qsq)
    assert sf.qpochhammer_prefixes(qsq, qsq, 2)[2] == pytest.approx(expected, abs=1e-15)


def test_qpochhammer_splitting_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = complex(rng.normal(), rng.normal())
        qsq = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        m, n = rng.integers(0, 9, size=2)
        lhs = sf.qpochhammer_prefixes(x, qsq, m + n)[m + n]
        rhs = (sf.qpochhammer_prefixes(x, qsq, m)[m]
               * sf.qpochhammer_prefixes(x * qsq ** m, qsq, n)[n])
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


def test_qpochhammer_inf_unconverged_raises():
    # (x; q)_inf ~ exp(-x / (1 - q)) = 4.5e-5 here; the 100,000-factor cap
    # stops at 0.905, and the factors left would move it by a factor e^-10
    with pytest.raises(AccuracyError, match="after 100000 factors") as info:
        sf.qpochhammer_inf(1e-6, 0.9999999)
    assert info.value.achieved > 1.0


def test_qpochhammer_inf_converged_at_cap_returns():
    # the cap stops short of |x q^k| < 1e-300, but the factors left are
    # below 1e-40, so the product is converged and returned
    got = sf.qpochhammer_inf(0.5, 0.999)
    ref = math.exp(math.fsum(math.log1p(-0.5 * 0.999 ** k) for k in range(120000)))
    assert abs(got - ref) < 1e-12 * ref


def test_qbinomial_edges_and_value():
    qsq = 0.09
    assert oracles.qbinomial(5, 0, qsq) == 1.0
    assert oracles.qbinomial(5, 5, qsq) == 1.0
    assert oracles.qbinomial(3, 7, qsq) == 0.0
    # (2 choose 1)_{q^2} = 1 + q^2 at q = 0.3
    assert oracles.qbinomial(2, 1, qsq) == pytest.approx(1.09, abs=1e-14)


def test_qbinomial_symmetry():
    qsq = 0.2 + 0.1j
    for n in range(8):
        for k in range(n + 1):
            assert oracles.qbinomial(n, k, qsq) == pytest.approx(
                oracles.qbinomial(n, n - k, qsq), abs=1e-12)


def test_2phi1_trivial_cases():
    qsq = 0.25
    assert oracles.qgauss_2phi1(0.5, 0.7, 0.9, qsq, 0.0) == 1.0
    # a = 1 kills every term past n = 0
    assert oracles.qgauss_2phi1(1.0, 0.7, 0.9, qsq, 0.3) == pytest.approx(1.0, abs=1e-14)


def test_2phi1_divergent_regime_rejected():
    with pytest.raises(DomainError):
        oracles.qgauss_2phi1(0.5, 0.7, 0.9, 0.25, 1.5)


def test_psi22_contour_pinch_rejected():
    from qlattice.errors import PoleProximityError
    with pytest.raises(PoleProximityError):
        sf.psi22(2.5j, 0.0, 0.0, 0.0, 0.0, B_TEST, method="quadrature")


def test_dilog_product_requires_series_domain():
    with pytest.raises(DomainError):
        sf.quantum_dilog(0.1, sf.ModularParam(0.9), method="product-series")


def test_2phi1_terminating_two_terms():
    q = 0.3
    qsq = q * q
    z = 0.37 - 0.21j
    # a = q^-2 terminates at n = 1; direct evaluation gives 1 - q^-2 z
    got = oracles.qgauss_2phi1(1 / qsq, qsq, qsq, qsq, z)
    assert got == pytest.approx(1 - z / qsq, abs=1e-13)


# ---------------------------------------------------------------------------
# modular parameter
# ---------------------------------------------------------------------------

def test_modular_param_rejects_imaginary_b():
    with pytest.raises(DomainError):
        sf.ModularParam(1j * 0.7)


def test_modular_param_eta_consistency():
    mp = B_TEST
    assert abs(mp.eta - (mp.b + 1 / mp.b) / 2) < 1e-14
    assert abs(mp.q - cmath.exp(1j * math.pi * mp.b ** 2)) < 1e-14
    assert abs(mp.q_tilde - cmath.exp(-1j * math.pi / mp.b ** 2)) < 1e-14


# ---------------------------------------------------------------------------
# quantum dilogarithm
# ---------------------------------------------------------------------------

def test_dilog_b_inversion_symmetry():
    # the defining integrand is symmetric under b <-> 1/b
    mp1 = sf.ModularParam(0.9)
    mp2 = sf.ModularParam(1 / 0.9)
    for z in (0.0, 0.17, -0.2 + 0.1j):
        v1 = sf.quantum_dilog(z, mp1, method="quadrature")
        v2 = sf.quantum_dilog(z, mp2, method="quadrature")
        assert abs(v1 - v2) < 1e-10


def test_dilog_product_vs_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        vq = sf.quantum_dilog(z, B_TEST, method="quadrature")
        vp = sf.quantum_dilog(z, B_TEST, method="product-series")
        assert abs(vq - vp) / abs(vq) < 1e-8


def test_dilog_conjugation_unitarity():
    # real b: the integrand's reality structure forces
    # conj(phi(conj(z))) * phi(z) = 1, hence |phi| = 1 on the real axis
    mp = sf.ModularParam(0.9)
    for z in (0.05, 0.31, -0.4, 0.2 + 0.15j):
        v = sf.quantum_dilog(z, mp, method="quadrature")
        w = sf.quantum_dilog(complex(z).conjugate(), mp, method="quadrature")
        assert abs(w.conjugate() * v - 1.0) < 1e-10
    assert abs(abs(sf.quantum_dilog(0.37, mp, method="quadrature")) - 1.0) < 1e-10


def test_dilog_pole_proximity_error():
    with pytest.raises(PoleProximityError):
        sf.quantum_dilog(1j * B_TEST.eta.real, B_TEST, method="quadrature")


def test_dilog_quadrature_names_its_node_cap():
    # an unreachable tolerance ends at the node cap, which the error names,
    # with the last relative change between step sizes as achieved
    with pytest.raises(AccuracyError, match=r"^phi quadrature did not stabilize at the "
                                            r"node cap max_nodes=4096 \(window \[") as info:
        sf._dilog_quadrature(0.1 + 0.05j, sf.ModularParam(0.9), tol=1e-30)
    assert 0 < info.value.achieved < 1e-12


def test_dilog_inversion_relation():
    # phi(z) phi(-z) = e^{i pi z^2} phi(0)^2 with phi(0)^2 =
    # e^{i pi (b^2 + b^-2) / 12}.  The product route reflects by this very
    # relation where Re(z eta) > 0, so phi(z) and phi(0) come from the
    # quadrature here, and phi(-z) from the product, reflected or not by
    # the sign of Re z.  The quadrature converges within its node cap up to
    # |Re z| = 2 at |Im z| <= 0.2.
    rng = np.random.default_rng(3)
    for mp in (B_TEST, B_WIDE):
        c = sf.quantum_dilog(0.0, mp, method="quadrature") ** 2
        assert abs(c / cmath.exp(1j * math.pi * (mp.b ** 2 + mp.b ** -2) / 12) - 1) < 1e-12
        for _ in range(20):
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-0.2, 0.2))
            lhs = (sf.quantum_dilog(z, mp, method="quadrature")
                   * sf.quantum_dilog(-z, mp, method="product-series"))
            rhs = cmath.exp(1j * math.pi * z * z) * c
            assert abs(lhs - rhs) / abs(rhs) < 1e-10


def _log_sum_phi(z, mp, tol):
    """Reference for dilog_product: the same terms and stopping rule, summed
    as one complex log1p per term.  Also returns, per side, the sum of
    log(1 + |term bound|), which bounds the log-magnitude of that side."""
    log_phi = np.zeros_like(z)
    bound_sums = []
    for x, fac, ratio, sign in (
            (np.exp(2 * math.pi * z * mp.b), mp.q, mp.q ** 2, 1.0),
            (np.exp(2 * math.pi * z / mp.b), mp.q_tilde, mp.q_tilde ** 2, -1.0)):
        scale = np.max(np.abs(x))
        total = 0.0
        while abs(fac) * scale > tol:
            log_phi += sign * np.log1p(fac * x)
            total += math.log1p(abs(fac) * scale)
            fac *= ratio
        bound_sums.append(total)
    return np.exp(log_phi), bound_sums


@pytest.mark.parametrize("mp", [B_TEST, B_WIDE], ids=["b_test", "b_wide"])
def test_dilog_product_wide_range_vs_log_sum(mp):
    x = np.linspace(-10.0, 10.0, 401)
    z = x[None, :] + 1j * np.array([-0.3, 0.0, 0.3])[:, None]
    got = sf.dilog_product(z, mp, tol=3e-15)
    ref, _ = _log_sum_phi(z, mp, 3e-15)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11


def _sides(z, mp):
    """(x, fac, ratio) of the numerator and the denominator product of phi."""
    return ((np.exp(2 * math.pi * z * mp.b), complex(mp.q), mp.q * mp.q),
            (np.exp(2 * math.pi * z / mp.b), complex(mp.q_tilde), mp.q_tilde * mp.q_tilde))


def test_dilog_product_reads_nan_at_a_nan_point_only():
    # max|x| skips a NaN point, so every finite point keeps its own value
    # (reflected or not), and the NaN point reads NaN, also where no term
    # enters
    for z in ([0.1, np.nan], [-0.1, np.nan], [3.0 + 0.2j, complex(np.nan, 0.1)],
              [-30.0, np.nan]):
        z = np.array(z, dtype=complex)
        with np.errstate(invalid="ignore"):
            got = sf.dilog_product(z, B_WIDE)
        assert abs(got[0] / sf.dilog_product(z[0], B_WIDE) - 1) < 1e-14
        assert np.isnan(got[1])


def test_running_product_raises_past_the_overflow_bound():
    # B_TEST's raw numerator at z = 10, which dilog_product reflects: the
    # bound sum of its terms passes _OVERFLOW_LOG, where the product could
    # leave the double range
    x = np.array([np.exp(2 * math.pi * 10.0 * B_TEST.b)])
    with pytest.raises(AccuracyError, match=r"passes 600 at max\|x\| = ") as info:
        sf._running_product(x, complex(B_TEST.q), B_TEST.q * B_TEST.q, 3e-15)
    assert info.value.achieved > sf._OVERFLOW_LOG


def _per_term_factors(x, fac, ratio, tol):
    """The factors fac ratio^m of the per-term loop: each m while
    |fac ratio^m| max|x| > tol."""
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    facs = []
    while abs(fac) * scale > tol:
        facs.append(fac)
        fac *= ratio
    return facs


def _per_term_product(x, fac, ratio, tol):
    """Reference for _running_product: one multiply-add per term over all
    points, with the same stopping rule."""
    prod = np.ones_like(x)
    for f in _per_term_factors(x, fac, ratio, tol):
        prod *= x * f + 1.0
    return prod


@pytest.mark.parametrize("mp, reach", [(B_TEST, 4.0), (B_WIDE, 8.0)], ids=["b_test", "b_wide"])
@pytest.mark.parametrize("points", [41, sf._BLOCK_POINTS, 2 ** 14 + 3],
                         ids=["one-block", "blocks", "one-term-passes"])
def test_blocked_product_equals_per_term_product(mp, reach, points):
    # 41 points take every term in one block, _BLOCK_POINTS points take
    # blocks of 16 terms, and past that each term is one pass.  At these
    # reaches the sides take 85 and 42 terms on B_TEST, 20 and 11 on B_WIDE,
    # with bound sums up to 324 and 189, below the overflow bound.  The
    # blocks change the rounding alone: the products agree to 1e-14.
    z = np.linspace(-reach, reach, points) + 0.2j * np.cos(np.arange(points))
    rows = sf._BLOCK_ENTRIES // points if points <= sf._BLOCK_POINTS else 1
    blocks = []
    for x, fac, ratio in _sides(z, mp):
        got = sf._running_product(x, fac, ratio, 3e-15)
        ref = _per_term_product(x, fac, ratio, 3e-15)
        blocks.append(-(-len(_per_term_factors(x, fac, ratio, 3e-15)) // rows))
        assert np.max(np.abs(got / ref - 1)) <= 1e-14
    assert (max(blocks) == 1) == (points == 41)


@pytest.mark.parametrize("shape", [(), (0,), (3, 0)])
def test_dilog_product_keeps_zero_d_and_empty_shapes(shape):
    z = np.full(shape, 0.3 + 0.1j)
    for mp in (B_TEST, B_WIDE):
        got = sf.dilog_product(z, mp, tol=3e-15)
        assert got.shape == shape
        for x, fac, ratio in _sides(z, mp):
            assert sf._running_product(x, fac, ratio, 3e-15).shape == shape


def test_factor_table_repeats_the_running_multiply():
    # the table's factors are the repeated fac *= ratio, bit for bit, also
    # past its first extension, and its term count is the per-term loop's
    z = np.linspace(-10.0, 10.0, 41)
    for mp in (B_TEST, B_WIDE):
        for x, fac, ratio in _sides(z, mp):
            sf._factor_table.cache_clear()
            terms = sf._factor_table(fac, ratio).terms(float(np.max(np.abs(x))), 3e-15)
            assert terms == len(_per_term_factors(x, fac, ratio, 3e-15))
            table = sf._factor_table(fac, ratio)
            expected, f = [], fac
            for _ in range(len(table.factors)):
                expected.append(f)
                f *= ratio
            assert table.factors.tolist() == expected
            assert table.moduli.tolist() == [abs(f) for f in expected]
            assert (len(table.factors) > sf._TABLE_START) == (mp is B_TEST)


def test_modular_te_case_builds_each_factor_table_once():
    # from cold caches one modular-te-irc case builds one table per side of
    # phi, and reports the pinned residual
    sf._factor_table.cache_clear()
    rep = run_suite(SuiteConfig(suite="modular-te-irc", seed=20240501, samples=1, b_arg=0.5))
    assert sf._factor_table.cache_info().misses == 2
    assert repr(rep.max_residual) == "4.796774978592631e-16"


def test_dilog_product_unconverged_raises():
    # Im b^2 ~ 1.3e-5: _PRODUCT_MAX_TERMS factors leave the last term bound near 0.3
    with pytest.raises(AccuracyError) as info:
        sf.quantum_dilog(0.1, sf.ModularParam(0.8 * cmath.exp(1e-5j)),
                         method="product-series")
    assert info.value.achieved > 0.1


# ---------------------------------------------------------------------------
# 2Psi2
# ---------------------------------------------------------------------------

def _random_admissible_c(rng):
    c = rng.uniform(-0.35, 0.3, size=4)
    c0 = rng.uniform(-0.45, -0.1)
    # keep the residue series convergent: both geometric ratios < 1
    rm, rn = sf.psi22_residue_ratios(tuple(map(complex, c)), complex(c0), B_TEST)
    if abs(rm) > 0.85 or abs(rn) > 0.85:
        return None
    return c, c0


def test_psi22_residue_series_factorizes_the_double_sum():
    # each family's double sum over (m, n) is the product of its m- and
    # n-series; the two sums differ by roundoff.  Measured over these 200
    # cases: at most 7.3e-14 relative where |c1 - c2| >= 0.07, and
    # |c1 - c2| times the relative difference at most 9.5e-15 over all of
    # them (6.5e-12 at |c1 - c2| = 4.2e-4), where the two families cancel.
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 200:
        pick = _random_admissible_c(rng)
        if pick is None:
            continue
        c, c0 = tuple(map(complex, pick[0])), complex(pick[1])
        got = sf._psi22_residue_series(c, c0, B_TEST)
        ref = oracles.psi22_residue_series_double(c, c0, B_TEST)
        rel = abs(got - ref) / abs(ref)
        split = abs(c[0] - c[1])
        assert rel * split < 5e-14
        if split >= 0.07:
            assert rel < 2e-13
        checked += 1


@pytest.mark.parametrize("c, c0, index", [((0.1, -0.1, 0.975, 0.975), -0.88, "n"),
                                          ((0.1, -0.1, -1.0, -1.0), 0.06, "m")])
def test_psi22_residue_series_names_its_cap(c, c0, index):
    # one geometric ratio near 0.98 leaves terms of 1e-7 of the sum after
    # _RESIDUE_MAX_TERMS terms; the error names the series and the cap
    with pytest.raises(AccuracyError,
                       match="residue %s-series not converged after 600 terms" % index) as info:
        sf.psi22(*c, c0, B_TEST, method="residue-series")
    assert info.value.achieved > 1e-10


def test_psi22_swap_symmetries():
    rng = np.random.default_rng(5)
    c = rng.uniform(-0.3, 0.3, size=4)
    c0 = -0.2
    v = sf.psi22(c[0], c[1], c[2], c[3], c0, B_TEST, method="quadrature")
    v12 = sf.psi22(c[1], c[0], c[2], c[3], c0, B_TEST, method="quadrature")
    v34 = sf.psi22(c[0], c[1], c[3], c[2], c0, B_TEST, method="quadrature")
    assert abs(v - v12) < 1e-12 * (1 + abs(v))
    assert abs(v - v34) < 1e-12 * (1 + abs(v))


def test_psi22_quadrature_vs_residue_series():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 20:
        pick = _random_admissible_c(rng)
        if pick is None:
            continue
        c, c0 = pick
        vq = sf.psi22(*c, c0, B_TEST, method="quadrature")
        vr = sf.psi22(*c, c0, B_TEST, method="residue-series")
        assert abs(vq - vr) / abs(vq) < 1e-6
        checked += 1


def test_psi22_divergent_residue_series_raises():
    with pytest.raises(DomainError):
        sf.psi22(0.1, 0.2, -0.1, 0.0, 1.5, B_TEST, method="residue-series")


def test_psi22_node_cap_reports_last_change():
    # the error names the cap and the window; achieved is the change between
    # the last two node counts, or None after a single count
    c = ([0.1, -0.2], [0.05, 0.1], [-0.1, 0.2], [0.0, 0.1], [-0.3, -0.2])
    with pytest.raises(AccuracyError, match=r"max_nodes=81 \(window \[") as info:
        sf.psi22_quadrature_batch(*c, B_TEST, max_nodes=81)
    assert info.value.achieved is None
    with pytest.raises(AccuracyError, match=r"max_nodes=161 \(window \[") as info:
        sf.psi22_quadrature_batch(*c, B_TEST, tol=1e-30, max_nodes=161)
    assert 0.0 < info.value.achieved < 1e-10


def _psi22_gauss_legendre(c1, c2, c3, c4, c0, mp, n=800, span=16.0):
    """Reference for psi22_quadrature_batch: one fixed Gauss-Legendre rule
    on a window far wider than the integrand's decay length."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    z = span * nodes[:, None]
    eta = mp.eta
    f = np.exp(2j * np.pi * z * (-c0 - 1j * eta))
    for cj, sign in ((c1, 1), (c2, 1), (c3, -1), (c4, -1)):
        f *= sf.dilog_product(z + (cj + sign * 1j * eta) / 2, mp, tol=3e-15) ** sign
    return span * (weights @ f)


@pytest.mark.parametrize("mp", [B_TEST, B_WIDE], ids=["b_test", "b_wide"])
def test_psi22_quadrature_vs_fixed_gauss_legendre(mp):
    rng = np.random.default_rng(29)
    c = rng.uniform(-0.35, 0.3, size=(4, 200))
    c0 = rng.uniform(-0.45, -0.1, size=200)
    got = sf.psi22_quadrature_batch(*c, c0, mp)
    ref = _psi22_gauss_legendre(*c, c0, mp)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11


class _Captured(Exception):
    pass


def _first_call(monkeypatch, name, run):
    """(args, kwargs) of the first call of sf.<name> that run() makes; the
    call raises _Captured, which ends run()."""
    seen = []

    def capture(*args, **kwargs):
        seen.append((args, kwargs))
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(sf, name, capture)
        with pytest.raises(_Captured):
            run()
    return seen[0]


@pytest.mark.parametrize("b_arg", [0.5, math.pi / 40], ids=["b_arg-0.5", "b_arg-pi/40"])
def test_psi22_integrand_shares_exponentials(b_arg, monkeypatch):
    # the integrand forms e^{2 pi (z + s) b} as e^{2 pi z b} e^{2 pi s b}
    # (and likewise with 1/b); on the first 2Psi2 batch of a modular-te-irc
    # case and the rule's first nodes it must equal the four dilog_product
    # factors of the definition at z + s, to 1e-13 of the integrand's
    # largest value for each parameter.  Point by point the two differ by
    # up to 8e-13 near the window's ends for arg b = pi/40: both round an
    # exponential of a large argument, and phi amplifies that by its number
    # of terms above one (~40), where the integrand has decayed.
    cfg = SuiteConfig(suite="modular-te-irc", samples=1, b_arg=b_arg)
    (c1, c2, c3, c4, c0, mp), kwargs = _first_call(
        monkeypatch, "psi22_quadrature_batch", lambda: SUITES["modular-te-irc"].case(cfg, 0))
    (f, span, k, *_), _ = _first_call(
        monkeypatch, "_nested_trapezoid",
        lambda: sf.psi22_quadrature_batch(c1, c2, c3, c4, c0, mp, **kwargs))
    z = span / k * np.arange(-k, k + 1)
    got = f(z)
    zz, eta = z[:, None], mp.eta
    ref = np.exp(2j * np.pi * zz * (-c0 - 1j * eta))
    for cj, sign in ((c1, 1), (c2, 1), (c3, -1), (c4, -1)):
        phi = sf.dilog_product(zz + (cj + sign * 1j * eta) / 2, mp, tol=3e-15)
        ref = ref * phi if sign > 0 else ref / phi
    assert got.shape == (z.size, c1.size)
    err = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
    assert np.max(err) <= 1e-13


@pytest.mark.parametrize("b_arg", [0.5, math.pi / 40], ids=["b_arg-0.5", "b_arg-pi/40"])
def test_psi22_integrand_takes_one_stacked_product_per_side(b_arg, monkeypatch):
    # one evaluation of the integrand runs each side of phi once, over the
    # stack of the four shifts' points, and the stack's max|x| gives it at
    # least the terms that any one shift's points alone would take
    cfg = SuiteConfig(suite="modular-te-irc", samples=1, b_arg=b_arg)
    (c1, *args), kwargs = _first_call(
        monkeypatch, "psi22_quadrature_batch", lambda: SUITES["modular-te-irc"].case(cfg, 0))
    (f, span, k, *_), _ = _first_call(
        monkeypatch, "_nested_trapezoid", lambda: sf.psi22_quadrature_batch(c1, *args, **kwargs))
    calls, terms = [], []
    product, count = sf._running_product, sf._FactorTable.terms

    def recording_product(x, fac, ratio, tol):
        calls.append((x.copy(), fac, ratio, tol))
        return product(x, fac, ratio, tol)

    def recording_terms(table, scale, tol):
        terms.append(count(table, scale, tol))
        return terms[-1]

    z = span / k * np.arange(-k, k + 1)
    with monkeypatch.context() as m:
        m.setattr(sf, "_running_product", recording_product)
        m.setattr(sf._FactorTable, "terms", recording_terms)
        f(z)
    assert len(calls) == len(terms) == 2
    for (x, fac, ratio, tol), taken in zip(calls, terms):
        assert x.shape == (4, z.size, c1.size)
        table = sf._factor_table(fac, ratio)
        alone = [table.terms(float(np.max(np.abs(x[j]))), tol) for j in range(4)]
        assert taken >= max(alone) > 0


def _recording(f):
    nodes = []

    def wrapped(z):
        nodes.extend(z.tolist())
        return f(z)
    return wrapped, nodes


def test_nested_trapezoid_evaluates_each_node_once():
    # a narrow start window and a coarse step force widenings and halvings;
    # the evaluated nodes must be exactly the final grid, each once
    f, nodes = _recording(lambda z: 1 / np.cosh(z))
    got = sf._nested_trapezoid(f, 1.0, 2, 1e-14, 10**4, tail=1e-12, grow=1.5, what="test")
    assert abs(got - math.pi) < 1e-12
    span, h = max(nodes), min(np.diff(sorted(nodes)))
    assert span > 20.0 and h <= 0.125
    assert len(set(nodes)) == len(nodes)
    k = round(span / h)
    assert np.array_equal(np.sort(nodes), h * np.arange(-k, k + 1))


def test_nested_trapezoid_gaussian_closed_form():
    # int exp(-x^2) cos(a x) dx = sqrt(pi) exp(-a^2 / 4)
    a = np.array([0.0, 1.0, 2.5, 4.0])
    got = sf._nested_trapezoid(lambda z: np.exp(-z * z)[:, None] * np.cos(np.outer(z, a)),
                               2.0, 4, 1e-12, 10**4, tail=1e-14, grow=1.5, what="test")
    assert np.max(np.abs(got - math.sqrt(math.pi) * np.exp(-a * a / 4))) < 1e-14


def test_nested_trapezoid_undecayed_tail_hits_node_cap():
    # the window widens every round and each widening adds nodes, so the
    # cap ends the loop; the error names the cap and the last window
    f, nodes = _recording(lambda z: np.ones_like(z))
    with pytest.raises(AccuracyError) as info:
        sf._nested_trapezoid(f, 4.0, 16, 1e-9, 1000, tail=1e-10, grow=1.5, what="test")
    found = re.fullmatch(r"test did not stabilize at the node cap max_nodes=1000 "
                         r"\(window \[-(\S+), (\S+)\]\)", str(info.value))
    assert found and found.group(1) == found.group(2)
    assert len(nodes) <= 1000
    assert float(found.group(2)) == pytest.approx(max(nodes), rel=1e-3)
    assert info.value.achieved is None


def test_psi22_confluent_double_pole_case():
    # c1 = c2 makes the two numerator pole lattices coincide; the residue
    # route must still agree with quadrature through the symmetric split
    for c1, c3, c4, c0 in [(0.0, 0.0, 0.0, 0.0), (0.12, -0.2, 0.05, -0.3)]:
        vq = sf.psi22(c1, c1, c3, c4, c0, B_TEST, method="quadrature")
        vr = sf.psi22(c1, c1, c3, c4, c0, B_TEST, method="residue-series")
        assert abs(vq - vr) / abs(vq) < 1e-6


def test_fermat_phi_periodicity_triangle_points():
    rng = np.random.default_rng(21)
    for N in (2, 3, 5):
        tri = sample_triangle(rng)
        for p in sf.fermat_points_from_triangle(tri, N):
            phi = sf.fermat_phi_table(p)
            assert phi[0] == 1
            for n in range(N):
                assert abs(oracles.fermat_phi_continued(p, phi, n + N) - phi[n]) < 1e-10


# ---------------------------------------------------------------------------
# cyclic dilogarithm
# ---------------------------------------------------------------------------

def _sample_point(N, rng):
    # random point on the curve with y from the principal branch
    x = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
    y = (1 - x ** N) ** (1.0 / N)
    return sf.FermatPoint(x, y, N)


def test_fermat_phi_base_and_first_step():
    rng = np.random.default_rng(2)
    p = _sample_point(3, rng)
    q = sf.root_of_unity_q(3)
    phi = sf.fermat_phi_table(p)
    assert phi[0] == 1.0
    expected = p.y / (1 - p.x * q ** 2)
    assert phi[1] == pytest.approx(expected, abs=1e-14)


def test_fermat_phi_periodicity_and_cyclotomic_product():
    rng = np.random.default_rng(4)
    for N in (3, 5):
        p = _sample_point(N, rng)
        q = sf.root_of_unity_q(N)
        prod = 1.0 + 0j
        for n in range(1, N + 1):
            prod *= 1 - p.x * q ** (2 * n)
        # prod_{n=1}^{N} (1 - x q^{2n}) = 1 - x^N, which drives periodicity
        assert abs(prod - (1 - p.x ** N)) < 1e-12
        phi = sf.fermat_phi_table(p)
        assert phi[0] == 1
        for n in range(N):
            assert abs(oracles.fermat_phi_continued(p, phi, n + N) - phi[n]) < 1e-12


def test_fermat_point_rejects_off_curve():
    with pytest.raises(DomainError):
        sf.FermatPoint(0.5, 0.5, 3)


def test_q_power_exactness():
    for N in (2, 3, 4, 5):
        q = sf.root_of_unity_q(N)
        for e in range(-6, 12):
            assert abs(sf.q_power(N, e) - q ** e) < 1e-12


def test_q_power_arrays_look_up_the_scalar_phases():
    for N in (2, 3, 4, 5, 7):
        e = np.arange(-3 * N, 3 * N).reshape(2, 3, N)
        got = sf.q_power(N, e)
        assert got.shape == e.shape
        for idx in np.ndindex(e.shape):
            k = int(e[idx])
            scalar = sf.q_power(N, k)
            # bit for bit the phase formula, for a scalar and an array entry
            assert scalar == cmath.exp(1j * math.pi * (((N + 1) * k) % (2 * N)) / N)
            assert got[idx] == scalar


# ---------------------------------------------------------------------------
# spherical triangles and Fermat points
# ---------------------------------------------------------------------------

def test_octant_triangle():
    tri = sf.spherical_sides_from_angles(math.pi / 2, math.pi / 2, math.pi / 2)
    for a in (tri.a1, tri.a2, tri.a3):
        assert a == pytest.approx(math.pi / 2, abs=1e-14)


def test_degenerate_angle_sum_rejected():
    with pytest.raises(DomainError):
        sf.spherical_sides_from_angles(math.pi / 3, math.pi / 3, math.pi / 3)


def sample_triangle(rng):
    while True:
        th = rng.uniform(0.3, math.pi - 0.3, size=3)
        try:
            return sf.spherical_sides_from_angles(*th)
        except DomainError:
            continue


def test_sides_angles_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        tri = sample_triangle(rng)
        th = oracles.spherical_angles_from_sides(tri.a1, tri.a2, tri.a3)
        assert np.allclose(th, (tri.theta1, tri.theta2, tri.theta3), atol=1e-10)


def test_beta_combinations():
    rng = np.random.default_rng(10)
    tri = sample_triangle(rng)
    assert 2 * tri.beta1 == pytest.approx(tri.a2 + tri.a3 - tri.a1, abs=1e-12)
    assert 2 * tri.beta2 == pytest.approx(tri.a1 + tri.a3 - tri.a2, abs=1e-12)
    assert 2 * tri.beta3 == pytest.approx(tri.a1 + tri.a2 - tri.a3, abs=1e-12)
    assert tri.beta0 == pytest.approx(math.pi - tri.beta1 - tri.beta2 - tri.beta3, abs=1e-12)


def test_fermat_points_on_curve_and_relations():
    rng = np.random.default_rng(12)
    for N in (2, 3, 5):
        tri = sample_triangle(rng)
        p1, p2, p3, p4 = sf.fermat_points_from_triangle(tri, N)
        for p in (p1, p2, p3, p4):
            assert p.curve_residual() < 1e-10
        # moduli cancel in the product/ratio of the displayed formulas
        assert abs(p1.x * p2.x - cmath.exp(-2j * tri.a2 / N)) < 1e-12
        ratio = (math.sin(tri.beta3) / math.sin(tri.beta1)) ** (2.0 / N)
        assert abs(p3.x / p4.x - ratio) < 1e-12


def test_octant_fermat_points_n3():
    tri = sf.spherical_sides_from_angles(math.pi / 2, math.pi / 2, math.pi / 2)
    for p in sf.fermat_points_from_triangle(tri, 3):
        assert p.curve_residual() < 1e-10
