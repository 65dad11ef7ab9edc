import math

import numpy as np
import pytest

from qlattice.errors import DomainError, SingularityError
from qlattice import classical_map as cm
from qlattice import geometry as geo
from qlattice.harness.rng import case_rng

import oracles


# ---------------------------------------------------------------------------
# circular variables
# ---------------------------------------------------------------------------

def test_angles_to_circular_equal_angles():
    t = cm.angles_to_circular(math.pi / 3, math.pi / 3)
    assert t.a_star == pytest.approx(0.0, abs=1e-15)
    assert t.k == pytest.approx(1.0, abs=1e-15)
    assert t.a == pytest.approx(1.0, abs=1e-15)


def test_angles_to_circular_known_values():
    t = cm.angles_to_circular(math.pi / 2, math.pi / 4)
    r = math.sqrt(2) / 2
    assert t.k == pytest.approx(r, abs=1e-14)
    assert t.a == pytest.approx(r, abs=1e-14)
    assert t.a_star == pytest.approx(r, abs=1e-14)


def test_circular_roundtrip_and_constraint():
    rng = np.random.default_rng(0)
    for _ in range(200):
        al, be = rng.uniform(0.1 * math.pi, 0.49 * math.pi, 2)
        t = cm.angles_to_circular(al, be)
        assert oracles.constraint_residual(t) < 1e-12
        al2, be2 = cm.circular_to_angles(t)
        assert al2 == pytest.approx(al, abs=1e-12)
        assert be2 == pytest.approx(be, abs=1e-12)


def test_singular_alpha_rejected():
    with pytest.raises(SingularityError):
        cm.angles_to_circular(0.0, 0.3)


# ---------------------------------------------------------------------------
# edge propagation
# ---------------------------------------------------------------------------

def test_square_face_is_identity():
    fa = geo.FaceAngles(alpha=math.pi / 2, beta=math.pi / 2,
                        gamma=math.pi / 2, delta=math.pi / 2)
    out = oracles.propagation_matrix(fa) @ [1.3, 0.7]
    assert tuple(out) == pytest.approx((1.3, 0.7), abs=1e-14)


def test_circular_face_matrix_and_det():
    al, be = math.pi / 2, math.pi / 4
    fa = geo.FaceAngles(alpha=al, beta=be, gamma=math.pi - be, delta=math.pi - al)
    x = oracles.propagation_matrix(fa)
    t = cm.angles_to_circular(al, be)
    assert np.allclose(x, [[t.k, t.a_star], [-t.a, t.k]], atol=1e-14)
    assert np.linalg.det(x) == pytest.approx(1.0, abs=1e-14)


def test_propagation_measured_on_random_quads():
    rng = np.random.default_rng(1)
    for _ in range(30):
        h = oracles.quad_hexahedron(rng)
        for f in h.faces():
            fa = geo.extract_angles(f)
            lp, lq, lp_out, lq_out = (float(np.linalg.norm(np.subtract(f[i], f[j])))
                                      for i, j in ((2, 1), (3, 2), (0, 3), (1, 0)))
            pred = oracles.propagation_matrix(fa) @ [lp, lq]
            assert np.allclose(pred, [lp_out, lq_out], atol=1e-10)


def test_propagation_constraint_residual():
    rng = np.random.default_rng(2)
    for _ in range(30):
        h = oracles.quad_hexahedron(rng)
        fa = geo.extract_angles(h.front_faces()[0])
        assert oracles.propagation_constraint_residual(fa) < 1e-10


# ---------------------------------------------------------------------------
# the map and the local Yang-Baxter identity
# ---------------------------------------------------------------------------

def test_map_fixed_point():
    t = cm.CircularTriple(1.0, 0.0, 0.0)
    for eps in (1, -1):
        out = cm.map_r123(t, t, t, eps=eps)
        for o in out:
            assert np.allclose(o.as_array(), t.as_array(), atol=1e-15)


def test_map_preserves_constraint():
    rng = np.random.default_rng(3)
    for _ in range(200):
        front, _ = oracles.flippable_front(rng)
        for t in cm.map_r123(*front):
            assert oracles.constraint_residual(t) < 1e-12


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _stack(triples):
    return cm.CircularTriple(*(np.array([getattr(t, f) for t in triples])
                               for f in ("k", "a", "a_star")))


@pytest.mark.parametrize("eps", [1, -1])
def test_stacked_map_equals_scalar_calls(eps):
    rng = np.random.default_rng(30)
    fronts = [oracles.flippable_front(rng, eps=eps)[0] for _ in range(100)]
    stacked = cm.map_r123(*(_stack(col) for col in zip(*fronts)), eps=eps)
    single = [cm.map_r123(*front, eps=eps) for front in fronts]
    for j in range(3):
        for field in ("k", "a", "a_star"):
            want = [getattr(out[j], field) for out in single]
            assert all(type(v) is float for v in want)
            assert np.array_equal(_bits(getattr(stacked[j], field)), _bits(want))


@pytest.mark.parametrize("eps", [1, -1])
def test_stacked_angle_map_equals_single_states(eps):
    rng = np.random.default_rng(31)
    states = []
    while len(states) < 60:
        x = rng.uniform(0.22 * math.pi, 0.43 * math.pi, 6)
        try:
            cm.angle_map(x, eps)
        except DomainError:
            continue
        states.append(x)
    stacked = cm.angle_map(np.array(states).reshape(3, 20, 6), eps)
    assert stacked.shape == (3, 20, 6)
    single = [cm.angle_map(x, eps) for x in states]
    assert np.array_equal(_bits(stacked.reshape(60, 6)), _bits(single))


def test_real_input_stays_real_and_complex_takes_the_principal_branch():
    front, back = oracles.flippable_front(np.random.default_rng(32))
    assert all(type(v) is float for t in back for v in (t.k, t.a, t.a_star))
    lifted = [cm.CircularTriple(complex(t.k), complex(t.a), complex(t.a_star)) for t in front]
    for t, u in zip(cm.map_r123(*lifted), back):
        assert isinstance(t.k, complex)
        assert abs(t.k - u.k) + abs(t.a - u.a) + abs(t.a_star - u.a_star) < 1e-15
    # a radicand below zero: an error in real mode, the principal root else
    t = cm.CircularTriple(0.5, 2.0, 2.0)
    with pytest.raises(DomainError, match="negative radicand"):
        cm.map_r123(t, t, t)
    z = cm.CircularTriple(0.5 + 0j, 2.0, 2.0)
    k2 = cm.map_r123(z, t, t)[1].k
    assert k2.real == 0 and k2.imag > 0


def test_stacked_guards_name_their_first_failing_item():
    # the message reads the values of the first failing item in C order, as
    # it reads alone, and the error's index is that item's position
    ones = np.ones(5)
    k2 = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
    t = cm.CircularTriple(ones, 0 * ones, 0 * ones)
    with pytest.raises(SingularityError, match=r"^k2 = 0") as err:
        cm.map_r123(t, cm.CircularTriple(k2, 0 * ones, 0 * ones), t)
    assert err.value.index == (2,)
    a = np.array([[0.0, 0.5], [2.0, 3.0]])
    bad = cm.CircularTriple(0.5 * np.ones((2, 2)), a, a)
    with pytest.raises(DomainError, match=r"^negative radicand -19\.25 in") as err:
        cm.map_r123(bad, bad, bad)
    assert err.value.index == (1, 0)
    with pytest.raises(SingularityError, match=r"^alpha = 0") as err:
        cm.angles_to_circular(np.array([0.3, 0.0, 0.0]), np.array([0.2, 0.2, 0.2]))
    assert err.value.index == (1,)
    wide = cm.CircularTriple(np.array([1.0, 0.1, 0.1]), np.array([0.0, 0.5, 0.9]), np.zeros(3))
    with pytest.raises(DomainError, match=r"^no real alpha .*cos = 2\.5") as err:
        cm.circular_to_angles(wide)
    assert err.value.index == (1,)
    # a stack of one raises the text of the scalar call
    with pytest.raises(DomainError) as alone:
        cm.map_r123(*[cm.CircularTriple(0.5, 2.0, 2.0)] * 3)
    with pytest.raises(DomainError) as stacked:
        cm.map_r123(*[cm.CircularTriple(*np.array([[0.5], [2.0], [2.0]]))] * 3)
    assert str(stacked.value) == str(alone.value)


def test_lybe_residual_small_and_sensitive():
    rng = np.random.default_rng(4)
    for _ in range(200):
        front, _ = oracles.flippable_front(rng)
        back = cm.map_r123(*front)
        assert cm.local_yang_baxter_residual(front, back) < 1e-12
    # unmapped state fails visibly
    front, _ = oracles.flippable_front(np.random.default_rng(5))
    assert cm.local_yang_baxter_residual(front, front) > 1e-3


def test_lybe_residual_equals_explicit_products():
    # X_pq(1) X_pr(2) X_qr(3) and X_qr(3') X_pr(2') X_pq(1'), each 3x3
    # factor written out, multiplied in the same order
    def x3(t, rows):
        out = np.eye(3, dtype=complex)
        out[np.ix_(rows, rows)] = [[t.k, t.a_star], [-t.a, t.k]]
        return out

    rng = np.random.default_rng(19)
    for _ in range(200):
        (t1, t2, t3), (u1, u2, u3) = oracles.flippable_front(rng)
        lhs = x3(t1, (0, 1)) @ x3(t2, (0, 2)) @ x3(t3, (1, 2))
        rhs = x3(u3, (1, 2)) @ x3(u2, (0, 2)) @ x3(u1, (0, 1))
        got = cm.local_yang_baxter_residual((t1, t2, t3), (u1, u2, u3))
        assert got == float(np.max(np.abs(lhs - rhs)))


def test_lybe_identity_faces():
    t = cm.CircularTriple(1.0, 0.0, 0.0)
    assert cm.local_yang_baxter_residual((t, t, t), (t, t, t)) == 0.0


def test_geometric_lybe_general_quadrilaterals():
    rng = np.random.default_rng(6)
    for _ in range(25):
        h = oracles.quad_hexahedron(rng)
        front = [geo.extract_angles(f) for f in h.front_faces()]
        back = [geo.extract_angles(f) for f in h.back_faces()]
        assert cm.local_yang_baxter_residual(front, back, matrix=oracles.face_x) < 1e-10


def test_map_matches_circular_geometry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = geo.random_circular_hexahedron(rng)
        front = [geo.extract_angles(f) for f in h.front_faces()]
        back = [geo.extract_angles(f) for f in h.back_faces()]
        ts = [cm.angles_to_circular(a.alpha, a.beta) for a in front]
        out = cm.map_r123(*ts, eps=cm.EPS_CLASSICAL)
        for t, b in zip(out, back):
            al, be = cm.circular_to_angles(t)
            assert al == pytest.approx(b.alpha, abs=1e-8)
            assert be == pytest.approx(b.beta, abs=1e-8)


def test_cube_edge_propagation_matches_measured_lengths():
    rng = np.random.default_rng(20)
    d = lambda a, b: float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
    for _ in range(10):
        h = oracles.quad_hexahedron(rng)
        l_in = (d(h.x13, h.x1), d(h.x1, h.x12), d(h.x12, h.x2))
        l_out = (d(h.x23, h.x2), d(h.x23, h.x3), d(h.x3, h.x13))
        front = [geo.extract_angles(f) for f in h.front_faces()]
        back = [geo.extract_angles(f) for f in h.back_faces()]
        assert np.allclose(oracles.cube_edge_propagate(*l_in, front), l_out, atol=1e-10)
        assert np.allclose(oracles.cube_edge_propagate(*l_in, back, reverse=True),
                           l_out, atol=1e-10)


# ---------------------------------------------------------------------------
# functional tetrahedron equation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1, -1])
def test_functional_tetrahedron(eps):
    rng = np.random.default_rng(8)
    for _ in range(100):
        state = oracles.mappable_six(rng, eps=eps)
        assert cm.functional_tetrahedron_residual(state, eps=eps) < 1e-10


def test_fte_fixed_point_and_sensitivity():
    t = cm.CircularTriple(1.0, 0.0, 0.0)
    assert cm.functional_tetrahedron_residual([t] * 6) == 0.0
    rng = np.random.default_rng(9)
    state = oracles.mappable_six(rng)
    lhs = cm.apply_flip_sequence(state, cm.FTE_SEQUENCE, 1)
    rhs = cm.apply_flip_sequence(state, tuple(reversed(cm.FTE_SEQUENCE)), 1)
    # perturb one LHS component after evaluation: the comparison must notice
    lhs[0] = cm.CircularTriple(lhs[0].k + 1e-3, lhs[0].a, lhs[0].a_star)
    diff = max(np.max(np.abs(a.as_array() - b.as_array())) for a, b in zip(lhs, rhs))
    assert diff > 1e-4


# ---------------------------------------------------------------------------
# symplectic structure
# ---------------------------------------------------------------------------

def test_symplectic_invariance():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = oracles.symplectic_state(rng)
        assert cm.symplectic_residual(x) < 1e-6


def test_symplectic_truncation_error_is_extrapolated_away():
    # plain central differences at h = 1e-5 read 1.0e-5 on this sampled
    # state: their h^2 truncation error, not a defect of the map.  The
    # complex-step Jacobian forms no difference, so it has no such term
    x = oracles.symplectic_state(case_rng(302, 12))
    assert cm.symplectic_residual(x) < 1e-6


def test_symplectic_residual_is_at_roundoff():
    # the 100 states of test_symplectic_invariance
    rng = np.random.default_rng(10)
    worst = max(cm.symplectic_residual(oracles.symplectic_state(rng)) for _ in range(100))
    assert worst <= 1e-12


def _angle_map_mp(x, eps=1):
    """The flip map in angle coordinates, written out in mpmath."""
    mp = pytest.importorskip("mpmath").mp
    ts = []
    for al, be in zip(x[::2], x[1::2]):
        sa = mp.sin(al)
        ts.append((mp.sin(be) / sa, mp.sin(al + be) / sa, mp.sin(al - be) / sa))
    (k1, a1, s1), (k2, a2, s2), (k3, a3, s3) = ts
    a2p = a1 * a3 + eps * k1 * k3 * a2
    s2p = s1 * s3 + eps * k1 * k3 * s2
    k2p = mp.sqrt(1 - a2p * s2p)
    a1p = (k3 * a1 - eps * k1 * a2 * s3) / k2p
    s1p = (k3 * s1 - eps * k1 * s2 * a3) / k2p
    a3p = (k1 * a3 - eps * k3 * s1 * a2) / k2p
    s3p = (k1 * s3 - eps * k3 * a1 * s2) / k2p
    out = []
    for k, a, s in ((mp.sqrt(1 - a1p * s1p), a1p, s1p), (k2p, a2p, s2p),
                    (mp.sqrt(1 - a3p * s3p), a3p, s3p)):
        out += [mp.acos((a - s) / (2 * k)), mp.acos((a + s) / 2)]
    return out


@pytest.mark.parametrize("case", [0, 1, 76])
def test_complex_step_jacobian_matches_50_digit_differences(case):
    mpmath = pytest.importorskip("mpmath")
    x = oracles.symplectic_state(case_rng(7, case))
    jac = cm.jacobian(cm.angle_map, x)
    with mpmath.workdps(50):
        h = mpmath.mpf("1e-20")
        xm = [mpmath.mpf(float(v)) for v in x]
        want = np.empty((6, 6))
        for j in range(6):
            up = list(xm)
            down = list(xm)
            up[j] += h
            down[j] -= h
            want[:, j] = [float((u - d) / (2 * h))
                          for u, d in zip(_angle_map_mp(up), _angle_map_mp(down))]
    assert np.max(np.abs(jac - want)) <= 1e-12 * np.max(np.abs(want))


def test_batched_angle_draws_reproduce_the_sampled_states():
    # values read from the one-angle-at-a-time samplers; each case rejects
    # one draw first, so the rejected draws are pinned too
    front, _ = oracles.flippable_front(case_rng(20240501, 4))
    assert [tuple(map(repr, (t.k, t.a, t.a_star))) for t in front] == [
        ("1.0765238941201298", "1.5153281088788577", "-0.1048642163241702"),
        ("1.1150153951828643", "1.1038014696791731", "-0.22038322848537628"),
        ("0.6209246575622298", "0.9099107505495175", "0.675288833833587")]
    state = oracles.mappable_six(case_rng(20240501, 2), eps=1)
    assert [tuple(map(repr, (t.k, t.a, t.a_star))) for t in state] == [
        ("1.1175562851942928", "1.52951576254469", "-0.16275219691957535"),
        ("1.293464879954411", "0.9920814576555714", "-0.6784235210544043"),
        ("0.8351096446133442", "0.982761241297086", "0.30789968993323497"),
        ("1.3129207121964934", "1.3792442903334277", "-0.5247517075742838"),
        ("1.3951063842127913", "1.580075726403337", "-0.5989091582498789"),
        ("1.4386812403238312", "1.3021842528058958", "-0.8215455754088148")]
    x = oracles.symplectic_state(case_rng(20240501, 4))
    assert list(map(repr, x.tolist())) == [
        "0.7672637069690891", "0.8253215232752048", "0.948785605881912",
        "1.0985293637967997", "1.3231713738295845", "0.7141804793157099"]


def test_symplectic_identity_jacobian_at_fixed_point():
    # the all-square state maps to itself with unit Jacobian
    x = np.full(6, math.pi / 2)
    assert np.allclose(cm.angle_map(x), x, atol=1e-12)
    h = 1e-5
    jac = np.empty((6, 6))
    for j in range(6):
        dx = np.zeros(6)
        dx[j] = h
        jac[:, j] = (cm.angle_map(x + dx) - cm.angle_map(x - dx)) / (2 * h)
    assert np.max(np.abs(jac - np.eye(6))) < 1e-6


def test_symplectic_negative_control():
    # componentwise squaring is not canonical
    x = np.array([0.8, 0.9, 1.0, 1.1, 0.85, 0.95])
    h = 1e-5
    n = 6
    jac = np.empty((n, n))
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = h
        jac[:, j] = ((x + dx) ** 2 - (x - dx) ** 2) / (2 * h)
    res = np.max(np.abs(jac @ cm.CANONICAL_OMEGA @ jac.T - cm.CANONICAL_OMEGA))
    assert res > 0.1


def test_o_poisson_brackets():
    rng = np.random.default_rng(11)
    for _ in range(100):
        al, be = rng.uniform(0.2 * math.pi, 0.45 * math.pi, 2)
        res = oracles.poisson_bracket_residuals(al, be)
        assert max(res) < 1e-6


def test_poisson_brackets_are_at_roundoff():
    # the complex-step Jacobian has no truncation term; central differences
    # at h = 1e-5 read about 1e-9 on these states
    rng = np.random.default_rng(11)
    for _ in range(100):
        al, be = rng.uniform(0.2 * math.pi, 0.45 * math.pi, 2)
        assert max(oracles.poisson_bracket_residuals(al, be)) < 1e-13


# ---------------------------------------------------------------------------
# covariant evolution
# ---------------------------------------------------------------------------

def test_covariant_zero_field_fixed_point():
    f = cm.CovariantField.empty((2, 2, 2))
    f.a[..., :, :] = 0.0
    cm.covariant_evolve(f)
    assert np.nanmax(np.abs(f.a)) == 0.0


def _evolve_site_by_site(f):
    """The covariant update one cube at a time, in nondecreasing s1+s2+s3."""
    for s in sorted(np.ndindex(*f.box), key=sum):
        v = f.a[s].copy()
        kk = lambda p, q: math.sqrt(1.0 - v[p, q] * v[q, p])
        for i, j, k in cm.PAIRS:
            t = list(s)
            t[k] += 1
            f.a[(*t, i, j)] = (v[i, j] - v[i, k] * v[k, j]) / (kk(i, k) * kk(k, j))


@pytest.mark.parametrize("box", [(4, 3, 2), (5, 5, 5)])
def test_layered_evolution_equals_site_by_site(box):
    f = cm.CovariantField.random_boundary(box, np.random.default_rng(17))
    ref = cm.CovariantField(f.box, f.a.copy())
    cm.covariant_evolve(f)
    _evolve_site_by_site(ref)
    assert np.array_equal(f.a, ref.a, equal_nan=True)


@pytest.mark.parametrize("error, value", [(DomainError, np.nan), (SingularityError, 1.0)],
                         ids=["unset", "singular"])
def test_a_failing_cube_is_named_and_its_layer_left_unwritten(error, value):
    f = cm.CovariantField.random_boundary((3, 3, 3), np.random.default_rng(18))
    # (1, 0, 1) is the fourth cube of layer 2; A_02 and A_20 are boundary
    # data there (on the s_2 = 0 wall), so no earlier layer overwrites them
    f.a[1, 0, 1, 0, 2] = f.a[1, 0, 1, 2, 0] = value
    with pytest.raises(error, match=r"^cube \(1, 0, 1\): ") as err:
        cm.covariant_evolve(f)
    assert type(err.value) is error
    # every guard runs over the whole layer before it writes
    for s in np.ndindex(3, 3, 3):
        if sum(s) == 2:
            for i, j, k in cm.PAIRS:
                t = list(s)
                t[k] += 1
                assert np.isnan(f.a[(*t, i, j)])


def test_covariant_kk_relation():
    rng = np.random.default_rng(12)
    f = cm.CovariantField.random_boundary((4, 4, 4), rng)
    cm.covariant_evolve(f)
    res = cm.kk_relation_residual(f)
    assert np.isfinite(res) and res < 1e-10


def test_covariant_single_cube_matches_map():
    rng = np.random.default_rng(13)
    # build a one-cube field directly from a mapped triple set
    front, _ = oracles.flippable_front(rng)
    t1, t2, t3 = front
    p1, p2, p3 = cm.map_r123(*front)
    f = cm.CovariantField.empty((1, 1, 1))
    s = (0, 0, 0)
    f.a[(*s, 2, 1)], f.a[(*s, 1, 2)] = t1.a, t1.a_star
    f.a[(*s, 2, 0)], f.a[(*s, 0, 2)] = p2.a, p2.a_star
    f.a[(*s, 1, 0)], f.a[(*s, 0, 1)] = t3.a, t3.a_star
    cm.covariant_step(f, s)
    assert abs(f.a[1, 0, 0, 2, 1] - p1.a) < 1e-12
    assert abs(f.a[1, 0, 0, 1, 2] - p1.a_star) < 1e-12
    assert abs(f.a[0, 1, 0, 2, 0] - t2.a) < 1e-12
    assert abs(f.a[0, 1, 0, 0, 2] - t2.a_star) < 1e-12
    assert abs(f.a[0, 0, 1, 1, 0] - p3.a) < 1e-12
    assert abs(f.a[0, 0, 1, 0, 1] - p3.a_star) < 1e-12


def test_covariant_box_agrees_with_map():
    rng = np.random.default_rng(14)
    f = cm.CovariantField.random_boundary((3, 3, 3), rng)
    cm.covariant_evolve(f)
    assert cm.covariant_vs_map_residual(f) < 1e-10


def test_covariant_stacked_residual_equals_cube_by_cube():
    rng = np.random.default_rng(15)
    f = cm.CovariantField.random_boundary((4, 3, 2), rng)
    cm.covariant_evolve(f)
    t1, t2, t3 = cm.cube_triples(f)
    worst = 0.0
    for s in np.ndindex(4, 3, 2):
        pick = lambda t: cm.CircularTriple(float(t.k[s]), float(t.a[s]), float(t.a_star[s]))
        p1, p2, p3 = cm.map_r123(pick(t1), pick(t2), pick(t3))
        i, j, k = s
        got = [f.a[i + 1, j, k, 2, 1], f.a[i + 1, j, k, 1, 2], f.a[i, j, k, 2, 0],
               f.a[i, j, k, 0, 2], f.a[i, j, k + 1, 1, 0], f.a[i, j, k + 1, 0, 1]]
        want = [p1.a, p1.a_star, p2.a, p2.a_star, p3.a, p3.a_star]
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    assert cm.covariant_vs_map_residual(f) == worst
