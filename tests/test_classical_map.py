import math

import numpy as np
import pytest

from qlattice.errors import SingularityError
from qlattice import classical_map as cm
from qlattice import geometry as geo
from qlattice.harness.rng import case_rng


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
        assert t.constraint_residual() < 1e-12
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
    out = cm.propagation_matrix(fa) @ [1.3, 0.7]
    assert tuple(out) == pytest.approx((1.3, 0.7), abs=1e-14)


def test_circular_face_matrix_and_det():
    al, be = math.pi / 2, math.pi / 4
    fa = geo.FaceAngles(alpha=al, beta=be, gamma=math.pi - be, delta=math.pi - al)
    x = cm.propagation_matrix(fa)
    t = cm.angles_to_circular(al, be)
    assert np.allclose(x, [[t.k, t.a_star], [-t.a, t.k]], atol=1e-14)
    assert np.linalg.det(x) == pytest.approx(1.0, abs=1e-14)


def test_propagation_measured_on_random_quads():
    rng = np.random.default_rng(1)
    for _ in range(30):
        h = geo.random_quad_hexahedron(rng)
        for f in h.all_faces():
            fa = geo.extract_angles(f)
            lp, lq, lp_out, lq_out = (float(np.linalg.norm(np.subtract(f[i], f[j])))
                                      for i, j in ((2, 1), (3, 2), (0, 3), (1, 0)))
            pred = cm.propagation_matrix(fa) @ [lp, lq]
            assert np.allclose(pred, [lp_out, lq_out], atol=1e-10)


def test_propagation_constraint_residual():
    rng = np.random.default_rng(2)
    for _ in range(30):
        h = geo.random_quad_hexahedron(rng)
        fa = geo.extract_angles(h.front_faces()[0])
        assert cm.propagation_constraint_residual(fa) < 1e-10


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
        front = cm.sample_admissible_front(rng)
        for t in cm.map_r123(*front):
            assert t.constraint_residual() < 1e-12


def test_lybe_residual_small_and_sensitive():
    rng = np.random.default_rng(4)
    for _ in range(200):
        front = cm.sample_admissible_front(rng)
        back = cm.map_r123(*front)
        assert cm.local_yang_baxter_residual(front, back) < 1e-12
    # unmapped state fails visibly
    front = cm.sample_admissible_front(np.random.default_rng(5))
    assert cm.local_yang_baxter_residual(front, front) > 1e-3


def test_lybe_identity_faces():
    t = cm.CircularTriple(1.0, 0.0, 0.0)
    assert cm.local_yang_baxter_residual((t, t, t), (t, t, t)) == 0.0


def test_geometric_lybe_general_quadrilaterals():
    rng = np.random.default_rng(6)
    for _ in range(25):
        h = geo.random_quad_hexahedron(rng)
        front = [geo.extract_angles(f) for f in h.front_faces()]
        back = [geo.extract_angles(f) for f in h.back_faces()]
        assert cm.local_yang_baxter_residual(front, back, matrix=cm.face_x) < 1e-10


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
        h = geo.random_quad_hexahedron(rng)
        l_in = (d(h.x13, h.x1), d(h.x1, h.x12), d(h.x12, h.x2))
        l_out = (d(h.x23, h.x2), d(h.x23, h.x3), d(h.x3, h.x13))
        front = [geo.extract_angles(f) for f in h.front_faces()]
        back = [geo.extract_angles(f) for f in h.back_faces()]
        assert np.allclose(cm.cube_edge_propagate(*l_in, front), l_out, atol=1e-10)
        assert np.allclose(cm.cube_edge_propagate(*l_in, back, reverse=True),
                           l_out, atol=1e-10)


# ---------------------------------------------------------------------------
# functional tetrahedron equation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1, -1])
def test_functional_tetrahedron(eps):
    rng = np.random.default_rng(8)
    for _ in range(100):
        state = cm.sample_admissible_six(rng, eps=eps)
        assert cm.functional_tetrahedron_residual(state, eps=eps) < 1e-10


def test_fte_fixed_point_and_sensitivity():
    t = cm.CircularTriple(1.0, 0.0, 0.0)
    assert cm.functional_tetrahedron_residual([t] * 6) == 0.0
    rng = np.random.default_rng(9)
    state = cm.sample_admissible_six(rng)
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
        x = cm.sample_symplectic_state(rng)
        assert cm.symplectic_residual(x, h=1e-5) < 1e-6


def test_symplectic_truncation_error_is_extrapolated_away():
    # plain central differences at h = 1e-5 read 1.0e-5 on this sampled
    # state: their h^2 truncation error, not a defect of the map
    x = cm.sample_symplectic_state(case_rng(302, 12))
    assert cm.symplectic_residual(x, h=1e-5) < 1e-6


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
        res = cm.poisson_bracket_residuals(al, be)
        assert max(res) < 1e-6


# ---------------------------------------------------------------------------
# covariant evolution
# ---------------------------------------------------------------------------

def test_covariant_zero_field_fixed_point():
    f = cm.CovariantField.empty((2, 2, 2))
    f.a[..., :, :] = 0.0
    cm.covariant_evolve(f)
    assert np.nanmax(np.abs(f.a)) == 0.0


def test_covariant_kk_relation():
    rng = np.random.default_rng(12)
    f = cm.CovariantField.random_boundary((4, 4, 4), rng)
    cm.covariant_evolve(f)
    res = cm.kk_relation_residual(f)
    assert np.isfinite(res) and res < 1e-10


def test_covariant_single_cube_matches_map():
    rng = np.random.default_rng(13)
    # build a one-cube field directly from a mapped triple set
    front = cm.sample_admissible_front(rng)
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
