import math

import numpy as np
import pytest

from qlattice.errors import DegeneracyError, DomainError
from qlattice import geometry as geo

import oracles


# ---------------------------------------------------------------------------
# hex_flip
# ---------------------------------------------------------------------------

def unit_cube_corners():
    x0 = np.zeros(3)
    x1, x2, x3 = np.eye(3)
    return x0, x1, x2, x3, x1 + x2, x1 + x3, x2 + x3


def test_flip_unit_cube():
    got = geo.hex_flip(*unit_cube_corners())
    assert np.allclose(got, [1, 1, 1], atol=1e-12)


def test_flip_lies_on_all_three_planes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = oracles.quad_hexahedron(rng)
        for f in h.back_faces():
            assert geo.planarity_residual(f) < 1e-10


def test_flip_degenerate_input():
    x0, x1, x2, x3, x12, x13, x23 = unit_cube_corners()
    flat = [p * np.array([1, 1, 0]) for p in (x0, x1, x2, x3, x12, x13, x23)]
    with pytest.raises(DegeneracyError):
        geo.hex_flip(*flat)


def test_flip_euclidean_equivariance():
    rng = np.random.default_rng(1)
    pts = [np.asarray(p) for p in unit_cube_corners()]
    pts = [p + rng.normal(0, 0.1, 3) for p in pts]
    base = geo.hex_flip(*pts)
    for _ in range(50):
        rot = geo.random_rotation(rng)
        shift = rng.normal(0, 2.0, 3)
        moved = [rot @ p + shift for p in pts]
        got = geo.hex_flip(*moved)
        assert np.linalg.norm(got - (rot @ base + shift)) < 1e-10


def test_flip_in_four_dimensions():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(4, 3))  # generic 3-space inside R^4
    pts3 = [np.asarray(p) + rng.normal(0, 0.1, 3) for p in unit_cube_corners()]
    base = geo.hex_flip(*pts3)
    got4 = geo.hex_flip(*[emb @ p for p in pts3])
    assert np.linalg.norm(got4 - emb @ base) < 1e-9


@pytest.mark.parametrize("dim", [3, 4])
def test_flip_of_a_stack_equals_single_flips(dim):
    rng = np.random.default_rng(15)
    emb = np.eye(3) if dim == 3 else rng.normal(size=(4, 3))  # generic 3-space in R^4
    hexes = [oracles.quad_hexahedron(rng) for _ in range(50)]
    fronts = np.array([[emb @ getattr(h, k) for k in geo.VERTEX_KEYS[:7]] for h in hexes])
    stacked = geo.hex_flip(*fronts.transpose(1, 0, 2))
    assert stacked.shape == (50, dim)
    for pts, got in zip(fronts, stacked):
        single = geo.hex_flip(*pts)
        assert single.shape == (dim,)
        assert np.linalg.norm(got - single) <= 1e-15 * np.linalg.norm(single)


def test_flip_of_a_stack_reports_its_first_failing_item():
    corners = np.array(unit_cube_corners())
    flat = corners * np.array([1, 1, 0])
    pinched = corners.copy()
    pinched[4] = pinched[1]  # x12 = x1: the plane (x1, x12, x13) is degenerate
    stack = np.array([corners, pinched, flat, corners])
    with pytest.raises(DegeneracyError, match="plane 0 is degenerate") as err:
        geo.hex_flip(*stack.transpose(1, 0, 2))
    assert err.value.index == (1,)
    with pytest.raises(DegeneracyError, match="nearly coplanar") as err:
        geo.hex_flip(*stack[[0, 2, 1]].transpose(1, 0, 2))
    assert err.value.index == (1,)


# ---------------------------------------------------------------------------
# angles
# ---------------------------------------------------------------------------

def four_angles(fa):
    return (fa.alpha, fa.beta, fa.gamma, fa.delta)


def test_unit_square_angles():
    face = (np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
            np.array([1.0, 1, 0]), np.array([0.0, 1, 0]))
    fa = geo.extract_angles(face)
    assert np.allclose(four_angles(fa), [math.pi / 2] * 4, atol=1e-12)
    assert not fa.reflex


def test_angle_sum_and_reflex_flag():
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = oracles.quad_hexahedron(rng)
        for f in h.faces():
            fa = geo.extract_angles(f)
            assert sum(four_angles(fa)) == pytest.approx(2 * math.pi, abs=1e-12)
    # a dart-shaped quad has one reflex corner but still sums to 2 pi
    dart = (np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
            np.array([0.2, 0.2, 0]), np.array([0.0, 1.0, 0]))
    fa = geo.extract_angles(dart)
    assert fa.reflex
    assert sum(four_angles(fa)) == pytest.approx(2 * math.pi, abs=1e-12)


def test_circular_face_angle_relations():
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = geo.random_circular_hexahedron(rng)
        for f in h.front_faces():
            fa = geo.extract_angles(f)
            assert fa.gamma == pytest.approx(math.pi - fa.beta, abs=1e-10)
            assert fa.delta == pytest.approx(math.pi - fa.alpha, abs=1e-10)


def test_nonplanar_face_rejected():
    face = (np.array([0.0, 0, 0]), np.array([1.0, 0, 0]),
            np.array([1.0, 1, 0.3]), np.array([0.0, 1, 0]))
    with pytest.raises(DomainError):
        geo.extract_angles(face)


def test_face_kernels_on_a_stack_equal_face_by_face():
    rng = np.random.default_rng(16)
    for h in (oracles.quad_hexahedron(rng), geo.random_circular_hexahedron(rng)):
        faces = h.faces()
        assert faces.shape == (6, 4, 3)
        for kernel in (geo.planarity_residual, geo.concyclicity_residual):
            stacked = kernel(faces)
            assert stacked.shape == (6,)
            np.testing.assert_allclose(stacked, [kernel(f) for f in faces],
                                       rtol=1e-12, atol=1e-17)
        stacked = geo.extract_angles(faces)
        for i, f in enumerate(faces):
            single = geo.extract_angles(f)
            np.testing.assert_allclose([a[i] for a in four_angles(stacked)],
                                       four_angles(single), rtol=1e-14)
            assert stacked.reflex[i] == single.reflex


# ---------------------------------------------------------------------------
# Miquel configuration
# ---------------------------------------------------------------------------

def test_miquel_on_inscribed_cube():
    corners = unit_cube_corners()
    h = geo.Hexahedron(*corners, geo.hex_flip(*corners))
    rep = geo.miquel_check(h)
    assert rep.max_residual < 1e-12


def test_miquel_random_circular():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = geo.random_circular_hexahedron(rng)
        rep = geo.miquel_check(h)
        assert max(rep.back_residuals) < 1e-9
        assert rep.cosphericity < 1e-9


def test_miquel_precondition_violation():
    rng = np.random.default_rng(6)
    h = oracles.quad_hexahedron(rng)
    with pytest.raises(DomainError):
        geo.miquel_check(h)


# ---------------------------------------------------------------------------
# staircase evolution
# ---------------------------------------------------------------------------

def test_staircase_affine_exact():
    rng = np.random.default_rng(7)
    a = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    t = rng.normal(size=3)
    st = oracles.affine_initial_state((3, 3, 3), a, t)
    geo.staircase_evolve(st)
    for m in np.ndindex(4, 4, 4):
        assert st.has(m)
        assert np.linalg.norm(st.get(m) - (a @ np.array(m, float) + t)) < 1e-9


def test_staircase_zero_steps():
    rng = np.random.default_rng(8)
    st = geo.random_initial_state((2, 2, 2), rng, mode="circular")
    before = {k: v.copy() for k, v in st.vertices.items()}
    geo.staircase_evolve(st, steps=0)
    assert set(st.vertices) == set(before)
    for k in before:
        assert np.array_equal(st.get(k), before[k])


def test_staircase_circular_preserves_circularity():
    rng = np.random.default_rng(9)
    st = geo.random_initial_state((3, 3, 3), rng, mode="circular")
    geo.staircase_evolve(st)
    faces = st.known_faces()
    assert len(faces) == 3 * 3 * 3 * 4
    for quad in faces:
        pts = [st.get(m) for m in quad]
        assert geo.concyclicity_residual(pts) < 1e-8
    for c in filter(st.cube_complete, np.ndindex(*st.shape)):
        assert oracles.hexahedron(st, c).cosphericity_residual() < 1e-8


def test_staircase_names_the_first_degenerate_cube():
    # (0,1,1) collapsed onto (0,0,0) pinches a plane of both cubes (0,0,1)
    # and (0,1,0) of the second layer; the first in index order is named
    st = oracles.affine_initial_state((3, 3, 3))
    st.set((0, 1, 1), st.get((0, 0, 0)))
    geo.staircase_evolve(st, steps=1)
    for i, j, k in ((0, 0, 1), (0, 1, 0)):
        with pytest.raises(DegeneracyError, match="plane 0 is degenerate"):
            geo.hex_flip(*[st.get((i + a, j + b, k + d)) for a, b, d in
                           ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                            (1, 1, 0), (1, 0, 1), (0, 1, 1))])
    with pytest.raises(DegeneracyError) as err:
        geo.staircase_evolve(st)
    assert str(err.value) == "flip failed at cube (0, 0, 1): plane 0 is degenerate"


def test_staircase_determinism():
    rng1 = np.random.default_rng(10)
    rng2 = np.random.default_rng(10)
    st1 = geo.random_initial_state((2, 2, 2), rng1, mode="circular")
    st2 = geo.random_initial_state((2, 2, 2), rng2, mode="circular")
    geo.staircase_evolve(st1)
    geo.staircase_evolve(st2)
    for k in st1.vertices:
        assert np.array_equal(st1.get(k), st2.get(k))


def test_random_initial_state_rejects_an_unknown_mode():
    # a misspelt mode once sampled quadrilateral data; it now draws nothing
    rng = np.random.default_rng(11)
    with pytest.raises(DomainError, match="unknown mode 'circle': expected 'circular' or "
                                          "'quadrilateral'"):
        geo.random_initial_state((2, 2, 2), rng, mode="circle")
    assert rng.uniform() == np.random.default_rng(11).uniform()


@pytest.mark.parametrize("mode, moved, message", [
    ("circular", (2.0, 0.0, 0.0), "wall face at (1, 0, 1): collinear points have no circle"),
    ("quadrilateral", (1.0, 0.0, 0.01), "no convex wall face at (1, 0, 1) in 60 draws"),
], ids=["collinear", "no convex draw"])
def test_wall_fill_replays_a_failing_face_draw_for_draw(mode, moved, message):
    # Integer walls of a 2x2x2 box with (0,0,1) moved onto the line of
    # (0,0,0) and (1,0,0), or to an angle of 0.01 at (0,0,0), which no draw
    # opens to 0.05.  Wall face (1,0,1) fails: the fifth in drawing order,
    # and in the first anti-diagonal with the first and the ninth.  The
    # four faces before it are kept, the error names it, and the generator
    # stops where the one-face-at-a-time fill stops.
    points, faces = geo._wall_layout((2, 2, 2))
    x = points.astype(float)
    x[points.tolist().index([0, 0, 1])] = moved
    ref = geo.LatticeState((2, 2, 2), {tuple(m): x[r].copy()
                                       for r, m in enumerate(points[:7].tolist())})
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(DegeneracyError) as err:
        geo._fill_walls(x, faces, points, rng, mode)
    assert str(err.value) == message
    with pytest.raises(DegeneracyError):
        oracles.fill_walls_one_face_at_a_time(ref, ref_rng, mode)
    assert rng.uniform() == ref_rng.uniform()
    assert len(ref.vertices) == 11
    assert np.array_equal(x[:11], list(ref.vertices.values()))


# ---------------------------------------------------------------------------
# rhombic dodecahedron
# ---------------------------------------------------------------------------

def test_dodeca_axis_aligned_exact():
    verts = {m: np.array([(m >> b) & 1 for b in range(4)], dtype=float) for m in range(16)}
    assert geo.dodecahedron_consistency(oracles.dodeca_initial_surface(verts)) < 1e-12


def test_dodeca_schedules_recover_projective_vertices():
    rng = np.random.default_rng(11)
    verts = oracles.dodeca_vertices_from_projective(rng)
    surface = oracles.dodeca_initial_surface(verts)
    assert geo.dodecahedron_consistency(surface) < 1e-8
    # both dissections must also land on the true 4-cube vertices
    for pts in geo._run_schedules(surface):
        for m in geo.DODECA_FINAL_MASKS:
            assert np.linalg.norm(pts[m] - verts[m]) < 1e-8


def test_dodeca_random_seeds():
    rng = np.random.default_rng(12)
    for _ in range(25):
        surface = oracles.dodeca_initial_surface(oracles.dodeca_vertices_from_projective(rng))
        assert geo.dodecahedron_consistency(surface) < 1e-8


def test_dodeca_perturbation_sensitivity():
    # in R^3 every flip succeeds, so an injected inconsistency propagates to
    # the final surface instead of tripping the common-3-space guard
    rng = np.random.default_rng(13)
    verts = oracles.dodeca_vertices_from_projective(rng, dim=3)
    surface = oracles.dodeca_initial_surface(verts)
    assert geo.dodecahedron_consistency(surface) < 1e-8
    probe = np.array([1e-3, 0.0, 0.0])
    assert geo.dodecahedron_consistency(surface, perturb=probe) > 1e-4


@pytest.mark.parametrize("vertex, make, message", [
    # 2, 4 and 6 are read by the first flip of dissection A only
    (2, lambda s: 2 * s[4] - s[6], "dissection A flip 0 degenerate: plane 0 is degenerate"),
    # 9, 11 and 13 by the first flip of dissection B only
    (13, lambda s: 2 * s[11] - s[9], "dissection B flip 0 degenerate: plane 2 is degenerate"),
], ids=["A", "B"])
def test_dodeca_degeneracy_names_its_dissection_and_step(vertex, make, message):
    surface = oracles.dodeca_initial_surface(
        oracles.dodeca_vertices_from_projective(np.random.default_rng(11)))
    surface[vertex] = make(surface)
    with pytest.raises(DegeneracyError, match=message):
        geo.dodecahedron_consistency(surface)


class _ScriptedNormals:
    """A stand-in generator whose normal(size=...) returns given draws in
    turn, or forever one value of the requested size."""

    def __init__(self, draws=(), fill=None):
        self.draws, self.fill, self.taken = iter(draws), fill, 0

    def normal(self, size):
        self.taken += 1
        return np.full(size, self.fill) if self.fill is not None else next(self.draws)


# z = -10 in c's first entry puts 1 + c . e1 at 1 - 0.09 * 10 = 0.1
_NEAR_POLE = [np.zeros((4, 4)), np.zeros(4), np.array([-10.0, 0, 0, 0])]


def test_dodeca_vertices_redraw_a_deformation_near_a_pole():
    # two deformations with a denominator within 0.3 of 0 are drawn anew;
    # the third, seed 11's draws, gives the vertices seed 11 gives
    rng = np.random.default_rng(11)
    good = [rng.normal(size=(4, 4)), rng.normal(size=4), rng.normal(size=4)]
    scripted = _ScriptedNormals(_NEAR_POLE * 2 + good)
    got = oracles.dodeca_vertices_from_projective(scripted)
    want = oracles.dodeca_vertices_from_projective(np.random.default_rng(11))
    assert scripted.taken == 9
    assert got.keys() == want.keys() and all(np.array_equal(got[m], want[m]) for m in want)


def test_dodeca_vertices_give_up_after_a_stated_number_of_draws():
    # every deformation of this stream is near a pole: a DegeneracyError
    # that names the cap, after that many draws of (a, t, c)
    scripted = _ScriptedNormals(fill=-10.0)
    with pytest.raises(DegeneracyError, match="in %d draws" % geo.PROJECTIVE_DRAWS):
        oracles.dodeca_vertices_from_projective(scripted)
    assert scripted.taken == 3 * geo.PROJECTIVE_DRAWS


def test_projective_vertices_of_a_stack_read_each_deformation_alone():
    # the stacked vertices of 30 deformations, one of them near a pole,
    # equal the oracle's of each bit for bit, and only that one is flagged
    rng = np.random.default_rng(11)
    draws = [geo.projective_draws(rng) for _ in range(30)]
    draws[4] = (np.eye(4), np.zeros(4), np.array([-0.9, 0, 0, 0]))
    verts, admissible = geo.projective_vertices(*map(np.array, zip(*draws)))
    assert verts.shape == (30, 16, 4)
    assert admissible.tolist() == [i != 4 for i in range(30)]
    for draw, v, ok in zip(draws, verts, admissible):
        want = oracles._projective_vertices(*draw)
        assert (want is not None) == ok
        assert not ok or np.array_equal(v, [want[m] for m in range(16)])


def test_dodeca_missing_vertex_rejected():
    rng = np.random.default_rng(14)
    surface = oracles.dodeca_initial_surface(oracles.dodeca_vertices_from_projective(rng))
    del surface[7]
    with pytest.raises(DomainError):
        geo.dodecahedron_consistency(surface)
