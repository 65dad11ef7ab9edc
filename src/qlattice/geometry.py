"""Euclidean engine for quadrilateral and circular lattices.

Conventions for a quadrilateral face, used everywhere downstream: a face is
an ordered tuple of four vertices (v0, v1, v2, v3) traversed along its
boundary, carrying the corner angles (delta, gamma, alpha, beta) in that
order.  The edge between gamma and alpha is "p-in" (length lp), between
alpha and beta "q-in" (lq), and the two opposite edges are "p-out" (lp_out,
between beta and delta) and "q-out" (lq_out, between delta and gamma).

An elementary hexahedron is stored by its eight vertices x0, x1, x2, x3,
x12, x13, x23, x123; the three front faces (meeting at x0) and three back
faces (meeting at x123) are exposed as ordered tuples with the angle
convention above, face j being the face crossed by the two rapidity lines
other than line j.

The kernels take stacks: a point argument may be (..., d) and a face or
point cloud (..., n, d), and the result is a stack over the leading axes.
One face is a stack of none; its result is a numpy scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, DomainError

VERTEX_KEYS = ("x0", "x1", "x2", "x3", "x12", "x13", "x23", "x123")
FRONT_FACE_KEYS = (
    ("x23", "x3", "x0", "x2"),
    ("x3", "x13", "x1", "x0"),
    ("x0", "x1", "x12", "x2"),
)
BACK_FACE_KEYS = (
    ("x123", "x13", "x1", "x12"),
    ("x23", "x123", "x12", "x2"),
    ("x3", "x13", "x123", "x23"),
)
# rows of Hexahedron.vertices() that make up each face, front then back
FACE_INDEX = np.array([[VERTEX_KEYS.index(k) for k in keys]
                       for keys in FRONT_FACE_KEYS + BACK_FACE_KEYS])

_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a, b):
    """Cross product of stacks of 3-vectors; equal to np.cross, without its
    per-call axis moves, which dominate at these sizes."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _norm(v):
    """Euclidean norm of each vector of a stack (..., d), summed as
    np.linalg.norm sums one vector (a BLAS dot), so a stack's items read
    what each reads alone; its axis form sums another way."""
    return np.sqrt(np.vecdot(v, v))


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _frame(points):
    """One SVD per cloud of a stack (..., n, d): the centroids, the centered
    points, their singular values and right singular vectors."""
    pts = np.asarray(points, dtype=float)
    c = pts.mean(axis=-2)
    centered = pts - c[..., None, :]
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    return c, centered, s, vt


def _flatness(s):
    """sigma_3 / sigma_1 from singular values; 0 for a point or a plane."""
    if s.shape[-1] < 3:
        return np.zeros(s.shape[:-1])
    return np.divide(s[..., 2], s[..., 0], out=np.zeros(s.shape[:-1]), where=s[..., 0] != 0)


def _coordinates(centered, vt, k):
    """Coordinates of centered points along their k leading right singular
    vectors."""
    return centered @ np.swapaxes(vt[..., :k, :], -1, -2)


def planarity_residual(points):
    """Scale-free flatness defect: sigma_3 / sigma_1 of the centered cloud."""
    return _flatness(_frame(points)[2])[()]


def _sphere_fit_residual(frame, k):
    """Largest distance of a point from the least-squares circle (k = 2) or
    sphere (k = 3) of each cloud of a _frame, relative to its radius.

    Least squares for 2 x . center + c = |x|^2 on the coordinates x along
    the k leading right singular vectors: their columns are orthogonal, of
    norms s_1 .. s_k, and orthogonal to the constant column, so the normal
    equations are diagonal.  Directions that lstsq(rcond=None) would drop
    as singular get 0, as there."""
    _, centered, s, vt = frame
    x = _coordinates(centered, vt, k)
    b = (x ** 2).sum(axis=-1)
    n, sk = x.shape[-2], s[..., :k]
    keep = 2 * sk > np.finfo(float).eps * max(n, k + 1) * np.maximum(2 * sk[..., :1], math.sqrt(n))
    num = (np.swapaxes(x, -1, -2) @ b[..., None])[..., 0]
    center = np.divide(num, 2 * sk ** 2, out=np.zeros_like(num), where=keep)
    r = np.sqrt(np.maximum(b.mean(axis=-1) + (center ** 2).sum(axis=-1), 1e-300))
    dev = np.abs(np.linalg.norm(x - center[..., None, :], axis=-1) - r[..., None])
    return dev.max(axis=-1) / r


def _concyclicity(frame):
    return np.maximum(_sphere_fit_residual(frame, 2), _flatness(frame[2]))


def concyclicity_residual(points):
    """The larger of the circle-fit and the planarity residual, from one SVD."""
    return _concyclicity(_frame(points))[()]


# ---------------------------------------------------------------------------
# the hexahedron flip
# ---------------------------------------------------------------------------

# the planes (x1, x12, x13), (x2, x12, x23), (x3, x13, x23) by input position
_PLANE_I, _PLANE_J, _PLANE_K = np.array([1, 2, 3]), np.array([4, 4, 5]), np.array([5, 6, 6])
_EYE3 = np.eye(3)


def hex_flip(x0, x1, x2, x3, x12, x13, x23):
    """Eighth vertex of the hexahedron: the unique point on the three planes
    (x1,x12,x13), (x2,x12,x23), (x3,x13,x23).

    Works in R^N for N >= 3 by solving inside the affine 3-space spanned by
    the seven input points.  The inputs may be equal-shaped stacks of points
    (..., N); the result is then the stack of eighth vertices.  A
    DegeneracyError reports the first failing item of the stack, in C
    order, carries its position as ``index`` and the stack of every failing
    item as ``flags``.
    """
    pts = np.moveaxis(np.array([x0, x1, x2, x3, x12, x13, x23], dtype=float), 0, -2)
    if pts.shape[-1] < 3:
        raise DomainError("points must live in dimension >= 3")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must have finite coordinates")
    center = pts.mean(axis=-2)
    centered = pts - center[..., None, :]
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[..., :3, :]
    q = centered @ np.swapaxes(basis, -1, -2)  # rows: x0,x1,x2,x3,x12,x13,x23 in local frame
    qi = q[..., _PLANE_I, :]
    n = _cross(q[..., _PLANE_J, :] - qi, q[..., _PLANE_K, :] - qi)
    nn = np.linalg.norm(n, axis=-1)
    coplanar = s[..., 2] <= 1e-12 * s[..., 0]
    off_space = s[..., 3] > 1e-9 * s[..., 0] if s.shape[-1] > 3 else np.zeros_like(coplanar)
    flat_plane = nn < 1e-12
    # a failed item solves the identity instead, so that the stack solves
    failed = coplanar | off_space | flat_plane.any(axis=-1)
    normals = np.where(failed[..., None, None], _EYE3,
                       n / np.maximum(nn, 1e-12)[..., None])
    sv = np.linalg.svd(normals, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = sv[..., 0] / sv[..., -1]
    parallel = cond > 1e8
    normals = np.where(parallel[..., None, None], _EYE3, normals)
    rhs = (normals * qi).sum(axis=-1)[..., None]
    sol = np.linalg.solve(normals, rhs)
    resid = np.abs(normals @ sol - rhs)[..., 0].max(axis=-1)
    diam = 2 * np.linalg.norm(centered, axis=-1).max(axis=-1)
    loose = resid > 1e-9 * np.maximum(diam, 1.0)
    failed = failed | parallel | loose
    if failed.any():
        at = np.unravel_index(np.argmax(failed), failed.shape)
        guard = [coplanar[at], off_space[at], flat_plane[at].any(), parallel[at], loose[at]]
        raise _flip_error(guard.index(True), at, failed, s[at], flat_plane[at], cond[at],
                          resid[at])
    return center + (np.swapaxes(sol, -1, -2) @ basis)[..., 0, :]


def _flip_error(guard, at, failed, s, flat_plane, cond, resid):
    """The error of the flip at stack position ``at`` that failed guard
    number ``guard``, in the order hex_flip checks them; ``failed`` flags
    every item that fails some guard."""
    if guard == 0:
        return DegeneracyError("input points are nearly coplanar", float(s[2] / s[0]), at, failed)
    if guard == 1:
        return DegeneracyError(
            "input points do not lie in a common 3-space", float(s[3] / s[0]), at, failed)
    if guard == 2:
        return DegeneracyError("plane %d is degenerate" % np.argmax(flat_plane), index=at,
                               flags=failed)
    if guard == 3:
        return DegeneracyError("planes nearly parallel", float(cond), at, failed)
    return DegeneracyError("flip residual too large", float(resid), at, failed)


@dataclass
class Hexahedron:
    """The eight vertices, each a point (d,) or a stack of points (..., d)
    of as many hexahedra."""

    x0: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    x12: np.ndarray
    x13: np.ndarray
    x23: np.ndarray
    x123: np.ndarray

    def faces(self):
        """The six faces, front then back, as one (..., 6, 4, d) stack."""
        return self.vertices()[..., FACE_INDEX, :]

    def front_faces(self):
        return self.faces()[..., :3, :, :]

    def back_faces(self):
        return self.faces()[..., 3:, :, :]

    def vertices(self):
        """The vertices in VERTEX_KEYS order, as one (..., 8, d) stack."""
        return np.stack([self.x0, self.x1, self.x2, self.x3,
                         self.x12, self.x13, self.x23, self.x123], axis=-2)

    def cosphericity_residual(self):
        """Largest distance of a vertex from the least-squares sphere through
        all eight, relative to its radius: one SVD per stack of hexahedra."""
        return _sphere_fit_residual(_frame(self.vertices()), 3)[()]


# ---------------------------------------------------------------------------
# angles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceAngles:
    alpha: float
    beta: float
    gamma: float
    delta: float
    reflex: bool = False


def _angles(centered, vt):
    """Interior angles and reflex flags at each corner, from a face frame."""
    xy = _coordinates(centered, vt, 2)
    corner = np.arange(xy.shape[-2])
    into = xy - xy[..., corner - 1, :]
    out = xy[..., (corner + 1) % len(corner), :] - xy
    turns = np.arctan2(into[..., 0] * out[..., 1] - into[..., 1] * out[..., 0],
                       (into * out).sum(axis=-1))
    turns = np.where(turns.sum(axis=-1, keepdims=True) < 0, -turns, turns)
    return np.pi - turns, turns < 0


def extract_angles(face) -> FaceAngles:
    """Angles (alpha, beta, gamma, delta) of an ordered face (v0..v3), with
    delta at v0, gamma at v1, alpha at v2, beta at v3; for a stack of faces
    each field is an array."""
    _, centered, s, vt = _frame(face)
    flat = _flatness(s)
    bent = flat > 1e-9
    if np.any(bent):
        raise DomainError("face is not planar (residual %.2e)" % flat[bent][0])
    ang, reflex = _angles(centered, vt)
    return FaceAngles(alpha=ang[..., 2][()], beta=ang[..., 3][()], gamma=ang[..., 1][()],
                      delta=ang[..., 0][()], reflex=reflex.any(axis=-1)[()])


# ---------------------------------------------------------------------------
# random hexahedra
# ---------------------------------------------------------------------------

def _convex(frame):
    """Whether each face of a _frame is convex with every corner in
    (0.05, pi - 0.05)."""
    ang, reflex = _angles(frame[1], frame[3])
    return ~reflex.any(axis=-1) & ((0.05 < ang) & (ang < math.pi - 0.05)).all(axis=-1)


# The two hexahedron samplers draw one attempt's numbers with *_draws(rng)
# and build and test it with *_attempt(draws), which take one attempt's
# draws or a stack of many cases' attempts: a hexahedron (of stacks) and
# whether it is accepted.  A DegeneracyError of an attempt names its failing
# item and flags every item that fails.  A case takes up to QUAD_ATTEMPTS
# attempts of a quadrilateral hexahedron and CIRCULAR_ATTEMPTS of a
# circular one (on stacks in harness.suites, and one at a time in
# random_circular_hexahedron); a circular case that reaches its cap raises
# DegeneracyError(CIRCULAR_GIVE_UP) either way.
QUAD_ATTEMPTS, CIRCULAR_ATTEMPTS = 200, 500
CIRCULAR_GIVE_UP = "failed to sample a circular hexahedron in %d attempts" % CIRCULAR_ATTEMPTS


def quad_draws(rng):
    """The draws of one attempt of a quadrilateral hexahedron, in order:
    the offsets of x0 from 0 and of x1, x2, x3 from e1, e2, e3, then the
    (s, t) of x12, x13 and x23."""
    return ([rng.normal(0, 0.05, 3)] + [rng.normal(0, 0.12, 3) for _ in range(3)],
            [rng.uniform(0.8, 1.25, 2) for _ in range(3)])


def quad_attempt(offsets, coefficients):
    """x12, x13, x23 at x0 + s (a - x0) + t (b - x0) in the planes of x0
    with (x1, x2), (x1, x3), (x2, x3), and the flip; accepted if every face
    is convex and planar to 1e-10."""
    offsets, coefficients = np.asarray(offsets), np.asarray(coefficients)
    x0 = offsets[..., 0, :]
    x1, x2, x3 = np.moveaxis(_EYE3 + offsets[..., 1:, :], -2, 0)
    x12, x13, x23 = (x0 + st[..., :1] * (a - x0) + st[..., 1:] * (b - x0) for (a, b), st
                     in zip(((x1, x2), (x1, x3), (x2, x3)), np.moveaxis(coefficients, -2, 0)))
    h = Hexahedron(x0, x1, x2, x3, x12, x13, x23, hex_flip(x0, x1, x2, x3, x12, x13, x23))
    frame = _frame(h.faces())
    return h, _convex(frame).all(axis=-1) & (_flatness(frame[2]).max(axis=-1) < 1e-10)


def circle_through(p1, p2, p3):
    """Center, radius and an in-plane orthonormal basis of the circle through
    three points, or of each circle through a stack of them."""
    p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p1, p2, p3))
    u = p2 - p1
    v = p3 - p1
    nu, nv = np.vecdot(u, u), np.vecdot(v, v)
    uv = np.vecdot(u, v)
    det = 2 * (nu * nv - uv * uv)
    collinear = np.abs(det) < 1e-14
    if collinear.any():
        raise DegeneracyError("collinear points have no circle",
                              index=np.unravel_index(np.argmax(collinear), collinear.shape),
                              flags=collinear)
    s = ((nv * (nu - uv)) / det)[..., None]
    t = ((nu * (nv - uv)) / det)[..., None]
    center = p1 + s * u + t * v
    r = _norm(p1 - center)
    e1 = (p1 - center) / r[..., None]
    n = _cross(u, v)
    n = n / _norm(n)[..., None]
    e2 = _cross(n, e1)
    return center, r, e1, e2


def point_on_arc(p_from, p_to, p_avoid, u):
    """Point at fraction u of the arc p_from -> p_to that avoids p_avoid, or
    the stack of them for stacks of points (..., 3) and fractions (...).
    The arc's angles and the point's cosine and sine are taken per item
    with the math module."""
    center, r, e1, e2 = circle_through(p_from, p_to, p_avoid)
    d = np.stack([p_from, p_to, p_avoid], axis=-2) - center[..., None, :]
    ys, xs = np.vecdot(d, e2[..., None, :]), np.vecdot(d, e1[..., None, :])
    cos_sin = []
    for (y0, y1, yv), (x0, x1, xv), frac in zip(ys.reshape(-1, 3).tolist(),
                                                 xs.reshape(-1, 3).tolist(),
                                                 np.ravel(u).tolist()):
        a0, a1, av = math.atan2(y0, x0), math.atan2(y1, x1), math.atan2(yv, xv)
        fwd = (a1 - a0) % (2 * math.pi)
        if (av - a0) % (2 * math.pi) < fwd:  # the forward arc holds the avoided point
            fwd = fwd - 2 * math.pi
        ang = a0 + frac * fwd
        cos_sin.append((math.cos(ang), math.sin(ang)))
    cos_sin = np.array(cos_sin).reshape(np.shape(u) + (2, 1))
    return center + r[..., None] * (cos_sin[..., 0, :] * e1 + cos_sin[..., 1, :] * e2)


def circular_draws(rng):
    """The draws of one attempt of random_circular_hexahedron, in order:
    x0's direction, the offsets and direction noises of x1, x2 and x3, and
    the fractions along the arcs of x12, x13 and x23."""
    return (rng.normal(size=3), rng.uniform(0.55, 0.95, 3),
            [rng.normal(0, 0.15, 3) for _ in range(3)], rng.uniform(0.35, 0.65, 3))


def circular_attempt(direction, offsets, noises, arc_fractions):
    """x0 on the unit sphere and x1, x2, x3 at offsets along noisy tangent
    directions, projected back to it; x12, x13, x23 on the circles through
    (x0, xi, xj), and the flip.  Accepted if every face is convex and the
    faces and the eight vertices are concyclic and cospherical to 1e-9 (the
    back faces by the Miquel configuration)."""
    offsets, noises, arc_fractions = map(np.asarray, (offsets, noises, arc_fractions))
    x0 = _unit(direction)
    e1, e2 = _tangent_frame(x0)
    diagonal = e1 + e2
    x1, x2, x3 = (_unit(x0 + offsets[..., j, None] * (d + noises[..., j, :])) for j, d
                  in enumerate((e1, e2, -diagonal / _norm(diagonal)[..., None])))
    x12, x13, x23 = (point_on_arc(a, b, x0, arc_fractions[..., j]) for j, (a, b)
                     in enumerate(((x1, x2), (x1, x3), (x2, x3))))
    h = Hexahedron(x0, x1, x2, x3, x12, x13, x23, hex_flip(x0, x1, x2, x3, x12, x13, x23))
    frame = _frame(h.faces())
    return h, (_convex(frame).all(axis=-1) & (_concyclicity(frame).max(axis=-1) < 1e-9)
               & (h.cosphericity_residual() < 1e-9))


def random_circular_hexahedron(rng) -> Hexahedron:
    """Hexahedron with concyclic faces, built on the unit sphere by choosing
    the three extra front points on the circles through (x0, xi, xj) and
    flipping; the back faces are then concyclic by the Miquel configuration."""
    for _ in range(CIRCULAR_ATTEMPTS):
        try:
            h, accepted = circular_attempt(*circular_draws(rng))
        except DegeneracyError:
            continue
        if accepted:
            return h
    raise DegeneracyError(CIRCULAR_GIVE_UP)


def _unit(v):
    return v / _norm(v)[..., None]


def _tangent_frame(n):
    a = np.where(np.abs(n[..., :1]) < 0.9, _EYE3[0], _EYE3[1])
    e1 = _unit(_cross(n, a))
    return e1, _cross(n, e1)


# ---------------------------------------------------------------------------
# Miquel check
# ---------------------------------------------------------------------------

@dataclass
class MiquelReport:
    """The back faces' concyclicity residuals (..., 3) and the vertices'
    cosphericity residual, of one hexahedron or of a stack."""

    back_residuals: np.ndarray
    cosphericity: np.ndarray

    @property
    def max_residual(self):
        return np.maximum(self.back_residuals.max(axis=-1), self.cosphericity)[()]


def miquel_check(h: Hexahedron) -> MiquelReport:
    """Concyclicity of the back faces through x123 plus cosphericity of all
    eight vertices, given concyclic front faces; for a stack of hexahedra a
    front face that is not names its hexahedron in the error's index, and
    the error's flags mark every front face that is not (..., 3)."""
    residuals = concyclicity_residual(h.faces())
    bent = residuals[..., :3] > 1e-9
    if bent.any():
        at = np.unravel_index(np.argmax(bent), bent.shape)
        exc = DomainError("front face %d is not concyclic (residual %.2e)"
                          % (at[-1] + 1, residuals[at]))
        exc.index, exc.flags = at[:-1], bent
        raise exc
    return MiquelReport(residuals[..., 3:], h.cosphericity_residual())


# ---------------------------------------------------------------------------
# lattice state and staircase evolution
# ---------------------------------------------------------------------------

# offsets of a cube's corners in VERTEX_KEYS order: its seven front corners
# in hex_flip's argument order, then the corner the flip fills
_CUBE_CORNERS = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                          (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
# offsets of the corners of the faces at a lattice point normal to axes 1,
# 2 and 3, each in boundary order
_FACE_CORNERS = np.array([((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1)),
                          ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 0)),
                          ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))])


def box_points(shape):
    """The lattice points (n1 n2 n3, 3) of [0, n1) x [0, n2) x [0, n3), in
    index order: the cubes of a box of that shape."""
    return np.indices(shape).reshape(len(shape), -1).T


@dataclass
class LatticeState:
    """Vertex map of a growing corner lattice: lattice point (i, j, k) to
    its position."""

    shape: tuple
    vertices: dict = field(default_factory=dict)

    def has(self, m):
        """Whether a vertex is known at lattice point m; for a stack of
        points (..., 3), a stack of bools."""
        return (self.rows(m) >= 0)[()]

    def get(self, m):
        return self.vertices[tuple(m)]

    def set(self, m, p):
        self.vertices[tuple(m)] = np.asarray(p, dtype=float)

    def keys(self):
        """The lattice points of the vertices (V, 3), in insertion order."""
        return np.array(list(self.vertices), dtype=np.intp).reshape(-1, 3)

    def positions(self):
        """The positions of the vertices (V, d), in insertion order."""
        return np.array(list(self.vertices.values()), dtype=float)

    def rows(self, points):
        """The row in insertion order of the vertex at each lattice point of
        a stack (..., 3), -1 where none is known; one grid of rows spans the
        vertices and the points."""
        keys, points = self.keys(), np.asarray(points)
        # each axis's extremes by a 1-d reduction (numpy's axis-0 reduction
        # of an (n, 3) array is over ten times slower); the origin gives an
        # empty state a grid
        span = np.concatenate([keys, points.reshape(-1, 3), np.zeros((1, 3), dtype=np.intp)]).T
        lo = np.array([axis.min() for axis in span])
        grid = np.full(np.array([axis.max() for axis in span]) + 1 - lo, -1)
        grid[tuple((keys - lo).T)] = np.arange(len(keys))
        return grid[tuple(np.moveaxis(points - lo, -1, 0))]

    def cube_complete(self, c):
        """Whether the eight corners of cube c are known; for a stack of
        cubes (..., 3), a stack of bools."""
        return self.has(np.asarray(c)[..., None, :] + _CUBE_CORNERS).all(axis=-1)[()]

    def known_faces(self):
        """All unit lattice faces whose four corners are known, as the
        lattice points (F, 4, 3) of their corners in boundary order, by
        vertex in insertion order and then by normal axis."""
        quads = self.keys()[:, None, None, :] + _FACE_CORNERS
        return quads[self.has(quads).all(axis=-1)]


def staircase_evolve(state: LatticeState, steps: int | None = None) -> LatticeState:
    """Flip frontier cubes layer by layer in nondecreasing m1+m2+m3 order.

    The cubes of one anti-diagonal layer are independent and flip in one
    stacked hex_flip call, gathered from an array of the box's positions.
    steps counts anti-diagonal layers that flip; None means run to
    completion.  Degeneracies are re-raised with the coordinates of the
    first offending cube in layer and then index order.
    """
    size = np.add(state.shape, 1)
    rows = state.rows(box_points(size))
    known = rows >= 0
    positions = state.positions()
    pos = np.zeros((len(rows),) + positions.shape[1:])
    pos[known] = positions[rows[known]]
    cubes = box_points(state.shape)
    layer = cubes.sum(axis=1)
    cubes = cubes[np.argsort(layer, kind="stable")]
    # the box rows of each cube's corners, in _CUBE_CORNERS order
    corners = (cubes[:, None, :] + _CUBE_CORNERS) @ np.array([size[1] * size[2], size[2], 1])
    done, start = 0, 0
    for end in np.cumsum(np.bincount(layer)).tolist():
        if steps is not None and done >= steps:
            break
        at = corners[start:end]
        flip = np.flatnonzero(known[at[:, :7]].all(axis=1) & ~known[at[:, 7]]) + start
        start = end
        if not flip.size:
            continue
        try:
            flipped = hex_flip(*np.moveaxis(pos[corners[flip, :7]], 1, 0))
        except DegeneracyError as exc:
            raise DegeneracyError("flip failed at cube %s: %s"
                                  % (tuple(cubes[flip[exc.index[0]]].tolist()), exc)) from exc
        pos[corners[flip, 7]] = flipped
        known[corners[flip, 7]] = True
        for m, p in zip((cubes[flip] + 1).tolist(), flipped):
            state.set(m, p)
        done += 1
    return state


def lattice_residuals(state: LatticeState, mode):
    """The largest concyclicity residual over the known faces of a lattice
    state (planarity residual in quadrilateral mode), from one stacked
    frame, and the number of the box's completed cubes that have a
    non-convex face, one with a reflex corner."""
    positions = state.positions()
    frame = _frame(positions[state.rows(state.known_faces())])
    residual = _concyclicity(frame) if mode == "circular" else _flatness(frame[2])
    cubes = box_points(state.shape)
    cubes = cubes[state.cube_complete(cubes)]
    _, centered, _, vt = _frame(positions[state.rows(cubes[:, None, :] + _CUBE_CORNERS)]
                                [:, FACE_INDEX])
    return residual.max(initial=0.0), int(_angles(centered, vt)[1].any(axis=(1, 2)).sum())


# the coordinate walls by their two axes, in the order they are filled, and
# each mode's draws of one attempt at a wall face: low, high and shape
_WALLS = ((0, 1), (0, 2), (1, 2))
_WALL_DRAWS = {"circular": (0.42, 0.58, ()), "quadrilateral": (0.85, 1.2, (2,))}
WALL_ATTEMPTS = 60


def _wall_attempt(p00, p10, p01, draws, mode):
    """One attempt at x(i,j) of each wall face of a stack from its three
    predecessors (i-1,j-1), (i,j-1), (i-1,j) and its draws, and whether the
    face is convex.  circular: on the circle through the three, at a
    mid-arc parameter of the arc that avoids (i-1,j-1), which makes the face
    a cyclic quadrilateral; DegeneracyError if the three are collinear.
    quadrilateral: in the plane of the three."""
    if mode == "circular":
        cand = point_on_arc(p10, p01, p00, draws)
    else:
        cand = p00 + draws[..., :1] * (p10 - p00) + draws[..., 1:] * (p01 - p00)
    return cand, _convex(_frame(np.stack([p00, p10, cand, p01], axis=-2)))


def _fill_wall(point, predecessors, rng, mode):
    """x at the wall face's lattice point `point` from its three
    predecessors (3, 3), one attempt at a time until the face is convex;
    DegeneracyError, naming the point, if the three are collinear
    (circular) or WALL_ATTEMPTS draws give no convex face."""
    low, high, size = _WALL_DRAWS[mode]
    for _ in range(WALL_ATTEMPTS):
        draws = rng.uniform(low, high, size)
        try:
            cand, convex = _wall_attempt(*predecessors, draws, mode)
        except DegeneracyError as exc:
            raise DegeneracyError("wall face at %s: %s" % (point, exc)) from exc
        if convex:
            return cand
    raise DegeneracyError("no convex wall face at %s in %d draws" % (point, WALL_ATTEMPTS))


def _wall_layout(shape):
    """The lattice points (P, 3) of the wall data in the order they are
    drawn: the origin, the three axis rows, then the faces of each wall
    row by row; and for each face, the rows of its point and of its
    predecessors (i-1,j-1), (i,j-1), (i-1,j) (F, 4)."""
    axes = np.eye(3, dtype=np.intp)
    walls, steps = [], []
    for a1, a2 in _WALLS:
        m = box_points((shape[a1], shape[a2])) + 1
        walls.append(m @ axes[[a1, a2]])
        steps.append(np.broadcast_to([0 * axes[0], -axes[a1] - axes[a2], -axes[a2], -axes[a1]],
                                     (len(m), 4, 3)))
    walls = np.concatenate(walls)
    points = np.concatenate([np.zeros((1, 3), dtype=np.intp)]
                            + [axes[a] * np.arange(1, n + 1)[:, None] for a, n in enumerate(shape)]
                            + [walls])
    grid = np.zeros(np.add(shape, 1), dtype=np.intp)
    grid[tuple(points.T)] = np.arange(len(points))
    faces = walls[:, None, :] + np.concatenate(steps)
    return points, grid[tuple(np.moveaxis(faces, -1, 0))]


def _fill_walls(x, faces, points, rng, mode):
    """Fill the wall faces' rows of the positions x in place, as _fill_wall
    fills them one at a time in drawing order, with the same draws.

    faces holds, in drawing order, the rows of each face's point and of its
    predecessors (as _wall_layout gives them), and points each row's
    lattice point.  The faces of one anti-diagonal i + j of all three walls
    are independent, so each anti-diagonal is one stacked attempt, on one
    draw per face drawn ahead.  A face depends only on faces before it in
    drawing order, so the faces before the first whose first attempt is not
    accepted are final.  That face is then replayed alone from the draws
    before it, as _fill_wall draws it; the faces after it are drawn anew.
    """
    low, high, size = _WALL_DRAWS[mode]
    diagonal = points[faces[:, 0]].sum(axis=1)
    start = 0
    while start < len(faces):
        saved = rng.bit_generator.state
        draws = rng.uniform(low, high, (len(faces) - start,) + size)
        first = len(faces)  # the first face whose first attempt fails
        for d in range(2, diagonal.max(initial=1) + 1):
            at = np.flatnonzero(diagonal[start:first] == d) + start
            stack = np.moveaxis(x[faces[at, 1:]], 1, 0)
            try:
                cand, convex = _wall_attempt(*stack, draws[at - start], mode)
            except DegeneracyError as exc:
                first, at = at[exc.index[0]], at[:exc.index[0]]
                cand, convex = _wall_attempt(*stack[:, :len(at)], draws[at - start], mode)
            x[faces[at, 0]] = cand
            rejected = at[~convex]
            if rejected.size:
                first = min(first, rejected[0])
        if first == len(faces):
            return
        rng.bit_generator.state = saved
        rng.uniform(low, high, (first - start,) + size)
        point = tuple(points[faces[first, 0]].tolist())
        x[faces[first, 0]] = _fill_wall(point, x[faces[first, 1:]], rng, mode)
        start = first + 1


def random_initial_state(shape, rng, mode="circular") -> LatticeState:
    """Random admissible boundary data on the three coordinate walls.

    Axis rows are mildly perturbed integer points; each wall face is then
    closed by rejection sampling until convex (and concyclic in circular
    mode, planar in quadrilateral mode), in the draws of one face at a time
    in wall and row order; a wall that cannot be closed starts the data
    anew.
    """
    if mode not in _WALL_DRAWS:
        raise DomainError("unknown mode %r: expected 'circular' or 'quadrilateral'" % (mode,))
    points, faces = _wall_layout(shape)
    keys = list(map(tuple, points.tolist()))
    axis_rows = slice(1, 1 + sum(shape))
    for _ in range(200):
        x = np.empty(points.shape)
        x[0] = rng.normal(0, 0.04, 3)
        x[axis_rows] = points[axis_rows] + rng.normal(0, 0.06, (sum(shape), 3))
        try:
            _fill_walls(x, faces, points, rng, mode)
        except DegeneracyError:
            continue
        return LatticeState(shape, dict(zip(keys, x)))
    raise DegeneracyError("failed to sample admissible initial data")


# ---------------------------------------------------------------------------
# rhombic dodecahedron double dissection
# ---------------------------------------------------------------------------

# masks use bit j for direction e_{j+1}; the initial front surface carries
# the eleven vertices below and the four-flip schedules (cell directions,
# input corner) realize the two dissections of the solid
DODECA_INITIAL_MASKS = (1, 2, 4, 3, 5, 6, 9, 10, 7, 11, 13)
_SCHEDULE_A = ((7, 7), (11, 3), (13, 1), (14, 0))    # (cell direction mask, corner)
_SCHEDULE_B = ((14, 1), (13, 3), (11, 7), (7, 15))
DODECA_FINAL_MASKS = (8, 12, 14)
_PROJECTIVE_AMPLITUDE = 0.18  # scale of the random projective deformation
PROJECTIVE_DRAWS = 100  # deformations a case draws before giving up
# the 4-cube's vertices (16, 4) by mask
_CUBE4 = ((np.arange(16)[:, None] >> np.arange(4)) & 1).astype(float)


def _bits(mask):
    return [b for b in (1, 2, 4, 8) if mask & b]


def projective_draws(rng):
    """The draws of one projective deformation eps -> (a eps + t) / (1 +
    c . eps) of the 4-cube, in order: a, t and c."""
    return (np.eye(4) + _PROJECTIVE_AMPLITUDE * rng.normal(size=(4, 4)),
            _PROJECTIVE_AMPLITUDE * rng.normal(size=4),
            _PROJECTIVE_AMPLITUDE * 0.5 * rng.normal(size=4))


def projective_vertices(a, t, c):
    """The 16 vertices (..., 16, 4) by mask of the 4-cube deformed by each
    deformation of a stack (a (..., 4, 4), t and c (..., 4)), whose faces
    stay planar, and whether every denominator of the deformation lies at
    least 0.3 from 0.  einsum and vecdot sum an item's products in one
    order at every stack size, which a stacked @ does not, so each item of
    a stack reads what it reads alone."""
    denom = 1 + np.vecdot(c[..., None, :], _CUBE4)
    verts = (np.einsum("...ij,mj->...mi", a, _CUBE4) + t[..., None, :]) / denom[..., None]
    return verts, (np.abs(denom) >= 0.3).all(axis=-1)


def _run_schedules(surface, perturb=None):
    """Point dicts of both dissections, of one surface (points (d,)) or of a
    stack of surfaces (points (..., d)).  Step k of schedule A and step k of
    schedule B read disjoint dicts, so they flip in one hex_flip call on a
    stack (..., 2): C order reaches the first failing surface first, and its
    A before its B, as the surface alone.  A degenerate flip names that
    dissection, with the surface's position as index and the (..., 2) stack
    of failing flips as flags.  perturb is added to B's first vertex."""
    pts = [{m: np.array(p, dtype=float) for m, p in surface.items()} for _ in "AB"]
    for step, moves in enumerate(zip(_SCHEDULE_A, _SCHEDULE_B)):
        corners = []
        for p, (dirs, corner) in zip(pts, moves):
            d1, d2, d3 = _bits(dirs)
            corners.append([p[corner], p[corner ^ d1], p[corner ^ d2], p[corner ^ d3],
                            p[corner ^ d1 ^ d2], p[corner ^ d1 ^ d3], p[corner ^ d2 ^ d3]])
        try:
            flipped = hex_flip(*np.moveaxis(np.array(corners), (0, 1), (-2, 0)))
        except DegeneracyError as exc:
            raise DegeneracyError("dissection %s flip %d degenerate: %s"
                                  % ("AB"[exc.index[-1]], step, exc),
                                  index=exc.index[:-1], flags=exc.flags) from exc
        for p, (dirs, corner), x in zip(pts, moves, np.moveaxis(flipped, -2, 0)):
            p[corner ^ dirs] = x
        if perturb is not None and step == 0:
            target = _SCHEDULE_B[0][0] ^ _SCHEDULE_B[0][1]
            pts[1][target] = pts[1][target] + perturb
    return pts


def dodecahedron_consistency(surface, perturb=None):
    """Flip the front surface to the back surface along both dissections and
    return the maximum distance between the two results: a float, or for a
    stack of surfaces a list of floats, each the value its surface reads
    alone.

    surface maps the eleven initial masks to points (R^3 or R^4), or to
    equal-shaped stacks of them (..., d).  perturb, if given, is added to
    the first computed vertex of the second dissection only (sensitivity
    probe).
    """
    missing = [m for m in DODECA_INITIAL_MASKS if m not in surface]
    if missing:
        raise DomainError("missing initial vertices for masks %s" % missing)
    ptsa, ptsb = _run_schedules(surface, perturb)
    return np.max([_norm(ptsa[m] - ptsb[m]) for m in DODECA_FINAL_MASKS], axis=0).tolist()


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q
