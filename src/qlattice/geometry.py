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


def _in_plane(centered, vt):
    """Coordinates of centered points in the plane of their two leading
    right singular vectors."""
    return centered @ np.swapaxes(vt[..., :2, :], -1, -2)


def planarity_residual(points):
    """Scale-free flatness defect: sigma_3 / sigma_1 of the centered cloud."""
    return _flatness(_frame(points)[2])[()]


def _circle(c, centered, s, vt):
    xy = _in_plane(centered, vt)
    b = (xy ** 2).sum(axis=-1)
    # Least squares for 2 xy . center2 + k = b.  The columns of xy are
    # orthogonal, of norms s_1 and s_2, and orthogonal to the constant
    # column, so the normal equations are diagonal.  Directions that
    # lstsq(rcond=None) would drop as singular get 0, as there.
    n, s2 = xy.shape[-2], s[..., :2]
    keep = 2 * s2 > np.finfo(float).eps * max(n, 3) * np.maximum(2 * s2[..., :1], math.sqrt(n))
    num = (np.swapaxes(xy, -1, -2) @ b[..., None])[..., 0]
    center2 = np.divide(num, 2 * s2 ** 2, out=np.zeros_like(num), where=keep)
    r = np.sqrt(np.maximum(b.mean(axis=-1) + (center2 ** 2).sum(axis=-1), 1e-300))
    dev = np.abs(np.linalg.norm(xy - center2[..., None, :], axis=-1) - r[..., None])
    center = c + (center2[..., None, :] @ vt[..., :2, :])[..., 0, :]
    return center, r, dev.max(axis=-1) / r


def _concyclicity(frame):
    return np.maximum(_circle(*frame)[2], _flatness(frame[2]))


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
        all eight, relative to its radius: one lstsq per hexahedron."""
        pts = np.asarray(self.vertices(), dtype=float)
        sol = np.array([np.linalg.lstsq(np.column_stack([2 * p, np.ones(len(p))]),
                                        (p ** 2).sum(axis=1), rcond=None)[0]
                        for p in pts.reshape(-1, *pts.shape[-2:])])
        center = sol[:, :-1].reshape(pts.shape[:-2] + pts.shape[-1:])
        r = np.sqrt(np.maximum(sol[:, -1].reshape(pts.shape[:-2]) + np.vecdot(center, center),
                               1e-300))
        dev = np.abs(np.linalg.norm(pts - center[..., None, :], axis=-1) - r[..., None])
        return (dev.max(axis=-1) / r)[()]


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
    xy = _in_plane(centered, vt)
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
# attempts of a quadrilateral hexahedron (on stacks, in harness.suites)
# and CIRCULAR_ATTEMPTS of a circular one (random_circular_hexahedron).
QUAD_ATTEMPTS, CIRCULAR_ATTEMPTS = 200, 500


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
    an iterator that draws the fractions along the arcs of x12, x13 and x23
    one at a time, as the attempt's arcs take them."""
    return (rng.normal(size=3), rng.uniform(0.55, 0.95, 3),
            [rng.normal(0, 0.15, 3) for _ in range(3)],
            (rng.uniform(0.35, 0.65) for _ in range(3)))


def circular_attempt(direction, offsets, noises, arc_fractions):
    """x0 on the unit sphere and x1, x2, x3 at offsets along noisy tangent
    directions, projected back to it; x12, x13, x23 on the circles through
    (x0, xi, xj), and the flip.  Accepted if every face is convex and the
    faces and the eight vertices are concyclic and cospherical to 1e-9 (the
    back faces by the Miquel configuration)."""
    offsets, noises = np.asarray(offsets), np.asarray(noises)
    x0 = _unit(direction)
    e1, e2 = _tangent_frame(x0)
    diagonal = e1 + e2
    x1, x2, x3 = (_unit(x0 + offsets[..., j, None] * (d + noises[..., j, :])) for j, d
                  in enumerate((e1, e2, -diagonal / _norm(diagonal)[..., None])))
    x12, x13, x23 = (point_on_arc(a, b, x0, frac) for (a, b), frac
                     in zip(((x1, x2), (x1, x3), (x2, x3)), arc_fractions))
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
    raise DegeneracyError("failed to sample a circular hexahedron in %d attempts"
                          % CIRCULAR_ATTEMPTS)


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

# offsets of a cube's seven front corners, in hex_flip's argument order
_FRONT_CORNERS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))


@dataclass
class LatticeState:
    """Vertex map of a growing corner lattice: lattice point (i, j, k) to
    its position."""

    shape: tuple
    vertices: dict = field(default_factory=dict)

    def has(self, m):
        return tuple(m) in self.vertices

    def get(self, m):
        return self.vertices[tuple(m)]

    def set(self, m, p):
        self.vertices[tuple(m)] = np.asarray(p, dtype=float)

    def cube_complete(self, c):
        i, j, k = c
        return all(self.has((i + a, j + b, k + d))
                   for a in (0, 1) for b in (0, 1) for d in (0, 1))

    def cube_flippable(self, c):
        i, j, k = c
        return (all(self.has((i + a, j + b, k + d)) for a, b, d in _FRONT_CORNERS)
                and not self.has((i + 1, j + 1, k + 1)))

    def known_faces(self):
        """All unit lattice faces whose four corners are known, as ordered
        quadruples of lattice keys, by vertex and then by normal axis."""
        out = []
        for m in self.vertices:
            i, j, k = m
            for quad in ((m, (i, j + 1, k), (i, j + 1, k + 1), (i, j, k + 1)),
                         (m, (i, j, k + 1), (i + 1, j, k + 1), (i + 1, j, k)),
                         (m, (i + 1, j, k), (i + 1, j + 1, k), (i, j + 1, k))):
                if all(q in self.vertices for q in quad):
                    out.append(quad)
        return out


def staircase_evolve(state: LatticeState, steps: int | None = None) -> LatticeState:
    """Flip frontier cubes layer by layer in nondecreasing m1+m2+m3 order.

    The cubes of one anti-diagonal layer are independent and flip in one
    stacked hex_flip call.  steps counts anti-diagonal layers; None means
    run to completion.  Degeneracies are re-raised with the coordinates of
    the first offending cube in layer and then index order.
    """
    layers = {}
    for c in np.ndindex(*state.shape):
        layers.setdefault(sum(c), []).append(c)
    done = 0
    for layer in sorted(layers):
        if steps is not None and done >= steps:
            break
        cubes = [c for c in layers[layer] if state.cube_flippable(c)]
        if not cubes:
            continue
        corners = np.array([[state.vertices[(i + a, j + b, k + d)] for a, b, d in _FRONT_CORNERS]
                            for i, j, k in cubes])
        try:
            flipped = hex_flip(*corners.transpose(1, 0, 2))
        except DegeneracyError as exc:
            raise DegeneracyError("flip failed at cube %s: %s"
                                  % (cubes[exc.index[0]], exc)) from exc
        for (i, j, k), p in zip(cubes, flipped):
            state.set((i + 1, j + 1, k + 1), p)
        done += 1
    return state


def _fill_wall(points, rng, circular):
    """Fill x(i,j) of one wall from its three predecessors.

    circular: x(i,j) on the circle through the three, at a mid-arc parameter,
    which makes the face a convex cyclic quadrilateral.  quadrilateral: in
    the plane of the three.  DegeneracyError if the three are collinear
    (circular) or 60 draws give no convex face.
    """
    p00, p10, p01 = points  # (i-1,j-1), (i,j-1), (i-1,j)
    for _ in range(60):
        if circular:
            cand = point_on_arc(p10, p01, p00, rng.uniform(0.42, 0.58))
        else:
            s, t = rng.uniform(0.85, 1.2, 2)
            cand = p00 + s * (p10 - p00) + t * (p01 - p00)
        face = (p00, p10, cand, p01)
        if _convex(_frame(face)):
            return cand
    raise DegeneracyError("no convex wall face in 60 draws")


def random_initial_state(shape, rng, mode="circular") -> LatticeState:
    """Random admissible boundary data on the three coordinate walls.

    Axis rows are mildly perturbed integer points; each wall face is then
    closed one at a time, rejection-sampling until convex (and concyclic in
    circular mode); a wall that cannot be closed starts the data anew.
    """
    n1, n2, n3 = shape
    for _ in range(200):
        st = LatticeState(shape)
        st.set((0, 0, 0), rng.normal(0, 0.04, 3))
        axes = (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
        sizes = (n1, n2, n3)
        for ax in range(3):
            for i in range(1, sizes[ax] + 1):
                m = [0, 0, 0]
                m[ax] = i
                st.set(tuple(m), i * axes[ax] + rng.normal(0, 0.06, 3))
        walls = ((0, 1, n1, n2), (0, 2, n1, n3), (1, 2, n2, n3))
        try:
            for a1, a2, s1, s2 in walls:
                for i in range(1, s1 + 1):
                    for j in range(1, s2 + 1):
                        m00, m10, m01, m11 = [[0, 0, 0] for _ in range(4)]
                        m00[a1], m00[a2] = i - 1, j - 1
                        m10[a1], m10[a2] = i, j - 1
                        m01[a1], m01[a2] = i - 1, j
                        m11[a1], m11[a2] = i, j
                        st.set(tuple(m11), _fill_wall((st.get(m00), st.get(m10), st.get(m01)),
                                                      rng, circular=(mode == "circular")))
        except DegeneracyError:
            continue
        return st
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
_PROJECTIVE_DRAWS = 100  # deformations drawn before giving up


def _bits(mask):
    return [b for b in (1, 2, 4, 8) if mask & b]


def _projective_vertices(a, t, c):
    """The 16 vertices (a eps + t) / (1 + c . eps) by mask, or None if some
    denominator lies within 0.3 of 0."""
    out = {}
    for mask in range(16):
        eps = np.array([(mask >> b) & 1 for b in range(4)], dtype=float)
        denom = 1.0 + c @ eps
        if abs(denom) < 0.3:
            return None
        out[mask] = (a @ eps + t) / denom
    return out


def dodeca_vertices_from_projective(rng, dim: int = 4):
    """All 16 vertices of a projectively deformed 4-cube; faces stay planar.
    A deformation that brings a denominator within 0.3 of 0 is drawn anew,
    up to _PROJECTIVE_DRAWS deformations in all."""
    for _ in range(_PROJECTIVE_DRAWS):
        a = np.eye(4) + _PROJECTIVE_AMPLITUDE * rng.normal(size=(4, 4))
        t = _PROJECTIVE_AMPLITUDE * rng.normal(size=4)
        c = _PROJECTIVE_AMPLITUDE * 0.5 * rng.normal(size=4)
        out = _projective_vertices(a, t, c)
        if out is not None:
            return {k: v[:3] for k, v in out.items()} if dim == 3 else out
    raise DegeneracyError("no projective deformation of the 4-cube keeps every denominator "
                          "0.3 from 0 in %d draws" % _PROJECTIVE_DRAWS)


def dodeca_initial_surface(vertices):
    """Restrict a full vertex dict to the initial-surface masks."""
    return {m: np.asarray(vertices[m], dtype=float) for m in DODECA_INITIAL_MASKS}


def _run_schedules(surface, perturb=None):
    """Point dicts of both dissections, of one surface (points (d,)) or of a
    stack of surfaces (points (..., d)).  Step k of schedule A and step k of
    schedule B read disjoint dicts, so they flip in one hex_flip call on a
    stack (2, ...); a degenerate flip names the dissection of its first
    failing item.  perturb is added to B's first computed vertex."""
    pts = [{m: np.array(p, dtype=float) for m, p in surface.items()} for _ in "AB"]
    for step, moves in enumerate(zip(_SCHEDULE_A, _SCHEDULE_B)):
        corners = []
        for p, (dirs, corner) in zip(pts, moves):
            d1, d2, d3 = _bits(dirs)
            corners.append([p[corner], p[corner ^ d1], p[corner ^ d2], p[corner ^ d3],
                            p[corner ^ d1 ^ d2], p[corner ^ d1 ^ d3], p[corner ^ d2 ^ d3]])
        try:
            flipped = hex_flip(*np.moveaxis(np.array(corners), 1, 0))
        except DegeneracyError as exc:
            raise DegeneracyError("dissection %s flip %d degenerate: %s"
                                  % ("AB"[exc.index[0]], step, exc)) from exc
        for p, (dirs, corner), x in zip(pts, moves, flipped):
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
