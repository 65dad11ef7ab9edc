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


def fit_circle(points):
    """Best-fit circle of near-coplanar points.

    Returns (center, radius, residual) with residual = max radial deviation
    over the radius.
    """
    center, r, residual = _circle(*_frame(points))
    return center, r[()], residual[()]


def concyclicity_residual(points):
    """The larger of the circle-fit and the planarity residual, from one SVD."""
    frame = _frame(points)
    return np.maximum(_circle(*frame)[2], _flatness(frame[2]))[()]


def fit_sphere(points):
    """Best-fit sphere; returns (center, radius, residual)."""
    pts = np.asarray(points, dtype=float)
    a = np.column_stack([2 * pts, np.ones(len(pts))])
    b = (pts ** 2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    center = sol[:-1]
    r = math.sqrt(max(sol[-1] + center @ center, 1e-300))
    dev = np.abs(np.linalg.norm(pts - center, axis=1) - r)
    return center, r, float(dev.max() / r)


def cosphericity_residual(points) -> float:
    return fit_sphere(points)[2]


# ---------------------------------------------------------------------------
# the hexahedron flip
# ---------------------------------------------------------------------------

# the planes (x1, x12, x13), (x2, x12, x23), (x3, x13, x23) by input position
_PLANE_I, _PLANE_J, _PLANE_K = np.array([1, 2, 3]), np.array([4, 4, 5]), np.array([5, 6, 6])
_EYE3 = np.eye(3)


def hex_flip(x0, x1, x2, x3, x12, x13, x23, cond_limit: float = 1e8):
    """Eighth vertex of the hexahedron: the unique point on the three planes
    (x1,x12,x13), (x2,x12,x23), (x3,x13,x23).

    Works in R^N for N >= 3 by solving inside the affine 3-space spanned by
    the seven input points.  The inputs may be equal-shaped stacks of points
    (..., N); the result is then the stack of eighth vertices.  A
    DegeneracyError reports the first failing item of the stack, in C
    order, and carries its position as ``index``.
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
    parallel = cond > cond_limit
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
        raise _flip_error(guard.index(True), at, s[at], flat_plane[at], cond[at], resid[at])
    return center + (np.swapaxes(sol, -1, -2) @ basis)[..., 0, :]


def _flip_error(guard, at, s, flat_plane, cond, resid):
    """The error of the flip at stack position ``at`` that failed guard
    number ``guard``, in the order hex_flip checks them."""
    if guard == 0:
        return DegeneracyError("input points are nearly coplanar", float(s[2] / s[0]), at)
    if guard == 1:
        return DegeneracyError(
            "input points do not lie in a common 3-space", float(s[3] / s[0]), at)
    if guard == 2:
        return DegeneracyError("plane %d is degenerate" % np.argmax(flat_plane), index=at)
    if guard == 3:
        return DegeneracyError("planes nearly parallel", float(cond), at)
    return DegeneracyError("flip residual too large", float(resid), at)


@dataclass
class Hexahedron:
    x0: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    x12: np.ndarray
    x13: np.ndarray
    x23: np.ndarray
    x123: np.ndarray

    def point(self, key):
        return getattr(self, key)

    def face(self, keys):
        return tuple(self.point(k) for k in keys)

    def faces(self):
        """The six faces, front then back, as one (6, 4, d) stack."""
        return self.vertices()[FACE_INDEX]

    def front_faces(self):
        return self.faces()[:3]

    def back_faces(self):
        return self.faces()[3:]

    def vertices(self):
        return np.array([self.x0, self.x1, self.x2, self.x3,
                         self.x12, self.x13, self.x23, self.x123])

    def max_planarity_residual(self) -> float:
        return planarity_residual(self.faces()).max()

    def max_concyclicity_residual(self) -> float:
        return concyclicity_residual(self.faces()).max()

    def cosphericity_residual(self) -> float:
        return cosphericity_residual(self.vertices())


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

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma, self.delta)

    @property
    def angle_sum(self):
        return self.alpha + self.beta + self.gamma + self.delta


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


def interior_angles(face):
    """Interior angles of a (near) planar quadrilateral, any ambient dim.

    Returns (angles, reflex_flags) along the last axis; reflex corners come
    back > pi so the sum is always 2*pi for a simple polygon.
    """
    _, centered, _, vt = _frame(face)
    return _angles(centered, vt)


def extract_angles(face, tol: float = 1e-9) -> FaceAngles:
    """Angles (alpha, beta, gamma, delta) of an ordered face (v0..v3), with
    delta at v0, gamma at v1, alpha at v2, beta at v3; for a stack of faces
    each field is an array."""
    _, centered, s, vt = _frame(face)
    flat = _flatness(s)
    if np.any(flat > tol):
        raise DomainError("face is not planar (residual %.2e)" % flat[flat > tol][0])
    ang, reflex = _angles(centered, vt)
    return FaceAngles(alpha=ang[..., 2][()], beta=ang[..., 3][()], gamma=ang[..., 1][()],
                      delta=ang[..., 0][()], reflex=reflex.any(axis=-1)[()])


# ---------------------------------------------------------------------------
# random hexahedra
# ---------------------------------------------------------------------------

def _convex(faces):
    """Whether each face is convex with every corner in (0.05, pi - 0.05)."""
    ang, reflex = interior_angles(faces)
    return (~reflex.any(axis=-1) & ((0.05 < ang) & (ang < math.pi - 0.05)).all(axis=-1))[()]


def random_quad_hexahedron(rng, max_tries: int = 200) -> Hexahedron:
    """Generic hexahedron with planar, convex faces."""
    for _ in range(max_tries):
        x0 = rng.normal(0, 0.05, 3)
        x1 = np.array([1.0, 0, 0]) + rng.normal(0, 0.12, 3)
        x2 = np.array([0, 1.0, 0]) + rng.normal(0, 0.12, 3)
        x3 = np.array([0, 0, 1.0]) + rng.normal(0, 0.12, 3)

        def in_plane(a, b):
            s, t = rng.uniform(0.8, 1.25, 2)
            return x0 + s * (a - x0) + t * (b - x0)

        x12, x13, x23 = in_plane(x1, x2), in_plane(x1, x3), in_plane(x2, x3)
        try:
            x123 = hex_flip(x0, x1, x2, x3, x12, x13, x23)
        except DegeneracyError:
            continue
        h = Hexahedron(x0, x1, x2, x3, x12, x13, x23, x123)
        if _convex(h.faces()).all() and h.max_planarity_residual() < 1e-10:
            return h
    raise DegeneracyError("failed to sample a convex quadrilateral hexahedron")


def circle_through(p1, p2, p3):
    """Center, radius and an in-plane orthonormal basis of the circle through
    three points."""
    p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p1, p2, p3))
    u = p2 - p1
    v = p3 - p1
    nu, nv = u @ u, v @ v
    uv = u @ v
    det = 2 * (nu * nv - uv * uv)
    if abs(det) < 1e-14:
        raise DegeneracyError("collinear points have no circle")
    s = (nv * (nu - uv)) / det
    t = (nu * (nv - uv)) / det
    center = p1 + s * u + t * v
    r = float(np.linalg.norm(p1 - center))
    e1 = (p1 - center) / r
    n = _cross(u, v)
    n /= np.linalg.norm(n)
    e2 = _cross(n, e1)
    return center, r, e1, e2


def _circle_angle(p, center, r, e1, e2):
    d = (np.asarray(p, dtype=float) - center)
    return math.atan2(d @ e2, d @ e1)


def point_on_arc(p_from, p_to, p_avoid, u, circle=None):
    """Point at fraction u of the arc p_from -> p_to that avoids p_avoid."""
    center, r, e1, e2 = circle if circle is not None else circle_through(p_from, p_to, p_avoid)
    a0 = _circle_angle(p_from, center, r, e1, e2)
    a1 = _circle_angle(p_to, center, r, e1, e2)
    av = _circle_angle(p_avoid, center, r, e1, e2)
    fwd = (a1 - a0) % (2 * math.pi)
    av_off = (av - a0) % (2 * math.pi)
    if av_off < fwd:  # the forward arc contains the avoided point; go backward
        fwd = fwd - 2 * math.pi
    ang = a0 + u * fwd
    return center + r * (math.cos(ang) * e1 + math.sin(ang) * e2)


def random_circular_hexahedron(rng, max_tries: int = 500) -> Hexahedron:
    """Hexahedron with concyclic faces, built on the unit sphere by choosing
    the three extra front points on the circles through (x0, xi, xj) and
    flipping; the back faces are then concyclic by the Miquel configuration."""
    for _ in range(max_tries):
        base = _random_unit(rng)
        frame = _tangent_frame(base)
        x0 = base
        offs = rng.uniform(0.55, 0.95, 3)
        dirs = [frame[0], frame[1], -(frame[0] + frame[1]) / np.linalg.norm(frame[0] + frame[1])]
        dirs = [d + rng.normal(0, 0.15, 3) for d in dirs]
        pts = []
        for off, d in zip(offs, dirs):
            v = x0 + off * d
            pts.append(v / np.linalg.norm(v))
        x1, x2, x3 = pts
        try:
            x12 = point_on_arc(x1, x2, x0, rng.uniform(0.35, 0.65))
            x13 = point_on_arc(x1, x3, x0, rng.uniform(0.35, 0.65))
            x23 = point_on_arc(x2, x3, x0, rng.uniform(0.35, 0.65))
            x123 = hex_flip(x0, x1, x2, x3, x12, x13, x23)
        except DegeneracyError:
            continue
        h = Hexahedron(x0, x1, x2, x3, x12, x13, x23, x123)
        if not _convex(h.faces()).all():
            continue
        if h.max_concyclicity_residual() < 1e-9 and h.cosphericity_residual() < 1e-9:
            return h
    raise DegeneracyError("failed to sample a circular hexahedron")


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _tangent_frame(n):
    a = np.array([1.0, 0, 0]) if abs(n[0]) < 0.9 else np.array([0, 1.0, 0])
    e1 = _cross(n, a)
    e1 /= np.linalg.norm(e1)
    e2 = _cross(n, e1)
    return e1, e2


# ---------------------------------------------------------------------------
# Miquel check
# ---------------------------------------------------------------------------

@dataclass
class MiquelReport:
    front_residuals: list
    back_residuals: list
    cosphericity: float

    @property
    def max_residual(self):
        return max(max(self.back_residuals), self.cosphericity)


def miquel_check(h: Hexahedron, tol: float = 1e-9) -> MiquelReport:
    """Concyclicity of the back faces through x123 plus cosphericity of all
    eight vertices, given concyclic front faces."""
    residuals = concyclicity_residual(h.faces()).tolist()
    front, back = residuals[:3], residuals[3:]
    for i, r in enumerate(front):
        if r > tol:
            raise DomainError("front face %d is not concyclic (residual %.2e)" % (i + 1, r))
    return MiquelReport(front, back, h.cosphericity_residual())


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
    mode: str = "quadrilateral"
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

    def hexahedron(self, c) -> Hexahedron:
        i, j, k = c
        g = self.get
        return Hexahedron(
            x0=g((i, j, k)), x1=g((i + 1, j, k)), x2=g((i, j + 1, k)), x3=g((i, j, k + 1)),
            x12=g((i + 1, j + 1, k)), x13=g((i + 1, j, k + 1)), x23=g((i, j + 1, k + 1)),
            x123=g((i + 1, j + 1, k + 1)))

    def completed_cubes(self):
        n1, n2, n3 = self.shape
        return [c for c in np.ndindex(n1, n2, n3) if self.cube_complete(c)]

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


def affine_initial_state(shape, matrix=None, offset=None) -> LatticeState:
    """Boundary data from an affine image of the integer lattice."""
    n1, n2, n3 = shape
    a = np.eye(3) if matrix is None else np.asarray(matrix, dtype=float)
    t = np.zeros(3) if offset is None else np.asarray(offset, dtype=float)
    st = LatticeState(shape, mode="quadrilateral")
    for m in np.ndindex(n1 + 1, n2 + 1, n3 + 1):
        if 0 in m:
            st.set(m, a @ np.array(m, dtype=float) + t)
    return st


def _fill_wall(points, key, rng, circular, max_tries=60):
    """Fill x(i,j) of one wall from its three predecessors.

    circular: x(i,j) on the circle through the three, at a mid-arc parameter,
    which makes the face a convex cyclic quadrilateral.  quadrilateral: in
    the plane of the three.
    """
    p00, p10, p01 = points  # (i-1,j-1), (i,j-1), (i-1,j)
    for _ in range(max_tries):
        if circular:
            try:
                cand = point_on_arc(p10, p01, p00, rng.uniform(0.42, 0.58))
            except DegeneracyError:
                return None
        else:
            s, t = rng.uniform(0.85, 1.2, 2)
            cand = p00 + s * (p10 - p00) + t * (p01 - p00)
        face = (p00, p10, cand, p01)
        if _convex(face):
            return cand
    return None


def random_initial_state(shape, rng, mode="circular", max_tries=200) -> LatticeState:
    """Random admissible boundary data on the three coordinate walls.

    Axis rows are mildly perturbed integer points; each wall face is then
    closed one at a time, rejection-sampling until convex (and concyclic in
    circular mode).
    """
    n1, n2, n3 = shape
    for _ in range(max_tries):
        st = LatticeState(shape, mode=mode)
        st.set((0, 0, 0), rng.normal(0, 0.04, 3))
        axes = (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
        sizes = (n1, n2, n3)
        ok = True
        for ax in range(3):
            for i in range(1, sizes[ax] + 1):
                m = [0, 0, 0]
                m[ax] = i
                st.set(tuple(m), i * axes[ax] + rng.normal(0, 0.06, 3))
        walls = ((0, 1, n1, n2), (0, 2, n1, n3), (1, 2, n2, n3))
        for a1, a2, s1, s2 in walls:
            for i in range(1, s1 + 1):
                for j in range(1, s2 + 1):
                    m00, m10, m01, m11 = [[0, 0, 0] for _ in range(4)]
                    m00[a1], m00[a2] = i - 1, j - 1
                    m10[a1], m10[a2] = i, j - 1
                    m01[a1], m01[a2] = i - 1, j
                    m11[a1], m11[a2] = i, j
                    cand = _fill_wall((st.get(m00), st.get(m10), st.get(m01)),
                                      tuple(m11), rng, circular=(mode == "circular"))
                    if cand is None:
                        ok = False
                        break
                    st.set(tuple(m11), cand)
                if not ok:
                    break
            if not ok:
                break
        if ok:
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


def _bits(mask):
    return [b for b in (1, 2, 4, 8) if mask & b]


def dodeca_vertices_from_projective(rng=None, amplitude: float = 0.18, dim: int = 4):
    """All 16 vertices of a projectively deformed 4-cube; faces stay planar."""
    rng = np.random.default_rng() if rng is None else rng
    a = np.eye(4) + amplitude * rng.normal(size=(4, 4))
    t = amplitude * rng.normal(size=4)
    c = amplitude * 0.5 * rng.normal(size=4)
    out = {}
    for mask in range(16):
        eps = np.array([(mask >> b) & 1 for b in range(4)], dtype=float)
        denom = 1.0 + c @ eps
        if abs(denom) < 0.3:
            return dodeca_vertices_from_projective(rng, amplitude, dim)
        out[mask] = (a @ eps + t) / denom
    if dim == 3:
        out = {k: v[:3] for k, v in out.items()}
    return out


def dodeca_initial_surface(vertices):
    """Restrict a full vertex dict to the initial-surface masks."""
    return {m: np.asarray(vertices[m], dtype=float) for m in DODECA_INITIAL_MASKS}


def _run_schedule(surface, schedule, perturb=None):
    pts = {m: np.array(p, dtype=float) for m, p in surface.items()}
    for step, (dirs, corner) in enumerate(schedule):
        d1, d2, d3 = _bits(dirs)
        try:
            res = hex_flip(pts[corner],
                           pts[corner ^ d1], pts[corner ^ d2], pts[corner ^ d3],
                           pts[corner ^ d1 ^ d2], pts[corner ^ d1 ^ d3], pts[corner ^ d2 ^ d3])
        except DegeneracyError as exc:
            raise DegeneracyError("dissection flip %d degenerate: %s" % (step, exc)) from exc
        target = corner ^ dirs
        pts[target] = res
        if perturb is not None and step == 0:
            pts[target] = pts[target] + perturb
    return pts


@dataclass
class DodecaReport:
    discrepancy: float
    per_vertex: dict


def dodecahedron_consistency(surface, perturb=None) -> DodecaReport:
    """Flip the front surface to the back surface along both dissections and
    report the maximum distance between the two results.

    surface maps the eleven initial masks to points (R^3 or R^4).  perturb,
    if given, is added to the first computed vertex of the second dissection
    only (sensitivity probe).
    """
    missing = [m for m in DODECA_INITIAL_MASKS if m not in surface]
    if missing:
        raise DomainError("missing initial vertices for masks %s" % missing)
    ptsa = _run_schedule(surface, _SCHEDULE_A)
    ptsb = _run_schedule(surface, _SCHEDULE_B, perturb=perturb)
    per = {m: float(np.linalg.norm(ptsa[m] - ptsb[m])) for m in DODECA_FINAL_MASKS}
    return DodecaReport(max(per.values()), per)


def random_rotation(rng, dim=3):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q *= np.sign(np.diag(r))
    return q
