"""Oracles and identity checks that only the tests call.

Each function is a reference the tests compare the package against (a
closed form, an inverse map, a relation the package's objects satisfy)
and reaches into ``qlattice`` through its public modules.  The samples the
tests draw (a flippable front, a six-face state, a symplectic state, a
quadrilateral hexahedron) come from one generator through the suites'
sampling driver, as a block of one.  The tests import this module as
``oracles``; pytest does not collect it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from qlattice import classical_map as cm
from qlattice import geometry as geo
from qlattice import qosc
from qlattice import rmatrices as rm
from qlattice import specfun as sf
from qlattice.errors import AccuracyError, DegeneracyError, DomainError, SingularityError
from qlattice.harness import suites

# ---------------------------------------------------------------------------
# q-series (specfun)
# ---------------------------------------------------------------------------

_2PHI1_MAX_TERMS = 10000


def qbinomial(n: int, k: int, qsq: complex) -> complex:
    """Gaussian binomial coefficient in base qsq; zero when k is out of range."""
    if k < 0 or k > n:
        return 0.0 + 0.0j
    # build as a product of ratios to avoid cancellation of large factors
    out = 1.0 + 0.0j
    for j in range(1, k + 1):
        out *= (1.0 - qsq ** (n - k + j)) / (1.0 - qsq ** j)
    return out


def qgauss_2phi1(a: complex, bb: complex, c: complex, qsq: complex, z: complex) -> complex:
    """q-deformed Gauss hypergeometric series
    sum_n (a;qsq)_n (bb;qsq)_n / ((qsq;qsq)_n (c;qsq)_n) z^n.

    Terminating when a = qsq^{-m} (the only case the Fock R-matrix needs);
    otherwise requires |z| < 1 and |qsq| < 1.
    """
    m = _terminating_order(a, qsq)
    if m is None and (abs(z) >= 1.0 or abs(qsq) >= 1.0):
        raise DomainError("nonterminating 2phi1 requires |z| < 1 and |qsq| < 1")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    n = 0
    while True:
        # ratio of term n+1 to term n
        num = (1.0 - a * qsq ** n) * (1.0 - bb * qsq ** n)
        den = (1.0 - qsq ** (n + 1)) * (1.0 - c * qsq ** n)
        if den == 0:
            raise SingularityError("2phi1 denominator parameter hit a pole at term %d" % (n + 1))
        term *= num / den * z
        total += term
        n += 1
        if m is not None and n >= m:
            break
        if m is None and abs(term) < 1e-18 * (1.0 + abs(total)):
            break
        if n >= _2PHI1_MAX_TERMS:
            raise AccuracyError("2phi1 did not converge in %d terms" % _2PHI1_MAX_TERMS)
    return total


def _terminating_order(a: complex, qsq: complex) -> int | None:
    """Smallest m in [0, 512) with a ~ qsq^{-m}, or None if the series does not terminate."""
    if abs(a - 1.0) < 1e-12:
        return 0
    fac = complex(a)
    for m in range(1, 512):
        fac *= qsq
        if abs(fac - 1.0) < 1e-12:
            return m
    return None


def psi22_residue_series_double(c, c0, mp: sf.ModularParam) -> complex:
    """Reference for ``specfun._psi22_residue_series``: each residue family
    summed as a double series, the inner n-series once per m, with the
    n-recursion factor formed again for every m.  The package sums the two
    single series instead, whose product this double sum is."""
    mp.require_series_domain()
    rm, rn = sf.psi22_residue_ratios(c, c0, mp)
    if abs(rm) >= 0.999 or abs(rn) >= 0.999:
        raise DomainError(
            "2Psi2 residue series diverges at these parameters "
            "(ratios %.3f, %.3f); use quadrature or analytic continuation"
            % (abs(rm), abs(rn)))
    eta = mp.eta
    qsq = mp.q * mp.q
    qtsq = mp.q_tilde * mp.q_tilde
    u = [(c[0] + 1j * eta) / 2, (c[1] + 1j * eta) / 2]
    v = [(c[2] - 1j * eta) / 2, (c[3] - 1j * eta) / 2]
    w = -c0 - 1j * eta
    res00 = -mp.b * sf.qpochhammer_inf(qsq, qsq) / (sf._TWO_PI * sf.qpochhammer_inf(qtsq, qtsq))
    xm = cmath.exp(-sf._TWO_PI * mp.b * w)   # m-direction prefactor ratio
    xn = cmath.exp(-sf._TWO_PI * w / mp.b)   # n-direction prefactor ratio

    total = 0.0 + 0.0j
    for uj, uo in ((u[0], u[1]), (u[1], u[0])):
        # base point m = n = 0
        z0 = 1j * eta - uj
        sf._check_lattice_distance(z0 + uo, mp)
        base = (2j * np.pi * cmath.exp(2j * np.pi * z0 * w) * res00
                * complex(sf.dilog_product(np.asarray(z0 + uo), mp))
                / complex(sf.dilog_product(np.asarray(z0 + v[0]), mp))
                / complex(sf.dilog_product(np.asarray(z0 + v[1]), mp)))
        eb = {s: cmath.exp(sf._TWO_PI * (s - uj) * mp.b) for s in (uo, v[0], v[1])}
        ei = {s: cmath.exp(sf._TWO_PI * (s - uj) / mp.b) for s in (uo, v[0], v[1])}
        term_m = base
        small_m = 0
        for m in range(600):
            if m > 0:
                qq = qsq ** m
                fac = xm / (1.0 - qq)
                fac *= (1.0 - qq * eb[v[0]]) * (1.0 - qq * eb[v[1]]) / (1.0 - qq * eb[uo])
                term_m *= fac
            # inner n-series
            term = term_m
            total += term
            tmax = abs(term)
            small_n = 0
            for n in range(1, 600):
                y = qtsq ** n  # q~^{2n}, tiny for large n; ratios stay O(1)
                fac = xn * ((y - ei[v[0]]) * (y - ei[v[1]])) / ((y - ei[uo]) * (y - 1.0))
                term *= fac
                total += term
                tmax = max(tmax, abs(term))
                if abs(term) < sf._RESIDUE_TOL * (1.0 + abs(total)):
                    small_n += 1
                    if small_n >= 3:
                        break
                else:
                    small_n = 0
            else:
                raise AccuracyError("2Psi2 residue n-series did not converge")
            if tmax < sf._RESIDUE_TOL * (1.0 + abs(total)):
                small_m += 1
                if small_m >= 3:
                    break
            else:
                small_m = 0
        else:
            raise AccuracyError("2Psi2 residue m-series did not converge")
    return complex(total)


def fermat_phi_continued(p, phi, m: int) -> complex:
    """phi_p(m) for m >= N - 1, by running the recurrence phi(n) =
    phi(n - 1) y / (1 - x q^{2n}) of the table phi = fermat_phi_table(p)
    on past its last entry.  The cyclic dilogarithm is periodic because
    y^N = 1 - x^N is the product of the N factors 1 - x q^{2n}, so this
    equals phi[m % N]."""
    out = phi[-1]
    for n in range(p.N, m + 1):
        out = out * p.y / (1 - p.x * sf.q_power(p.N, 2 * n))
    return out


def spherical_angles_from_sides(a1: float, a2: float, a3: float) -> tuple[float, float, float]:
    """Angles from sides (independent oracle for
    specfun.spherical_sides_from_angles)."""
    aa = (a1, a2, a3)
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        ct = (math.cos(aa[i]) - math.cos(aa[j]) * math.cos(aa[k])) / (
            math.sin(aa[j]) * math.sin(aa[k]))
        out.append(math.acos(min(1.0, max(-1.0, ct))))
    return tuple(out)


# ---------------------------------------------------------------------------
# modular field parameters (rmatrices)
# ---------------------------------------------------------------------------

def field_sets_from_free(free):
    """(f, f', f'', f''') from eight free field parameters
    (f1, f2, f3, f1', f2', f3', f1'', f2'')."""
    f1, f2, f3, f1p, f2p, f3p, f1pp, f2pp = free
    return ((f1, f2, f3), (f1p, f2p, f3p), (f1pp, f2pp, f3p - f3),
            (f1pp - f1p, f2pp + f1, f2 - f2p))


def field_exponent_balance(t_sets, f_sets, rng) -> float:
    """Numerical check that the total field exponent matches between the two
    sides of the IRC equation and is z-independent on each side."""
    worst = 0.0
    for _ in range(20):
        ext = {k: rng.uniform(-1, 1) for k in rm.EXTERNAL_LABELS}
        vals = []
        for zval in (rng.uniform(-1, 1), rng.uniform(-1, 1)):
            env = dict(ext, z=zval)
            for side in rm.IRC_SIDES:
                total = 0.0
                for widx, slot in side:
                    spins = [env[s] for s in slot]
                    (s1, s2, s3), (s1p, s2p, s3p) = rm.sigma_map(spins, t_sets[widx])
                    fj = f_sets[widx]
                    total += fj[0] * (s1 + s1p) + fj[1] * (s2 + s2p) + fj[2] * (s3 + s3p)
                vals.append(total)
        worst = max(worst, max(vals) - min(vals))
    return worst


# ---------------------------------------------------------------------------
# cyclic vertex tetrahedron equation (rmatrices)
# ---------------------------------------------------------------------------

def consistent_external(rng, N):
    """A random external tuple (n1..n6, n1''..n6'') of the vertex
    tetrahedron equation over Z_N whose total charges balance, so both sides
    can be nonzero: two integers calls, then te_balance mod N."""
    n = [int(x) for x in rng.integers(0, N, 6)]
    p = [int(x) for x in rng.integers(0, N, 3)]
    return (*n, *p, *(x % N for x in rm.te_balance(n, *p)))


def vertex_te_residual_per_tuple(ext, datasets) -> float:
    """Vertex tetrahedron equation for the cyclic solution at one external
    tuple, datasets = (d123, d145, d246, d356): each factor is one element
    call over all N values of the free index, at the indices of
    te_lhs_indices / te_rhs_indices reduced mod N."""
    N = datasets[0].N
    free = np.arange(N)
    sides = []
    for indices, order in ((rm.te_lhs_indices, datasets), (rm.te_rhs_indices, datasets[::-1])):
        terms = 1
        for data, idx in zip(order, indices(ext, free)):
            idx = [k % N for k in idx]
            terms = terms * rm.cyclic_vertex_element(idx[:3], idx[3:], data)
        sides.append(terms.sum())
    return float(rm._rel_residual(*sides))


def cyclic_element_scalar(n, m, data):
    """<n1 n2 n3|R|m1 m2 m3> of the cyclic solution, one Python term per
    value of the internal index."""
    N = data.N
    n1, n2, n3 = n
    m1, m2, m3 = m
    if (n1 + n2 - m1 - m2) % N or (n2 + n3 - m2 - m3) % N:
        return 0.0
    t1, t2, t3, t4 = data.tables
    pref = sf.q_power(N, n1 * n3 - m2 * (n1 + n3))
    total = 0.0 + 0.0j
    for t in range(N):
        total += (sf.q_power(N, -2 * t * m2)
                  * t1[(t + n1 + m3) % N] * t2[t % N]
                  / (t3[(t + n1) % N] * t4[(t + n3) % N]))
    return pref * total


def vertex_te_scalar_loop(ext, datasets) -> float:
    """vertex_te_residual_per_tuple with one Python term per value of the
    free index and one cyclic_element_scalar call per factor."""
    N = datasets[0].N
    sides = []
    for indices, order in ((rm.te_lhs_indices, datasets), (rm.te_rhs_indices, datasets[::-1])):
        total = 0.0 + 0.0j
        for i in range(N):
            term = 1
            for data, idx in zip(order, indices(ext, i)):
                idx = [k % N for k in idx]
                term *= cyclic_element_scalar(idx[:3], idx[3:], data)
            total += term
        sides.append(total)
    return float(rm._rel_residual(*sides))


# ---------------------------------------------------------------------------
# cyclic IRC weights (rmatrices)
# ---------------------------------------------------------------------------

def cyclic_weight_table_full_grid(data: rm.CyclicRData) -> np.ndarray:
    """W[a,e,f,g,b,c,d,h] = sum_n q^{2n(b+d-f-h)}
    phi1(n-h+c) phi2(n-f+a) / (phi3(n-b+g) phi4(n-d+e)), summed over the
    full N^8 grid of spins."""
    N = data.N
    t1, t2, t3, t4 = data.tables
    q2 = sf.q_power(N, 2 * np.arange(N))
    a, e, f, g, b, c, d, h = np.indices((N,) * 8, sparse=True)
    out = np.zeros((N,) * 8, dtype=complex)
    for n in range(N):
        phase = q2[(n * (b + d - f - h)) % N]
        out += (phase * t1[(n - h + c) % N] * t2[(n - f + a) % N]
                / (t3[(n - b + g) % N] * t4[(n - d + e) % N]))
    return out


# ---------------------------------------------------------------------------
# q-oscillator representations and L-operator parameters (qosc)
# ---------------------------------------------------------------------------

def _shifted(dims, shift) -> np.ndarray:
    """Flat index of (n - shift) mod dims for every flat index n."""
    n = np.unravel_index(np.arange(math.prod(dims)), dims)
    return np.ravel_multi_index([(i - s) % d for i, s, d in zip(n, shift, dims)], dims)


def vop_from_dense(dims, mat) -> qosc.VOp:
    """The shift-diagonal form of the dense matrix mat over V1 x V2 x V3: one
    term per shift s with a nonzero entry (n, (n - s) mod dims), its
    coefficients mat[n, (n - s) mod dims], shifts in ascending flat order."""
    rows = np.arange(math.prod(dims))
    terms = {}
    for shift in np.ndindex(*dims):
        coef = mat[rows, _shifted(dims, shift)]
        if (coef != 0).any():
            terms[shift] = coef
    return qosc.VOp(dims, terms)


def vop_entries(op):
    """Yield (row, col, value) of every nonzero entry of a VOp, term by
    term; each shift must be reduced mod dims, each array span the basis."""
    for shift, coef in op.terms.items():
        assert all(0 <= s < d for s, d in zip(shift, op.dims)), shift
        assert coef.shape == (math.prod(op.dims),), coef.shape
        cols = _shifted(op.dims, shift)
        for n in np.flatnonzero(coef != 0).tolist():
            yield n, int(cols[n]), coef[n]


def to_dense(op) -> np.ndarray:
    """The dense matrix of a VOp, complex, or object where a term holds
    mpf entries."""
    dtype = object if any(c.dtype == object for c in op.terms.values()) else complex
    out = np.zeros(op.shape, dtype=dtype)
    for row, col, val in vop_entries(op):
        out[row, col] = val
    return out


def algebra_residuals(rep: qosc.QOscRep) -> dict:
    """Masked residuals of the defining relations."""
    q = rep.q
    eye = np.eye(rep.dim)
    rels = {
        "pair": q * rep.a_star @ rep.a - rep.a @ rep.a_star / q - (q - 1 / q) * eye,
        "k_astar": rep.k @ rep.a_star - q * rep.a_star @ rep.k,
        "k_a": rep.k @ rep.a - rep.a @ rep.k / q,
        "ksq_left": rep.k @ rep.k - q * (eye - rep.a_star @ rep.a),
        "ksq_right": rep.k @ rep.k - (eye - rep.a @ rep.a_star) / q,
    }
    m = rep.interior_mask()
    return {name: float(np.max(np.abs(mat[np.ix_(m, m)]))) for name, mat in rels.items()}


def parameter_combinations(lambdas, mus):
    """The three combinations the intertwining relation depends on:
    lambda2/lambda3, lambda1 mu3, mu1/mu2."""
    if lambdas[2] == 0 or mus[1] == 0:
        raise DomainError("zero parameter in a denominator")
    return (lambdas[1] / lambdas[2], lambdas[0] * mus[2], mus[0] / mus[1])


# ---------------------------------------------------------------------------
# circular variables and edge-length propagation (classical_map)
# ---------------------------------------------------------------------------

def constraint_residual(t: cm.CircularTriple) -> float:
    """|a a* - (1 - k^2)| of a CircularTriple."""
    return abs(t.a * t.a_star - (1.0 - t.k * t.k))


def propagation_matrix(angles: geo.FaceAngles) -> np.ndarray:
    """The 2x2 matrix sending the incoming pair (lp, lq) to the opposite pair."""
    b, g, d = angles.beta, angles.gamma, angles.delta
    sd = math.sin(d)
    if abs(sd) < 1e-14:
        raise SingularityError("delta = 0 mod pi degenerates the propagation")
    return np.array([
        [math.sin(g) / sd, math.sin(d + b) / sd],
        [math.sin(d + g) / sd, math.sin(b) / sd]])


def propagation_constraint_residual(angles: geo.FaceAngles) -> float:
    """Residual of the determinant relation tying the four entries together.

    With the matrix written [[A, C], [B, D]] column-wise the relation reads
    AD - BC = (AB - CD)/(DB - AC); equivalently, for the entries P Q / R S
    as displayed, det = (PR - QS)/(SR - PQ).
    """
    (p, q), (r, s) = propagation_matrix(angles)
    num = p * r - q * s
    den = s * r - p * q
    if abs(den) < 1e-12:
        raise SingularityError("constraint undefined (symmetric face)")
    return abs((p * s - q * r) - num / den)


def face_x(angles: geo.FaceAngles) -> np.ndarray:
    return propagation_matrix(angles).astype(complex)


def cube_edge_propagate(lp, lq, lr, face_angles, reverse=False):
    """Propagate the three incoming edge lengths of a hexahedron through its
    front faces (or through the back faces with reverse=True; the two agree
    by the local Yang-Baxter identity)."""
    x = cm._embed([face_x(a) for a in face_angles])
    m = x[2] @ x[1] @ x[0] if reverse else x[0] @ x[1] @ x[2]
    out = m @ np.array([lp, lq, lr], dtype=complex)
    return tuple(float(v.real) for v in out)


def poisson_bracket_residuals(alpha: float, beta: float):
    """Brackets of (k, a, a*) in the chart {alpha, beta} = 1 from their complex-step
    Jacobian, compared with {a, a*} = 2k^2, {k, a} = k a, {k, a*} = -k a*."""
    def kas(x):
        t = cm.angles_to_circular(x[..., 0], x[..., 1])
        return np.stack([t.k, t.a, t.a_star], axis=-1)

    d_al, d_be = cm.jacobian(kas, [alpha, beta]).T
    bracket = lambda i, j: d_al[i] * d_be[j] - d_be[i] * d_al[j]
    k, a, s = kas(np.array([alpha, beta]))
    return (abs(bracket(1, 2) - 2 * k * k),
            abs(bracket(0, 1) - k * a),
            abs(bracket(0, 2) + k * s))


# ---------------------------------------------------------------------------
# lattice data (geometry)
# ---------------------------------------------------------------------------

def affine_initial_state(shape, matrix=None, offset=None) -> geo.LatticeState:
    """Boundary data from an affine image of the integer lattice."""
    n1, n2, n3 = shape
    a = np.eye(3) if matrix is None else np.asarray(matrix, dtype=float)
    t = np.zeros(3) if offset is None else np.asarray(offset, dtype=float)
    st = geo.LatticeState(shape)
    for m in np.ndindex(n1 + 1, n2 + 1, n3 + 1):
        if 0 in m:
            st.set(m, a @ np.array(m, dtype=float) + t)
    return st


def fill_walls_one_face_at_a_time(st: geo.LatticeState, rng, mode):
    """Close every wall face of a state whose origin and axis rows are set,
    one face at a time in wall and row order, each by rejection sampling
    from its own draws (the sampler's reference)."""
    walls = ((0, 1), (0, 2), (1, 2))
    for a1, a2 in walls:
        for i in range(1, st.shape[a1] + 1):
            for j in range(1, st.shape[a2] + 1):
                m00, m10, m01, m11 = [[0, 0, 0] for _ in range(4)]
                m00[a1], m00[a2] = i - 1, j - 1
                m10[a1], m10[a2] = i, j - 1
                m01[a1], m01[a2] = i - 1, j
                m11[a1], m11[a2] = i, j
                p00, p10, p01 = st.get(m00), st.get(m10), st.get(m01)
                for _ in range(60):
                    if mode == "circular":
                        cand = geo.point_on_arc(p10, p01, p00, rng.uniform(0.42, 0.58))
                    else:
                        s, t = rng.uniform(0.85, 1.2, 2)
                        cand = p00 + s * (p10 - p00) + t * (p01 - p00)
                    if geo._convex(geo._frame((p00, p10, cand, p01))):
                        break
                else:
                    raise DegeneracyError("no convex wall face in 60 draws")
                st.set(tuple(m11), cand)


def random_initial_state(shape, rng, mode) -> geo.LatticeState:
    """geo.random_initial_state drawn one face at a time: the origin, the
    axis rows, then fill_walls_one_face_at_a_time, starting the data anew
    when a wall cannot be closed."""
    for _ in range(200):
        st = geo.LatticeState(shape)
        st.set((0, 0, 0), rng.normal(0, 0.04, 3))
        for ax in range(3):
            for i in range(1, shape[ax] + 1):
                m = [0, 0, 0]
                m[ax] = i
                st.set(tuple(m), i * np.eye(3)[ax] + rng.normal(0, 0.06, 3))
        try:
            fill_walls_one_face_at_a_time(st, rng, mode)
        except DegeneracyError:
            continue
        return st
    raise DegeneracyError("failed to sample admissible initial data")


def staircase_evolve(state: geo.LatticeState, steps):
    """geo.staircase_evolve on the vertex dict: the flippable cubes of each
    anti-diagonal layer, found one at a time, flip in one stacked hex_flip
    call; steps counts the layers that flip, None all of them."""
    front = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))
    layers = {}
    for c in np.ndindex(*state.shape):
        layers.setdefault(sum(c), []).append(c)
    done = 0
    for layer in sorted(layers):
        if steps is not None and done >= steps:
            break
        cubes = [(i, j, k) for i, j, k in layers[layer]
                 if all((i + a, j + b, k + d) in state.vertices for a, b, d in front)
                 and (i + 1, j + 1, k + 1) not in state.vertices]
        if not cubes:
            continue
        corners = np.array([[state.get((i + a, j + b, k + d)) for a, b, d in front]
                            for i, j, k in cubes])
        for (i, j, k), p in zip(cubes, geo.hex_flip(*corners.transpose(1, 0, 2))):
            state.set((i + 1, j + 1, k + 1), p)
        done += 1
    return state


def export_obj(state: geo.LatticeState, path: str):
    """The OBJ file of mesh.export_obj, written one vertex and one face at a
    time from the vertex dict: vertices in sorted key order, then the faces
    whose four corners are known, by vertex in insertion order and then by
    normal axis."""
    if not any(all((i + a, j + b, k + d) in state.vertices
                   for a in (0, 1) for b in (0, 1) for d in (0, 1))
               for i, j, k in np.ndindex(*state.shape)):
        raise DomainError("state has no completed cube to export")
    keys = sorted(state.vertices)
    index = {k: i + 1 for i, k in enumerate(keys)}
    with open(path, "w") as fh:
        fh.write("# qlattice mesh export\n")
        for k in keys:
            p = state.get(k)
            fh.write("v %.17g %.17g %.17g\n" % (p[0], p[1], p[2]))
        for i, j, k in state.vertices:
            m = (i, j, k)
            for quad in ((m, (i, j + 1, k), (i, j + 1, k + 1), (i, j, k + 1)),
                         (m, (i, j, k + 1), (i + 1, j, k + 1), (i + 1, j, k)),
                         (m, (i + 1, j, k), (i + 1, j + 1, k), (i, j + 1, k))):
                if all(q in state.vertices for q in quad):
                    fh.write("f %d %d %d %d\n" % tuple(index[q] for q in quad))


def hexahedron(state: geo.LatticeState, c) -> geo.Hexahedron:
    """The filled cube of a LatticeState at lattice point c."""
    i, j, k = c
    g = state.get
    return geo.Hexahedron(
        x0=g((i, j, k)), x1=g((i + 1, j, k)), x2=g((i, j + 1, k)), x3=g((i, j, k + 1)),
        x12=g((i + 1, j + 1, k)), x13=g((i + 1, j, k + 1)), x23=g((i, j + 1, k + 1)),
        x123=g((i + 1, j + 1, k + 1)))


def cosphericity_lstsq(h: geo.Hexahedron):
    """Largest distance of a vertex from the least-squares sphere through
    all eight, relative to its radius: one lstsq per hexahedron of a stack,
    on the columns 2p and 1 of its uncentered vertices."""
    pts = np.asarray(h.vertices(), dtype=float)
    sol = np.array([np.linalg.lstsq(np.column_stack([2 * p, np.ones(len(p))]),
                                    (p ** 2).sum(axis=1), rcond=None)[0]
                    for p in pts.reshape(-1, *pts.shape[-2:])])
    center = sol[:, :-1].reshape(pts.shape[:-2] + pts.shape[-1:])
    r = np.sqrt(np.maximum(sol[:, -1].reshape(pts.shape[:-2]) + np.vecdot(center, center),
                           1e-300))
    dev = np.abs(np.linalg.norm(pts - center[..., None, :], axis=-1) - r[..., None])
    return (dev.max(axis=-1) / r)[()]


# ---------------------------------------------------------------------------
# rhombic dodecahedron (geometry)
# ---------------------------------------------------------------------------

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
    up to geo.PROJECTIVE_DRAWS deformations in all.  The reference of the
    dodecahedron suite's stacked draws (geo.projective_draws and
    geo.projective_vertices), one deformation and one vertex at a time."""
    for _ in range(geo.PROJECTIVE_DRAWS):
        a = np.eye(4) + geo._PROJECTIVE_AMPLITUDE * rng.normal(size=(4, 4))
        t = geo._PROJECTIVE_AMPLITUDE * rng.normal(size=4)
        c = geo._PROJECTIVE_AMPLITUDE * 0.5 * rng.normal(size=4)
        out = _projective_vertices(a, t, c)
        if out is not None:
            return {k: v[:3] for k, v in out.items()} if dim == 3 else out
    raise DegeneracyError("no projective deformation of the 4-cube keeps every denominator "
                          "0.3 from 0 in %d draws" % geo.PROJECTIVE_DRAWS)


def dodeca_initial_surface(vertices):
    """Restrict a full vertex dict to the initial-surface masks."""
    return {m: np.asarray(vertices[m], dtype=float) for m in geo.DODECA_INITIAL_MASKS}


# ---------------------------------------------------------------------------
# samples, drawn through the suites' sampling driver as a block of one
# ---------------------------------------------------------------------------

def _sample(rng, draw, cap, accepts):
    """The draws of the first of up to cap attempts, each drawn from rng
    by draw, that accepts keeps; accepts maps a stack of attempts' draws to
    the positions it keeps."""
    def attempt(*draws):
        accepted = accepts(*draws)
        return accepted, lambda at: [[d[i] for d in draws] for i in accepted[at]]

    return suites._sample([rng], draw, cap, attempt,
                          DomainError("no attempt accepted in %d" % cap))[0]


def _maps(fn, angles):
    """The positions of a stack of angle draws (m, 2n) on whose triples fn
    stays in the real domain."""
    return suites._stack_map(lambda pos: fn(cm.triples(angles[pos])), range(len(angles)))[0]


def flippable_front(rng, eps=1):
    """Three triples on which one flip stays in the real domain, and their
    flip: (front, back)."""
    angles, = _sample(rng, lambda r: (cm.draw_angles(r, 3),), cm.FRONT_ATTEMPTS,
                      lambda a: _maps(lambda s: cm.map_r123(*s, eps=eps), a))
    front = tuple(cm.triples(angles))
    return front, cm.map_r123(*front, eps=eps)


def mappable_six(rng, eps=1):
    """Six triples on which both four-flip orderings stay in the real
    domain."""
    angles, = _sample(rng, lambda r: (cm.draw_angles(r, 6),), cm.SIX_ATTEMPTS,
                      lambda a: _maps(lambda s: cm.fte_sides(s, eps), a))
    return cm.triples(angles)


def symplectic_state(rng):
    """An angle state interior to the admissible domain: one that
    symplectic_admissible accepts."""
    def accepts(x):
        kept, admissible, _ = suites._stack_map(lambda pos: cm.symplectic_admissible(x[pos]),
                                                range(len(x)))
        return kept[admissible]

    x, = _sample(rng, lambda r: (cm.draw_symplectic(r),), cm.SYMPLECTIC_ATTEMPTS, accepts)
    return x


def quad_hexahedron(rng) -> geo.Hexahedron:
    """A generic hexahedron with planar, convex faces."""
    draws = _sample(rng, geo.quad_draws, geo.QUAD_ATTEMPTS,
                    lambda *d: suites._accepted_hexahedra(d, geo.quad_attempt)[0])
    return geo.quad_attempt(*draws)[0]


# ---------------------------------------------------------------------------
# reports (harness.report)
# ---------------------------------------------------------------------------

def strip_timing(data: dict) -> dict:
    out = dict(data)
    out.pop("timing", None)
    return out
