"""Property-based checks of the pure algebraic kernels."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qlattice.errors import DomainError, SingularityError
from qlattice import classical_map as cm
from qlattice import specfun as sf

import oracles

finite = st.floats(min_value=-0.7, max_value=0.7, allow_nan=False)
small_complex = st.builds(complex, finite, finite)


@settings(max_examples=150, deadline=None)
@given(x=small_complex, qsq=small_complex, m=st.integers(0, 8), n=st.integers(0, 8))
def test_qpochhammer_splitting(x, qsq, m, n):
    lhs = sf.qpochhammer_prefixes(x, qsq, m + n)[m + n]
    rhs = (sf.qpochhammer_prefixes(x, qsq, m)[m]
           * sf.qpochhammer_prefixes(x * qsq ** m, qsq, n)[n])
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs) + abs(rhs))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 10), k=st.integers(0, 10), q=finite)
def test_qbinomial_pascal_recursion(n, k, q):
    assume(abs(abs(q) - 1) > 1e-3)
    qsq = q * q
    assume(all(abs(1 - qsq ** j) > 1e-6 for j in range(1, n + 2)))
    lhs = oracles.qbinomial(n + 1, k, qsq)
    rhs = oracles.qbinomial(n, k, qsq) * qsq ** k + oracles.qbinomial(n, k - 1, qsq)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@settings(max_examples=150, deadline=None)
@given(alpha=st.floats(0.15, math.pi - 0.15), beta=st.floats(0.15, math.pi - 0.15))
def test_circular_variable_constraint_and_roundtrip(alpha, beta):
    t = cm.angles_to_circular(alpha, beta)
    assert oracles.constraint_residual(t) < 1e-10
    assume(abs(t.k) > 1e-3)
    al, be = cm.circular_to_angles(t)
    assert abs(al - alpha) < 1e-9
    assert abs(be - beta) < 1e-9


@settings(max_examples=80, deadline=None)
@given(angles=st.lists(st.floats(0.2 * math.pi, 0.45 * math.pi), min_size=6, max_size=6))
def test_map_preserves_constraint_surface(angles):
    ts = [cm.angles_to_circular(angles[2 * j], angles[2 * j + 1]) for j in range(3)]
    try:
        out = cm.map_r123(*ts)
    except (DomainError, SingularityError):
        assume(False)
    for t in out:
        assert oracles.constraint_residual(t) < 1e-11
    assert cm.local_yang_baxter_residual(ts, out) < 1e-11


@settings(max_examples=60, deadline=None)
@given(th=st.lists(st.floats(0.4, math.pi - 0.4), min_size=3, max_size=3))
def test_spherical_triangle_duality(th):
    try:
        tri = sf.spherical_sides_from_angles(*th)
    except DomainError:
        assume(False)
    back = oracles.spherical_angles_from_sides(tri.a1, tri.a2, tri.a3)
    assert np.allclose(back, th, atol=1e-9)
    # sides of a proper triangle obey the triangle inequality and stay in (0, pi)
    sides = (tri.a1, tri.a2, tri.a3)
    assert all(0 < a < math.pi for a in sides)
    for i in range(3):
        assert sides[i] < sides[(i + 1) % 3] + sides[(i + 2) % 3] + 1e-12


@settings(max_examples=50, deadline=None)
@given(x=st.floats(0.1, 0.9), branch=st.integers(0, 4), n=st.integers(-6, 12),
       nn=st.sampled_from([2, 3, 5]))
def test_fermat_phi_periodic_in_index(x, branch, n, nn):
    # any N-th root branch of y keeps the point on the curve
    y = (1 - complex(x) ** nn) ** (1.0 / nn) * np.exp(2j * np.pi * (branch % nn) / nn)
    p = sf.FermatPoint(complex(x), y, nn)
    phi = sf.fermat_phi_table(p)
    assert phi[0] == 1
    assert abs(phi[n % nn] - oracles.fermat_phi_continued(p, phi, n % nn + nn)) < 1e-10
