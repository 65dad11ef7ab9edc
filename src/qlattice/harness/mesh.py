"""OBJ export and import of lattice states."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..geometry import LatticeState


def export_obj(state: LatticeState, path: str):
    """Write vertices and quad faces of all completed faces to a Wavefront
    OBJ file; coordinates round-trip exactly through repr-style formatting."""
    faces = state.known_faces()
    if not any(state.cube_complete(c) for c in np.ndindex(*state.shape)):
        raise DomainError("state has no completed cube to export")
    keys = sorted(state.vertices)
    index = {k: i + 1 for i, k in enumerate(keys)}
    with open(path, "w") as fh:
        fh.write("# qlattice mesh export\n")
        for k in keys:
            p = state.get(k)
            fh.write("v %.17g %.17g %.17g\n" % (p[0], p[1], p[2]))
        for quad in faces:
            fh.write("f %d %d %d %d\n" % tuple(index[k] for k in quad))


def import_obj(path: str):
    """Read back vertices and faces; returns (vertices array, faces list)."""
    verts = []
    faces = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x) - 1 for x in parts[1:]])
    return np.array(verts), faces


def expected_face_count(shape) -> int:
    """Lattice combinatorics oracle: a fully evolved n1 x n2 x n3 box has
    faces of three orientations, n_i n_j (n_k + 1) each."""
    n1, n2, n3 = shape
    return n1 * n2 * (n3 + 1) + n1 * n3 * (n2 + 1) + n2 * n3 * (n1 + 1)
