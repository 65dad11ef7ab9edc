"""OBJ export and import of lattice states."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..geometry import LatticeState, box_points


def export_obj(state: LatticeState, path: str):
    """Write vertices and quad faces of all completed faces to a Wavefront
    OBJ file; coordinates round-trip exactly through repr-style formatting.
    The vertices are written in lattice order and the faces in known_faces
    order, each block in one format operation."""
    if not state.cube_complete(box_points(state.shape)).any():
        raise DomainError("state has no completed cube to export")
    order = np.lexsort(state.keys().T[::-1])
    index = np.empty_like(order)
    index[order] = np.arange(1, len(order) + 1)
    faces = index[state.rows(state.known_faces())]
    with open(path, "w") as fh:
        fh.write("# qlattice mesh export\n")
        fh.write("v %.17g %.17g %.17g\n" * len(order)
                 % tuple(state.positions()[order].ravel().tolist()))
        fh.write("f %d %d %d %d\n" * len(faces) % tuple(faces.ravel().tolist()))


def import_obj(path: str):
    """Read back vertices and quad faces, the lines of each kind parsed at
    once: (vertices (V, 3), faces (F, 4) of zero-based vertex indices)."""
    with open(path) as fh:
        lines = [line.split(None, 1) for line in fh]
    verts, faces = (" ".join([q[1] for q in lines if q and q[0] == kind]) for kind in "vf")
    return (np.fromstring(verts, sep=" ").reshape(-1, 3),
            np.fromstring(faces, dtype=np.intp, sep=" ").reshape(-1, 4) - 1)


def expected_face_count(shape) -> int:
    """Lattice combinatorics oracle: a fully evolved n1 x n2 x n3 box has
    faces of three orientations, n_i n_j (n_k + 1) each."""
    n1, n2, n3 = shape
    return n1 * n2 * (n3 + 1) + n1 * n3 * (n2 + 1) + n2 * n3 * (n1 + 1)
