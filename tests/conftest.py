"""Shared helpers: random problem generators and a brute-force LP oracle."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from regcert import AffineMap, MultiMap, NotInSet, Polyhedron, geometry


def vertex_lp_maximum(objective, poly: Polyhedron) -> float | None:
    """Maximum of objective . z over the polyhedron by vertex enumeration.

    Only sound for bounded feasible regions; returns None when no row
    subset yields a feasible vertex.  Independent of the simplex that
    `solve_lp` runs, and of HiGHS, the tests' second reference.
    """
    objective = np.asarray(objective, dtype=float)
    C, d = poly.C, poly.d
    n = poly.dim
    best = None
    for rows in combinations(range(C.shape[0]), n):
        sub = C[np.array(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        vertex = np.linalg.solve(sub, d[np.array(rows)])
        if np.all(C @ vertex <= d + 1e-8):
            value = float(objective @ vertex)
            if best is None or value > best:
                best = value
    return best


def bounded_random_polyhedron(rng: np.random.Generator, dim: int,
                              extra_rows: int, box: float = 5.0) -> Polyhedron:
    """Feasible bounded polyhedron: a box plus random halfspaces through
    points near the origin, so the origin region stays nonempty."""
    C = [np.eye(dim), -np.eye(dim)]
    d = [np.full(dim, box), np.full(dim, box)]
    for _ in range(extra_rows):
        normal = rng.standard_normal(dim)
        norm = np.linalg.norm(normal)
        if norm < 1e-9:
            continue
        normal /= norm
        # offset >= 0 keeps the origin feasible
        d.append(np.array([rng.uniform(0.2, 3.0)]))
        C.append(normal[None, :])
    return Polyhedron(np.vstack(C), np.concatenate(d))


def orthant_instance(rng: np.random.Generator):
    """Random affine map into a nonpositive orthant plus a probe point.

    The offset is built around a strictly feasible anchor, so the solution
    set is nonempty and within 1.5 of the probe in every coordinate; the
    probe itself has residual norm above 0.1.
    """
    dim_in = int(rng.integers(1, 4))
    dim_out = int(rng.integers(1, 4))
    A = rng.standard_normal((dim_out, dim_in))
    norms = np.linalg.norm(A, axis=1)
    A /= np.maximum(norms, 0.25)[:, None]
    anchor = rng.uniform(-1.0, 1.0, size=dim_in)
    margin = rng.uniform(0.1, 0.5, size=dim_out)
    b = -(A @ anchor) - margin
    F = MultiMap(AffineMap(A, b), Polyhedron(np.eye(dim_out),
                                             np.zeros(dim_out)))
    for _ in range(500):
        xbar = anchor + rng.uniform(-1.5, 1.5, size=dim_in)
        residual = np.maximum(A @ xbar + b, 0.0)
        if np.linalg.norm(residual) > 0.1:
            return F, xbar
    raise RuntimeError("could not place a probe with positive residual")


def reference_normal_cone_generators(poly: Polyhedron, k) -> np.ndarray:
    """Rows of poly.C active at k, one point at a time: the rule that
    geometry.normal_cone_masks batched, kept verbatim as its reference."""
    k = geometry.as_vector(k, poly.dim, "point")
    if poly.n_rows == 0:
        return np.zeros((0, poly.dim))
    slack = poly.C @ k - poly.d
    norms = np.linalg.norm(poly.C, axis=1)
    if np.any(slack / norms > geometry.TOL_ACTIVE):
        raise NotInSet("point violates the constraint system")
    active = slack >= -geometry.TOL_ACTIVE * norms
    return poly.C[active].copy()


def reference_cone_projection(G: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nearest point of cone{rows of G} to y by one NNLS.  This is the cone
    projection that geometry.project_onto_generated_cones replaced, kept
    verbatim as its reference."""
    y = np.asarray(y, dtype=float)
    if G.shape[0] == 0:
        return np.zeros_like(y)
    coef, _ = geometry._nnls(G.T, y)
    return G.T @ coef


def random_cone_rows(rng: np.random.Generator, dim: int,
                     axis_aligned: bool) -> np.ndarray:
    """Nonzero rows in R^dim: at most one multiple of each signed unit
    vector, or 1 to 2 dim gaussian rows."""
    if not axis_aligned:
        return rng.standard_normal((int(rng.integers(1, 2 * dim + 1)), dim))
    rows = [sign * rng.choice([0.5, 1.0, 2.0, 3.0]) * np.eye(dim)[axis]
            for axis in range(dim) for sign in (1.0, -1.0)
            if rng.random() < 0.6]
    return np.array(rows or [np.eye(dim)[0]])
