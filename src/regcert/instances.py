"""Curated analytic instances with known ground truth.

Each entry carries the mapping, a graph point, an optional direction cone,
and hand-derived reference values with a provenance note; the test suite
re-derives every known value through the grid oracle, so a mismatch here
fails the build rather than shipping a stale number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownInstance
from .geometry import DirectionalCone, Polyhedron, Singleton
from .multimap import AffineMap, MultiMap, PolynomialMap


@dataclass(frozen=True)
class KnownTruth:
    """Reference values for an instance; notes state where they come from."""

    modulus: float | None = None
    robinson: bool | None = None
    notes: str = ""


@dataclass(frozen=True)
class NamedInstance:
    """A mapping plus graph point, direction, and documented ground truth."""

    name: str
    F: MultiMap
    x0: np.ndarray
    y0: np.ndarray
    dc: DirectionalCone | None = None
    known: KnownTruth | None = None
    family: Callable[[float], MultiMap] | None = None
    p_grid: tuple | None = None


def _identity2() -> NamedInstance:
    F = MultiMap(AffineMap(np.eye(2), np.zeros(2)), Singleton(np.zeros(2)))
    return NamedInstance(
        "identity2", F, np.zeros(2), np.zeros(2),
        known=KnownTruth(
            modulus=1.0, robinson=True,
            notes="Hand derivation: f is the identity and K = {0}, so "
                  "preimage and image distances coincide and every ratio "
                  "is 1; the interiority LP holds toward any direction."))


def _diag_2_05() -> NamedInstance:
    F = MultiMap(AffineMap(np.diag([2.0, 0.5]), np.zeros(2)),
                 Singleton(np.zeros(2)))
    return NamedInstance(
        "diag_2_05", F, np.zeros(2), np.zeros(2),
        known=KnownTruth(
            modulus=2.0, robinson=True,
            notes="Hand derivation: modulus = 1 / (smallest singular "
                  "value) = 1/0.5; confirmed by the grid oracle."))


def _halfplane_directional() -> NamedInstance:
    A = np.array([[1.0], [0.0]])
    K = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                   np.zeros(3))
    F = MultiMap(AffineMap(A, np.zeros(2)), K)
    return NamedInstance(
        "halfplane_directional", F, np.zeros(1), np.zeros(2),
        dc=DirectionalCone(np.array([0.0, 1.0]), 0.2),
        known=KnownTruth(
            modulus=1.0, robinson=True,
            notes="Hand derivation: F(x) = {x} x [0, inf), so for y2 >= 0 "
                  "the preimage is {y1} and the ratio |x-y1| / "
                  "sqrt((x-y1)^2 + max(-y2,0)^2) is at most 1, approached "
                  "from inside the cone toward (0,1); for y2 < 0 preimages "
                  "are empty, so plain metric regularity fails.  The "
                  "interiority LP holds toward (0,1) and fails toward "
                  "(0,-1)."))


def _hoffman_2d() -> NamedInstance:
    F = MultiMap(AffineMap(np.eye(2), np.zeros(2)),
                 Polyhedron(np.eye(2), np.zeros(2)))
    return NamedInstance(
        "hoffman_2d", F, np.zeros(2), np.zeros(2),
        known=KnownTruth(
            modulus=1.0, robinson=True,
            notes="Hand derivation: with K the nonpositive orthant both "
                  "distances equal the positive-part norm of x - y, so "
                  "every ratio is 1.  Error-bound testbed: the residual "
                  "field is x -> norm of the positive part."))


def _parabola_eb() -> NamedInstance:
    F = MultiMap(PolynomialMap(1, [[(1.0, (2,))]]), Singleton(np.zeros(1)))
    return NamedInstance(
        "parabola_eb", F, np.zeros(1), np.zeros(1),
        known=KnownTruth(
            modulus=np.inf, robinson=False,
            notes="Hand derivation: f(x) = x^2 at 0 has empty preimages "
                  "for y < 0 and ratios growing like 1/sqrt(y) for y > 0, "
                  "so the modulus is infinite and the interiority LP "
                  "fails (the derivative vanishes).  The sublevel error "
                  "bound at 0 still holds with vanishing slope."))


def scale_family(base: MultiMap) -> Callable[[float], MultiMap]:
    """p -> p f - K for the affine map f of base."""
    def make(p: float) -> MultiMap:
        return MultiMap(AffineMap(float(p) * base.f.A, float(p) * base.f.b),
                        base.K)

    return make


def _param_scale() -> NamedInstance:
    F = MultiMap(AffineMap(np.eye(2), np.zeros(2)), Singleton(np.zeros(2)))
    return NamedInstance(
        "param_scale", F, np.zeros(2), np.zeros(2),
        known=KnownTruth(
            modulus=1.0, robinson=True,
            notes="Family p * x on the grid (1, 1.5, 2); per-p modulus is "
                  "1/p, so the uniform modulus over the sweep is 1, "
                  "attained at p = 1.  Hand derivation."),
        family=scale_family(F), p_grid=(1.0, 1.5, 2.0))


_REGISTRY: dict[str, Callable[[], NamedInstance]] = {
    "identity2": _identity2,
    "diag_2_05": _diag_2_05,
    "halfplane_directional": _halfplane_directional,
    "hoffman_2d": _hoffman_2d,
    "parabola_eb": _parabola_eb,
    "param_scale": _param_scale,
}


def registry_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def builtin(name: str) -> NamedInstance:
    """Fresh copy of a registry instance, by name."""
    try:
        make = _REGISTRY[name]
    except KeyError:
        raise UnknownInstance(
            f"unknown instance {name!r}; available: "
            f"{', '.join(registry_names())}") from None
    return make()
