"""Problem files: JSON descriptions of one query plus the analyses to run.

A problem file pins the mapping (smooth part and constraint set), the graph
point, an optional direction, the sampling region, and a list of analysis
requests.  Parsing validates shapes eagerly and reports the offending field
by path, so a malformed file is rejected before any work starts.  The
serializer is canonical (sorted keys, fixed indentation, infinities spelled
as strings), which makes reports byte-stable across runs and thread counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ProblemFileError
from .geometry import (Ball, ConvexSet, DirectionalCone, Polyhedron,
                       ProductSet, Singleton)
from .instances import NamedInstance, scale_family
from .multimap import (AffineMap, MultiMap, PolynomialMap, SearchRegion,
                       SmoothMap)

SCHEMA_VERSION = 1

# op -> (required parameters, optional parameters); no other key is accepted
ANALYSIS_OPS = {
    "modulus": ((), ("tau_target",)),
    "slope": (("tau",), ("n_points", "slope_budget", "slack")),
    "robinson": ((), ("ybar",)),
    "coderivative": ((), ("delta_ladder", "samples_per_delta", "m")),
    "perturb": (("tau", "delta", "ybar_norm", "alpha", "L"), ()),
    "sweep": ((), ("tau_target", "p_grid")),
    "error_bound": (("xbar",), ("max_slope_points", "slope_budget")),
}

FAMILY_KINDS = ("scale",)


# ---------------------------------------------------------------------------
# Field-level accessors.  Every failure names the JSON path that caused it.

def _require(data: dict, key: str, path: str):
    if not isinstance(data, dict):
        raise ProblemFileError(path or "<root>", "expected an object")
    if key not in data:
        raise ProblemFileError(f"{path}{key}", "missing required field")
    return data[key]


def _float(value, path: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(path, "expected a number")
    out = float(value)
    if not math.isfinite(out):
        raise ProblemFileError(path, "must be finite")
    if minimum is not None and out < minimum:
        raise ProblemFileError(path, f"must be >= {minimum}")
    return out


def _int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ProblemFileError(path, f"must be >= {minimum}")
    return value


def _vector(value, path: str, dim: int | None = None) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ProblemFileError(path, "expected a list of numbers") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ProblemFileError(path, "expected a nonempty flat list")
    if not np.all(np.isfinite(arr)):
        raise ProblemFileError(path, "entries must be finite")
    if dim is not None and arr.size != dim:
        raise ProblemFileError(path, f"expected length {dim}, got {arr.size}")
    return arr


def _matrix(value, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ProblemFileError(path, "expected a list of number rows") from None
    if arr.ndim != 2 or arr.size == 0:
        raise ProblemFileError(path, "expected a nonempty 2d array")
    if not np.all(np.isfinite(arr)):
        raise ProblemFileError(path, "entries must be finite")
    return arr


# ---------------------------------------------------------------------------
# Smooth maps.

def map_from_dict(data: dict, path: str = "f") -> SmoothMap:
    kind = _require(data, "kind", f"{path}.")
    if kind == "affine":
        A = _matrix(_require(data, "A", f"{path}."), f"{path}.A")
        b = _vector(_require(data, "b", f"{path}."), f"{path}.b")
        if b.size != A.shape[0]:
            raise ProblemFileError(f"{path}.b",
                                   f"length {b.size} does not match the "
                                   f"{A.shape[0]} rows of A")
        return AffineMap(A, b)
    if kind == "polynomial":
        dim_in = _int(_require(data, "dim_in", f"{path}."),
                      f"{path}.dim_in", minimum=1)
        raw = _require(data, "outputs", f"{path}.")
        if not isinstance(raw, list) or not raw:
            raise ProblemFileError(f"{path}.outputs",
                                   "expected a nonempty list of term lists")
        outputs = []
        for i, terms in enumerate(raw):
            tpath = f"{path}.outputs[{i}]"
            if not isinstance(terms, list):
                raise ProblemFileError(tpath, "expected a list of terms")
            row = []
            for j, term in enumerate(terms):
                if not (isinstance(term, list) and len(term) == 2):
                    raise ProblemFileError(f"{tpath}[{j}]",
                                           "expected [coeff, exponents]")
                coeff = _float(term[0], f"{tpath}[{j}][0]")
                exps = term[1]
                if not isinstance(exps, list):
                    raise ProblemFileError(f"{tpath}[{j}][1]",
                                           "expected an exponent list")
                row.append((coeff, tuple(
                    _int(e, f"{tpath}[{j}][1][{k}]", minimum=0)
                    for k, e in enumerate(exps))))
            outputs.append(row)
        try:
            return PolynomialMap(dim_in, outputs)
        except Exception as exc:
            raise ProblemFileError(f"{path}.outputs", str(exc)) from None
    raise ProblemFileError(f"{path}.kind", f"unknown map kind {kind!r}")


def map_to_dict(f: SmoothMap) -> dict:
    if isinstance(f, AffineMap):
        return {"kind": "affine", "A": f.A.tolist(), "b": f.b.tolist()}
    if isinstance(f, PolynomialMap):
        return {"kind": "polynomial", "dim_in": f.dim_in,
                "outputs": [[[c, list(e)] for c, e in terms]
                            for terms in f.outputs]}
    raise ProblemFileError("f", f"cannot serialize map {type(f).__name__}")


# ---------------------------------------------------------------------------
# Constraint sets.

def set_from_dict(data: dict, path: str = "K") -> ConvexSet:
    kind = _require(data, "kind", f"{path}.")
    if kind == "singleton":
        return Singleton(_vector(_require(data, "point", f"{path}."),
                                 f"{path}.point"))
    if kind == "ball":
        center = _vector(_require(data, "center", f"{path}."),
                         f"{path}.center")
        radius = _float(_require(data, "radius", f"{path}."),
                        f"{path}.radius", minimum=0.0)
        return Ball(center, radius)
    if kind == "polyhedron":
        C = _matrix(_require(data, "C", f"{path}."), f"{path}.C")
        d = _vector(_require(data, "d", f"{path}."), f"{path}.d")
        if d.size != C.shape[0]:
            raise ProblemFileError(f"{path}.d",
                                   f"length {d.size} does not match the "
                                   f"{C.shape[0]} rows of C")
        return Polyhedron(C, d)
    if kind == "product":
        raw = _require(data, "factors", f"{path}.")
        if not isinstance(raw, list) or len(raw) < 2:
            raise ProblemFileError(f"{path}.factors",
                                   "expected a list of at least two sets")
        return ProductSet([set_from_dict(fac, f"{path}.factors[{i}]")
                           for i, fac in enumerate(raw)])
    raise ProblemFileError(f"{path}.kind", f"unknown set kind {kind!r}")


def set_to_dict(K: ConvexSet) -> dict:
    if isinstance(K, Singleton):
        return {"kind": "singleton", "point": K.point.tolist()}
    if isinstance(K, Ball):
        return {"kind": "ball", "center": K.center.tolist(),
                "radius": K.radius}
    if isinstance(K, Polyhedron):
        return {"kind": "polyhedron", "C": K.C.tolist(), "d": K.d.tolist()}
    if isinstance(K, ProductSet):
        return {"kind": "product",
                "factors": [set_to_dict(fac) for fac in K.factors]}
    raise ProblemFileError("K", f"cannot serialize set {type(K).__name__}")


# ---------------------------------------------------------------------------
# Whole problems.

@dataclass
class Problem:
    """Parsed problem file: the query ingredients plus analysis requests."""

    F: MultiMap
    x0: np.ndarray
    y0: np.ndarray
    dc: DirectionalCone | None = None
    epsilon: float = 0.5
    region: SearchRegion | None = None
    analyses: tuple = ()
    name: str | None = None
    family_kind: str | None = None
    p_grid: tuple | None = None

    def family(self) -> Callable[[float], MultiMap]:
        """Parameter-to-mapping function for sweep analyses."""
        if self.family_kind != "scale":
            raise ProblemFileError("family",
                                   "problem declares no sweep family")
        if not isinstance(self.F.f, AffineMap):
            raise ProblemFileError("family.kind",
                                   "scale families need an affine map")
        return scale_family(self.F)


def parse_analysis(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise ProblemFileError(path, "expected an object")
    op = _require(data, "op", f"{path}.")
    if op not in ANALYSIS_OPS:
        raise ProblemFileError(f"{path}.op",
                               f"unknown op {op!r}; available: "
                               f"{', '.join(ANALYSIS_OPS)}")
    accepted = sum(ANALYSIS_OPS[op], ())
    out = {"op": op}
    for key, value in data.items():
        if key == "op":
            continue
        kpath = f"{path}.{key}"
        if key in ("ybar", "p_grid", "delta_ladder", "xbar"):
            out[key] = _vector(value, kpath).tolist()
        elif key in ("tau", "tau_target", "delta", "alpha", "L",
                     "ybar_norm", "m", "slack"):
            out[key] = _float(value, kpath)
        elif key in ("n_points", "slope_budget", "samples_per_delta",
                     "max_slope_points"):
            out[key] = _int(value, kpath, minimum=1)
        if key not in accepted:
            raise ProblemFileError(kpath, f"unknown parameter for op {op!r}; "
                                          f"accepted: {', '.join(accepted)}")
    return out


def parse_problem(data: dict) -> Problem:
    if not isinstance(data, dict):
        raise ProblemFileError("<root>", "expected a JSON object")
    version = _require(data, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ProblemFileError("schema_version",
                               f"unsupported version {version!r}")
    known = {"schema_version", "name", "f", "K", "x0", "y0", "direction",
             "epsilon", "region", "family", "analyses"}
    for key in data:
        if key not in known:
            raise ProblemFileError(key, "unknown field")

    f = map_from_dict(_require(data, "f", ""), "f")
    K = set_from_dict(_require(data, "K", ""), "K")
    if K.dim != f.dim_out:
        raise ProblemFileError("K", f"set dimension {K.dim} does not match "
                                    f"map output dimension {f.dim_out}")
    F = MultiMap(f, K)
    x0 = _vector(_require(data, "x0", ""), "x0", dim=f.dim_in)
    y0 = _vector(_require(data, "y0", ""), "y0", dim=f.dim_out)

    dc = None
    if data.get("direction") is not None:
        raw = data["direction"]
        ybar = _vector(_require(raw, "ybar", "direction."), "direction.ybar",
                       dim=f.dim_out)
        delta = _float(_require(raw, "delta", "direction."),
                       "direction.delta", minimum=0.0)
        dc = DirectionalCone(ybar, delta)

    epsilon = 0.5
    if data.get("epsilon") is not None:
        epsilon = _float(data["epsilon"], "epsilon")
        if epsilon <= 0:
            raise ProblemFileError("epsilon", "must be positive")

    region = None
    if data.get("region") is not None:
        raw = data["region"]
        box = _matrix(_require(raw, "box", "region."), "region.box")
        if box.shape != (f.dim_in, 2):
            raise ProblemFileError("region.box",
                                   f"expected shape ({f.dim_in}, 2), got "
                                   f"{box.shape}")
        budget = _int(_require(raw, "sample_budget", "region."),
                      "region.sample_budget", minimum=1)
        seed = _int(_require(raw, "seed", "region."), "region.seed",
                    minimum=0)
        res = _int(raw.get("grid_resolution", 9), "region.grid_resolution",
                   minimum=2)
        try:
            region = SearchRegion(box, res, budget, seed)
        except Exception as exc:
            raise ProblemFileError("region", str(exc)) from None

    family_kind = None
    p_grid = None
    if data.get("family") is not None:
        raw = data["family"]
        kind = _require(raw, "kind", "family.")
        if kind not in FAMILY_KINDS:
            raise ProblemFileError("family.kind",
                                   f"unknown family kind {kind!r}")
        if not isinstance(f, AffineMap):
            raise ProblemFileError("family.kind",
                                   "scale families need an affine map")
        family_kind = kind
        p_grid = tuple(_vector(_require(raw, "p_grid", "family."),
                               "family.p_grid").tolist())

    raw_analyses = data.get("analyses", [])
    if not isinstance(raw_analyses, list):
        raise ProblemFileError("analyses", "expected a list")
    analyses = tuple(parse_analysis(a, f"analyses[{i}]")
                     for i, a in enumerate(raw_analyses))

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ProblemFileError("name", "expected a string")

    return Problem(F, x0, y0, dc, epsilon, region, analyses, name,
                   family_kind, p_grid)


def load_problem(path: str) -> Problem:
    """Read and validate a problem file; failures carry the field path."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError("<file>", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError("<file>", f"invalid JSON: {exc}") from None
    return parse_problem(data)


def problem_to_dict(p: Problem) -> dict:
    out: dict = {
        "schema_version": SCHEMA_VERSION,
        "f": map_to_dict(p.F.f),
        "K": set_to_dict(p.F.K),
        "x0": p.x0.tolist(),
        "y0": p.y0.tolist(),
        "epsilon": p.epsilon,
    }
    if p.name is not None:
        out["name"] = p.name
    if p.dc is not None:
        out["direction"] = {"ybar": p.dc.ybar.tolist(), "delta": p.dc.delta}
    if p.region is not None:
        out["region"] = {
            "box": p.region.box.tolist(),
            "sample_budget": p.region.sample_budget,
            "seed": p.region.seed,
            "grid_resolution": p.region.grid_resolution,
        }
    if p.family_kind is not None:
        out["family"] = {"kind": p.family_kind, "p_grid": list(p.p_grid)}
    if p.analyses:
        out["analyses"] = [dict(a) for a in p.analyses]
    return out


# ---------------------------------------------------------------------------
# Registry export.

def _default_analyses(inst: NamedInstance) -> list:
    # error_bound probes start outside the solution set; x0 sits inside it.
    if inst.name == "parabola_eb":
        return [{"op": "robinson"},
                {"op": "error_bound", "xbar": [0.75]}]
    if inst.name == "param_scale":
        return [{"op": "sweep", "tau_target": 1.1}]
    out: list = [{"op": "modulus", "tau_target":
                  1.1 * (inst.known.modulus if inst.known else 1.0)}]
    out.append({"op": "robinson"})
    if inst.name == "hoffman_2d":
        out.append({"op": "error_bound", "xbar": [0.6, 0.8]})
    return out


def instance_problem(inst: NamedInstance, analyses: list | None = None,
                     sample_budget: int = 2000, seed: int = 0) -> Problem:
    """Registry instance as a problem file, with stock analyses when none
    are given."""
    epsilon = 0.5
    halfwidth = 2.5 * epsilon
    box = np.stack([inst.x0 - halfwidth, inst.x0 + halfwidth], axis=1)
    region = SearchRegion(box, 7, sample_budget, seed)
    if analyses is None:
        analyses = _default_analyses(inst)
    return Problem(inst.F, inst.x0.copy(), inst.y0.copy(), inst.dc, epsilon,
                   region, tuple(analyses), inst.name,
                   "scale" if inst.family is not None else None,
                   tuple(inst.p_grid) if inst.p_grid is not None else None)


# ---------------------------------------------------------------------------
# Canonical serialization.

def jsonable(obj):
    """Python-native copy with deterministic text for every leaf.

    Infinities become the strings "inf" / "-inf" so the emitted JSON stays
    strictly standard; NaN is rejected rather than silently encoded.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if math.isnan(val):
            raise ValueError("NaN has no canonical JSON form")
        if math.isinf(val):
            return "inf" if val > 0 else "-inf"
        return val
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Sorted-key, fixed-indent JSON text ending in a newline."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def samples_csv(samples: list, dim_in: int, dim_out: int) -> str:
    """Per-sample records as CSV text with one row per drawn pair."""
    cols = ([f"x{i}" for i in range(dim_in)]
            + [f"y{j}" for j in range(dim_out)]
            + ["image_dist", "preimage_dist", "ratio", "admissible"])
    lines = [",".join(cols)]
    for rec in samples:
        vals = [repr(float(v)) for v in rec["x"]]
        vals += [repr(float(v)) for v in rec["y"]]
        vals += [repr(float(rec["image_dist"])),
                 repr(float(rec["preimage_dist"])),
                 repr(float(rec["ratio"])),
                 "1" if rec["admissible"] else "0"]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
