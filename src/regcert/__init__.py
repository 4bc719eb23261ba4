"""Numerical estimation and certification of metric regularity.

The package studies set-valued mappings F(x) = f(x) - K built from a smooth
map and a closed convex set.  It estimates the (directional) regularity
modulus by sampling distance ratios, certifies candidate moduli through
slope, coderivative, and interiority criteria, bounds the effect of
Lipschitz perturbations, and cross-checks everything against a brute-force
grid oracle.  The `regcert` command line exposes the same analyses on
problem files and curated instances.
"""

from .errors import (DimensionMismatch, EmptySet, GridTooCoarse,
                     GridTooLarge, InSet, InvalidParameter,
                     InvalidPerturbation, NoAdmissibleSamples, NotInSet,
                     NotPolyhedral, ProblemFileError, RegcertError,
                     SimplexIterationLimit, UnknownInstance)
from .geometry import (Ball, ConvexSet, DirectionalCone, Polyhedron,
                       ProductSet, Singleton, normal_cone_generators,
                       project_onto_generated_cone, solve_lp)
from .instances import KnownTruth, NamedInstance, builtin, registry_names
from .multimap import (AffineMap, MultiMap, PolynomialMap, SearchRegion,
                       SmoothMap, default_region, envelope_batch,
                       image_distance, image_distance_batch,
                       membership_values, preimage_distance,
                       preimage_distance_batch)
from .oracle import (Grid, clamp_distance_batch, grid_global_slope,
                     grid_modulus, grid_preimage_distance)
from .problems import (Problem, canonical_json, instance_problem,
                       load_problem, parse_problem, problem_to_dict)
from .regularity import (CoderivativeEstimate, DualPair, InteriorityResult,
                         ModulusEstimate, RegularityQuery,
                         SlopeCriterionResult, SweepResult,
                         coderivative_criterion,
                         empirical_directional_modulus, modulus_from_slopes,
                         parametric_sweep, perturbation_bound,
                         robinson_condition, sample_dual_pairs,
                         slope_criterion)
from .slopes import (ErrorBoundCertificate, ScalarField, SlopeEstimate,
                     error_bound_certificate, global_slope, local_slope)

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "Ball", "CoderivativeEstimate", "ConvexSet",
    "DimensionMismatch", "DirectionalCone", "DualPair", "EmptySet",
    "ErrorBoundCertificate", "Grid", "GridTooCoarse", "GridTooLarge",
    "InSet", "InteriorityResult", "InvalidParameter", "InvalidPerturbation",
    "KnownTruth", "ModulusEstimate", "MultiMap", "NamedInstance",
    "NoAdmissibleSamples", "NotInSet", "NotPolyhedral",
    "Polyhedron", "PolynomialMap", "Problem", "ProblemFileError",
    "ProductSet", "RegcertError", "RegularityQuery",
    "ScalarField", "SearchRegion", "SimplexIterationLimit", "Singleton",
    "SlopeCriterionResult", "SlopeEstimate", "SmoothMap", "SweepResult",
    "UnknownInstance", "builtin", "canonical_json", "clamp_distance_batch",
    "coderivative_criterion", "default_region",
    "empirical_directional_modulus", "envelope_batch",
    "error_bound_certificate", "global_slope", "grid_global_slope",
    "grid_modulus", "grid_preimage_distance", "image_distance",
    "image_distance_batch", "instance_problem", "load_problem",
    "local_slope", "membership_values", "modulus_from_slopes",
    "normal_cone_generators", "parametric_sweep", "parse_problem",
    "perturbation_bound", "preimage_distance", "preimage_distance_batch",
    "problem_to_dict", "project_onto_generated_cone", "registry_names",
    "robinson_condition", "sample_dual_pairs", "slope_criterion",
    "solve_lp",
]
