"""Bicharacteristic and broken-ray tracing on manifolds with edges.

The package models wave propagation near an edge singularity: rays run
under the exact Hamiltonian flow of the metric symbol in the interior,
hit the edge in finite time, and continue along diffractive, geometric
or glancing branches.  Exact rational bookkeeping tracks the Sobolev
regularity carried by each branch.

The names below are what the ``edgeray`` command and the README example
use, plus the error types; everything else is imported from the module
that defines it (``edgeray.boundary``, ``edgeray.metric``, ...).
"""

from .boundary import geometric_partners, is_geometrically_related
from .errors import (ConfigError, DegenerateMetricError, DimensionError,
                     EdgeRayError, ExprSyntaxError, FlowEscapedError,
                     IllConditionedEventError, IntegrationDivergedError,
                     LaunchFailedError, NumericalError, StepLimitError)
from .gbb import trace_gbb
from .hamiltonian import linearization_at_radial
from .metric import validate_normal_form
from .orders import (annotate_path, coisotropic_eps_loss,
                     edge_threshold_check, fundamental_solution_orders,
                     lagrangian_nonfocusing_degree)
from .phase import CospherePoint
from .rays_io import serialize_dump
from .run import run_scenario
from .scenes import builtin_scene, parse_scene

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CospherePoint", "DegenerateMetricError",
    "DimensionError", "EdgeRayError", "ExprSyntaxError", "FlowEscapedError",
    "IllConditionedEventError", "IntegrationDivergedError",
    "LaunchFailedError", "NumericalError", "StepLimitError",
    "annotate_path", "builtin_scene", "coisotropic_eps_loss",
    "edge_threshold_check", "fundamental_solution_orders",
    "geometric_partners", "is_geometrically_related",
    "lagrangian_nonfocusing_degree", "linearization_at_radial",
    "parse_scene", "run_scenario", "serialize_dump", "trace_gbb",
    "validate_normal_form",
]
