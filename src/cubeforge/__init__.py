"""Dyadic-style cube systems on finite quasi-metric spaces.

The pieces, bottom up: the paper's constants and headroom guards
(constants), validated distance tables (space), greedy net hierarchies
(nets), nested cube partitions (cubes), greedy labels and selection rules
(labeling), shifted families answering ball queries (adjacent), seeded
random systems with the Monte Carlo estimators (random_systems), and the
maximal-function / weight-constant machinery (analysis). pipeline and cli
wrap the lot behind a JSON config.
"""

from cubeforge.adjacent import (AdjacentFamily, CubeQuery,
                                build_adjacent_family, find_containing_cube,
                                find_containing_cubes, index_to_pair,
                                pair_to_index, verify_covering)
from cubeforge.analysis import (Measure, ap_constant, bmo_norm,
                                doubling_constant, lp_norm, maximal_function,
                                verify_comparability, verify_weighted_bounds)
from cubeforge.constants import (SystemConstants, aux_cover_const,
                                 aux_sep_const)
from cubeforge.cubes import (Cube, CubeSystem, ParentMaps, build_cube_system,
                             build_partial_order, verify_cube_axioms)
from cubeforge.errors import (BadSpec, BuildError, ConfigError,
                              CubeforgeError, DegenerateWindow, ModeViolation,
                              NegativeDistance, NoNearChild, NoParent,
                              NotAChild, OrderError, PreconditionFail,
                              SelectionError, SpaceError, SymmetryViolation,
                              TightAmbiguity, ZeroDistance)
from cubeforge.labeling import (LabeledHierarchy, SelectionOutcome,
                                build_labels, select_points,
                                verify_new_point_axioms)
from cubeforge.nets import (NetHierarchy, build_reference_hierarchy,
                            check_mode, level_window, verify_net_axioms)
from cubeforge.pipeline import (PipelineConfig, RunReport, emit_report,
                                run_pipeline)
from cubeforge.random_systems import (BoundaryEstimate, OmegaSampler,
                                      SelectionEstimate,
                                      check_chain_separation,
                                      estimate_boundary_probability,
                                      estimate_boundary_sweep,
                                      estimate_selection_probability,
                                      realize_system, sample_outcome,
                                      scan_chain_separation, wilson_upper)
from cubeforge.report import Check, VerificationReport
from cubeforge.space import (QuasiMetricSpace, SpaceProfile, ball,
                             generate_space, validate_quasi_metric)

__version__ = "0.1.0"

__all__ = [
    "AdjacentFamily", "BadSpec", "BoundaryEstimate", "BuildError", "Check",
    "ConfigError", "Cube", "CubeQuery", "CubeSystem",
    "CubeforgeError",
    "DegenerateWindow", "LabeledHierarchy", "Measure", "ModeViolation",
    "NegativeDistance", "NetHierarchy", "NoNearChild", "NoParent",
    "NotAChild", "OmegaSampler", "OrderError", "ParentMaps",
    "PipelineConfig", "PreconditionFail", "QuasiMetricSpace", "RunReport",
    "SelectionError", "SelectionEstimate", "SelectionOutcome",
    "SpaceError", "SpaceProfile", "SymmetryViolation", "SystemConstants",
    "TightAmbiguity", "VerificationReport", "ZeroDistance", "ap_constant", "aux_cover_const", "aux_sep_const",
    "ball", "bmo_norm", "build_adjacent_family",
    "build_cube_system", "build_labels", "build_partial_order",
    "build_reference_hierarchy", "check_chain_separation", "check_mode",
    "doubling_constant", "emit_report",
    "estimate_boundary_probability", "estimate_boundary_sweep",
    "estimate_selection_probability",
    "find_containing_cube", "find_containing_cubes", "generate_space", "index_to_pair", "level_window",
    "lp_norm", "maximal_function", "pair_to_index", "realize_system",
    "run_pipeline", "sample_outcome",
    "scan_chain_separation", "select_points",
    "validate_quasi_metric", "verify_comparability", "verify_covering",
    "verify_cube_axioms", "verify_net_axioms", "verify_new_point_axioms",
    "verify_weighted_bounds", "wilson_upper",
]
