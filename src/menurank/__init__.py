"""Exact rank distances built from menu-wise top choices, and the consensus
rankings they induce.

The package is organised in thin layers:

* :mod:`menurank.permutations` / :mod:`menurank.profiles` - rankings,
  inversion structure, electorates, and the profile file format;
* :mod:`menurank.weights` - the parameter space: menu-size weights, candidate
  measures, position-weight bijection, classification, presets;
* :mod:`menurank.distances` - the closed-form evaluator, its brute-force
  oracle, footrule relaxations, and window truncations;
* :mod:`menurank.aggregation` - exact consensus sets, the footrule/matching
  approximation, the myopic window scheme, and its depth rule;
* :mod:`menurank.ilp` - the binary-program export;
* :mod:`menurank.audit` - axiom and voting-property checkers;
* :mod:`menurank.cli` - the ``menurank`` command.
"""

from .aggregation import (
    AggregationResult,
    ConsensusSet,
    aggregate_exact,
    aggregate_footrule,
    aggregate_myopic,
    ptas_depth,
    ptas_weights,
    truncation_ratio,
)
from .audit import (
    AuditReport,
    audit_axiom,
    check_axiom,
    check_property,
    condorcet_candidates,
    minimal_path_costs,
    net_preference_matrix,
    recover_pair_weights,
    top_choice_margins,
)
from .distances import (
    distance,
    distance_naive,
    footrule,
    footrule_weighted,
    profile_cost,
    truncated_distance,
)
from .ilp import IlpModel, build_ilp, objective_offset, objective_value
from .permutations import (
    Permutation,
    adjacent_pairs,
    all_rankings,
    common_down_count,
    down_set_size,
    identity,
    inversion_set,
    is_between,
    kendall_count,
    menu_max,
    transposition,
)
from .profiles import Profile, format_profile, load_profile, parse_profile
from .weights import (
    DistanceParams,
    Measure,
    MenuWeights,
    ParamLabel,
    PositionWeights,
    approximation_factor,
    classify,
    counting_measure,
    downset_mass,
    downset_mass_table,
    is_totally_monotone,
    make_params,
    menu_to_position_weights,
    position_to_menu_weights,
    preset,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationResult",
    "AuditReport",
    "ConsensusSet",
    "DistanceParams",
    "IlpModel",
    "Measure",
    "MenuWeights",
    "ParamLabel",
    "Permutation",
    "PositionWeights",
    "Profile",
    "adjacent_pairs",
    "aggregate_exact",
    "aggregate_footrule",
    "aggregate_myopic",
    "all_rankings",
    "approximation_factor",
    "audit_axiom",
    "build_ilp",
    "check_axiom",
    "check_property",
    "classify",
    "common_down_count",
    "condorcet_candidates",
    "counting_measure",
    "distance",
    "distance_naive",
    "down_set_size",
    "downset_mass",
    "downset_mass_table",
    "footrule",
    "footrule_weighted",
    "format_profile",
    "identity",
    "inversion_set",
    "is_between",
    "is_totally_monotone",
    "kendall_count",
    "load_profile",
    "make_params",
    "menu_max",
    "menu_to_position_weights",
    "minimal_path_costs",
    "net_preference_matrix",
    "objective_offset",
    "objective_value",
    "parse_profile",
    "position_to_menu_weights",
    "preset",
    "profile_cost",
    "ptas_depth",
    "ptas_weights",
    "recover_pair_weights",
    "top_choice_margins",
    "transposition",
    "truncated_distance",
    "truncation_ratio",
]
