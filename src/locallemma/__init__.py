"""Constraint solving by maximal-set resampling with oracle guarantees.

The package provides the resampling engine, concrete oracles over
variables, permutations, perfect matchings, and spanning trees,
independence-polynomial convergence criteria, a finite-space oracle
synthesizer, statistical verification of the oracle contract, and
ready-made solvers for three coloring applications.
"""

from .apps import (
    ColorMatrix,
    ColoredCompleteGraph,
    LatinBundle,
    RainbowMatchingBundle,
    RainbowTreeBundle,
    SolutionReport,
    build_latin_instance,
    build_rainbow_matching_instance,
    build_rainbow_tree_instance,
    random_color_matrix,
    random_edge_coloring,
    solve,
)
from .engine import RunLog, log_follows, maximal_set_resample
from .graphs import DependencyGraph, KeyGraph, validate_sequence
from .oracles import (
    MatchingBundle,
    OracleEventError,
    PatternEvent,
    PermutationBundle,
    TreeBundle,
    VariableBundle,
    VariableEvent,
)
from .polynomials import (
    CriterionParams,
    PolynomialTable,
    Uniform,
    build_table,
    check_cll,
    check_gll,
    in_shearer_region,
    partition_function,
    predicted_bound,
    predicted_bounds,
    sequence_mass,
    shearer_report,
    shearer_slack,
)
from .synth import (
    ExplicitBundle,
    ExplicitSpace,
    HallCertificate,
    SynthesizedOracle,
    check_lopsidependency,
    synthesize,
)
from .verify import (
    AppendixABundle,
    DistributionTestReport,
    StreakReport,
    appendix_a_bundle,
    derive_seed,
    exhaustive_r2,
    measure_consecutive_runs,
    test_r1,
    test_r2,
)

__version__ = "0.1.0"

__all__ = [
    "AppendixABundle",
    "ColorMatrix",
    "ColoredCompleteGraph",
    "CriterionParams",
    "DependencyGraph",
    "DistributionTestReport",
    "ExplicitBundle",
    "ExplicitSpace",
    "HallCertificate",
    "KeyGraph",
    "LatinBundle",
    "MatchingBundle",
    "OracleEventError",
    "PatternEvent",
    "PermutationBundle",
    "PolynomialTable",
    "RainbowMatchingBundle",
    "RainbowTreeBundle",
    "RunLog",
    "SolutionReport",
    "StreakReport",
    "SynthesizedOracle",
    "TreeBundle",
    "Uniform",
    "VariableBundle",
    "VariableEvent",
    "appendix_a_bundle",
    "build_latin_instance",
    "build_rainbow_matching_instance",
    "build_rainbow_tree_instance",
    "build_table",
    "check_cll",
    "check_gll",
    "check_lopsidependency",
    "derive_seed",
    "exhaustive_r2",
    "in_shearer_region",
    "log_follows",
    "maximal_set_resample",
    "measure_consecutive_runs",
    "partition_function",
    "predicted_bound",
    "predicted_bounds",
    "random_color_matrix",
    "random_edge_coloring",
    "sequence_mass",
    "shearer_report",
    "shearer_slack",
    "solve",
    "synthesize",
    "test_r1",
    "test_r2",
    "validate_sequence",
]
