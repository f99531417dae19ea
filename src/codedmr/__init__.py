"""Planner, exact analytic evaluator, and bit-exact simulator for
heterogeneous coded MapReduce shuffles."""

from .allocation import (
    AllocationPlan,
    MaterializedInstance,
    build_plan,
    file_count_estimate,
    first_step,
    materialize,
    minimal_file_count,
    subbatch_fractions,
    surplus_ratios,
)
from .analytics import (
    AchievableLoad,
    LoadReport,
    achievable_load,
    build_load_report,
    gap_to_homogeneous,
    homogeneous_even_load,
    homogeneous_optimal,
    load_computation_aware,
    load_shuffle_aware,
    lower_bound,
    s_ordering,
)
from .assignment import (
    computation_aware,
    even_assignment,
    minimal_function_count,
    shuffle_aware,
)
from .model import (
    AssignmentSumError,
    ComputationProfile,
    DecodeFailureError,
    DomainError,
    FunctionAssignment,
    IndivisibleInstanceError,
    InstanceTooLargeError,
    InsufficientTotalLoadError,
    InternalConsistencyError,
    LoadOutOfRangeError,
    NegativeFractionError,
    OutOfDomainError,
    RequiresRedundancyError,
    TooManyNodesError,
    format_decimal,
    format_rational,
    parse_rational,
    validate_assignment,
    validate_profile,
)
from .simulator import (
    ShuffleMessage,
    SimulationReport,
    build_shuffle,
    iv_value,
    run_map,
    run_reduce,
    simulate,
)

__version__ = "0.1.0"
