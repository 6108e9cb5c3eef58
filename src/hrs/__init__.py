"""Matching toolkit for hospital-residents instances with sized agents:
round-based solver, stability verifiers, exhaustive oracle, hardness-gadget
reductions, and a seeded experiment harness."""

from .model import (
    UNMATCHED,
    FormatError,
    HrsError,
    HrsInstance,
    InstanceError,
    Matching,
    ValidationReport,
    check_instance_data,
    induced_subinstance,
    is_feasible,
    matching_from_json,
    matching_size,
    matching_to_json,
    occupancies,
    occupancy,
    parse_instance,
    serialize_instance,
)
from .verify import (
    BlockingWitness,
    find_blocking_pairs,
    find_blocking_pairs_residual,
    find_occupancy_blocking_pairs,
    is_a_perfect,
    is_occupancy_stable,
    is_stable,
)
from .partition import (
    OrderedPartition,
    detect_generalized_master_list,
    master_list_partition,
    parse_partition,
    serialize_partition,
    size_descending_partition,
    validate_ordered_partition,
)
from .solver import SolveTrace, check_trace, solve, solve_matching, solve_occupancy, uniform_gs
from .oracle import (
    BudgetExhausted,
    OracleResult,
    SearchBudget,
    enumerate_feasible,
    exists_a_perfect_occupancy_stable,
    max_occupancy_stable,
    occupancy_stable_matchings,
    smti_complete_stable,
    stable_matchings,
)
from .reduce import (
    GadgetIndex,
    ReductionError,
    SmtiInstance,
    SmtiMatching,
    is_complete,
    is_weakly_stable,
    lift_occ,
    lift_stable,
    parse_smti,
    project_occ,
    project_stable,
    reduce_occ,
    reduce_stable,
    serialize_smti,
    smti_blocking_pairs,
    validate_csmti,
)
from .harness import (
    GenParams,
    RatioReport,
    SuiteReport,
    gen_csmti,
    gen_master_list,
    gen_random,
    run_property_suite,
    run_ratio_experiment,
    shrink_instance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
