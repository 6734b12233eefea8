"""Executable reductions between k-SUM, k-Vector-SUM and exact-weight clique
problems, with exact solvers, sum-free set constructions and a seeded
experiment harness."""

from .instances import (
    CliqueInstance,
    KSumInstance,
    MalformedWitnessError,
    ParameterError,
    ParseError,
    ReducedCollection,
    ReducedItem,
    ResourceBudgetError,
    ValidationError,
    VectorSumInstance,
    WeightedGraph,
    instance_digest,
    parse_collection,
    parse_instance,
    serialize_collection,
    serialize_instance,
    verify_witness,
    witness_tuple,
)
from .sumfree import (
    SumFreeParams,
    SumFreeSet,
    behrend_sumfree,
    digits_of,
    greedy_sumfree_elements,
    norm_counts,
    s_r_elements,
    verify_sumfree,
)
from .reduce_sum_to_clique import (
    CarryContext,
    PipelineResult,
    base_p_digits,
    carry_targets,
    edgeweight_to_unweighted,
    ksum_to_vectorsum,
    lift_pipeline_witness,
    merge_clique_instances,
    nodeweight_to_edgeweight,
    smallksum_to_kclique,
)
from .reduce_clique_to_sum import (
    clique_to_vectorsum,
    kclique_to_ksum,
    lift_ksum_witness_to_clique,
    lift_vectorsum_witness_to_clique,
    vectorsum_to_ksum,
)
from .modprime import (
    is_prime,
    ksum_mod_reduce,
    prime_range_bound,
    random_prime_in,
)
from .fieldapps import (
    LinDepInstance,
    TargetSumInstance,
    ksum_to_targetsum,
    lift_lindep_witness,
    lindep_to_vectorsum,
    solve_lindep_bruteforce,
    solve_targetsum_bruteforce,
    span_contains,
    targetsum_to_ksum,
)
from .solvers import (
    SolverReport,
    detect_triangle,
    solve_kclique_bruteforce,
    solve_ksum_bruteforce,
    solve_ksum_mim,
    solve_nw_kclique,
    solve_nw_triangle,
    solve_vectorsum_bruteforce,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
