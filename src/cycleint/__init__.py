"""Operators, counting machinery, and exhaustive small-degree verification
for t-cycle-intersecting families of permutations."""

from .extremal import (ExtremalComparison, QuadCheck, compare_extremal,
                       f1_closed_form, f_family, f_family_size,
                       quad_inequality_check, quad_value, stabilizer_family)
from .gensets import (GeneratingSetCertificate, SetSystem, SurgeryReport,
                      TopPartition, certify_generating_set,
                      check_pair_overlap_t_plus_one, derive_star_generating_set,
                      disjoint_union_check, fix_prefix_count, fix_prefix_family,
                      fix_system, generating_set_surgery,
                      is_disjoint_union, is_generating_set, is_left_compressed,
                      is_t_intersecting_system, left_shift_minimals,
                      left_shift_set, left_shift_system, max_element,
                      minimal_elements, partition_by_max_element,
                      reduced_fix_prefix_family, system_max_element,
                      up_permutations_system)
from .intersect import (IntersectionGraph, PermFamily, build_intersection_graph,
                        is_family_t_cycle_intersecting, is_maximal,
                        is_stabilizer_of_points, is_t_cycle_intersecting_pair,
                        maximalize, pointwise_agreements, stabilized_points)
from .perm import (Permutation, all_permutations, compose, conjugate,
                   from_cycles, identity, parse_cycles, rank, unrank)
from .report import (FAIL, HYPOTHESIS_NOT_MET, PASS, CheckRecord, CheckResult,
                     VerificationReport)
from .search import (CliqueSearchResult, conjugacy_representatives,
                     max_family_search, naive_max_family_size,
                     pipeline_roundtrip, run_suite_all,
                     verify_counterexample_regime, verify_max_bound,
                     verify_surgery_instances)
from .transform import (ClosureTrace, compress_closure, compress_family,
                        compress_perm, fix_closure, ij_fix_family, ij_fix_perm,
                        is_compressed_family, is_fixed_family,
                        stabilizer_pullback_check)

__version__ = "0.1.0"
