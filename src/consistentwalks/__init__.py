"""Consistent walks and cycles in finite vertex-transitive graphs.

Shunts, successors, the d-orbit cycle census, vertex reachability along
successor chains, trivial-stabilizer walk searches, blow-up
counterexamples, and shunt-based generating sets.
"""

__version__ = "0.1.0"

from .errors import ConsistentWalksError
from .perms import Perm, PermutationGroup
from .graphs import (
    Graph,
    LocalAction,
    automorphism_group,
    is_arc_transitive,
    is_n_arc_transitive,
    lex_blowup,
    local_group,
    named_graph,
    twin_vertices,
)
from .walks import (
    ConsistencyWitness,
    CycleOrbitTable,
    OrbitRecord,
    Walk,
    consistent_cycle_orbits,
    induced_cycle,
    is_consistent,
    partition_cycles,
    shunts,
    successor_count,
    successors,
    validate_walk,
)
from .reachability import (
    ConditionReport,
    ReachabilityReport,
    certify_trivial_stabilizer,
    check_conditions,
    reachability_by_chase,
    reachability_by_shunt_group,
    successor_reachability_classes,
    stabilizer_fixes_successors,
)
from .localactions import (
    WpsWitness,
    find_trivial_walk_4valent,
    find_trivial_walk_exhaustive,
    find_trivial_walk_wps,
    verify_shunt_count_pattern,
    weakly_p_subregular,
)
from .products import (
    BlowupCycleFamily,
    blowup_cycle_family,
    check_blowup_hypotheses,
    family_orbit_ids,
    fiber_swap,
    verify_no_trivial_stabilizer,
    wreath_group_generators,
)
from .generation import (
    GenerationReport,
    OverlapMatrix,
    overlap,
    overlap_maximal_representatives,
    shunt_generating_set,
    verify_generation,
)

from types import ModuleType as _ModuleType

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
