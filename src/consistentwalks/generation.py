"""Shunt generating sets and bounds on the minimal number of generators.

One shunt per consistent-cycle orbit, taken from representatives whose
pairwise overlaps realize the orbit-level maxima, generates the whole group
together with the stabilizer of any walk; with a trivial-stabilizer cycle
available the shunts alone suffice, bounding the minimal generating size by
the valence.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .errors import (
    NotConnected,
    NotConsistent,
    NotVertexTransitive,
    SelectionFailed,
    invariant,
)
from .graphs import Graph, is_vertex_transitive
from .perms import Perm, PermutationGroup, close_group
from .walks import Walk, consistent_cycle_orbits, shunts

EXACT_DELTA_ORDER_LIMIT = 200
SELECTION_STEP_CAP = 500_000


def overlap(a: Sequence[int], b: Sequence[int]) -> int:
    """Largest index through which the walks agree; -1 if the roots differ."""
    if not a or not b or a[0] != b[0]:
        return -1
    t = 0
    for x, y in zip(a[1:], b[1:]):
        if x != y:
            break
        t += 1
    return t


def orbit_overlap(group: PermutationGroup, rep_a: Sequence[int],
                  rep_b: Sequence[int]) -> int:
    """Max overlap between the two orbits.

    Overlap is invariant under moving both walks by the same element, so
    fixing one representative and sweeping the other's orbit suffices.
    """
    a = tuple(rep_a)
    best = -1
    for g in group.transporter(rep_b[:1], a[:1]):
        t = 0
        for v, x in zip(rep_b[1:], a[1:]):
            if g[v] != x:
                break
            t += 1
        best = max(best, t)
        if best == len(a) - 1:
            break
    return best


@dataclass(frozen=True)
class OverlapMatrix:
    representatives: tuple[Walk, ...]
    walk_overlaps: tuple[tuple[int, ...], ...]
    orbit_overlaps: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {"representatives": [list(r) for r in self.representatives],
                "walk_overlaps": [list(row) for row in self.walk_overlaps],
                "orbit_overlaps": [list(row) for row in self.orbit_overlaps]}


def _prefix_tree(rooted: Sequence[Sequence[Walk]]) -> dict[Walk, set[int]]:
    """Map each prefix of each rooted cycle to the orbits passing through it."""
    tree: dict[Walk, set[int]] = {}
    for i, cycles in enumerate(rooted):
        for cycle in cycles:
            for k in range(1, len(cycle) + 1):
                tree.setdefault(cycle[:k], set()).add(i)
    return tree


def _select_representatives(rooted: Sequence[Sequence[Walk]],
                            matrix: list[list[int]]) -> list[Walk]:
    """Lexicographically first tuple of rooted cycles realizing the matrix.

    Depth-first over the orbits in order; a cycle is placed when its
    overlap with every placed representative equals the matrix entry.
    """
    d = len(rooted)
    chosen: list[Walk] = []
    steps = 0

    def place(i: int) -> bool:
        nonlocal steps
        if i == d:
            return True
        for cycle in rooted[i]:
            steps += 1
            if steps > SELECTION_STEP_CAP:
                raise SelectionFailed("representative search exceeded its cap")
            if all(overlap(cycle, chosen[j]) == matrix[i][j] for j in range(i)):
                chosen.append(cycle)
                if place(i + 1):
                    return True
                chosen.pop()
        return False

    if not place(0):
        raise SelectionFailed(
            "no representative tuple realizes the orbit overlaps; "
            "this contradicts the guaranteed existence and indicates a defect")
    return chosen


def overlap_maximal_representatives(group: PermutationGroup, graph: Graph
                                    ) -> tuple[list[Walk], OverlapMatrix]:
    """One cycle per orbit with pairwise overlaps equal to the orbit maxima.

    The census lists each orbit's members rooted at vertex 0.  Overlap
    is invariant under the group and is -1 between walks with different
    roots, so the orbit-overlap matrix is read off the prefixes these
    rooted cycles share, in a prefix tree.  The lexicographically first
    tuple realizing it is found by depth-first search.
    """
    if not is_vertex_transitive(group, graph):
        raise NotVertexTransitive("representative selection needs a vertex-transitive group")
    rooted = consistent_cycle_orbits(group, graph).rooted_members
    d = len(rooted)
    tree = _prefix_tree(rooted)
    matrix = [[0] * d for _ in range(d)]
    for i in range(d):
        matrix[i][i] = len(rooted[i][0]) - 1
    for q, orbs in tree.items():
        if len(orbs) < 2:
            continue
        depth = len(q) - 1
        pairs = sorted(orbs)
        for ai, i in enumerate(pairs):
            for j in pairs[ai + 1:]:
                if depth > matrix[i][j]:
                    matrix[i][j] = matrix[j][i] = depth
    reps = _select_representatives(rooted, matrix)
    walk_overlaps = [[overlap(reps[i], reps[j]) for j in range(d)] for i in range(d)]
    invariant(walk_overlaps == matrix, "representatives miss their orbit overlaps")
    return reps, OverlapMatrix(
        representatives=tuple(reps),
        walk_overlaps=tuple(tuple(row) for row in walk_overlaps),
        orbit_overlaps=tuple(tuple(row) for row in matrix))


def shunt_generating_set(group: PermutationGroup, graph: Graph,
                         representatives: Sequence[Walk]) -> list[Perm]:
    """One shunt per representative, lexicographically smallest by images."""
    out = []
    for rep in representatives:
        found = shunts(group, graph, rep)
        if not found:
            raise NotConsistent(f"representative {rep} has no shunt")
        out.append(found[0])
    return out


@dataclass(frozen=True)
class GenerationReport:
    shunts: tuple[Perm, ...]
    shunt_group_order: int
    group_order: int
    valence: int
    chosen_walk: Walk
    chosen_walk_stabilizer_order: int
    generates: bool
    with_stabilizer_generates: bool
    min_generators_bound: int
    min_generators_exact: int | None
    overlap_matrix: OverlapMatrix

    def to_json(self) -> dict:
        return {
            "shunts": [list(s) for s in self.shunts],
            "shunt_group_order": self.shunt_group_order,
            "group_order": self.group_order,
            "valence": self.valence,
            "chosen_walk": list(self.chosen_walk),
            "chosen_walk_stabilizer_order": self.chosen_walk_stabilizer_order,
            "generates": self.generates,
            "with_stabilizer_generates": self.with_stabilizer_generates,
            "min_generators_bound": self.min_generators_bound,
            "min_generators_exact": self.min_generators_exact,
            "overlap_matrix": self.overlap_matrix.to_json(),
        }


def verify_generation(group: PermutationGroup, graph: Graph) -> GenerationReport:
    """Build the shunt set, verify it generates, report generator bounds.

    The chosen walk is the representative with the smallest stabilizer
    (trivial first, then lexicographic); the closure of the shunts with its
    stabilizer must be the whole group, and the shunts alone must generate
    whenever that stabilizer is trivial.
    """
    if not graph.connected:
        raise NotConnected("generation needs a connected graph")
    if not is_vertex_transitive(group, graph):
        raise NotVertexTransitive("generation needs a vertex-transitive group")
    reps, matrix = overlap_maximal_representatives(group, graph)
    shunt_set = shunt_generating_set(group, graph, reps)
    shunt_group = close_group(shunt_set, degree=group.degree)
    generates = shunt_group.order == group.order
    stabs = [group.pointwise_stabilizer(rep[:-1]) for rep in reps]
    chosen_index = min(range(len(reps)), key=lambda i: (stabs[i].order, reps[i]))
    chosen, chosen_stab = reps[chosen_index], stabs[chosen_index]
    with_stab = close_group(
        list(shunt_set) + list(chosen_stab.small_generating_set()), degree=group.degree)
    invariant(with_stab.order == group.order,
              "shunts plus the walk stabilizer failed to generate the group")
    if chosen_stab.order == 1:
        invariant(generates, "a trivial-stabilizer cycle forces the shunts to generate")
    chosen_walk_min_generators = chosen_stab.min_generating_size()
    invariant(chosen_walk_min_generators is not None,
              "no generating set of the walk stabilizer within the search cap")
    min_generators_exact = (group.min_generating_size()
                   if group.order <= EXACT_DELTA_ORDER_LIMIT else None)
    return GenerationReport(
        shunts=tuple(shunt_set), shunt_group_order=shunt_group.order,
        group_order=group.order, valence=graph.valence(), chosen_walk=chosen,
        chosen_walk_stabilizer_order=chosen_stab.order, generates=generates,
        with_stabilizer_generates=with_stab.order == group.order,
        min_generators_bound=graph.valence() + chosen_walk_min_generators,
        min_generators_exact=min_generators_exact,
        overlap_matrix=matrix)
