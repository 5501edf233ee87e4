"""Shunt generating sets and bounds on the minimal number of generators.

One shunt per consistent-cycle orbit, taken from representatives whose
pairwise overlaps realize the orbit-level maxima, generates the whole group
together with the stabilizer of any walk; with a trivial-stabilizer cycle
available the shunts alone suffice, bounding the minimal generating size by
the valence.

The census representatives are such representatives.  For a
vertex-transitive G the members of one cycle orbit rooted at 0 form a
single G_0-orbit (Miklavič, Potočnik and Wilson, 2007), so the orbit's
least member is the least image of each member, found greedily: the least
image of the first t+1 vertices, continued inside their stabilizer.
Members of two orbits that share a prefix p therefore both begin with the
least image of p, and the representatives' overlaps are the orbit maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .errors import NotConnected, NotConsistent, NotVertexTransitive, invariant
from .graphs import Graph
from .perms import Perm, PermutationGroup, generated_order
from .walks import Walk, consistent_cycle_orbits, shunts

EXACT_DELTA_ORDER_LIMIT = 200


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


def _overlap_matrix(reps: Sequence[Walk]) -> OverlapMatrix:
    """The representatives with their pairwise overlaps, which are the
    orbit overlaps when they are the census representatives."""
    overlaps = tuple(tuple(overlap(a, b) for b in reps) for a in reps)
    return OverlapMatrix(representatives=tuple(reps), walk_overlaps=overlaps,
                         orbit_overlaps=overlaps)


def overlap_maximal_representatives(group: PermutationGroup, graph: Graph
                                    ) -> tuple[list[Walk], OverlapMatrix]:
    """One cycle per orbit with pairwise overlaps equal to the orbit maxima.

    These are the census representatives, in census order.  Overlap is
    invariant under the group and -1 between walks with different roots,
    so the orbit maxima are reached by members rooted at 0.  Those of one
    orbit form a G_0-orbit whose least member, the representative, is the
    least image of each of them; a least image begins with the least
    image of each prefix, so members of two orbits sharing a prefix p and
    the two representatives all begin with the least image of p.  The
    representatives are also the lexicographically first tuple that
    realizes the orbit overlaps.
    """
    table = consistent_cycle_orbits(group, graph)
    if not table.vertex_transitive:
        raise NotVertexTransitive("representative selection needs a vertex-transitive group")
    reps = [r.representative for r in table.records]
    return reps, _overlap_matrix(reps)


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
    (trivial first, then lexicographic); the shunts with its stabilizer
    must generate the whole group, and the shunts alone must generate
    whenever that stabilizer is trivial.  No join is closed: the order of
    H = <shunts>, and of <shunts, G_(w)>, is |0^H| * |H_0|, with H_0 closed
    from its Schreier generators inside G_0 (:func:`perms.generated_order`).
    """
    if not graph.connected:
        raise NotConnected("generation needs a connected graph")
    table = consistent_cycle_orbits(group, graph)
    if not table.vertex_transitive:
        raise NotVertexTransitive("generation needs a vertex-transitive group")
    reps = [r.representative for r in table.records]
    shunt_set = shunt_generating_set(group, graph, reps)
    shunt_group_order = generated_order(group.degree, shunt_set)
    generates = shunt_group_order == group.order
    chosen = min(table.records, key=lambda r: (r.stabilizer_order, r.representative))
    chosen_stab = group.pointwise_stabilizer(chosen.representative[:-1])
    # <shunts, G_(w)> contains <shunts>, so it is G whenever the shunts generate
    with_stab_generates = generates or generated_order(
        group.degree, shunt_set + list(chosen_stab.generators)) == group.order
    invariant(with_stab_generates,
              "shunts plus the walk stabilizer failed to generate the group")
    if chosen_stab.order == 1:
        invariant(generates, "a trivial-stabilizer cycle forces the shunts to generate")
    chosen_walk_min_generators = chosen_stab.min_generating_size()
    invariant(chosen_walk_min_generators is not None,
              "no generating set of the walk stabilizer within the search cap")
    min_generators_exact = (group.min_generating_size()
                   if group.order <= EXACT_DELTA_ORDER_LIMIT else None)
    return GenerationReport(
        shunts=tuple(shunt_set), shunt_group_order=shunt_group_order,
        group_order=group.order, valence=graph.valence(),
        chosen_walk=chosen.representative,
        chosen_walk_stabilizer_order=chosen_stab.order, generates=generates,
        with_stabilizer_generates=with_stab_generates,
        min_generators_bound=graph.valence() + chosen_walk_min_generators,
        min_generators_exact=min_generators_exact,
        overlap_matrix=_overlap_matrix(reps))
