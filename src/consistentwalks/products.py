"""Blow-up constructions: cycle families and the no-trivial-stabilizer check.

The blow-up of a graph by independent m-sets replaces each vertex by a
fiber of m points, with fibers of adjacent vertices completely joined.
Each base orbit representative lifts to m cycles that sweep 1..m fibers,
shunted by fiber-cycling wreath elements; over a twin-free base with no
spanning consistent cycle these land in pairwise distinct orbits and no
consistent walk of the blow-up has a trivial stabilizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BaseNotVertexTransitive, BadParameters, invariant
from .graphs import (
    Graph,
    blowup_point,
    lex_blowup,
    twin_vertices,
    verify_automorphisms,
)
from .perms import Perm, PermutationGroup
from .walks import Walk, CycleOrbitTable, consistent_cycle_orbits, shunts


def lift_base_perm(p: Perm, m: int) -> Perm:
    """Base automorphism acting on blow-up points, fibers untouched."""
    n = len(p)
    images = [0] * (n * m)
    for v in range(n):
        for i in range(m):
            images[blowup_point(v, i, m)] = blowup_point(p[v], i, m)
    return Perm.from_images(images)


def fiber_perm(n: int, m: int, v: int, fiber_images: Perm) -> Perm:
    """Permutation of vertex v's fiber, all other points fixed."""
    images = list(range(n * m))
    for i in range(m):
        images[blowup_point(v, i, m)] = blowup_point(v, fiber_images[i], m)
    return Perm.from_images(images)


def fiber_swap(n: int, m: int, v: int, i: int, j: int) -> Perm:
    """Transposition of two points in vertex v's fiber."""
    swap = list(range(m))
    swap[i], swap[j] = j, i
    return fiber_perm(n, m, v, Perm.from_images(swap))


def wreath_group_generators(base_graph: Graph, base_group: PermutationGroup,
                            m: int) -> list[Perm]:
    """Generators of (fiber symmetries) x (lifted base group) on the blow-up.

    Fiber generators act on vertex 0's fiber only; conjugation by lifted
    base elements reaches every fiber when the base group is transitive.
    Each generator is verified to be a blow-up automorphism.
    """
    n = base_graph.vertex_count
    gens = [fiber_swap(n, m, 0, 0, 1)] if m >= 2 else []
    if m >= 3:
        gens.append(fiber_perm(n, m, 0, Perm(tuple(range(1, m)) + (0,))))
    gens.extend(lift_base_perm(p, m) for p in base_group.generators)
    verify_automorphisms(lex_blowup(base_graph, m), gens)
    return gens


@dataclass(frozen=True)
class BlowupCycleFamily:
    """The m lifted cycles per base orbit representative, with their shunts."""

    base_representatives: tuple[Walk, ...]
    m: int
    blowup: Graph
    cycles: dict[tuple[int, int], Walk]   # (orbit index, fiber count j) -> cycle
    shunts: dict[tuple[int, int], Perm]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "base_representatives": [list(r) for r in self.base_representatives],
            "cycles": [{"orbit": i, "fibers": j,
                        "cycle": list(self.cycles[i, j]),
                        "shunt": list(self.shunts[i, j])}
                       for i, j in sorted(self.cycles)],
        }


def blowup_cycle_family(graph: Graph, group: PermutationGroup,
                        m: int) -> BlowupCycleFamily:
    """Build the fiber-sweeping cycles over each base orbit representative.

    The cycle for fiber count j walks the base cycle through fibers
    0..j-1 in order; its shunt is the lifted base shunt times the rotation
    of fibers 0..j-1 at the root vertex.  Every shunt is verified to be a
    blow-up automorphism that shunts its cycle.
    """
    if m < 2:
        raise BadParameters("the family needs m >= 2")
    if not graph.connected:
        raise BadParameters("the base graph must be connected")
    if not group.is_transitive():
        raise BaseNotVertexTransitive("the base group must be vertex-transitive")
    table = consistent_cycle_orbits(group, graph)
    blowup = lex_blowup(graph, m)
    n = graph.vertex_count
    cycles: dict[tuple[int, int], Walk] = {}
    shunt_map: dict[tuple[int, int], Perm] = {}
    for i, record in enumerate(table.records):
        rep = record.representative
        support = rep[:-1]
        lifted_shunt = lift_base_perm(shunts(group, graph, rep)[0], m)
        root = rep[0]
        for j in range(1, m + 1):
            cycle = tuple(blowup_point(v, fiber, m)
                          for fiber in range(j) for v in support)
            cycle += (blowup_point(root, 0, m),)
            rotation = Perm((*range(1, j), 0, *range(j, m)))
            shunt = lifted_shunt * fiber_perm(n, m, root, rotation)
            verify_automorphisms(blowup, [shunt])
            invariant(all(shunt[a] == b for a, b in zip(cycle, cycle[1:])),
                      f"constructed element does not shunt the fiber cycle for {rep}")
            invariant(len(cycle) - 1 == j * record.length,
                      f"fiber cycle {i},{j} does not have length {j} * {record.length}")
            cycles[i, j] = cycle
            shunt_map[i, j] = shunt
    return BlowupCycleFamily(
        base_representatives=tuple(r.representative for r in table.records),
        m=m, blowup=blowup, cycles=cycles, shunts=shunt_map)


def family_orbit_ids(family: BlowupCycleFamily,
                     blowup_group: PermutationGroup,
                     table: CycleOrbitTable) -> dict[tuple[int, int], int]:
    """Index of each family cycle's orbit in the blow-up's census table.

    A record's representative is the least member of its orbit, so a cycle
    lies in the orbit whose representative is the cycle's least image under
    the group.  ``table`` is the census of ``blowup_group`` on the family's
    blow-up.
    """
    index = {r.representative: k for k, r in enumerate(table.records)}
    ids = {}
    for key, cycle in family.cycles.items():
        least = blowup_group.least_image(cycle)
        invariant(least in index, f"family cycle {cycle} lies in no census orbit")
        ids[key] = index[least]
    return ids


def verify_no_trivial_stabilizer(table: CycleOrbitTable) -> tuple[bool, Walk | None]:
    """True iff every consistent-cycle orbit has a nontrivial stabilizer.

    Every consistent walk induces a consistent cycle with a stabilizer at
    most as large, so checking orbit representatives settles all walks.
    Returns the offending cycle when the answer is False.
    """
    for record in table.records:
        if record.stabilizer_order == 1:
            return False, record.representative
    return True, None


def check_blowup_hypotheses(graph: Graph, group: PermutationGroup) -> dict:
    """Hypothesis report for the blow-up counterexample construction.

    The circulant-with-adjacent-steps exclusion is checked through its
    operative consequence: no consistent cycle spans all vertices (a
    spanning consistent cycle's shunt would generate a cyclic
    vertex-regular subgroup).
    """
    table = consistent_cycle_orbits(group, graph)
    spanning = [r.representative for r in table.records
                if r.length == graph.vertex_count]
    twins = twin_vertices(graph)
    report = {
        "connected": graph.connected,
        "vertex_transitive": group.is_transitive(),
        "twin_free": not twins,
        "twins": [list(p) for p in twins],
        "spanning_consistent_cycle": bool(spanning),
        "spanning_example": list(spanning[0]) if spanning else None,
        "max_consistent_cycle_length": max(table.lengths(), default=0),
    }
    report["satisfied"] = report["twin_free"] and not report["spanning_consistent_cycle"]
    return report
