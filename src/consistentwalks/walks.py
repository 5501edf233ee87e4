"""Consistent walks and cycles: shunts, successors, the orbit census.

Walks are plain vertex tuples, rooted and directed.  A walk (v_0..v_n) is
G-consistent when some g in G maps (v_0..v_{n-1}) onto (v_1..v_n)
pointwise; every such g is a shunt.  Rooted directed cycles carry their
closing vertex, e.g. the trivial cycle on an edge is (u, v, u).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .errors import InvalidWalk, NotConsistent, invariant
from .graphs import Graph, is_vertex_transitive
from .perms import Perm, PermutationGroup

Walk = tuple[int, ...]


def validate_walk(graph: Graph, walk: Sequence[int]) -> Walk:
    w = tuple(int(v) for v in walk)
    if len(w) < 2:
        raise InvalidWalk(f"walk needs at least two vertices, got {w}")
    for v in w:
        if not 0 <= v < graph.vertex_count:
            raise InvalidWalk(f"vertex {v} out of range in {w}")
    for a, b in zip(w, w[1:]):
        if not graph.has_edge(a, b):
            raise InvalidWalk(f"vertices {a},{b} not adjacent in {w}")
    return w


def apply_perm(p: Perm, walk: Sequence[int]) -> Walk:
    return tuple(p[v] for v in walk)


@dataclass(frozen=True)
class ConsistencyWitness:
    """A walk together with one shunt certifying its consistency."""

    walk: Walk
    shunt: Perm
    group: PermutationGroup

    def __post_init__(self):
        for a, b in zip(self.walk, self.walk[1:]):
            if self.shunt[a] != b:
                raise NotConsistent(f"{self.shunt} does not shunt {self.walk}")


def shunts(group: PermutationGroup, graph: Graph, walk: Sequence[int]) -> list[Perm]:
    """All g in G mapping the walk's prefix onto its suffix, sorted.

    This is the transporter of (v_0..v_{n-1}) onto (v_1..v_n): the coset
    g0 * G_{(v_1..v_n)} of the suffix stabilizer for any shunt g0, or empty
    when the walk is not consistent.
    """
    w = validate_walk(graph, walk)
    return group.transporter(w[:-1], w[1:])


def is_consistent(group: PermutationGroup, graph: Graph,
                  walk: Sequence[int]) -> ConsistencyWitness | None:
    """A witness with the lexicographically smallest shunt, or None."""
    found = shunts(group, graph, walk)
    if not found:
        return None
    return ConsistencyWitness(walk=validate_walk(graph, walk), shunt=found[0], group=group)


def successors(group: PermutationGroup, graph: Graph,
               walk: Sequence[int]) -> list[Walk]:
    """All walks (v_1..v_n, v_n^g) over shunts g, sorted.

    The shunt images of the walk.  Since the shunts are the coset
    g0 * G_{(v_1..v_n)}, these are also the orbit of one successor under
    the suffix stabilizer:
    apply_perm(g0 * h, w) == apply_perm(h, apply_perm(g0, w)).
    """
    w = validate_walk(graph, walk)
    shs = shunts(group, graph, w)
    if not shs:
        raise NotConsistent(f"walk {w} has no shunt in the group")
    return sorted({apply_perm(g, w) for g in shs})


def successor_count(group: PermutationGroup, graph: Graph,
                    walk: Sequence[int]) -> int:
    """|Succ(walk)|; for vertex-transitive groups the order identity
    |G_prefix| = |G_walk| * |Succ(walk)| is checked."""
    w = validate_walk(graph, walk)
    count = len(successors(group, graph, w))
    if is_vertex_transitive(group, graph):
        prefix_stab = group.pointwise_stabilizer(w[:-1])
        walk_stab = group.pointwise_stabilizer(w)
        invariant(prefix_stab.order == walk_stab.order * count,
                  f"|G_prefix| != |G_walk| * |Succ| for {w}")
    return count


def consistent_extensions(group: PermutationGroup, graph: Graph,
                          walk: Sequence[int]) -> list[Walk]:
    """One-vertex extensions of the walk that are still consistent, sorted.

    These are exactly the walks (v_0..v_n, w) with w an endpoint of some
    successor.
    """
    w = validate_walk(graph, walk)
    return sorted({w + (s[-1],) for s in successors(group, graph, w)})


def induced_cycle(witness: ConsistencyWitness) -> Walk:
    """The unique rooted directed cycle the walk and its shunt induce.

    A repeat inside the walk forces periodicity back to the root; otherwise
    the shunt extends the walk until the first revisited vertex, which must
    be the root.
    """
    w, g = witness.walk, witness.shunt
    seen = {w[0]: 0}
    for k, v in enumerate(w[1:], start=1):
        if v in seen:
            invariant(v == w[0], f"first repeat {v} is not the root of {w}")
            invariant(all(w[x] == w[x % k] for x in range(len(w))),
                      f"{w} is not periodic after its first repeat")
            return w[: k + 1]
        seen[v] = k
    cycle = list(w)
    v = g[w[-1]]
    while v not in seen:
        seen[v] = len(cycle)
        cycle.append(v)
        v = g[v]
    invariant(v == w[0], f"first revisited vertex {v} is not the root of {w}")
    cycle.append(v)
    return tuple(cycle)


# -- cycle census -------------------------------------------------------------

@dataclass(frozen=True)
class OrbitRecord:
    representative: Walk
    length: int
    orbit_size: int
    shunt_count: int
    stabilizer_order: int
    trivial: bool

    def to_json(self) -> dict:
        return {
            "representative": list(self.representative),
            "length": self.length,
            "orbit_size": self.orbit_size,
            "shunt_count": self.shunt_count,
            "stabilizer_order": self.stabilizer_order,
            "trivial": self.trivial,
        }


@dataclass(frozen=True)
class CycleOrbitTable:
    records: tuple[OrbitRecord, ...]
    group_order: int
    vertex_transitive: bool

    def to_json(self) -> list[dict]:
        return [r.to_json() for r in self.records]

    def lengths(self) -> list[int]:
        return [r.length for r in self.records]

    def shunt_counts(self) -> list[int]:
        return [r.shunt_count for r in self.records]

    def trivial_record(self) -> OrbitRecord:
        (rec,) = [r for r in self.records if r.trivial]
        return rec


def enumerate_consistent_cycles(group: PermutationGroup, graph: Graph) -> set[Walk]:
    """Every G-consistent rooted directed cycle.

    Each element's cycle decomposition is swept once: a vertex orbit of g
    yields graph cycles (one per rotation) exactly when one, equivalently
    every, consecutive pair is adjacent.  Completeness: a consistent cycle
    rooted at u with shunt g is the g-orbit of u.
    """
    out: set[Walk] = set()
    n = graph.vertex_count
    masks = graph.masks
    for g in group.elements:
        seen = 0
        for start in range(n):
            if seen >> start & 1:
                continue
            cyc = [start]
            w = g[start]
            while w != start:
                cyc.append(w)
                w = g[w]
            for v in cyc:
                seen |= 1 << v
            if len(cyc) >= 2 and masks[cyc[0]] >> cyc[1] & 1:
                for r in range(len(cyc)):
                    rot = cyc[r:] + cyc[:r]
                    out.add(tuple(rot) + (rot[0],))
    return out


def partition_cycles(group: PermutationGroup,
                     cycles: set[Walk]) -> list[list[Walk]]:
    """Group-orbit partition of a G-closed set of cycle tuples."""
    placed: set[Walk] = set()
    orbits = []
    for c in cycles:
        if c not in placed:
            orbit = group.tuple_orbit(c)
            placed |= orbit
            orbits.append(sorted(orbit))
    return sorted(orbits, key=lambda orbit: (len(orbit[0]), orbit[0]))


def consistent_cycle_orbits(group: PermutationGroup, graph: Graph) -> CycleOrbitTable:
    """The census of G-orbits of G-consistent cycles.

    For a vertex-transitive group on a connected d-valent graph the table
    has exactly d records; otherwise the count check is skipped and the
    table is still returned.
    """
    orbits = partition_cycles(group, enumerate_consistent_cycles(group, graph))
    records = []
    for orbit in orbits:
        rep = orbit[0]
        stab = group.pointwise_stabilizer(rep[:-1])
        invariant(len(orbit) * stab.order == group.order,
                  f"orbit-stabilizer fails for the cycle {rep}")
        records.append(OrbitRecord(
            representative=rep,
            length=len(rep) - 1,
            orbit_size=len(orbit),
            shunt_count=len(shunts(group, graph, rep)),
            stabilizer_order=stab.order,
            trivial=len(rep) == 3,
        ))
    transitive = is_vertex_transitive(group, graph)
    if transitive:
        invariant(len(records) == graph.valence(),
                  f"expected {graph.valence()} orbits, found {len(records)}")
    return CycleOrbitTable(records=tuple(records), group_order=group.order,
                           vertex_transitive=transitive)
