"""Consistent walks and cycles: shunts, successors, the orbit census.

Walks are plain vertex tuples, rooted and directed.  A walk (v_0..v_n) is
G-consistent when some g in G maps (v_0..v_{n-1}) onto (v_1..v_n)
pointwise; every such g is a shunt.  Rooted directed cycles carry their
closing vertex, e.g. the trivial cycle on an edge is (u, v, u).

The census lists the G-orbits of consistent cycles from rooted cycles
alone: each orbit meets the cycles rooted at the least vertex r of one
vertex orbit in a single G_r-orbit (Miklavič, Potočnik and Wilson, 2007).
Of those it lists only the cycles leaving r through the least neighbor of
each G_r-orbit on N(r): G_r permutes the second vertices of a G_r-orbit
of cycles, so each such orbit has members through that neighbor, and its
least member is one of them.  Only this module lists and names these
orbits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

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

    The shunt images of the walk: a shunt maps (v_0..v_{n-1}) onto
    (v_1..v_n), so only the image of v_n is new.  Since the shunts are
    the coset g0 * G_{(v_1..v_n)}, these are also the orbit of one
    successor under the suffix stabilizer.
    """
    w = validate_walk(graph, walk)
    shs = group.transporter(w[:-1], w[1:])
    if not shs:
        raise NotConsistent(f"walk {w} has no shunt in the group")
    head, last = w[1:], w[-1]
    return sorted({head + (g[last],) for g in shs})


def successor_count(group: PermutationGroup, graph: Graph,
                    walk: Sequence[int]) -> int:
    """|Succ(walk)|, which equals |G_prefix| / |G_walk| in every group.

    The successor endpoints are the images of v_n under the coset
    G_prefix * g0 of shunts, and two shunts give the same image exactly
    when they lie in one coset of G_walk (orbit–stabilizer).
    """
    return len(successors(group, graph, walk))


def _split_shunts(shs: Sequence[Perm], last: int) -> dict[int, list[Perm]]:
    """Each image of ``last`` under the shunts ``shs`` -> the shunts sending it there.

    For shunts of a walk ending in ``last``, the keys are the successor
    endpoints, and the list at x holds the shunts of the walk extended by
    x.  Each list keeps the order of ``shs``.
    """
    split: dict[int, list[Perm]] = {}
    for g in shs:
        split.setdefault(g[last], []).append(g)
    return split


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
    """Census records, one per G-orbit of consistent cycles, ordered by
    length and then by representative, each orbit's least member."""

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


def _rooted_cycles(group: PermutationGroup, graph: Graph, root: int,
                   starts: Iterable[int]) -> Counter[Walk]:
    """Every G-consistent rooted directed cycle at ``root`` that leaves it
    through a neighbor in ``starts`` -> its shunt count.

    A consistent cycle rooted at u with shunt g is the g-cycle through u,
    and g maps u to a neighbor v; conversely every g in the transporter
    of u onto a neighbor v shunts its own cycle through u.  Every shunt of
    a cycle (u, v, ...) sends u to v, so the count is complete.  The
    census passes the least neighbor of each G_u-orbit on N(u), which
    meets every G_u-orbit of cycles in its least member.
    """
    out: Counter[Walk] = Counter()
    for v in starts:
        for g in group.transporter((root,), (v,)):
            cycle = [root, v]
            while cycle[-1] != root:
                cycle.append(g[cycle[-1]])
            out[tuple(cycle)] += 1
    return out


def enumerate_consistent_cycles(group: PermutationGroup, graph: Graph) -> set[Walk]:
    """Every G-consistent rooted directed cycle: the union over all roots."""
    out: set[Walk] = set()
    for root in range(graph.vertex_count):
        out.update(_rooted_cycles(group, graph, root, graph.adj[root]))
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

    The cycles rooted at the least vertex r of each vertex orbit are split
    under G_r; an orbit's least member is rooted at r and represents it,
    and its size is |G| / |G_(rep)|.  Only the cycles through the least
    neighbor of each G_r-orbit on N(r) are listed: the least member of a
    G_r-orbit of cycles passes through the least neighbor its second
    vertices reach, which is such a neighbor, and G_r carries each of its
    members onto one that does.  The shunts of a cycle are a coset of the
    stabilizer of its vertices, and all send r to its second vertex, so
    |G_(rep)| is the count `_rooted_cycles` gives.
    For a vertex-transitive group on a connected d-valent graph the table
    has exactly d records; otherwise the count check is skipped and the
    table is still returned.
    """
    records: list[OrbitRecord] = []
    placed: set[int] = set()
    for root in range(graph.vertex_count):
        if root not in placed:
            placed |= group.orbit(root)
            stab = group.pointwise_stabilizer((root,))
            # the least neighbor of each G_r-orbit on N(r), adj being sorted
            starts: list[int] = []
            reached: set[int] = set()
            for v in graph.adj[root]:
                if v not in reached:
                    reached |= stab.orbit(v)
                    starts.append(v)
            cycles = _rooted_cycles(group, graph, root, starts)
            for members in partition_cycles(stab, cycles):
                rep = members[0]
                order = cycles[rep]
                records.append(OrbitRecord(
                    representative=rep,
                    length=len(rep) - 1,
                    orbit_size=group.order // order,
                    shunt_count=order,
                    stabilizer_order=order,
                    trivial=len(rep) == 3,
                ))
    records.sort(key=lambda r: (r.length, r.representative))
    transitive = is_vertex_transitive(group, graph)
    if transitive:
        invariant(len(records) == graph.valence(),
                  f"expected {graph.valence()} orbits, found {len(records)}")
    return CycleOrbitTable(records=tuple(records), group_order=group.order,
                           vertex_transitive=transitive)
