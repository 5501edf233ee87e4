"""Consistent walks and cycles: shunts, successors, the orbit census.

Walks are plain vertex tuples, rooted and directed.  A walk (v_0..v_n) is
G-consistent when some g in G maps (v_0..v_{n-1}) onto (v_1..v_n)
pointwise; every such g is a shunt.  Rooted directed cycles carry their
closing vertex, e.g. the trivial cycle on an edge is (u, v, u).

One depth-first search, :func:`_walk_classes`, lists the G_r-classes of
consistent walks rooted at the least vertex r of each vertex orbit, one
walk per class, each its class's least member.  It starts from r's orbit
and G_r as the group holds them (a chain based at r, as on a
vertex-transitive graph, hands over its own transversal and strong
generators), and a walk carries one shunt and generators of its pointwise
stabilizer, each read off its parent's by :func:`perms.point_stabilizer`;
its steps are its shunt applied to its last vertex's orbit under the
stabilizer of the rest, and it keeps the least step of each orbit of its
own stabilizer.  So the search asks the group no transporter query and
expands no element.  It serves two consumers: the census, which reads the
walks that close back to their root (each orbit of consistent cycles
meets the cycles rooted at r in a single G_r-orbit; Miklavič, Potočnik and
Wilson, 2007), and the exhaustive trivial-walk search in
:mod:`localactions`, which stops at the first walk with a trivial
stabilizer.  Each census record keeps its cycle's shunt coset, one shunt
and generators of the stabilizer of the cycle's support, so the least
shunt, that stabilizer and the orders the generating sets need are read
off the census (:meth:`OrbitRecord.least_shunt`) without asking the group
again.  The census is the only enumerator of cycles: every consistent
cycle (:func:`enumerate_consistent_cycles`) lies in the G-orbit of one
record's representative.  The orbit partition of a G-closed set of
cycles (:func:`partition_cycles`) stays as a reference for the tests.
Only this module lists and names these orbits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

from .errors import InvalidWalk, NotConsistent, invariant
from .graphs import Graph
from .perms import Perm, PermutationGroup, least_in_coset, point_stabilizer

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
    w = validate_walk(graph, walk)
    found = group.transporter(w[:-1], w[1:])
    if not found:
        return None
    return ConsistencyWitness(walk=w, shunt=found[0])


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


def _consistent_shunts(group: PermutationGroup, graph: Graph,
                       walk: Sequence[int]) -> tuple[Walk, list[Perm]]:
    """The validated walk and its sorted shunts, the one coset every walk
    query reads; refuses a walk with none."""
    w = validate_walk(graph, walk)
    shs = group.transporter(w[:-1], w[1:])
    if not shs:
        raise NotConsistent(f"walk {w} has no shunt in the group")
    return w, shs


def successors(group: PermutationGroup, graph: Graph,
               walk: Sequence[int]) -> list[Walk]:
    """All walks (v_1..v_n, v_n^g) over shunts g, sorted.

    The shunt images of the walk: a shunt maps (v_0..v_{n-1}) onto
    (v_1..v_n), so only the image of v_n is new.  Since the shunts are
    the coset g0 * G_{(v_1..v_n)}, these are also the orbit of one
    successor under the suffix stabilizer.
    """
    w, shs = _consistent_shunts(group, graph, walk)
    return [w[1:] + (x,) for x in sorted(_split_shunts(shs, w[-1]))]


def successor_count(group: PermutationGroup, graph: Graph,
                    walk: Sequence[int]) -> int:
    """|Succ(walk)|, which equals |G_prefix| / |G_walk| in every group.

    The successor endpoints are the images of v_n under the coset
    G_prefix * g0 of shunts, and two shunts give the same image exactly
    when they lie in one coset of G_walk (orbit–stabilizer).
    """
    w, shs = _consistent_shunts(group, graph, walk)
    return len(_split_shunts(shs, w[-1]))


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
    """One G-orbit of consistent cycles, represented by its least member c.

    ``shunt_coset`` holds the coset of c's shunts as the census found it:
    one shunt g and generators of G_(w), w = c[:-1], whose shunts are
    G_(w) * g.  It is not part of the JSON payload or of equality.
    """

    representative: Walk
    length: int
    orbit_size: int
    shunt_count: int
    stabilizer_order: int
    trivial: bool
    shunt_coset: tuple[Perm, tuple[Perm, ...]] = field(compare=False, repr=False)

    def least_shunt(self) -> Perm:
        """The representative's lexicographically least shunt, read off
        its shunt coset (:func:`perms.least_in_coset`)."""
        shunt, stabilizer = self.shunt_coset
        return least_in_coset(stabilizer, shunt)

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


def enumerate_consistent_cycles(group: PermutationGroup, graph: Graph) -> set[Walk]:
    """Every G-consistent rooted directed cycle: the union of the census
    records' orbits."""
    return {c for r in consistent_cycle_orbits(group, graph).records
            for c in group.tuple_orbit(r.representative)}


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


def _walk_classes(group: PermutationGroup, graph: Graph, depth_cap: int | None = None
                  ) -> Iterator[tuple[Walk, Perm, dict[int, Perm], list[Perm], int, bool]]:
    """The least member of each G_r-class of consistent walks rooted at the
    least vertex r of each vertex orbit, depth first, in lexicographic order.

    Yields (w, a shunt g of w, the transversal of w[-1]'s orbit under
    G_(w[:-1]), generators of G_(w), |G_(w)|, whether w closes back to r).
    The shunts of w are G_(w[:-1]) * g, and u_b * g shunts the step to
    g[b], so the steps of w are g applied to that orbit.  Two steps lie in
    one G_r-class iff one G_(w)-element maps one to the other, so the search
    keeps the least step of each G_(w)-orbit and, by induction, the least
    member of each class; a prefix of a least member is least in its class
    too, so pushing the children in reverse visits them in lexicographic
    order.  A step back to r closes a cycle, which is never extended: r is
    in w, so the closed walk's stabilizer is G_(w), and so is that of every
    extension of it.  The search starts from (r,) with the identity for
    shunt, whose steps are the neighbors of r in its orbit, and walks of
    more than ``depth_cap`` arcs are not extended.  r's orbit and G_r come
    from :meth:`PermutationGroup.orbit_stabilizer`, so a chain based at r
    hands over its own.  It asks no element of G.
    """
    placed: set[int] = set()
    for root in range(graph.vertex_count):
        if root in placed:
            continue
        trans, gens = group.orbit_stabilizer(root)
        placed.update(trans)
        stack = [((root,), group.identity, trans, gens, group.order // len(trans), False)]
        while stack:
            node = stack.pop()
            yield node
            w, g, trans, gens, order, closes = node
            if closes or (depth_cap is not None and len(w) > depth_cap):
                continue
            steps = {g[b]: b for b in trans}
            reached: set[int] = set()
            children = []
            for y in sorted(steps):
                if y in reached or not graph.has_edge(w[-1], y):
                    continue  # (r,) steps to r's orbit; a longer walk's are adjacent
                shunt = trans[steps[y]] * g
                if y == root:
                    children.append((w + (root,), shunt, {root: group.identity},
                                     gens, order, True))
                    continue
                invariant(y not in w, f"consistent walk {w + (y,)} repeats a vertex "
                                      f"other than its root")
                step_trans, step_gens = point_stabilizer(group.degree, gens, y)
                reached.update(step_trans)
                children.append((w + (y,), shunt, step_trans, step_gens,
                                 order // len(step_trans), False))
            stack.extend(reversed(children))


def consistent_cycle_orbits(group: PermutationGroup, graph: Graph) -> CycleOrbitTable:
    """The census of G-orbits of G-consistent cycles.

    Each G-orbit of consistent cycles meets the cycles rooted at the least
    vertex r of one vertex orbit in one G_r-orbit, whose least member
    represents it: a closing walk of :func:`_walk_classes`.  Its shunts,
    and the elements fixing it, are cosets of G_(w) for w the walk before
    the closing step, so both counts are |G_(w)| and its orbit has
    |G| / |G_(w)| members.
    For a vertex-transitive group on a connected d-valent graph the table
    has exactly d records; otherwise the count check is skipped and the
    table is still returned.
    """
    records = [OrbitRecord(representative=w, length=len(w) - 1,
                           orbit_size=group.order // order, shunt_count=order,
                           stabilizer_order=order, trivial=len(w) == 3,
                           shunt_coset=(g, tuple(gens)))
               for w, g, _, gens, order, closes in _walk_classes(group, graph) if closes]
    records.sort(key=lambda r: (r.length, r.representative))
    transitive = group.is_transitive()
    if transitive:
        invariant(len(records) == graph.valence(),
                  f"expected {graph.valence()} orbits, found {len(records)}")
    return CycleOrbitTable(records=tuple(records), group_order=group.order,
                           vertex_transitive=transitive)
