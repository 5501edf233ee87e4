"""Reachability of vertices along successor chains.

A consistent walk has the reachability property when every vertex of the graph is the
last vertex of some walk reachable by repeatedly taking successors; this is
equivalent to the group generated by the walk's shunts being
vertex-transitive, which gives two independent deciders.  The chase, the
lifting conditions and the certificate read the walk's shunt coset, a
shunt and its stabilizer, and descend from it; only the shunt-group
decider closes the listed coset.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .errors import (
    BadParameters,
    CapExceeded,
    NotArcTransitive,
    NotConnected,
    NotConsistent,
    OrbitTooLarge,
    WalkTooShort,
    invariant,
)
from .graphs import Graph, is_arc_transitive
from .perms import PermutationGroup, tuple_orbit_under
from .walks import (Coset, Walk, _shunt_coset, _step_coset, _successor_ends, apply_perm,
                    shunts, validate_walk)

SIM_ORBIT_CAP = 100_000


@dataclass(frozen=True)
class ReachabilityReport:
    walk: Walk
    verdict: bool
    method: str
    witness: dict

    def to_json(self) -> dict:
        return {"walk": list(self.walk), "verdict": self.verdict,
                "method": self.method, "witness": self.witness}


def reachability_by_shunt_group(group: PermutationGroup, graph: Graph,
                              walk: Sequence[int]) -> ReachabilityReport:
    """Decide reachability via transitivity of the group the shunts generate.

    The whole shunt coset G_prefix * s, as :func:`walks.shunts` lists it,
    generates <G_prefix, s> and is closed as it is: the one walk query that
    lists a coset and the one closure left here, though |H| = |G_prefix| *
    |prefix^H| needs only H's generators, as in `check_conditions`.
    Sorting the closure into the elements that ``close`` keeps is most of
    a walk-queries pass: without it a pass takes about 0.04 s instead of
    0.10 s (seed 1, in one process, best of 15, 2-core machine).  The
    walk-queries benchmark's child keeps every latency, so either faster
    route runs more passes and reads over 20% more peak RSS, over the
    metric's 10% bound; the switch waits for a child that stores them
    compactly, and until then ``close`` keeps its sorted closure.
    """
    w = validate_walk(graph, walk)
    shs = shunts(group, graph, w)
    if not shs:
        raise NotConsistent(f"walk {w} has no shunt in the group")
    # a subgroup of G, so G's order, which the caller's cap admitted, bounds it
    shunt_group = PermutationGroup.close(shs, degree=group.degree, cap=group.order)
    verdict = shunt_group.is_transitive()
    return ReachabilityReport(walk=w, verdict=verdict, method="shunt-group",
                           witness={"shunt_group_order": shunt_group.order,
                                    "transitive": verdict})


def reachability_by_chase(group: PermutationGroup, graph: Graph,
                        walk: Sequence[int],
                        target: int | None = None) -> ReachabilityReport:
    """Decide reachability by breadth-first chase over the successor relation.

    Successors are explored in lexicographic order, so the witness chain to
    ``target`` is reproducible.  Verdict is true iff every vertex of the
    graph is the last vertex of some reachable walk.  The group is queried
    once, after the target is checked, for the walk's shunt coset H * a:
    u_b * a, u_b in the transversal of w[-1]'s orbit under H, reaches the
    successor ending in a[b].  An element t carries successors to
    successors, Succ(w^t) = Succ(w)^t, so each reached walk w^t carries its
    t, and a child reached by the shunt h carries h * t.  Any shunt reaching
    a successor will do: two of them differ by an element of G_w, which
    maps Succ(w) onto itself.
    """
    w = validate_walk(graph, walk)
    if target is not None and not 0 <= target < graph.vertex_count:
        raise BadParameters(f"target {target} outside 0..{graph.vertex_count - 1}")
    lift, stabilizer = _shunt_coset(group, w)
    trans, _ = stabilizer.orbit_stabilizer(w[-1])
    steps = {w[1:] + (lift[b],): u * lift for b, u in trans.items()}
    total = graph.vertex_count
    reached = {w[-1]}
    parent: dict[Walk, Walk | None] = {w: None}
    target_walk = w if target == w[-1] else None
    frontier = [(w, group.identity)]
    while frontier and len(reached) < total:
        next_frontier = []
        for cur, t in frontier:
            # children differ in their last vertex, and the frontier is sorted
            for s, h in steps.items():
                child = apply_perm(t, s)
                if child not in parent:
                    parent[child] = cur
                    next_frontier.append((child, h * t))
                    reached.add(child[-1])
                    if target_walk is None and child[-1] == target:
                        target_walk = child
        frontier = sorted(next_frontier)
    verdict = len(reached) == total
    chain: list[list[int]] | None = None
    if target is not None and target_walk is not None:
        links: list[Walk] = []
        node: Walk | None = target_walk
        while node is not None and node != w:
            links.append(node)
            node = parent[node]
        chain = [list(step) for step in reversed(links)]
    return ReachabilityReport(walk=w, verdict=verdict, method="chase",
                           witness={"reached_vertices": len(reached),
                                    "target": target, "chain": chain})


# -- the three lifting conditions ---------------------------------------------

def no_intermediate_divisor(smaller: int, larger: int) -> bool:
    """True iff no integer i with smaller <= i < larger divides larger."""
    return not any(larger % i == 0 for i in range(smaller, larger))


@dataclass(frozen=True)
class ConditionReport:
    walk: Walk
    succ_count: int          # successors of the walk itself
    prefix_succ_count: int   # successors of the walk minus its last vertex
    condition_a: bool
    condition_b: bool
    condition_c: bool
    joined_stabilizer_order: int

    def to_json(self) -> dict:
        return {"walk": list(self.walk),
                "walk_successor_count": self.succ_count,
                "prefix_successor_count": self.prefix_succ_count,
                "a": self.condition_a, "b": self.condition_b,
                "c": self.condition_c,
                "joined_stabilizer_order": self.joined_stabilizer_order}


def _conditions(w: Walk, prefix: Coset | None) -> ConditionReport:
    """The three conditions for the walk ``w``, read off the shunt coset
    G_(w[:-2]) * a of w[:-1], None if it has none."""
    step = _step_coset(prefix, w[-2], w[-1])
    if step is None:
        raise NotConsistent(f"walk {w} has no shunt in the group")
    g0, own = step
    ends = _successor_ends(prefix, w[-2])
    ell, k = len(own.orbit_stabilizer(w[-1])[0]), len(ends)
    invariant(ell <= k, f"walk {w} has more successors than its prefix")
    back = g0.inverse()
    joined_gens = [*own.generators, *(back * h * g0 for h in own.generators)]
    joined_order = own.order * len(tuple_orbit_under(joined_gens, w[:-1]))
    cond_a = no_intermediate_divisor(ell, k)
    prefix_succ = {w[1:-1] + (x,) for x in ends}
    orbit = tuple_orbit_under(joined_gens, min(prefix_succ))
    invariant(orbit <= prefix_succ, "the joined stabilizer leaves the prefix successors")
    cond_b = orbit == prefix_succ
    cond_c = joined_order == prefix[1].order
    invariant(not cond_c or cond_b, "condition (c) must imply condition (b)")
    return ConditionReport(walk=w, succ_count=ell,
                           prefix_succ_count=k, condition_a=cond_a,
                           condition_b=cond_b, condition_c=cond_c,
                           joined_stabilizer_order=joined_order)


def check_conditions(group: PermutationGroup, graph: Graph,
                     walk: Sequence[int]) -> ConditionReport:
    """Evaluate the three conditions that lift reachability one step.

    With J the group generated by the stabilizers of the walk's prefix and
    of the prefix's shunt image: (a) no intermediate divisor between the
    two successor counts, (b) J transitive on the prefix's successors,
    (c) J equal to the stabilizer of the shared inner subwalk.  One group
    query, rooted at w[0], gives everything: the prefix's shunt coset
    G_(w[:-2]) * a and, one descent step below it, the walk's, G_prefix *
    g0, so g0^-1 * G_prefix * g0 is generated by the conjugates of
    G_prefix's generators.  J is never built: it contains G_prefix, so
    |J| = |G_prefix| * |prefix^J| (orbit–stabilizer).  Both stabilizers fix
    the inner subwalk, so J <= G_inner and (c) holds iff |J| == |G_inner|
    = |G_(w[:-2])|.
    """
    w = validate_walk(graph, walk)
    if len(w) < 3:
        raise WalkTooShort(f"conditions need walk length >= 2, got {w}")
    return _conditions(w, group.coset(w[:-2], w[1:-1]))


def _fixes_successors(w: Walk, coset: Coset) -> bool:
    """Every generator of G_(w) fixes every successor endpoint."""
    lift, stabilizer = coset
    trans, fixing = stabilizer.orbit_stabilizer(w[-1])
    return all(h[lift[b]] == lift[b] for b in trans for h in fixing)


def stabilizer_fixes_successors(group: PermutationGroup, graph: Graph,
                                walk: Sequence[int]) -> bool:
    """True iff the walk's stabilizer fixes every successor pointwise.

    It fixes every vertex of a successor but its last one, x, which lie on
    the walk, so it fixes the successor iff it fixes x.  For the walk's
    shunt coset H * a the x are a applied to v_n's orbit under H, and G_(w)
    is H_(v_n).
    """
    w = validate_walk(graph, walk)
    return _fixes_successors(w, _shunt_coset(group, w))


def certify_trivial_stabilizer(group: PermutationGroup, graph: Graph,
                               walk: Sequence[int],
                               seed_length: int = 1) -> dict:
    """Certificate that the walk's pointwise stabilizer is trivial.

    Pipeline: reachability is verified for the prefix of length
    ``seed_length`` (the whole walk if shorter), from the orbit of 0 under
    its shunts; each longer proper prefix must satisfy one of the three
    lifting conditions; the stabilizer must fix all successors.  On failure
    the certificate carries the first obstruction instead.  The seed's
    shunt coset is the one group query: that of w[:k + 1] is one descent
    step below that of w[:k], down to G_(w).  A ``seed_length`` below 1 is
    refused before any group query.
    """
    if seed_length < 1:
        raise BadParameters(f"seed length {seed_length} is below 1")
    w = validate_walk(graph, walk)
    if not graph.connected:
        raise NotConnected("certification needs a connected graph")
    if not is_arc_transitive(group, graph):
        raise NotArcTransitive("certification needs an arc-transitive group")
    first = min(seed_length, len(w) - 1)
    return _certificate(graph, w, seed_length, group.coset(w[:first], w[1:first + 1]))


def _certificate(graph: Graph, w: Walk, seed_length: int, seed: Coset | None) -> dict:
    """`certify_trivial_stabilizer` for a checked walk and a seed of at
    least one arc, from its seed's shunt coset, None if it has none."""
    r = len(w) - 1
    seed_walk = w[: seed_length + 1]
    # cosets[n] is the shunt coset of w[:n + 1]
    first = min(seed_length, r)
    cosets = {first: seed}
    for n in range(first + 1, r + 1):
        cosets[n] = _step_coset(cosets[n - 1], w[n - 1], w[n])
    if cosets[r] is None:
        raise NotConsistent(f"walk {w} has no shunt in the group")
    # an arc's H = <G_u, s> is G: u^H holds N(u) = v^(G_u) and, with each
    # vertex, its neighbours, so on a connected graph it is every vertex
    lift, stabilizer = cosets[first]
    seed_transitive = seed_length == 1 or len(
        tuple_orbit_under([*stabilizer.generators, lift], (0,))) == graph.vertex_count
    cert: dict = {
        "walk": list(w),
        "seed": {"length": seed_length, "walk": list(seed_walk),
                 "shunt_group_transitive": seed_transitive},
        "prefix_conditions": [],
        "stabilizer_order": cosets[r][1].pointwise_stabilizer(w[-1:]).order,
    }
    if not seed_transitive:
        return {**cert, "certified": False,
                "failure_reason": f"seed walk {list(seed_walk)} is not reaching every vertex"}
    for n in range(seed_length, r):
        report = _conditions(w[: n + 2], cosets[n])
        cert["prefix_conditions"].append(
            {"n": n, "a": report.condition_a, "b": report.condition_b,
             "c": report.condition_c})
        if not (report.condition_a or report.condition_b or report.condition_c):
            return {**cert, "certified": False,
                    "failure_reason": f"prefix of length {n} violates all three conditions"}
    if not _fixes_successors(w, cosets[r]):
        return {**cert, "certified": False, "failure_reason": "final fix check"}
    invariant(cert["stabilizer_order"] == 1,
              "conditions certified but the directly computed stabilizer is nontrivial")
    return {**cert, "certified": True}


def successor_reachability_classes(group: PermutationGroup, graph: Graph,
                      walk: Sequence[int],
                      cap: int = SIM_ORBIT_CAP) -> list[frozenset[Walk]]:
    """Partition of the prefix orbit into successor-reachability classes.

    Nodes are the orbit of the walk's prefix p; each orbit member of the
    full walk contributes the edge (its prefix -> its tail).  The classes,
    components of the symmetrized relation, are the G-images of the block
    p^H of H = <G_p, s>, as edges leave p*x only for p*s*h*x with h in G_p.
    The block is p's orbit under G_p's generators and s, and the lift of
    p's coset onto t carries it onto t's class; H is never built.  ``cap``
    bounds the prefix orbit, no longer the walk orbit.
    """
    w = validate_walk(graph, walk)
    if len(w) < 3:
        raise WalkTooShort(f"the relation needs walk length >= 2, got {w}")
    lift, stabilizer = _shunt_coset(group, w)
    prefix = w[:-1]
    try:
        prefix_orbit = group.tuple_orbit(prefix, cap=cap)
    except CapExceeded as exc:
        raise OrbitTooLarge(str(exc)) from exc
    block = tuple_orbit_under([*stabilizer.generators, lift], prefix)
    classes: list[frozenset[Walk]] = []
    placed: set[Walk] = set()
    for t in sorted(prefix_orbit):
        if t not in placed:
            g = group.coset(prefix, t)[0]
            cls = frozenset(apply_perm(g, b) for b in block)
            placed |= cls
            classes.append(cls)
    invariant(sum(map(len, classes)) == len(prefix_orbit),
              "the shunt group's blocks do not partition the prefix orbit")
    return classes
