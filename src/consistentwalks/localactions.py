"""Weakly p-subregular local actions and trivial-stabilizer walk searches.

A transitive permutation group L on Omega is weakly p-subregular when some
points x, y have |L_x| = p prime and the <L_x, L_y>-orbits of x and y cover
Omega.  Such a local action at a vertex of an arc-transitive graph always
leads to a consistent walk with trivial stabilizer, as does valence 4; both
searches below return the walk plus a machine-checkable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadParameters,
    BadStabilizerOrder,
    NoWitness,
    NotArcTransitive,
    NotConnected,
    NotTransitive,
    WrongValence,
    invariant,
)
from .graphs import Graph, LocalAction, is_arc_transitive, is_n_arc_transitive, local_group
from .perms import PermutationGroup
from .walks import (
    Walk,
    ConsistencyWitness,
    consistent_cycle_orbits,
    consistent_extensions,
    is_consistent,
    successor_count,
)
from .reachability import certify_trivial_stabilizer


@dataclass(frozen=True)
class WpsWitness:
    """Witness pair for a weakly p-subregular action on 0..d-1."""

    prime: int
    x: int
    y: int
    x_stabilizer_order: int
    y_stabilizer_order: int
    covered: tuple[int, ...]
    joined_order: int

    def to_json(self) -> dict:
        return {"prime": self.prime, "x": self.x, "y": self.y,
                "x_stabilizer_order": self.x_stabilizer_order,
                "y_stabilizer_order": self.y_stabilizer_order,
                "covered": list(self.covered),
                "joined_order": self.joined_order}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n ** 0.5) + 1))


def weakly_p_subregular(local: LocalAction | PermutationGroup) -> WpsWitness | None:
    """First witness pair in lexicographic order, or None.

    Brute force over ordered point pairs: x needs a prime-order point
    stabilizer, and the two orbits under the joined stabilizers must cover
    the domain.  A witness implies the two-point stabilizer is trivial,
    which is checked.
    """
    group = local.group if isinstance(local, LocalAction) else local
    domain = range(group.degree)
    if not group.is_transitive(domain):
        raise NotTransitive("the local action must be transitive")
    for x in domain:
        stab_x = group.pointwise_stabilizer((x,))
        if not _is_prime(stab_x.order):
            continue
        for y in domain:
            stab_y = group.pointwise_stabilizer((y,))
            joined = PermutationGroup.close(
                stab_x.generators + stab_y.generators, degree=group.degree)
            covered = joined.orbit(x) | joined.orbit(y)
            if covered == frozenset(domain):
                invariant(group.pointwise_stabilizer((x, y)).order == 1,
                          f"points {x},{y} have a nontrivial joint stabilizer")
                return WpsWitness(prime=stab_x.order, x=x, y=y,
                                  x_stabilizer_order=stab_x.order,
                                  y_stabilizer_order=stab_y.order,
                                  covered=tuple(sorted(covered)),
                                  joined_order=joined.order)
    return None


def _extend_while_branching(group: PermutationGroup, graph: Graph,
                            walk: Walk) -> tuple[Walk, list[int]]:
    """Greedily extend the walk while some extension keeps >1 successor.

    Lexicographically smallest qualifying endpoint at each step.  Returns
    the maximal walk and the successor counts of the walk and each chosen
    extension.
    """
    counts = [successor_count(group, graph, walk)]
    while True:
        best = None
        for ext in consistent_extensions(group, graph, walk):
            count = successor_count(group, graph, ext)
            if count > 1:
                best = (ext, count)
                break
        if best is None:
            return walk, counts
        walk, count = best[0], best[1]
        counts.append(count)


def find_trivial_walk_wps(group: PermutationGroup,
                          graph: Graph) -> tuple[ConsistencyWitness, dict]:
    """Walk with trivial stabilizer from a weakly p-subregular local action.

    Lifts the witness points to neighbors x, y of the smallest vertex,
    extends (x, v, y) while more than one successor remains, and certifies:
    the starting 2-arc's shunt group is transitive, every successor count
    along the walk equals the witness prime, the stabilizer fixes all
    successors, and the directly computed stabilizer has order 1.
    """
    if not graph.connected:
        raise NotConnected("the search needs a connected graph")
    if not is_arc_transitive(group, graph):
        raise NotArcTransitive("the search needs an arc-transitive group")
    base = 0
    local = local_group(group, graph, base)
    witness = weakly_p_subregular(local)
    if witness is None:
        raise NoWitness("the local group is not weakly p-subregular")
    x = local.domain[witness.x]
    y = local.domain[witness.y]
    walk, counts = _extend_while_branching(group, graph, (x, base, y))
    invariant(all(c == witness.prime for c in counts),
              f"successor counts {counts} differ from the witness prime {witness.prime}")
    cert = certify_trivial_stabilizer(group, graph, walk, seed_length=2)
    cert.update({"method": "wps", "prime": witness.prime,
                 "base_vertex": base, "local_witness": witness.to_json(),
                 "successor_counts": counts})
    invariant(cert["certified"] and cert["stabilizer_order"] == 1,
              f"wps walk {walk} is not certified trivial")
    return is_consistent(group, graph, walk), cert


def _arc_local_order(group: PermutationGroup, graph: Graph,
                     u: int, v: int) -> int:
    """Order of the arc stabilizer's action on the far neighborhood minus u."""
    stab = group.pointwise_stabilizer((u, v))
    rest = tuple(w for w in graph.adj[v] if w != u)
    return len(stab.tuple_orbit(rest))


def find_trivial_walk_4valent(group: PermutationGroup,
                              graph: Graph) -> tuple[ConsistencyWitness, dict]:
    """Walk with trivial stabilizer in a connected 4-valent graph.

    Branches on the arc stabilizer's action on the three remaining
    neighbors: trivial -> the arc itself works; order 2 -> the local group
    is dihedral of degree 4, delegate to the subregular search; order 3 or
    6 -> the action is 2-arc-transitive, extend a 2-arc while more than one
    successor remains.
    """
    if not graph.connected:
        raise NotConnected("the search needs a connected graph")
    if not graph.is_regular() or graph.valence() != 4:
        raise WrongValence("the search needs a 4-valent graph")
    if not is_arc_transitive(group, graph):
        raise NotArcTransitive("the search needs an arc-transitive group")
    u = 0
    v = graph.adj[u][0]
    h_order = _arc_local_order(group, graph, u, v)
    invariant(h_order in (1, 2, 3, 6), f"impossible arc-local order {h_order}")
    if h_order == 2:
        witness, cert = find_trivial_walk_wps(group, graph)
        cert.update({"method": "4valent", "branch": "dihedral-local"})
        return witness, cert
    if h_order == 1:
        walk: Walk = (u, v)
        branch = "trivial-arc-action"
    else:
        invariant(is_n_arc_transitive(group, graph, 2),
                  "arc-local order 6 without 2-arc transitivity")
        w = next(z for z in graph.adj[v] if z != u)
        walk, counts = _extend_while_branching(group, graph, (u, v, w))
        branch = "two-arc-transitive"
    cert = certify_trivial_stabilizer(group, graph, walk, seed_length=1)
    cert.update({"method": "4valent", "branch": branch,
                 "arc_local_order": h_order})
    invariant(cert["certified"] and cert["stabilizer_order"] == 1,
              f"4-valent walk {walk} is not certified trivial")
    return is_consistent(group, graph, walk), cert


def find_trivial_walk_exhaustive(group: PermutationGroup, graph: Graph,
                                 depth_cap: int = 64) -> tuple[ConsistencyWitness, dict]:
    """Naive depth-first extension until a trivial-stabilizer walk appears.

    Fallback for graphs the structural searches do not cover; no
    certificate beyond the recomputed stabilizer order.
    """
    if depth_cap < 1:
        raise BadParameters(f"depth cap must be at least 1, got {depth_cap}")
    if not graph.connected:
        raise NotConnected("the search needs a connected graph")
    stack: list[Walk] = sorted(
        ((u, w) for u in range(graph.vertex_count) for w in graph.adj[u]),
        reverse=True)
    stack = [arc for arc in stack if is_consistent(group, graph, arc)]
    while stack:
        walk = stack.pop()
        if group.pointwise_stabilizer(walk).order == 1:
            cert = {"method": "exhaustive", "walk": list(walk),
                    "stabilizer_order": 1, "certified": True}
            return is_consistent(group, graph, walk), cert
        if len(walk) - 1 < depth_cap:
            stack.extend(reversed(consistent_extensions(group, graph, walk)))
    raise NoWitness(f"no consistent walk of length <= {depth_cap} has a trivial stabilizer")


def shunt_count_pattern(s: int, t: int, trivial_shunt_count: int,
                     other_shunt_counts: list[int]) -> dict:
    """Evaluate the 4-valent shunt-count pattern for |G_v| = 3^s * 2^t.

    Expected: the trivial-cycle orbit has 3^s * 2^(t-2) shunts, two orbits
    have one shunt each, and one orbit has 2^(t-2).  With t < 2 the
    expected counts are not integers; the report flags out_of_pattern
    instead of raising.
    """
    if t < 2:
        return {"status": "out_of_pattern", "s": s, "t": t,
                "reason": "2^(t-2) is not an integer for t < 2"}
    expected_trivial = 3 ** s * 2 ** (t - 2)
    expected_others = sorted([1, 1, 2 ** (t - 2)])
    matches = (trivial_shunt_count == expected_trivial
               and sorted(other_shunt_counts) == expected_others)
    return {"status": "ok" if matches else "mismatch", "s": s, "t": t,
            "expected_trivial_shunts": expected_trivial,
            "expected_other_shunts": expected_others,
            "trivial_shunts": trivial_shunt_count,
            "other_shunts": sorted(other_shunt_counts)}


def factor_3s_2t(order: int) -> tuple[int, int]:
    """Write ``order`` as 3^s * 2^t, or reject it."""
    rest, t = order, 0
    while rest % 2 == 0:
        rest //= 2
        t += 1
    s = 0
    while rest % 3 == 0:
        rest //= 3
        s += 1
    if rest != 1:
        raise BadStabilizerOrder(
            f"order {order} has a prime factor other than 2 and 3")
    return s, t


def verify_shunt_count_pattern(group: PermutationGroup, graph: Graph) -> dict:
    """Shunt-count table of a 4-valent census checked against the pattern."""
    if not graph.is_regular() or graph.valence() != 4:
        raise WrongValence("the pattern needs a 4-valent graph")
    if not is_arc_transitive(group, graph):
        raise NotArcTransitive("the pattern needs an arc-transitive group")
    stab_order = group.pointwise_stabilizer((0,)).order
    s, t = factor_3s_2t(stab_order)
    table = consistent_cycle_orbits(group, graph)
    invariant(len(table.records) == 4, f"expected 4 orbits, found {len(table.records)}")
    trivial = table.trivial_record()
    others = [r.shunt_count for r in table.records if not r.trivial]
    report = shunt_count_pattern(s, t, trivial.shunt_count, others)
    report.update({"stabilizer_order": stab_order,
                   "orbit_count": len(table.records),
                   "shunt_counts": sorted(table.shunt_counts()),
                   "census": table.to_json()})
    return report
