"""Weakly p-subregular local actions and trivial-stabilizer walk searches.

A transitive permutation group L on Omega is weakly p-subregular when some
points x, y have |L_x| = p prime and the <L_x, L_y>-orbits of x and y cover
Omega.  Such a local action at a vertex of an arc-transitive graph always
leads to a consistent walk with trivial stabilizer, as does valence 4; both
searches below return the walk plus a machine-checkable certificate.  An
exhaustive depth-first search covers the other graphs.

The two structural searches extend walks one vertex at a time and carry
the shunts along: the shunts of an extension are the walk's shunts that
send its last vertex to the new endpoint.  So only the walk a search
starts from queries the group, and successor counts and stabilizer orders
come from the split of the shunts.  The exhaustive search reads the
census's search over walk classes instead (:func:`walks._walk_classes`):
it visits one walk per G_r-class, with a shunt and the stabilizer's order
carried down by generators, and asks the group nothing until it certifies
the walk it returns.
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
from .graphs import Graph, is_arc_transitive, is_n_arc_transitive, local_group
from .perms import Perm, PermutationGroup, tuple_orbit_under
from .walks import (
    Walk,
    ConsistencyWitness,
    _split_shunts,
    _walk_classes,
    apply_perm,
    consistent_cycle_orbits,
)
from .reachability import _certificate

DEFAULT_WALK_DEPTH = 64


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


def weakly_p_subregular(group: PermutationGroup) -> WpsWitness | None:
    """First witness pair in lexicographic order, or None.

    Brute force over ordered point pairs: x needs a prime-order point
    stabilizer, and the two orbits under the joined stabilizers must cover
    the domain.  A witness implies the two-point stabilizer is trivial,
    which is checked.  The joined group J = <L_x, L_y> is never built: its
    orbits are closures over the two stabilizers' generators, and since
    L_x <= J is its stabilizer of x, |J| = |L_x| * |x^J|.
    """
    domain = range(group.degree)
    if not group.is_transitive():
        raise NotTransitive("the local action must be transitive")
    stabs = [group.pointwise_stabilizer((v,)) for v in domain]
    for x, stab_x in enumerate(stabs):
        if not _is_prime(stab_x.order):
            continue
        for y, stab_y in enumerate(stabs):
            joined_gens = stab_x.generators + stab_y.generators
            orbit_x = tuple_orbit_under(joined_gens, (x,))
            covered = {p for (p,) in orbit_x | tuple_orbit_under(joined_gens, (y,))}
            if covered == set(domain):
                invariant(group.pointwise_stabilizer((x, y)).order == 1,
                          f"points {x},{y} have a nontrivial joint stabilizer")
                return WpsWitness(prime=stab_x.order, x=x, y=y,
                                  x_stabilizer_order=stab_x.order,
                                  y_stabilizer_order=stab_y.order,
                                  covered=tuple(sorted(covered)),
                                  joined_order=stab_x.order * len(orbit_x))
    return None


def _extend_while_branching(walk: Walk, shs: list[Perm]
                            ) -> tuple[ConsistencyWitness, list[int]]:
    """Greedily extend the walk while some extension keeps >1 successor.

    Lexicographically smallest qualifying endpoint at each step.  Returns
    the maximal walk's witness and the successor counts of the walk and
    each chosen extension.  ``shs`` are the walk's shunts, sorted; each
    extension's are the shunts sending the last vertex to its new endpoint.
    The parts of a split keep that sorted order, so the maximal walk's
    least shunt is the least first member of its parts.
    """
    by_end = _split_shunts(shs, walk[-1])
    counts = [len(by_end)]
    while True:
        for x in sorted(by_end):
            ext_by_end = _split_shunts(by_end[x], x)
            if len(ext_by_end) > 1:
                walk, by_end = walk + (x,), ext_by_end
                counts.append(len(by_end))
                break
        else:
            least = min(part[0] for part in by_end.values())
            return ConsistencyWitness(walk=walk, shunt=least), counts


def find_trivial_walk_wps(group: PermutationGroup,
                          graph: Graph) -> tuple[ConsistencyWitness, dict]:
    """Walk with trivial stabilizer from a weakly p-subregular local action.

    Lifts the witness points to neighbors x, y of the smallest vertex,
    extends (x, v, y) while more than one successor remains, and certifies:
    the starting 2-arc's shunt group is transitive, every successor count
    along the walk equals the witness prime, the stabilizer fixes all
    successors, and |shunts| / |successors|, the stabilizer's order, is 1.
    Its one coset query is rooted at v: g sends (v, y) onto (x, v) exactly
    when g^-1 shunts (x, v, y), and the search and certificate read those.
    """
    if not graph.connected:
        raise NotConnected("the search needs a connected graph")
    if not is_arc_transitive(group, graph):
        raise NotArcTransitive("the search needs an arc-transitive group")
    base = 0
    local = local_group(group, graph, base)
    witness = weakly_p_subregular(local.group)
    if witness is None:
        raise NoWitness("the local group is not weakly p-subregular")
    x = local.domain[witness.x]
    y = local.domain[witness.y]
    shs = sorted(g.inverse() for g in group.transporter((base, y), (x, base)))
    found, counts = _extend_while_branching((x, base, y), shs)
    invariant(all(c == witness.prime for c in counts),
              f"successor counts {counts} differ from the witness prime {witness.prime}")
    cert = _certificate(graph, found.walk, 2, shs)
    cert.update({"method": "wps", "prime": witness.prime,
                 "base_vertex": base, "local_witness": witness.to_json(),
                 "successor_counts": counts})
    invariant(cert["certified"] and cert["stabilizer_order"] == 1,
              f"wps walk {found.walk} is not certified trivial")
    return found, cert


def find_trivial_walk_4valent(group: PermutationGroup,
                              graph: Graph) -> tuple[ConsistencyWitness, dict]:
    """Walk with trivial stabilizer in a connected 4-valent graph.

    Branches on the order of the arc stabilizer's action on the three
    remaining neighbors: trivial -> the arc itself works; order 2 -> the
    local group is dihedral of degree 4, delegate to the subregular search;
    order 3 or 6 -> the action is 2-arc-transitive, extend a 2-arc while
    more than one successor remains.  The one query is the arc's shunt
    coset; its part at the first w in N(v) minus u, the shunts of (u, v, w),
    is a coset G_(u,v) * g, so that order counts the part's images of them.
    """
    if not graph.connected:
        raise NotConnected("the search needs a connected graph")
    if not graph.is_regular() or graph.valence() != 4:
        raise WrongValence("the search needs a 4-valent graph")
    if not is_arc_transitive(group, graph):
        raise NotArcTransitive("the search needs an arc-transitive group")
    u = 0
    v = graph.adj[u][0]
    rest = tuple(z for z in graph.adj[v] if z != u)
    shs = group.transporter((u,), (v,))
    part = [g for g in shs if g[v] == rest[0]]
    h_order = len({apply_perm(g, rest) for g in part})
    invariant(h_order in (1, 2, 3, 6), f"impossible arc-local order {h_order}")
    if h_order == 2:
        witness, cert = find_trivial_walk_wps(group, graph)
        cert.update({"method": "4valent", "branch": "dihedral-local"})
        return witness, cert
    if h_order == 1:
        witness = ConsistencyWitness(walk=(u, v), shunt=shs[0])
        branch = "trivial-arc-action"
    else:
        invariant(is_n_arc_transitive(group, graph, 2),
                  "arc-local order 6 without 2-arc transitivity")
        witness, _ = _extend_while_branching((u, v, rest[0]), part)
        branch = "two-arc-transitive"
    cert = _certificate(graph, witness.walk, 1, shs)
    cert.update({"method": "4valent", "branch": branch,
                 "arc_local_order": h_order})
    invariant(cert["certified"] and cert["stabilizer_order"] == 1,
              f"4-valent walk {witness.walk} is not certified trivial")
    return witness, cert


def find_trivial_walk_exhaustive(group: PermutationGroup, graph: Graph,
                                 depth_cap: int = DEFAULT_WALK_DEPTH
                                 ) -> tuple[ConsistencyWitness, dict]:
    """The least consistent walk of at most ``depth_cap`` arcs with a
    trivial stabilizer, searched over walk classes.

    Fallback for graphs the structural searches do not cover.  It reads
    the census's search (:func:`walks._walk_classes`), which lists the
    G_r-classes of consistent walks rooted at the least vertex r of each
    vertex orbit, each by its least member, in lexicographic order, with
    |G_(w)| for each.  A trivial stabilizer is invariant under the group,
    and each class's least member comes first, so the first walk of more
    than one vertex with |G_(w)| = 1 is the least such walk from any arc
    the search could start at.  So ``group`` must act by automorphisms of
    ``graph``.  For that walk w with shunt g, G_(w[:-1]) acts regularly on
    the orbit of w[-1], since the point's stabilizer is G_(w) = 1, so its
    transversal is G_(w[:-1]) itself and the least of u * g over the
    transversal is the least of the shunts G_(w[:-1]) * g.  The search asks
    the group no query; the stabilizer order of the returned walk is
    recomputed once, and there is no other certificate.
    """
    if depth_cap < 1:
        raise BadParameters(f"depth cap must be at least 1, got {depth_cap}")
    if not graph.connected:
        raise NotConnected("the search needs a connected graph")
    for walk, g, trans, _, order, _ in _walk_classes(group, graph, depth_cap):
        if order == 1 and len(walk) > 1:
            invariant(group.pointwise_stabilizer(walk).order == 1,
                      f"walk {walk} has a regular last orbit but a nontrivial stabilizer")
            cert = {"method": "exhaustive", "walk": list(walk),
                    "stabilizer_order": 1, "certified": True}
            return ConsistencyWitness(walk=walk, shunt=min(u * g for u in trans.values())), cert
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
