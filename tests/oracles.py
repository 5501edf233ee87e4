"""Independent brute-force oracles the tests freeze expected values from.

Everything here goes through raw element or bijection enumeration and never
reuses the library's search structures, so a library bug cannot hide behind
a matching oracle bug.
"""

from itertools import permutations

import consistentwalks as cw


def brute_force_automorphisms(graph: cw.Graph) -> list[cw.Perm]:
    """All adjacency-preserving bijections, by scanning n! permutations.

    A bijection sending every edge to an edge is an automorphism: edges
    inject into the finite edge set, hence biject.
    """
    out = []
    edges = graph.edges()
    for images in permutations(range(graph.vertex_count)):
        ok = True
        for u, v in edges:
            if not graph.has_edge(images[u], images[v]):
                ok = False
                break
        if ok:
            out.append(cw.Perm(images))
    return out


def leaf_automorphisms(graph: cw.Graph) -> list[cw.Perm]:
    """Every automorphism as one leaf of the full candidate-mask backtrack tree.

    The library's search before it returned strong generators: degree
    classes, then assigning v -> u narrows every later vertex w to the
    neighbors of u when v~w and to the non-neighbors of u otherwise, and
    ``used`` keeps the map injective.  No orbit pruning, one leaf per
    automorphism, in lexicographic order.
    """
    n = graph.vertex_count
    adj = graph.masks
    degs = graph.degrees
    by_degree: dict[int, int] = {}
    for v in range(n):
        by_degree[degs[v]] = by_degree.get(degs[v], 0) | (1 << v)
    found: list[cw.Perm] = []
    images = [0] * n

    def extend(v: int, cand: list[int], used: int) -> None:
        if v == n:
            found.append(cw.Perm(images))
            return
        avail = cand[v] & ~used
        while avail:
            u = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            nxt = cand[:]
            used2 = used | (1 << u)
            ok = True
            for w in range(v + 1, n):
                m = nxt[w] & (adj[u] if adj[v] >> w & 1 else ~adj[u])
                nxt[w] = m
                if not m & ~used2:
                    ok = False
                    break
            if ok:
                images[v] = u
                extend(v + 1, nxt, used2)

    extend(0, [by_degree[degs[v]] for v in range(n)], 0)
    return found


def oracle_shunts(group: cw.PermutationGroup, walk) -> list[cw.Perm]:
    """Shunts straight from the definition: one pass over all elements."""
    return [g for g in group.elements
            if all(g[a] == b for a, b in zip(walk, walk[1:]))]


def oracle_stabilizer(group: cw.PermutationGroup, points) -> list[cw.Perm]:
    return [g for g in group.elements if all(g[p] == p for p in points)]


def oracle_transporter(group: cw.PermutationGroup, src, dst) -> list[cw.Perm]:
    return [g for g in group.elements if all(g[a] == b for a, b in zip(src, dst))]


def oracle_local_lift(group: cw.PermutationGroup, graph: cw.Graph,
                      v: int) -> dict[cw.Perm, cw.Perm]:
    """The local group at ``v`` with its lift, by sweeping the stabilizer:
    each element's restriction to the neighborhood, reindexed to 0..d-1,
    mapped to the least element restricting to it."""
    domain = graph.adj[v]
    index = {u: i for i, u in enumerate(domain)}
    lift: dict[cw.Perm, cw.Perm] = {}
    for h in oracle_stabilizer(group, (v,)):
        lift.setdefault(cw.Perm(index[h[u]] for u in domain), h)
    return lift


def oracle_arc_local_order(group: cw.PermutationGroup, graph: cw.Graph,
                           u: int, v: int) -> int:
    """Distinct restrictions of the arc stabilizer to adj[v] minus u."""
    rest = tuple(w for w in graph.adj[v] if w != u)
    return len({tuple(h[w] for w in rest) for h in oracle_stabilizer(group, (u, v))})


def oracle_fixes_successors(group: cw.PermutationGroup, walk) -> bool:
    """Every stabilizer element fixes every successor (a shunt image of
    the walk) pointwise."""
    succ = {tuple(g[v] for v in walk) for g in oracle_shunts(group, walk)}
    return all(tuple(h[x] for x in s) == s
               for h in oracle_stabilizer(group, walk) for s in succ)


def all_rooted_cycles(graph: cw.Graph) -> set[tuple[int, ...]]:
    """Every rooted directed cycle (including trivial ones) by path DFS."""
    out: set[tuple[int, ...]] = set()
    for u in range(graph.vertex_count):
        for v in graph.adj[u]:
            out.add((u, v, u))

    def extend(path: list[int], used: set[int]) -> None:
        for w in graph.adj[path[-1]]:
            if w == path[0] and len(path) >= 3:
                out.add(tuple(path) + (w,))
            elif w not in used:
                used.add(w)
                path.append(w)
                extend(path, used)
                path.pop()
                used.remove(w)

    for u in range(graph.vertex_count):
        extend([u], {u})
    return out


def oracle_cycle_orbits(group: cw.PermutationGroup,
                        graph: cw.Graph) -> list[list[tuple[int, ...]]]:
    """Consistent-cycle orbits from scratch: DFS cycles, element filters,
    and full-orbit expansion by applying every group element."""
    consistent = {c for c in all_rooted_cycles(graph) if oracle_shunts(group, c)}
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for c in sorted(consistent):
        if c in seen:
            continue
        orbit = {tuple(g[v] for v in c) for g in group.elements}
        assert orbit <= consistent
        seen |= orbit
        orbits.append(sorted(orbit))
    return sorted(orbits, key=lambda orbit: (len(orbit[0]), orbit[0]))


def random_consistent_walk(group: cw.PermutationGroup, graph: cw.Graph,
                           rng, max_length: int = 5) -> tuple[int, ...]:
    """Seeded sampler: a random shunted arc extended to a random length."""
    elements = group.elements
    starts: list[int] = []
    while not starts:
        g = elements[rng.randrange(len(elements))]
        starts = [u for u in range(graph.vertex_count) if graph.has_edge(u, g[u])]
    u = starts[rng.randrange(len(starts))]
    walk = (u, g[u])
    target = rng.randint(1, max_length)
    while len(walk) - 1 < target:
        extensions = cw.consistent_extensions(group, graph, walk)
        walk = extensions[rng.randrange(len(extensions))]
    return walk
