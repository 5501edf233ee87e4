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


def oracle_least_image(group: cw.PermutationGroup, tup) -> tuple[int, ...]:
    """The least image of a point tuple: the minimum over every element."""
    return min(tuple(g[p] for p in tup) for g in group.elements)


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


def oracle_successors(group: cw.PermutationGroup, walk) -> list[tuple[int, ...]]:
    """The shunt images of the walk, sorted, from one scan of its shunts."""
    return sorted({tuple(g[v] for v in walk) for g in oracle_shunts(group, walk)})


def oracle_conditions(group: cw.PermutationGroup, walk) -> dict:
    """``ConditionReport.to_json`` by element scans: the successor counts
    off the shunt images, and J = <G_prefix, G_shifted> closed from the two
    stabilizers' element lists, its orbit an image scan."""
    walk = tuple(walk)
    prefix = walk[:-1]
    ell, k = len(oracle_successors(group, walk)), len(oracle_successors(group, prefix))
    joined = cw.PermutationGroup.close(
        oracle_stabilizer(group, prefix) + oracle_stabilizer(group, walk[1:]),
        degree=group.degree)
    prefix_succ = set(oracle_successors(group, prefix))
    least = min(prefix_succ)
    return {"walk": list(walk), "walk_successor_count": ell, "prefix_successor_count": k,
            "a": not any(k % i == 0 for i in range(ell, k)),
            "b": {tuple(g[v] for v in least) for g in joined.elements} == prefix_succ,
            "c": set(joined.elements) == set(oracle_stabilizer(group, walk[1:-1])),
            "joined_stabilizer_order": joined.order}


def oracle_certificate(group: cw.PermutationGroup, graph: cw.Graph, walk,
                       seed_length: int) -> dict:
    """``certify_trivial_stabilizer`` by element scans: the seed's orbit
    of 0 under its shunts, every longer prefix's conditions from
    :func:`oracle_conditions`, the fix check and |G_(w)| by scans."""
    walk = tuple(walk)
    r = len(walk) - 1
    seed = walk[: seed_length + 1]
    gens, orbit, frontier = oracle_shunts(group, seed), {0}, [0]
    while frontier:
        frontier = {g[x] for x in frontier for g in gens} - orbit
        orbit.update(frontier)
    cert = {"walk": list(walk),
            "seed": {"length": seed_length, "walk": list(seed),
                     "shunt_group_transitive": len(orbit) == graph.vertex_count},
            "prefix_conditions": [],
            "stabilizer_order": len(oracle_stabilizer(group, walk))}
    if len(orbit) < graph.vertex_count:
        return {**cert, "certified": False,
                "failure_reason": f"seed walk {list(seed)} is not reaching every vertex"}
    for n in range(seed_length, r):
        report = oracle_conditions(group, walk[: n + 2])
        cert["prefix_conditions"].append({"n": n, **{c: report[c] for c in "abc"}})
        if not (report["a"] or report["b"] or report["c"]):
            return {**cert, "certified": False,
                    "failure_reason": f"prefix of length {n} violates all three conditions"}
    if not oracle_fixes_successors(group, walk):
        return {**cert, "certified": False, "failure_reason": "final fix check"}
    return {**cert, "certified": True}


def oracle_fixes_successors(group: cw.PermutationGroup, walk) -> bool:
    """Every stabilizer element fixes every successor (a shunt image of
    the walk) pointwise."""
    succ = {tuple(g[v] for v in walk) for g in oracle_shunts(group, walk)}
    return all(tuple(h[x] for x in s) == s
               for h in oracle_stabilizer(group, walk) for s in succ)


def fixes_successors_by_extension_counts(group: cw.PermutationGroup, graph: cw.Graph,
                                        walk) -> bool:
    """Whether the walk's stabilizer fixes every successor, read off
    successor counts: each extension of the walk by a successor's last
    vertex must have exactly one successor.  The second route
    ``stabilizer_fixes_successors`` once computed beside its direct one."""
    walk = tuple(walk)
    return all(len(cw.successors(group, graph, walk + (s[-1],))) == 1
               for s in cw.successors(group, graph, walk))


def consistent_extensions(group: cw.PermutationGroup, graph: cw.Graph,
                          walk) -> list[tuple[int, ...]]:
    """One-vertex extensions of the walk that are still consistent, sorted:
    the walks (v_0..v_n, x) with x the last vertex of some successor."""
    walk = tuple(walk)
    return sorted({walk + (s[-1],) for s in cw.successors(group, graph, walk)})


def exhaustive_trivial_walk(group: cw.PermutationGroup, graph: cw.Graph,
                            depth_cap: int = 64):
    """The trivial-walk search node by node: (walk, least shunt), or None.

    The library's search before it carried shunt lists: consistent arcs in
    lexicographic order, then depth first with the least extension first,
    one stabilizer query per popped walk and one successor query per
    expanded walk.
    """
    stack = sorted(((u, w) for u in range(graph.vertex_count) for w in graph.adj[u]),
                   reverse=True)
    stack = [arc for arc in stack if cw.shunts(group, graph, arc)]
    while stack:
        walk = stack.pop()
        if group.pointwise_stabilizer(walk).order == 1:
            return walk, cw.shunts(group, graph, walk)[0]
        if len(walk) - 1 < depth_cap:
            stack.extend(reversed(consistent_extensions(group, graph, walk)))
    return None


def shunt_descent(group: cw.PermutationGroup, graph: cw.Graph, depth_cap: int):
    """The consistent walks of length <= ``depth_cap`` from the least arc
    of each arc orbit, with their shunts, depth first.

    The library's trivial-walk search before it read the census's walk
    classes.  Arcs come in lexicographic order, each followed by its
    extensions, least endpoint first; an arc in the G-orbit of an earlier
    arc is skipped, and an arc's orbit is computed once its subtree is
    exhausted.  Yields (walk, shunts, shunts split by the image of the
    last vertex): the shunts of walk + (x,) are the walk's shunts that
    send its last vertex to x, so only the searched arcs query the group.
    """
    covered: set[tuple[int, ...]] = set()  # arcs in the orbit of a searched arc
    for arc in sorted((u, w) for u in range(graph.vertex_count) for w in graph.adj[u]):
        if arc in covered:
            continue
        shs = group.transporter(arc[:1], arc[1:])
        stack = [(arc, shs)] if shs else []
        while stack:
            walk, shs = stack.pop()
            by_end: dict[int, list[cw.Perm]] = {}
            for g in shs:
                by_end.setdefault(g[walk[-1]], []).append(g)
            yield walk, shs, by_end
            if len(walk) - 1 < depth_cap:
                stack.extend((walk + (x,), by_end[x]) for x in sorted(by_end, reverse=True))
        covered |= group.tuple_orbit(arc)


def arc_orbit_trivial_walk(group: cw.PermutationGroup, graph: cw.Graph,
                           depth_cap: int = 64):
    """The trivial-walk search over arc orbits: (walk, least shunt), or None.

    Its first walk whose shunts all send the last vertex to distinct
    images, which is when |G_(w)| = |shunts| / |Succ| is 1.
    """
    for walk, shs, by_end in shunt_descent(group, graph, depth_cap):
        if len(by_end) == len(shs):
            return walk, shs[0]
    return None


def least_walk_class_members(group: cw.PermutationGroup, graph: cw.Graph,
                             depth_cap: int) -> list[tuple[int, ...]]:
    """The least member of each G_r-class of consistent walks of at most
    ``depth_cap`` arcs rooted at the least vertex r of each vertex orbit,
    (r,) included and walks back to r not extended: roots in order, each
    root's walks in lexicographic order.  Shunts are filtered from the
    element list, and a walk is least when no element of G_r maps it lower.
    """
    out, placed = [], set()
    for r in range(graph.vertex_count):
        if r in placed:
            continue
        placed |= {g[r] for g in group.elements}
        stab = oracle_stabilizer(group, (r,))
        walks, frontier = [], [((r,), list(group.elements))]
        while frontier:
            walks += [w for w, _ in frontier]
            frontier = [(w + (x,), ext) for w, shs in frontier
                        if len(w) <= depth_cap and (len(w) == 1 or w[-1] != r)
                        for x in graph.adj[w[-1]]
                        for ext in [[g for g in shs if g[w[-1]] == x]] if ext]
        out += sorted(w for w in walks if w == min(tuple(h[v] for v in w) for h in stab))
    return out


def chase_by_successor_queries(group: cw.PermutationGroup, graph: cw.Graph,
                               walk, target=None) -> dict:
    """The reachability chase with one successor query per reached walk:
    breadth first, each frontier sorted and each walk's successors in
    order, so the first walk found ending at ``target`` gives the chain.
    The library's chase before it carried one element per reached walk.
    Returns the verdict, the vertices reached and the chain."""
    w = tuple(walk)
    reached = {w[-1]}
    parent = {w: None}
    target_walk = w if target == w[-1] else None
    frontier = [w]
    while frontier and len(reached) < graph.vertex_count:
        next_frontier = []
        for cur in frontier:
            for s in cw.successors(group, graph, cur):
                if s not in parent:
                    parent[s] = cur
                    next_frontier.append(s)
                    reached.add(s[-1])
                    if target_walk is None and s[-1] == target:
                        target_walk = s
        frontier = sorted(next_frontier)
    chain = None
    if target is not None and target_walk is not None:
        chain = []
        node = target_walk
        while node != w:
            chain.append(list(node))
            node = parent[node]
        chain.reverse()
    return {"verdict": len(reached) == graph.vertex_count, "reached": reached,
            "chain": chain}


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


def element_cycles(group: cw.PermutationGroup, graph: cw.Graph) -> set[tuple[int, ...]]:
    """Every consistent cycle read off the definition: the g-cycle through
    u, for every element g and every vertex u that g sends to a neighbor.

    Linear in |G| * n, so it reaches graphs whose cycles a DFS cannot list.
    """
    out: set[tuple[int, ...]] = set()
    for g in group.elements:
        for u in range(graph.vertex_count):
            if graph.has_edge(u, g[u]):
                cycle = [u, g[u]]
                while cycle[-1] != u:
                    cycle.append(g[cycle[-1]])
                out.add(tuple(cycle))
    return out


def oracle_cycle_orbits(group: cw.PermutationGroup, graph: cw.Graph,
                        consistent=None) -> list[list[tuple[int, ...]]]:
    """Consistent-cycle orbits from scratch: DFS cycles, element filters,
    and full-orbit expansion by applying every group element.

    ``consistent``, when given, replaces the filtered DFS cycles, e.g. by
    :func:`element_cycles`.
    """
    if consistent is None:
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
    """Seeded sampler: a random shunted arc extended to a random length.

    Raises ValueError when no element sends any vertex to a neighbor, as
    under Aut(Q3)_0, where no arc is consistent and the sampler would
    redraw elements forever.
    """
    elements = group.elements
    if not any(graph.has_edge(u, g[u]) for g in elements for u in range(graph.vertex_count)):
        raise ValueError("no element sends a vertex to a neighbor: no arc is consistent")
    starts: list[int] = []
    while not starts:
        g = elements[rng.randrange(len(elements))]
        starts = [u for u in range(graph.vertex_count) if graph.has_edge(u, g[u])]
    u = starts[rng.randrange(len(starts))]
    walk = (u, g[u])
    target = rng.randint(1, max_length)
    while len(walk) - 1 < target:
        extensions = consistent_extensions(group, graph, walk)
        walk = extensions[rng.randrange(len(extensions))]
    return walk


SELECTION_STEP_CAP = 500_000


def prefix_tree(rooted) -> dict[tuple[int, ...], set[int]]:
    """Map each prefix of each rooted cycle to the orbits passing through it."""
    tree: dict[tuple[int, ...], set[int]] = {}
    for i, cycles in enumerate(rooted):
        for cycle in cycles:
            for k in range(1, len(cycle) + 1):
                tree.setdefault(cycle[:k], set()).add(i)
    return tree


def prefix_tree_matrix(rooted) -> list[list[int]]:
    """The orbit-overlap matrix read off the prefixes the rooted cycles share:
    overlap is group-invariant and -1 across roots, so the rooted members
    of each orbit reach its maxima."""
    d = len(rooted)
    matrix = [[0] * d for _ in range(d)]
    for i in range(d):
        matrix[i][i] = len(rooted[i][0]) - 1
    for q, orbs in prefix_tree(rooted).items():
        if len(orbs) < 2:
            continue
        depth = len(q) - 1
        pairs = sorted(orbs)
        for ai, i in enumerate(pairs):
            for j in pairs[ai + 1:]:
                if depth > matrix[i][j]:
                    matrix[i][j] = matrix[j][i] = depth
    return matrix


def select_representatives(rooted, matrix) -> list[tuple[int, ...]]:
    """Lexicographically first tuple of rooted cycles realizing the matrix.

    Depth-first over the orbits in order; a cycle is placed when its
    overlap with every placed representative equals the matrix entry.
    The library's selection before it read the census representatives.
    """
    d = len(rooted)
    chosen: list[tuple[int, ...]] = []
    steps = 0

    def place(i: int) -> bool:
        nonlocal steps
        if i == d:
            return True
        for cycle in rooted[i]:
            steps += 1
            assert steps <= SELECTION_STEP_CAP, "representative search exceeded its cap"
            if all(cw.overlap(cycle, chosen[j]) == matrix[i][j] for j in range(i)):
                chosen.append(cycle)
                if place(i + 1):
                    return True
                chosen.pop()
        return False

    assert place(0), "no representative tuple realizes the orbit overlaps"
    return chosen


def oracle_selection(group: cw.PermutationGroup, reps):
    """The selector run on rooted lists from a plain element scan: each
    representative's orbit members that start at its root.  Returns the
    selected tuple and the prefix-tree matrix."""
    rooted = []
    for rep in reps:
        orbit = {tuple(g[v] for v in rep) for g in group.elements}
        rooted.append(sorted(c for c in orbit if c[0] == rep[0]))
    matrix = prefix_tree_matrix(rooted)
    return select_representatives(rooted, matrix), matrix


def union_find_reachability_classes(group: cw.PermutationGroup,
                                    walk) -> list[frozenset[tuple[int, ...]]]:
    """Successor-reachability classes as components over the whole walk orbit.

    Every group element's image of the walk joins its prefix to its tail in
    a union-find over the prefix orbit; the components, ordered by their
    least members.  The library's construction before it read the classes
    off the shunt group's blocks.
    """
    walk = tuple(walk)
    walk_orbit = {tuple(g[v] for v in walk) for g in group.elements}
    index = {t: i for i, t in enumerate(sorted({m[:-1] for m in walk_orbit}))}
    parent = list(range(len(index)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for member in walk_orbit:
        a, b = find(index[member[:-1]]), find(index[member[1:]])
        if a != b:
            parent[b] = a
    buckets: dict[int, set[tuple[int, ...]]] = {}
    for t, i in index.items():
        buckets.setdefault(find(i), set()).add(t)
    return sorted((frozenset(c) for c in buckets.values()), key=min)


def blowup_shunt_by_images(base_shunt: cw.Perm, root: int, m: int, j: int) -> cw.Perm:
    """The blow-up family's shunt for fiber count j, point by point: the
    base shunt moves each point (v, a) to its own fiber index at
    base_shunt[v], except that arriving at ``root`` advances fibers 0..j-1
    cyclically.  The library's image loop before it composed a lift with
    a fiber rotation."""
    n = len(base_shunt)
    images = [0] * (n * m)
    for v in range(n):
        advance = base_shunt[v] == root
        for a in range(m):
            image_fiber = (a + 1) % j if advance and a < j else a
            images[v * m + a] = base_shunt[v] * m + image_fiber
    return cw.Perm(images)


def family_orbit_ids_by_transporter(family: cw.BlowupCycleFamily,
                                    blowup_group: cw.PermutationGroup,
                                    table: cw.CycleOrbitTable) -> dict[tuple[int, int], int]:
    """Index of each family cycle's orbit in the census, by one transporter
    query per record: a cycle lies in a record's orbit when some element
    maps the record's representative onto it, and a rooted cycle is its
    vertices up to the closing one.  The library's reading before it took
    each cycle's least image."""
    return {key: next(k for k, r in enumerate(table.records)
                      if r.length == len(cycle) - 1
                      and blowup_group.transporter(r.representative[:-1], cycle[:-1]))
            for key, cycle in family.cycles.items()}


def shunt_generating_set_by_transporter(group: cw.PermutationGroup, graph: cw.Graph,
                                        representatives) -> list[cw.Perm]:
    """One shunt per representative, the least of its sorted shunt coset
    from a transporter query.  The library's route before it read each
    least shunt off the census record's coset."""
    out = []
    for rep in representatives:
        found = cw.shunts(group, graph, rep)
        assert found, f"representative {rep} has no shunt"
        out.append(found[0])
    return out


def orbit_overlap_by_sweep(group: cw.PermutationGroup, rep_a, rep_b) -> int:
    """Max overlap between the two walks' orbits, by sweeping the elements
    that move rep_b's root onto rep_a's.  The library's reading before it
    compared least images."""
    best = -1
    for g in group.transporter(rep_b[:1], rep_a[:1]):
        best = max(best, cw.overlap(rep_a, tuple(g[v] for v in rep_b)))
    return best
