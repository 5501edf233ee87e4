"""Finite simple graphs and their automorphisms.

Vertices are 0..n-1.  The automorphism search is a candidate-mask
backtracking along the base 0..n-1, run level by level from the deepest
point: at each level it looks for one automorphism per point that the
stabilizer found so far does not yet reach, so it returns a strong
generating set and |Aut| as a product of orbit lengths, not one leaf per
automorphism.  An image that fails for a vertex fails for its twins too,
which are then skipped.  Once the order has been checked against the cap,
the group is kept as the stabilizer chain of those generators, and no
element is built until one is read.  Graphs are limited to 64 vertices, so
neighborhoods fit in machine-int bitmasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    BadParameters,
    CapExceeded,
    DuplicateEdge,
    LoopEdge,
    NoNArcs,
    NotAutomorphisms,
    TooFewVertices,
    UnknownSpec,
    invariant,
)
from .perms import DEFAULT_GROUP_CAP, Perm, PermutationGroup

AUTOMORPHISM_VERTEX_LIMIT = 64
# a hypercube:a spec above this has over 2**32 vertices, no graph ever built
HYPERCUBE_DIMENSION_LIMIT = 32


class Graph:
    """Immutable simple graph with sorted adjacency lists and bitmask rows."""

    __slots__ = ("vertex_count", "adj", "masks", "connected")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]]):
        n = int(vertex_count)
        if n < 3:
            raise TooFewVertices(f"need at least 3 vertices, got {n}")
        neighbors: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise BadParameters(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise LoopEdge(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdge(f"edge ({key[0]},{key[1]}) repeated")
            seen.add(key)
            neighbors[u].append(v)
            neighbors[v].append(u)
        self.vertex_count = n
        self.adj = tuple(tuple(sorted(ws)) for ws in neighbors)
        self.masks = tuple(sum(1 << w for w in ws) for ws in self.adj)
        self.connected = self._bfs_connected()

    def _bfs_connected(self) -> bool:
        seen = 1
        frontier = [0]
        while frontier:
            new = []
            for v in frontier:
                rest = self.masks[v] & ~seen
                while rest:
                    w = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    seen |= 1 << w
                    new.append(w)
            frontier = new
        return seen == (1 << self.vertex_count) - 1

    # -- queries -----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    def is_regular(self) -> bool:
        return len(set(self.degrees)) == 1

    def valence(self) -> int:
        if not self.is_regular():
            raise BadParameters("graph is not regular; valence undefined")
        return len(self.adj[0])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.vertex_count) for v in self.adj[u] if u < v]

    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def __repr__(self) -> str:
        return (f"<Graph n={self.vertex_count} m={self.edge_count()}"
                f"{' connected' if self.connected else ' disconnected'}>")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges()]}


def parse_edge_list_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count (max index + 1) and edges of "u v" lines, unchecked.

    ``#`` starts a comment.  Nothing is allocated per vertex, so a caller
    can refuse the count before building a :class:`Graph`.
    """
    edges = []
    top = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise BadParameters(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise BadParameters(f"line {lineno}: non-integer vertex in {line!r}") from None
        if u < 0 or v < 0:
            raise BadParameters(f"line {lineno}: negative vertex in {line!r}")
        edges.append((u, v))
        top = max(top, u, v)
    return top + 1, edges


# -- named families ----------------------------------------------------------

NAMED_KINDS = ("cycle", "complete", "hypercube", "petersen", "circulant",
               "complete_bipartite")


def parse_named_spec(spec: str) -> tuple[int, Iterator[tuple[int, int]]]:
    """The vertex count and a lazy edge iterator of a named spec, unchecked.

    Supported: cycle:n, complete:n, hypercube:a, petersen,
    circulant:n:s1,...,sk, complete_bipartite:a:b.  Nothing is built
    here, so a caller can refuse the count before any edge exists.
    """
    parts = spec.strip().lower().split(":")
    kind = parts[0]
    try:
        if kind == "cycle":
            (n,) = map(int, parts[1:])
            return n, ((i, (i + 1) % n) for i in range(n))
        if kind == "complete":
            (n,) = map(int, parts[1:])
            return n, ((i, j) for i in range(n) for j in range(i + 1, n))
        if kind == "hypercube":
            (a,) = map(int, parts[1:])
            if a < 1:
                raise BadParameters("hypercube dimension must be >= 1")
            if a > HYPERCUBE_DIMENSION_LIMIT:  # refused before 2**a is built
                raise CapExceeded(f"hypercube dimension {a} exceeds the limit "
                                  f"of {HYPERCUBE_DIMENSION_LIMIT}")
            return 1 << a, ((v, v | 1 << b) for v in range(1 << a) for b in range(a)
                            if not v >> b & 1)
        if kind == "petersen":
            if len(parts) != 1:
                raise BadParameters("petersen takes no parameters")
            pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
            return 10, ((k, pairs.index(q)) for k, p in enumerate(pairs) for q in pairs
                        if p < q and not set(p) & set(q))
        if kind == "circulant":
            n, steps = parts[1:]
            n, steps = int(n), sorted({int(s) for s in steps.split(",")})
            if any(s <= 0 or 2 * s > n for s in steps):
                raise BadParameters(f"circulant steps must satisfy 0 < s <= n/2, got {steps}")
            # the step n/2 meets each of its edges from both ends
            return n, ((i, (i + s) % n) for s in steps for i in range(n if 2 * s < n else s))
        if kind == "complete_bipartite":
            a, b = map(int, parts[1:])
            if a < 1 or b < 1:
                raise BadParameters("both sides must be nonempty")
            return a + b, ((i, a + j) for i in range(a) for j in range(b))
    except ValueError:
        raise BadParameters(f"malformed parameters in {spec!r}") from None
    raise UnknownSpec(f"unknown graph spec {spec!r}")


def named_graph(spec: str) -> Graph:
    """Build a standard graph from a spec string (see :func:`parse_named_spec`)."""
    return Graph(*parse_named_spec(spec))


# -- automorphisms -----------------------------------------------------------

def verify_automorphisms(graph: Graph, perms: Iterable[Perm]) -> None:
    """Raise NotAutomorphisms unless every permutation preserves adjacency."""
    n = graph.vertex_count
    for p in perms:
        if len(p) != n:
            raise NotAutomorphisms(f"degree {len(p)} != vertex count {n}")
        for v in range(n):
            if {p[w] for w in graph.adj[v]} != set(graph.adj[p[v]]):
                raise NotAutomorphisms(f"{p} breaks adjacency at vertex {v}")


def _refine(adj: Sequence[int], v: int, u: int, cand: list[int],
            used: int) -> list[int] | None:
    """The candidate masks after assigning v -> u, or None at a dead end.

    Every later vertex w narrows to the neighbors of u when v~w and to the
    non-neighbors of u otherwise; ``used`` already holds u and keeps the
    map injective.  Entries before v + 1 are copied unread.
    """
    nxt = cand[:]
    row, near = adj[u], adj[v]
    for w in range(v + 1, len(cand)):
        m = nxt[w] & (row if near >> w & 1 else ~row)
        if not m & ~used:
            return None
        nxt[w] = m
    return nxt


def _first_completion(adj: Sequence[int], twins: Sequence[int], level: int, u: int,
                      cand: list[int]) -> Perm | None:
    """The least automorphism fixing 0..level-1 and sending level to u, or None.

    ``cand`` holds the candidate masks with 0..level-1 fixed.  A depth-first
    search with one stack frame (candidate masks, used mask, untried
    images) per assigned vertex after ``level``.  Each leaf is an
    automorphism by construction, so the first one is returned unchecked.
    ``twins[w]`` is the mask of the vertices whose neighborhood is w's.
    Once the image w of v has been tried without a completion, w's twins
    are dropped from v's untried images: the transposition of w and an
    unused twin w' is an automorphism fixing every image assigned so far,
    so it would map a completion sending v to w' onto one sending v to w.
    """
    n = len(cand)
    used = (1 << level) - 1 | 1 << u
    cand = _refine(adj, level, u, cand, used)
    if cand is None:
        return None
    images = list(range(n))
    images[level] = u
    frames: list[tuple[list[int], int, int]] = []
    v = level + 1
    avail = cand[v] & ~used if v < n else 0
    while v < n:
        if avail:
            bit = avail & -avail
            w = bit.bit_length() - 1
            avail &= ~twins[w]
            nxt = _refine(adj, v, w, cand, used | bit)
            if nxt is not None:
                images[v] = w
                frames.append((cand, used, avail))
                cand, used, v = nxt, used | bit, v + 1
                avail = cand[v] & ~used if v < n else 0
        elif frames:
            cand, used, avail = frames.pop()
            v -= 1
        else:
            return None
    return Perm(images)


def _strong_generators(graph: Graph) -> tuple[list[Perm], list[int]]:
    """Strong generators of Aut(graph) for the base 0..n-1, and its basic orbit lengths.

    Level i runs from n-1 down to 0.  Every generator found at level i or
    deeper fixes 0..i-1.  For each candidate u of i, in increasing order,
    that is not yet in the orbit of i under those generators, the first
    automorphism fixing 0..i-1 and sending i to u (if any) joins them,
    and the orbit grows by the new points it reaches.  When u has none, no
    twin u' of u has one either: the transposition of u and u' fixes
    0..i-1, so u's twin class leaves the level's candidates.  When level i
    ends they generate the pointwise stabilizer of 0..i-1, and
    ``lengths[i]`` is the length of its orbit of i, so |Aut| is the
    product of the lengths (Sims 1970; Butler 1991).  Each completion
    search is a subtree of the full backtrack tree, and no subtree is
    searched twice.
    """
    n = graph.vertex_count
    adj, degs = graph.masks, graph.degrees
    by_degree: dict[int, int] = {}
    by_row: dict[int, int] = {}
    for v in range(n):
        by_degree[degs[v]] = by_degree.get(degs[v], 0) | 1 << v
        by_row[adj[v]] = by_row.get(adj[v], 0) | 1 << v
    twins = [by_row[row] for row in adj]
    # path[i]: the candidate masks of the identity path with 0..i-1 fixed
    path = [[by_degree[d] for d in degs]]
    for i in range(n - 1):
        path.append(_refine(adj, i, i, path[i], (1 << i + 1) - 1))
    gens: list[Perm] = []
    lengths = [1] * n
    for i in reversed(range(n)):
        orbit = {i}
        avail = path[i][i] & ~((1 << i) - 1)
        while avail:
            bit = avail & -avail
            avail ^= bit
            u = bit.bit_length() - 1
            if u in orbit:
                continue
            g = _first_completion(adj, twins, i, u, path[i])
            if g is None:
                avail &= ~twins[u]
                continue
            gens.append(g)
            # the orbit was closed under the others: old points see g alone
            frontier = [g[x] for x in orbit]
            while frontier:
                x = frontier.pop()
                if x not in orbit:
                    orbit.add(x)
                    frontier.extend(h[x] for h in gens)
        lengths[i] = len(orbit)
    return gens, lengths


def check_search_size(vertex_count: int) -> None:
    """Raise CapExceeded for a graph too large for the automorphism search."""
    if vertex_count > AUTOMORPHISM_VERTEX_LIMIT:
        raise CapExceeded(f"automorphism search on {vertex_count} vertices exceeds "
                          f"the limit of {AUTOMORPHISM_VERTEX_LIMIT}")


def automorphism_group(graph: Graph, cap: int = DEFAULT_GROUP_CAP) -> PermutationGroup:
    """The full automorphism group, as the stabilizer chain of its strong generators.

    The level-by-level search (:func:`_strong_generators`) gives |Aut| as
    a product of orbit lengths before any element is built, so a group
    over ``cap`` is refused with its exact order.  Otherwise the group
    keeps the search's strong generators as its generators and as a
    stabilizer chain (:meth:`PermutationGroup.from_strong_generators`):
    queries rooted at its first base point, 0 on a vertex-transitive
    graph, are answered inside that point's stabilizer, queries rooted
    elsewhere inside a stabilizer built from the generators and kept, and
    no element is expanded until one is read.
    Candidate masks are machine-int bitmasks, so graphs over
    ``AUTOMORPHISM_VERTEX_LIMIT`` vertices are refused.
    """
    if cap < 1:
        raise BadParameters("cap must be >= 1")
    n = graph.vertex_count
    check_search_size(n)
    gens, lengths = _strong_generators(graph)
    order = math.prod(lengths)
    if order > cap:
        raise CapExceeded(f"automorphism search found {order} "
                          f"automorphisms, over the cap of {cap}")
    return PermutationGroup.from_strong_generators(n, gens)


@dataclass
class LocalAction:
    """Action of a vertex stabilizer on the neighborhood, reindexed to 0..d-1."""

    base_vertex: int
    domain: tuple[int, ...]
    group: PermutationGroup
    stabilizer_order: int

    @property
    def kernel_order(self) -> int:
        return self.stabilizer_order // self.group.order


def local_group(group: PermutationGroup, graph: Graph, v: int) -> LocalAction:
    """Restrict the stabilizer of ``v`` to its neighborhood: a homomorphism,
    so the local group is closed from the restrictions of its generators."""
    verify_automorphisms(graph, group.generators)
    if not 0 <= v < graph.vertex_count:
        raise BadParameters(f"vertex {v} out of range")
    stab = group.pointwise_stabilizer((v,))
    domain = graph.adj[v]
    index = {u: i for i, u in enumerate(domain)}
    restricted = [Perm(index[h[u]] for u in domain) for h in stab.generators]
    local = PermutationGroup.close(restricted, degree=len(domain))
    invariant(stab.order % local.order == 0,
              f"local group order {local.order} does not divide |G_v| = {stab.order}")
    return LocalAction(base_vertex=v, domain=domain, group=local,
                       stabilizer_order=stab.order)


# -- transitivity, twins, blow-up --------------------------------------------

def n_arcs(graph: Graph, n: int) -> list[tuple[int, ...]]:
    """All n-arcs: walks whose consecutive triples are pairwise distinct."""
    if n < 1:
        raise BadParameters("n must be >= 1")
    arcs: list[tuple[int, ...]] = [(u, w) for u in range(graph.vertex_count)
                                   for w in graph.adj[u]]
    for _ in range(n - 1):
        arcs = [a + (z,) for a in arcs for z in graph.adj[a[-1]] if z != a[-2]]
    return arcs


def is_n_arc_transitive(group: PermutationGroup, graph: Graph, n: int) -> bool:
    """True iff all n-arcs form a single orbit under the tuple action."""
    arcs = n_arcs(graph, n)
    if not arcs:
        raise NoNArcs(f"graph has no {n}-arc")
    orbit = group.tuple_orbit(arcs[0])
    arc_set = set(arcs)
    invariant(orbit <= arc_set, "automorphism images of an n-arc must be n-arcs")
    return len(orbit) == len(arc_set)


def is_arc_transitive(group: PermutationGroup, graph: Graph) -> bool:
    return is_n_arc_transitive(group, graph, 1)


def twin_vertices(graph: Graph) -> list[tuple[int, int]]:
    """All unordered pairs with identical neighborhoods."""
    groups: dict[int, list[int]] = {}
    for v in range(graph.vertex_count):
        groups.setdefault(graph.masks[v], []).append(v)
    pairs = []
    for vs in groups.values():
        pairs.extend((vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs)))
    return sorted(pairs)


def blowup_point(v: int, i: int, m: int) -> int:
    """Fixed blow-up numbering: (v, i) -> v*m + i."""
    return v * m + i


def lex_blowup(graph: Graph, m: int) -> Graph:
    """Replace each vertex by an independent m-set; join fibers of adjacent
    vertices.  Point i of vertex v's fiber is ``blowup_point(v, i, m)``."""
    if m < 1:
        raise BadParameters("m must be >= 1")
    edges = [(blowup_point(u, i, m), blowup_point(v, j, m))
             for u, v in graph.edges() for i in range(m) for j in range(m)]
    return Graph(graph.vertex_count * m, edges)
