import gc
import hashlib
import time

import pytest

import consistentwalks as cw
from consistentwalks import graphs as graphs_module
from consistentwalks import perms as perms_module
from consistentwalks.errors import (
    BadParameters,
    CapExceeded,
    DuplicateEdge,
    LoopEdge,
    NoNArcs,
    NotAutomorphisms,
    TooFewVertices,
    UnknownSpec,
)
from consistentwalks.graphs import (
    Graph,
    blowup_point,
    n_arcs,
    parse_edge_list_text,
    verify_automorphisms,
)
from consistentwalks.perms import PermutationGroup

import oracles
from test_walks import NET_EDGES, TWO_TRIANGLES_EDGES


def test_validate_triangle():
    g = cw.Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.connected
    assert g.is_regular() and g.valence() == 2


def test_validate_errors():
    with pytest.raises(LoopEdge):
        cw.Graph(3, [(0, 0)])
    with pytest.raises(DuplicateEdge):
        cw.Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(TooFewVertices):
        cw.Graph(2, [(0, 1)])
    with pytest.raises(BadParameters):
        cw.Graph(3, [(0, 7)])


def test_disjoint_triangles_disconnected():
    g = cw.Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not g.connected
    assert g.is_regular()


def test_named_graphs():
    c6 = cw.named_graph("cycle:6")
    assert c6.vertex_count == 6 and c6.valence() == 2
    q3 = cw.named_graph("hypercube:3")
    assert q3.vertex_count == 8 and q3.valence() == 3
    # hypercube vertices are bit strings: neighbors differ in one bit
    assert all(bin(u ^ v).count("1") == 1 for u in range(8) for v in q3.adj[u])
    pet = cw.named_graph("petersen")
    assert pet.vertex_count == 10 and pet.valence() == 3
    k23 = cw.named_graph("complete_bipartite:2:3")
    assert sorted(k23.degrees) == [2, 2, 2, 3, 3]
    circ = cw.named_graph("circulant:8:1,2")
    assert circ.valence() == 4


def petersen_girth() -> int:
    pet = cw.named_graph("petersen")
    shortest = min(len(c) - 1 for c in oracles.all_rooted_cycles(pet) if len(c) > 3)
    return shortest


def test_petersen_girth_five():
    assert petersen_girth() == 5


def test_named_graph_errors():
    with pytest.raises(UnknownSpec):
        cw.named_graph("moebius:8")
    with pytest.raises(BadParameters):
        cw.named_graph("cycle:not_a_number")
    with pytest.raises(BadParameters):
        cw.named_graph("circulant:8:0")
    with pytest.raises(BadParameters):
        cw.named_graph("petersen:5")


@pytest.mark.parametrize("spec,order", [
    ("cycle:6", 12),
    ("complete:4", 24),
    ("hypercube:3", 48),
])
def test_automorphism_group_against_brute_force(spec, order):
    graph = cw.named_graph(spec)
    aut = cw.automorphism_group(graph)
    assert aut.order == order
    assert set(aut.elements) == set(oracles.brute_force_automorphisms(graph))


def test_automorphism_group_petersen_brute_force(family):
    graph, aut = family["petersen"]
    assert aut.order == 120
    assert set(aut.elements) == set(oracles.brute_force_automorphisms(graph))


def leaf_oracle_graph(name: str) -> Graph:
    if name == "net":
        return cw.Graph(6, NET_EDGES)
    if name == "two-triangles":
        return cw.Graph(6, TWO_TRIANGLES_EDGES)
    if name == "edgeless:5":
        return cw.Graph(5, [])
    if name.endswith("[2K1]"):
        return cw.lex_blowup(cw.named_graph(name[:-5]), 2)
    return cw.named_graph(name)


LEAF_ORACLE_GRAPHS = [
    "cycle:6", "complete:5", "complete_bipartite:2:3", "complete_bipartite:3:3",
    "petersen", "hypercube:4", "hypercube:5",
    "circulant:8:1,2", "circulant:12:1,5", "circulant:8:4",  # the last: a perfect matching
    "net", "two-triangles", "edgeless:5", "cycle:4[2K1]", "hypercube:3[2K1]",
]


@pytest.mark.parametrize("name", LEAF_ORACLE_GRAPHS)
def test_automorphism_group_against_leaf_oracle(name):
    graph = leaf_oracle_graph(name)
    aut = cw.automorphism_group(graph)
    leaves = oracles.leaf_automorphisms(graph)
    assert aut.elements == tuple(leaves)
    reference = cw.PermutationGroup.close(leaves, degree=graph.vertex_count)
    assert aut.small_generating_set() == reference.small_generating_set()


@pytest.mark.parametrize("name", [name for name in LEAF_ORACLE_GRAPHS
                                  if leaf_oracle_graph(name).vertex_count <= 12])
def test_automorphism_count_against_networkx(name):
    nx = pytest.importorskip("networkx")
    graph = leaf_oracle_graph(name)
    other = nx.Graph()
    other.add_nodes_from(range(graph.vertex_count))
    other.add_edges_from(graph.edges())
    matcher = nx.algorithms.isomorphism.GraphMatcher(other, other)
    assert cw.automorphism_group(graph).order == sum(1 for _ in matcher.isomorphisms_iter())


@pytest.mark.parametrize("name,order", [("petersen", 120), ("hypercube:3[2K1]", 12288)])
def test_automorphism_cap_boundary(name, order):
    graph = leaf_oracle_graph(name)
    with pytest.raises(CapExceeded) as info:
        cw.automorphism_group(graph, cap=order - 1)
    assert str(info.value) == (f"automorphism search found {order} automorphisms, "
                               f"over the cap of {order - 1}")
    assert cw.automorphism_group(graph, cap=order).order == order


def test_automorphism_ceiling_names_order_without_closing(monkeypatch):
    # Q3[3K1]: |Aut| = 6^8 * 48, refused from the orbit lengths alone
    def no_closure(*args, **kwargs):
        raise AssertionError("the group was materialized")

    monkeypatch.setattr(perms_module, "_dimino", no_closure)
    monkeypatch.setattr(PermutationGroup, "from_strong_generators", no_closure)
    graph = cw.lex_blowup(cw.named_graph("hypercube:3"), 3)
    started = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        cw.automorphism_group(graph)
    assert time.perf_counter() - started < 5
    assert str(info.value).startswith("automorphism search found 80621568 automorphisms")


def blowup_graph(name: str) -> Graph:
    """``"cycle:8[5K1]"`` -> the blow-up of ``cycle:8`` by 5-point fibers."""
    base, m = name[:-1].split("[")
    return cw.lex_blowup(cw.named_graph(base), int(m[:-2]))


# sha256 of the concatenated strong generators, recorded before the search
# pruned twin images (Q3[8K1]: before a level dropped the twins of a
# failed candidate)
STRONG_GENERATOR_DIGESTS = {
    "cycle:4[2K1]": "7f996afff5d112e72458f43a925804c3f6cf0a233c8191d5adb5035eb0154ebb",
    "hypercube:3[2K1]": "5a85055366d0be7e538a64c42c4781321f89cb65e260ea7bd75d8b8bcfa7a6a9",
    "cycle:8[4K1]": "0282042b68b934c0a12b5a76d72c33b8c9279bcb52a10854ba2033040e271697",
    "cycle:8[5K1]": "67117ced907cb6632e6143570c01648c33e1ccea65463f846eb939b01b48bcf3",
    "petersen[4K1]": "e3e13d37bf7dbdeda2e947459c8f971e0b5bddd6650e2d10c843d0a28fbaed79",
    "hypercube:3[3K1]": "e3a2c810d5c28c4dd1b762155b3e89ada3d3e0db3ca24829f49b6882e9331e9e",
    "hypercube:4[3K1]": "9b1e777e5166b818237c79e167135df7d362ad6455556749d27d516bff868c83",
    "hypercube:3[8K1]": "706f8f431e785acbbb285cbae2134205e6dfbd0c9ade0e405f6d96a96e1ea06c",
}


@pytest.mark.parametrize("name", sorted(STRONG_GENERATOR_DIGESTS))
def test_twin_pruning_keeps_the_strong_generators(name):
    gens, _ = graphs_module._strong_generators(blowup_graph(name))
    assert hashlib.sha256(b"".join(gens)).hexdigest() == STRONG_GENERATOR_DIGESTS[name]


def test_twin_pruning_cuts_the_completion_search(monkeypatch):
    # C8[5K1]: each completion tries one image per twin class, not all five
    # fiber points, and a level starts no completion for a twin of a
    # candidate that had none; without the pruning inside completions the
    # same search refines 1,267,826 times, without the level's 2,210 times
    # in 154 completions
    calls = {"_first_completion": 0, "_refine": 0}

    def counting(name):
        function = getattr(graphs_module, name)

        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted
    for name in calls:
        monkeypatch.setattr(graphs_module, name, counting(name))
    graphs_module._strong_generators(blowup_graph("cycle:8[5K1]"))
    assert calls == {"_first_completion": 58, "_refine": 1074}


@pytest.mark.parametrize("name", ["cycle:6", "petersen", "hypercube:5", "hypercube:3[2K1]"])
def test_automorphism_group_expands_transversals_without_closing(name, monkeypatch):
    graph = leaf_oracle_graph(name)
    dimino = perms_module._dimino
    calls = []

    def counting_dimino(*args, **kwargs):
        calls.append(args[:1])
        return dimino(*args, **kwargs)

    monkeypatch.setattr(perms_module, "_dimino", counting_dimino)
    # also counted if graphs ever imports the closure under its own name
    monkeypatch.setattr(graphs_module, "_dimino", counting_dimino, raising=False)
    aut = cw.automorphism_group(graph)
    generators = aut.generators  # read without a closure
    assert calls == []
    assert generators == tuple(graphs_module._strong_generators(graph)[0])


def test_automorphisms_preserve_adjacency(family):
    # the search does not re-verify what it finds, so every element is checked here
    q5 = cw.named_graph("hypercube:5")
    aut5 = cw.automorphism_group(q5)
    assert aut5.order == 3840
    for graph, aut in [*family.values(), (q5, aut5)]:
        verify_automorphisms(graph, aut.elements)


def test_automorphism_search_leaves_no_cyclic_garbage():
    graph = cw.lex_blowup(cw.named_graph("hypercube:3"), 2)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert cw.automorphism_group(graph).order == 12288
        reclaimed = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert reclaimed < 100


def test_verify_automorphisms_rejects_non_automorphism():
    c6 = cw.named_graph("cycle:6")
    with pytest.raises(NotAutomorphisms):
        verify_automorphisms(c6, [cw.Perm((1, 0, 2, 3, 4, 5))])


def test_local_group_q3(family):
    graph, aut = family["q3"]
    local = cw.local_group(aut, graph, 0)
    assert local.domain == (1, 2, 4)
    assert local.group.order == 6
    assert local.group.is_transitive()
    assert local.stabilizer_order == local.group.order * local.kernel_order


def test_local_group_against_sweep_oracle(family):
    for name, (graph, aut) in family.items():
        local = cw.local_group(aut, graph, 0)
        lift = oracles.oracle_local_lift(aut, graph, 0)
        assert local.group.elements == tuple(sorted(lift)), name


def test_local_group_trivial_and_k5(family):
    graph, _ = family["q3"]
    trivial = cw.PermutationGroup.close([], degree=graph.vertex_count)
    assert cw.local_group(trivial, graph, 0).group.order == 1
    k5, aut5 = family["k5"]
    local = cw.local_group(aut5, k5, 0)
    assert local.group.order == 24  # full symmetric action on 4 neighbors
    assert local.group.is_transitive()


def test_is_n_arc_transitive(family):
    c6, aut6 = family["c6"]
    assert cw.is_n_arc_transitive(aut6, c6, 1)
    pet, autp = family["petersen"]
    assert cw.is_n_arc_transitive(autp, pet, 2)
    rot = cw.PermutationGroup.close([cw.Perm((1, 2, 3, 4, 5, 0))])
    assert not cw.is_n_arc_transitive(rot, c6, 1)


def test_n_arc_transitivity_implies_one_less(family):
    for name in ("q3", "petersen", "k5", "q4"):
        graph, aut = family[name]
        if cw.is_n_arc_transitive(aut, graph, 2):
            assert cw.is_n_arc_transitive(aut, graph, 1)


def test_no_n_arcs():
    star = cw.named_graph("complete_bipartite:1:2")
    assert n_arcs(star, 2)
    with pytest.raises(NoNArcs):
        trivial = cw.PermutationGroup.close([], degree=3)
        cw.is_n_arc_transitive(trivial, star, 3)


def test_twin_vertices():
    assert cw.twin_vertices(cw.named_graph("cycle:6")) == []
    k23 = cw.named_graph("complete_bipartite:2:3")
    assert cw.twin_vertices(k23) == [(0, 1), (2, 3), (2, 4), (3, 4)]
    blowup = cw.lex_blowup(cw.named_graph("cycle:4"), 2)
    pairs = cw.twin_vertices(blowup)
    for v in range(4):
        assert (2 * v, 2 * v + 1) in pairs


def test_lex_blowup():
    c4 = cw.named_graph("cycle:4")
    blowup = cw.lex_blowup(c4, 2)
    assert blowup.vertex_count == 8 and blowup.valence() == 4
    assert blowup_point(2, 1, 2) == 5
    same = cw.lex_blowup(c4, 1)
    assert same.edges() == c4.edges()
    q3b = cw.lex_blowup(cw.named_graph("hypercube:3"), 2)
    assert q3b.vertex_count == 16 and q3b.valence() == 6
    # adjacency follows the base graph on first coordinates
    points = [(v, i) for v in range(4) for i in range(2)]
    for u, i in points:
        for v, j in points:
            assert blowup.has_edge(blowup_point(u, i, 2),
                                   blowup_point(v, j, 2)) == c4.has_edge(u, v)


def test_blowup_fibers_are_twin_classes():
    q3 = cw.named_graph("hypercube:3")
    assert cw.twin_vertices(q3) == []
    blowup = cw.lex_blowup(q3, 2)
    assert cw.twin_vertices(blowup) == [(2 * v, 2 * v + 1) for v in range(8)]


def test_large_cycle_adjacency():
    n = 20000
    cycle = cw.named_graph(f"cycle:{n}")
    assert cycle.adj[0] == (1, n - 1) and cycle.adj[n - 1] == (0, n - 2)
    assert all(cycle.adj[v] == (v - 1, v + 1) for v in range(1, n - 1))
    assert cycle.masks[5] == 0b101 << 4
    assert cycle.connected and cycle.edge_count() == n


def test_graph_serialization():
    g = cw.named_graph("cycle:5")
    data = g.to_json()
    assert Graph(data["vertices"], data["edges"]).edges() == g.edges()
    text = "0 1\n1 2\n# comment\n2 0\n"
    tri = Graph(*parse_edge_list_text(text))
    assert tri.vertex_count == 3 and tri.edge_count() == 3
    with pytest.raises(BadParameters):
        parse_edge_list_text("0 1 2\n")
