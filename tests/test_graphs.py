import gc
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
from consistentwalks.graphs import Graph, n_arcs, verify_automorphisms

import oracles
from test_walks import NET_EDGES, TWO_TRIANGLES_EDGES


def test_validate_triangle():
    g = cw.validate(3, [(0, 1), (1, 2), (2, 0)])
    assert g.connected
    assert g.is_regular() and g.valence() == 2


def test_validate_errors():
    with pytest.raises(LoopEdge):
        cw.validate(3, [(0, 0)])
    with pytest.raises(DuplicateEdge):
        cw.validate(3, [(0, 1), (1, 0)])
    with pytest.raises(TooFewVertices):
        cw.validate(2, [(0, 1)])
    with pytest.raises(BadParameters):
        cw.validate(3, [(0, 7)])


def test_disjoint_triangles_disconnected():
    g = cw.validate(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
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
        return cw.validate(6, NET_EDGES)
    if name == "two-triangles":
        return cw.validate(6, TWO_TRIANGLES_EDGES)
    if name == "edgeless:5":
        return cw.validate(5, [])
    if name.endswith("[2K1]"):
        return cw.lex_blowup(cw.named_graph(name[:-5]), 2)[0]
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
    reference = cw.PermutationGroup(graph.vertex_count, leaves)
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
    graph = cw.lex_blowup(cw.named_graph("hypercube:3"), 3)[0]
    started = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        cw.automorphism_group(graph)
    assert time.perf_counter() - started < 5
    assert str(info.value).startswith("automorphism search found 80621568 automorphisms")


@pytest.mark.parametrize("name", ["cycle:6", "petersen", "hypercube:5", "hypercube:3[2K1]"])
def test_automorphism_group_closes_once_from_strong_generators(name, monkeypatch):
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
    generators = aut.generators  # read without a second closure
    assert len(calls) == 1
    assert generators == tuple(graphs_module._strong_generators(graph)[0])


def test_automorphisms_preserve_adjacency(family):
    # the search does not re-verify what it finds, so every element is checked here
    q5 = cw.named_graph("hypercube:5")
    aut5 = cw.automorphism_group(q5)
    assert aut5.order == 3840
    for graph, aut in [*family.values(), (q5, aut5)]:
        verify_automorphisms(graph, aut.elements)


def test_automorphism_search_leaves_no_cyclic_garbage():
    graph = cw.lex_blowup(cw.named_graph("hypercube:3"), 2)[0]
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
    for q, h in local.lift.items():
        assert all(h[local.domain[i]] == local.domain[q[i]] for i in range(3))


def test_local_group_against_sweep_oracle(family):
    for name, (graph, aut) in family.items():
        local = cw.local_group(aut, graph, 0)
        lift = oracles.oracle_local_lift(aut, graph, 0)
        assert local.group.elements == tuple(sorted(lift)), name
        assert local.lift == lift, name


def test_local_group_trivial_and_k5(family):
    graph, _ = family["q3"]
    trivial = cw.close_group([], degree=graph.vertex_count)
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
    rot = cw.close_group([cw.Perm((1, 2, 3, 4, 5, 0))])
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
        trivial = cw.close_group([], degree=3)
        cw.is_n_arc_transitive(trivial, star, 3)


def test_twin_vertices():
    assert cw.twin_vertices(cw.named_graph("cycle:6")) == []
    k23 = cw.named_graph("complete_bipartite:2:3")
    assert cw.twin_vertices(k23) == [(0, 1), (2, 3), (2, 4), (3, 4)]
    blowup, _ = cw.lex_blowup(cw.named_graph("cycle:4"), 2)
    pairs = cw.twin_vertices(blowup)
    for v in range(4):
        assert (2 * v, 2 * v + 1) in pairs


def test_lex_blowup():
    c4 = cw.named_graph("cycle:4")
    blowup, labels = cw.lex_blowup(c4, 2)
    assert blowup.vertex_count == 8 and blowup.valence() == 4
    assert labels[(2, 1)] == 5
    same, _ = cw.lex_blowup(c4, 1)
    assert same.edges() == c4.edges()
    q3b, _ = cw.lex_blowup(cw.named_graph("hypercube:3"), 2)
    assert q3b.vertex_count == 16 and q3b.valence() == 6
    # adjacency follows the base graph on first coordinates
    for (u, i), pu in labels.items():
        for (v, j), pv in labels.items():
            assert blowup.has_edge(pu, pv) == c4.has_edge(u, v)


def test_blowup_fibers_are_twin_classes():
    q3 = cw.named_graph("hypercube:3")
    assert cw.twin_vertices(q3) == []
    blowup, _ = cw.lex_blowup(q3, 2)
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
    assert Graph.from_json(g.to_json()).edges() == g.edges()
    text = "0 1\n1 2\n# comment\n2 0\n"
    tri = Graph.from_edge_list_text(text)
    assert tri.vertex_count == 3 and tri.edge_count() == 3
    with pytest.raises(BadParameters):
        Graph.from_edge_list_text("0 1 2\n")
