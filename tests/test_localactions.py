import random

import pytest

import consistentwalks as cw
from consistentwalks.errors import (
    BadStabilizerOrder,
    NoWitness,
    NotArcTransitive,
    NotTransitive,
    WrongValence,
)
from consistentwalks.localactions import (
    _extend_while_branching,
    factor_3s_2t,
    shunt_count_pattern,
)
from consistentwalks.walks import _walk_classes

from conftest import FAMILY_VALENCE
import oracles


def dihedral(n: int) -> cw.PermutationGroup:
    rotation = cw.Perm(tuple(range(1, n)) + (0,))
    reflection = cw.Perm(tuple((-i) % n for i in range(n)))
    return cw.PermutationGroup.close([rotation, reflection])


def test_wps_dihedral_degree_3():
    witness = cw.weakly_p_subregular(dihedral(3))  # S3 in its natural action
    assert witness is not None
    assert witness.prime == 2
    assert witness.covered == (0, 1, 2)


def test_wps_dihedral_degree_4():
    witness = cw.weakly_p_subregular(dihedral(4))
    assert witness is not None
    assert witness.prime == 2
    assert witness.x_stabilizer_order == 2
    assert witness.covered == (0, 1, 2, 3)


def test_wps_regular_cyclic_none():
    c3 = cw.PermutationGroup.close([cw.Perm((1, 2, 0))])
    assert cw.weakly_p_subregular(c3) is None


def test_wps_symmetric_4_none():
    s4 = cw.PermutationGroup.close([cw.Perm((1, 0, 2, 3)), cw.Perm((1, 2, 3, 0))])
    assert s4.order == 24
    assert cw.weakly_p_subregular(s4) is None


def test_wps_requires_transitivity():
    with pytest.raises(NotTransitive):
        cw.weakly_p_subregular(cw.PermutationGroup.close([cw.Perm((1, 0, 2))]))


def test_wps_accepts_local_action(family):
    graph, aut = family["q3"]
    local = cw.local_group(aut, graph, 0)
    witness = cw.weakly_p_subregular(local.group)
    assert witness is not None and witness.prime == 2


def test_wps_join_against_its_closure(family):
    # the witness's join order and covered points, from L_x and L_y's
    # generators, against closing <L_x, L_y> from their full element lists
    locals_ = [dihedral(3), dihedral(4), dihedral(6)] + [
        cw.local_group(family[name][1], family[name][0], 0).group
        for name in ("q3", "petersen", "k5", "q4", "c4k2")]
    found = 0
    for group in locals_:
        witness = cw.weakly_p_subregular(group)
        if witness is None:
            continue
        found += 1
        joined = cw.PermutationGroup.close(
            oracles.oracle_stabilizer(group, (witness.x,))
            + oracles.oracle_stabilizer(group, (witness.y,)), degree=group.degree)
        assert witness.joined_order == joined.order
        assert set(witness.covered) == joined.orbit(witness.x) | joined.orbit(witness.y)
    assert found >= 3


@pytest.mark.parametrize("name", ["q3", "petersen"])
def test_find_trivial_walk_wps(name, family):
    graph, group = family[name]
    witness, cert = cw.find_trivial_walk_wps(group, graph)
    assert cert["certified"]
    assert cert["stabilizer_order"] == 1
    assert len(oracles.oracle_stabilizer(group, witness.walk)) == 1
    assert all(c == cert["prime"] for c in cert["successor_counts"])
    assert witness.walk[1] == 0  # lift is anchored at the smallest vertex


def test_find_trivial_walk_wps_wreath_blowup(c4_wreath):
    blowup, wreath = c4_wreath
    assert wreath.order == 128
    local = cw.local_group(wreath, blowup, 0)
    assert local.group.order == 8  # dihedral of degree 4
    witness, cert = cw.find_trivial_walk_wps(wreath, blowup)
    assert cert["certified"] and cert["prime"] == 2
    assert len(oracles.oracle_stabilizer(wreath, witness.walk)) == 1


def test_find_trivial_walk_wps_no_witness(family):
    k5, aut = family["k5"]
    with pytest.raises(NoWitness):
        cw.find_trivial_walk_wps(aut, k5)  # local group S4: |L_x| = 6 not prime
    c6, aut6 = family["c6"]
    with pytest.raises(NoWitness):
        cw.find_trivial_walk_wps(aut6, c6)  # local group S2: |L_x| = 1 not prime


@pytest.mark.parametrize("name,branch", [
    ("k5", "two-arc-transitive"),
    ("q4", "two-arc-transitive"),
    ("c4k2", "two-arc-transitive"),  # full Aut of K4,4 induces S3 on the far side
])
def test_find_trivial_walk_4valent(name, branch, family):
    graph, group = family[name]
    witness, cert = cw.find_trivial_walk_4valent(group, graph)
    assert cert["certified"]
    assert cert["branch"] == branch
    assert len(oracles.oracle_stabilizer(group, witness.walk)) == 1


def test_4valent_certificates_close_no_group(family, monkeypatch):
    # the certificate's seed is an arc, transitive without a closure
    close = cw.PermutationGroup.close.__func__
    closed = []

    def counted(cls, *args, **kwargs):
        closed.append(args)
        return close(cls, *args, **kwargs)

    monkeypatch.setattr(cw.PermutationGroup, "close", classmethod(counted))
    for name in ("k5", "q4"):
        graph, group = family[name]
        witness, cert = cw.find_trivial_walk_4valent(group, graph)
        assert cert["certified"]
        assert cert["seed"] == {"length": 1, "walk": list(witness.walk[:2]),
                                "shunt_group_transitive": True}
    assert closed == []


def test_find_trivial_walk_4valent_dihedral_branch(c4_wreath):
    blowup, wreath = c4_wreath
    witness, cert = cw.find_trivial_walk_4valent(wreath, blowup)
    assert cert["branch"] == "dihedral-local"
    wps_witness, _ = cw.find_trivial_walk_wps(wreath, blowup)
    assert witness.walk == wps_witness.walk


def test_find_trivial_walk_4valent_trivial_arc_branch(group_queries):
    # x -> x + 1 and x -> 2x mod 5 generate AGL(1, 5), regular on the 20
    # arcs of K5, so the arc itself is the witness, with its one shunt
    k5 = cw.named_graph("complete:5")
    affine = cw.PermutationGroup.close([cw.Perm((1, 2, 3, 4, 0)), cw.Perm((0, 2, 4, 1, 3))])
    assert affine.order == 20
    (witness, cert), calls = group_queries(
        affine, lambda: cw.find_trivial_walk_4valent(affine, k5))
    assert (cert["branch"], cert["arc_local_order"]) == ("trivial-arc-action", 1)
    assert cert["certified"] and cert["stabilizer_order"] == 1
    assert witness == cw.is_consistent(affine, k5, (0, 1))
    assert calls == [("coset", (0,), (1,))]


def test_find_trivial_walk_4valent_errors(family):
    q3, aut3 = family["q3"]
    with pytest.raises(WrongValence):
        cw.find_trivial_walk_4valent(aut3, q3)
    squared_cycle = cw.named_graph("circulant:8:1,2")
    aut = cw.automorphism_group(squared_cycle)
    assert aut.order < 32  # fewer elements than arcs
    with pytest.raises(NotArcTransitive):
        cw.find_trivial_walk_4valent(aut, squared_cycle)


def test_find_trivial_walk_exhaustive(family):
    q3, aut = family["q3"]
    witness, cert = cw.find_trivial_walk_exhaustive(aut, q3)
    assert cert["certified"]
    assert len(oracles.oracle_stabilizer(aut, witness.walk)) == 1
    blowup = cw.lex_blowup(q3, 2)
    baut = cw.automorphism_group(blowup)
    with pytest.raises(NoWitness):
        cw.find_trivial_walk_exhaustive(baut, blowup, depth_cap=4)


def exhaustive_answer(group, graph, depth_cap):
    """(walk, shunt) of the library's exhaustive search, or None on NoWitness."""
    try:
        witness, cert = cw.find_trivial_walk_exhaustive(group, graph, depth_cap=depth_cap)
    except NoWitness:
        return None
    assert cert == {"method": "exhaustive", "walk": list(witness.walk),
                    "stabilizer_order": 1, "certified": True}
    return witness.walk, witness.shunt


@pytest.mark.parametrize("name", [*FAMILY_VALENCE, "complete:6", "hypercube:5",
                                  "circulant:8:1,2", "circulant:10:1,3",
                                  "circulant:12:1,5"])
def test_exhaustive_search_matches_per_node_oracle(name, family):
    if name in family:
        graph, group = family[name]
    else:
        graph = cw.named_graph(name)
        group = cw.automorphism_group(graph)
    # Q3[2K1] has no trivial walk up to length 4, which the cap-4 run
    # above covers; the default cap would search far deeper
    for cap in (1, 2, 3) if name == "q3k2" else (1, 2, 64):
        assert (exhaustive_answer(group, graph, cap)
                == oracles.exhaustive_trivial_walk(group, graph, cap)), (name, cap)


# 18 graphs, each searched at depth caps 4 and 64 by both searches
ARC_ORBIT_CASES = ["cycle:6", "petersen", "hypercube:3", "hypercube:4", "hypercube:5",
                   "complete:5", "complete:6", "circulant:8:1,2", "circulant:8:1,3",
                   "circulant:10:1,3", "circulant:12:1,5", "complete_bipartite:3:3",
                   "complete_bipartite:4:4", "cycle:4[2K1]", "hypercube:3[2K1]",
                   "petersen[2K1]", "cycle:6[2K1]", "complete:4[2K1]"]


@pytest.mark.parametrize("name", ARC_ORBIT_CASES)
def test_exhaustive_search_matches_arc_orbit_search(name):
    base, _, blowup = name.partition("[")
    graph = cw.named_graph(base)
    if blowup:
        graph = cw.lex_blowup(graph, 2)
    group = cw.automorphism_group(graph)
    for cap in (4, 64):
        assert (exhaustive_answer(group, graph, cap)
                == oracles.arc_orbit_trivial_walk(group, graph, cap)), (name, cap)


@pytest.mark.parametrize("name", ["cycle:6", "hypercube:3", "complete:5",
                                  "complete_bipartite:3:3", "circulant:8:1,2"])
def test_exhaustive_search_matches_arc_orbit_search_on_subgroups(name):
    # subgroups of Aut from seeded random elements, where the shunt the
    # walk-class search carries is often not the walk's least one
    graph = cw.named_graph(name)
    aut = cw.automorphism_group(graph)
    rng = random.Random(name)
    for _ in range(3):
        group = cw.PermutationGroup.close(rng.sample(aut.elements, 3), degree=aut.degree)
        for cap in (4, 64):
            assert (exhaustive_answer(group, graph, cap)
                    == oracles.arc_orbit_trivial_walk(group, graph, cap)), (name, cap)


@pytest.mark.parametrize("name", list(FAMILY_VALENCE))
def test_shunt_descent_carries_each_walks_shunts(name, family):
    # the arc-orbit reference search above carries the right shunt lists
    graph, group = family[name]
    stabilizers = {}  # walk -> its stabilizer by brute force, narrowed from its prefix's
    for walk, shs, by_end in oracles.shunt_descent(group, graph, 3):
        assert shs == cw.shunts(group, graph, walk)
        assert [walk[1:] + (x,) for x in sorted(by_end)] == cw.successors(group, graph, walk)
        prefix = walk[:-1]
        if prefix not in stabilizers:
            stabilizers[prefix] = oracles.oracle_stabilizer(group, prefix)
        stabilizers[walk] = [h for h in stabilizers[prefix] if h[walk[-1]] == walk[-1]]
        assert len(shs) == len(by_end) * len(stabilizers[walk]), walk


def orbit_least_consistent_walks(group, graph, max_length):
    """Consistent walks of length 1..max_length from the least arc of each
    arc orbit, in lexicographic order, by scanning the elements."""
    least_arcs, covered = [], set()
    for arc in sorted((u, w) for u in range(graph.vertex_count) for w in graph.adj[u]):
        if arc not in covered:
            least_arcs.append(arc)
            covered |= {(g[arc[0]], g[arc[1]]) for g in group.elements}
    found, frontier = [], least_arcs
    while frontier:
        frontier = [w for w in frontier if oracles.oracle_shunts(group, w)]
        found += frontier
        frontier = [w + (x,) for w in frontier if len(w) <= max_length
                    for x in graph.adj[w[-1]]]
    return sorted(found)


def rotations_of_c6():
    return cw.named_graph("cycle:6"), cw.PermutationGroup.close([cw.Perm((1, 2, 3, 4, 5, 0))])


@pytest.mark.parametrize("name", [*FAMILY_VALENCE, "c6-rotations"])
def test_shunt_descent_visits_walks_from_orbit_least_arcs(name, family):
    graph, group = rotations_of_c6() if name == "c6-rotations" else family[name]
    visited = [walk for walk, _, _ in oracles.shunt_descent(group, graph, 3)]
    assert visited == orbit_least_consistent_walks(group, graph, 3)


def walk_class_case(name, family, c4_wreath):
    if name == "c6-rotations":
        return rotations_of_c6()
    return c4_wreath if name == "c4-wreath" else family[name]


@pytest.mark.parametrize("name", [*FAMILY_VALENCE, "c6-rotations", "c4-wreath"])
def test_walk_classes_visit_least_members_in_preorder(name, family, c4_wreath):
    graph, group = walk_class_case(name, family, c4_wreath)
    visited = [node[0] for node in _walk_classes(group, graph, 3)]
    assert visited == oracles.least_walk_class_members(group, graph, 3)


@pytest.mark.parametrize("name", [*FAMILY_VALENCE, "c6-rotations", "c4-wreath"])
def test_walk_classes_carry_each_walks_stabilizer_and_shunts(name, family, c4_wreath):
    graph, group = walk_class_case(name, family, c4_wreath)
    for walk, g, trans, gens, order, closes in _walk_classes(group, graph, 3):
        stabilizer = oracles.oracle_stabilizer(group, walk)
        assert order == len(stabilizer), walk
        assert cw.PermutationGroup.close(gens, degree=group.degree).elements == tuple(
            stabilizer), walk
        assert closes == (len(walk) > 1 and walk[-1] == walk[0]), walk
        # trans: the orbit of the last vertex under the prefix's stabilizer,
        # and the shunts are that stabilizer times g
        prefix_stabilizer = oracles.oracle_stabilizer(group, walk[:-1])
        assert set(trans) == {h[walk[-1]] for h in prefix_stabilizer}, walk
        assert all(u in prefix_stabilizer and u[walk[-1]] == b for b, u in trans.items())
        shunts = oracles.oracle_shunts(group, walk)
        assert sorted(h * g for h in prefix_stabilizer) == shunts, walk
        if order == 1:  # the prefix's stabilizer is regular on the last orbit
            assert min(u * g for u in trans.values()) == shunts[0], walk


@pytest.mark.parametrize("name", [*FAMILY_VALENCE, "c6-rotations"])
def test_walk_classes_ask_the_group_nothing(name, family, monkeypatch):
    # only the group's order, identity and generators are read
    graph, group = rotations_of_c6() if name == "c6-rotations" else family[name]
    nodes = list(_walk_classes(group, graph, 3))

    def refused(self, *args):
        raise AssertionError("the walk-class search queried the group")
    for method_name in ("transporter", "tuple_orbit", "pointwise_stabilizer", "orbit",
                        "least_image", "_expand"):
        monkeypatch.setattr(cw.PermutationGroup, method_name, refused)
    assert list(_walk_classes(group, graph, 3)) == nodes


@pytest.mark.parametrize("name,finder", [
    ("q3", cw.find_trivial_walk_wps), ("petersen", cw.find_trivial_walk_wps),
    ("k5", cw.find_trivial_walk_4valent), ("q4", cw.find_trivial_walk_4valent),
])
def test_extend_while_branching_matches_successor_queries(name, finder, family):
    graph, group = family[name]
    witness, _ = finder(group, graph)
    start = witness.walk[:3]
    extended, counts = _extend_while_branching(start, group.coset(start[:-1], start[1:]))
    walk = extended.walk
    assert walk == witness.walk
    assert extended == cw.is_consistent(group, graph, walk)
    assert counts == [cw.successor_count(group, graph, walk[:k])
                      for k in range(3, len(walk) + 1)]
    # each step takes the least extension that still branches, and the
    # last walk has none
    for k in range(3, len(walk) + 1):
        for ext in oracles.consistent_extensions(group, graph, walk[:k]):
            if ext == walk[:k + 1]:
                break
            assert cw.successor_count(group, graph, ext) <= 1, ext


@pytest.mark.parametrize("name,finder", [
    ("q3", cw.find_trivial_walk_wps), ("petersen", cw.find_trivial_walk_wps),
    ("k5", cw.find_trivial_walk_4valent), ("q4", cw.find_trivial_walk_4valent),
])
def test_search_returns_the_witness_it_holds(name, finder, family, group_queries):
    # the extension's descent holds the witness and the certificate reads the
    # search's coset, so the returned walk's coset is asked only when the
    # walk is the arc the search asked, and no query repeats; the public
    # certificate asks its seed's coset alone
    graph, group = family[name]
    (witness, cert), calls = group_queries(group, lambda: finder(group, graph))
    walk, seed = witness.walk, tuple(cert["seed"]["walk"])
    _, cert_calls = group_queries(group, lambda: cw.certify_trivial_stabilizer(
        group, graph, walk, seed_length=cert["seed"]["length"]))
    assert cert_calls == [("coset", seed[:-1], seed[1:])]
    assert len(set(calls)) == len(calls), calls
    assert calls.count(("coset", walk[:-1], walk[1:])) == (len(walk) == 2), calls


@pytest.mark.parametrize("method", ["wps", "4valent", "exhaustive"])
def test_trivial_walk_methods_ask_no_coset_twice(method, family, group_queries):
    finder = {"wps": cw.find_trivial_walk_wps, "4valent": cw.find_trivial_walk_4valent,
              "exhaustive": lambda group, graph: cw.find_trivial_walk_exhaustive(
                  group, graph, depth_cap=4)}[method]
    searched = []
    for name, (graph, group) in sorted(family.items()):
        try:
            _, calls = group_queries(group, lambda: finder(group, graph))
        except (NoWitness, WrongValence):
            continue
        searched.append(name)
        assert len(set(calls)) == len(calls), (name, calls)
    assert searched


def test_structural_searches_ask_one_coset_at_the_base_point(family, group_queries):
    # 4valent asks its arc's coset alone; wps reads G_0 for the local
    # action, then asks one coset rooted at 0, (0, x) onto (y, 0), which
    # holds the shunts of (x, 0, y)
    searched = []
    for name, (graph, group) in sorted(family.items()):
        for method, finder in (("4valent", cw.find_trivial_walk_4valent),
                               ("wps", cw.find_trivial_walk_wps)):
            try:
                _, calls = group_queries(group, lambda: finder(group, graph))
            except (NoWitness, WrongValence):
                continue
            searched.append((name, method))
            if method == "4valent":
                assert calls == [("coset", (0,), (graph.adj[0][0],))], (name, calls)
                continue
            cosets = [call for call in calls if call[0] == "coset"]
            assert len(cosets) == 1 and cosets[0][1][0] == 0, (name, calls)
            assert [call for call in calls if call not in cosets] == [
                ("pointwise_stabilizer", (0,))], (name, calls)
    assert {method for _, method in searched} == {"4valent", "wps"}


@pytest.mark.parametrize("name", ["c6", "k4", "q3", "petersen", "k5", "q4"])
def test_exhaustive_search_asks_only_its_arcs(name, family, group_queries):
    # the walk-class search asks no query of its own; the returned walk's
    # stabilizer is recomputed once, as the certificate
    graph, group = family[name]
    (witness, _), calls = group_queries(
        group, lambda: cw.find_trivial_walk_exhaustive(group, graph))
    assert calls == [("pointwise_stabilizer", witness.walk)]


def test_shunt_count_pattern_flags():
    assert shunt_count_pattern(1, 3, 6, [1, 1, 2])["status"] == "ok"
    assert shunt_count_pattern(1, 3, 6, [1, 2, 2])["status"] == "mismatch"
    out = shunt_count_pattern(0, 1, 1, [1, 1, 1])
    assert out["status"] == "out_of_pattern"


@pytest.mark.parametrize("name,s,t,counts", [
    ("k5", 1, 3, [1, 1, 2, 6]),
    ("q4", 1, 3, [1, 1, 2, 6]),
    ("c4k2", 2, 4, [1, 1, 4, 36]),
])
def test_verify_shunt_count_pattern(name, s, t, counts, family):
    graph, group = family[name]
    report = cw.verify_shunt_count_pattern(group, graph)
    assert report["status"] == "ok"
    assert (report["s"], report["t"]) == (s, t)
    assert report["shunt_counts"] == counts
    assert report["orbit_count"] == 4
    assert report["trivial_shunts"] == 3 ** s * 2 ** (t - 2)


def test_verify_shunt_count_pattern_errors(family):
    q3, aut3 = family["q3"]
    with pytest.raises(WrongValence):
        cw.verify_shunt_count_pattern(aut3, q3)
    squared_cycle = cw.named_graph("circulant:8:1,2")
    with pytest.raises(NotArcTransitive):
        cw.verify_shunt_count_pattern(cw.automorphism_group(squared_cycle), squared_cycle)


def test_stabilizer_order_factoring():
    assert factor_3s_2t(24) == (1, 3)
    assert factor_3s_2t(144) == (2, 4)
    assert factor_3s_2t(1) == (0, 0)
    with pytest.raises(BadStabilizerOrder):
        factor_3s_2t(40)  # 2^3 * 5


def test_arc_local_order_against_sweep_oracle(family):
    checked = []
    for name, (graph, aut) in family.items():
        if FAMILY_VALENCE[name] != 4:
            continue
        _, cert = cw.find_trivial_walk_4valent(aut, graph)
        assert (cert["arc_local_order"]
                == oracles.oracle_arc_local_order(aut, graph, 0, graph.adj[0][0])), name
        checked.append(name)
    assert checked == ["k5", "q4", "c4k2"]
