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
    _arc_local_order,
    _extend_while_branching,
    _shunt_descent,
    factor_3s_2t,
    shunt_count_pattern,
)

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


@pytest.mark.parametrize("name", list(FAMILY_VALENCE))
def test_shunt_descent_carries_each_walks_shunts(name, family):
    graph, group = family[name]
    stabilizers = {}  # walk -> its stabilizer by brute force, narrowed from its prefix's
    for walk, shs, by_end in _shunt_descent(group, graph, 3):
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
    visited = [walk for walk, _, _ in _shunt_descent(group, graph, 3)]
    assert visited == orbit_least_consistent_walks(group, graph, 3)


@pytest.mark.parametrize("name", [*FAMILY_VALENCE, "c6-rotations"])
def test_shunt_descent_queries_once_per_arc_orbit(name, family, monkeypatch):
    graph, group = rotations_of_c6() if name == "c6-rotations" else family[name]
    calls = {"transporter": 0, "tuple_orbit": 0}

    def counting(method_name):
        method = getattr(cw.PermutationGroup, method_name)

        def counted(self, *args):
            calls[method_name] += 1
            return method(self, *args)
        return counted
    for method_name in calls:
        monkeypatch.setattr(cw.PermutationGroup, method_name, counting(method_name))
    descent = _shunt_descent(group, graph, 3)
    next(descent)
    # the first arc's orbit waits until its subtree is exhausted
    assert calls == {"transporter": 1, "tuple_orbit": 0}
    for _ in descent:
        pass
    arc_orbits = 2 if name == "c6-rotations" else 1  # C6's two directions
    assert calls == {"transporter": arc_orbits, "tuple_orbit": arc_orbits}


@pytest.mark.parametrize("name,finder", [
    ("q3", cw.find_trivial_walk_wps), ("petersen", cw.find_trivial_walk_wps),
    ("k5", cw.find_trivial_walk_4valent), ("q4", cw.find_trivial_walk_4valent),
])
def test_extend_while_branching_matches_successor_queries(name, finder, family):
    graph, group = family[name]
    witness, _ = finder(group, graph)
    extended, counts = _extend_while_branching(group, graph, witness.walk[:3])
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
    # the extension's split holds the witness, so the returned walk's coset
    # is asked only when the search stops at its starting 2-arc or the
    # certificate's seed is the whole walk; the certificate asks its seed's
    # coset alone
    graph, group = family[name]
    (witness, cert), calls = group_queries(group, lambda: finder(group, graph))
    walk, seed = witness.walk, tuple(cert["seed"]["walk"])
    _, cert_calls = group_queries(group, lambda: cw.certify_trivial_stabilizer(
        group, graph, walk, seed_length=cert["seed"]["length"]))
    assert cert_calls == [("transporter", seed[:-1], seed[1:])]
    coset = ("transporter", walk[:-1], walk[1:])
    assert calls.count(coset) == cert_calls.count(coset) + (len(walk) == 3), calls


@pytest.mark.parametrize("method", ["wps", "4valent", "exhaustive"])
def test_trivial_walk_methods_ask_no_coset_twice(method, family, group_queries):
    # the one repeat left is the wps search's starting 2-arc, whose coset
    # the certificate asks again as its seed's
    finder = {"wps": cw.find_trivial_walk_wps, "4valent": cw.find_trivial_walk_4valent,
              "exhaustive": lambda group, graph: cw.find_trivial_walk_exhaustive(
                  group, graph, depth_cap=4)}[method]
    searched = []
    for name, (graph, group) in sorted(family.items()):
        try:
            (witness, cert), calls = group_queries(group, lambda: finder(group, graph))
        except (NoWitness, WrongValence):
            continue
        searched.append(name)
        cosets = [call for call in calls if call[0] == "transporter"]
        repeats = {call for call in cosets if cosets.count(call) > 1}
        if "seed" not in cert:
            assert not repeats, (name, calls)
            continue
        seed = tuple(cert["seed"]["walk"])
        assert repeats <= {("transporter", seed[:-1], seed[1:])}, (name, calls)
        assert not repeats or seed == witness.walk[:3], (name, calls)
    assert searched


@pytest.mark.parametrize("name", ["c6", "k4", "q3", "petersen", "k5", "q4"])
def test_exhaustive_search_asks_only_its_arcs(name, family, group_queries):
    # one query per searched arc orbit, each arc once, and the returned
    # walk's stabilizer recomputed once
    graph, group = family[name]
    (witness, _), calls = group_queries(
        group, lambda: cw.find_trivial_walk_exhaustive(group, graph))
    arcs = [call for call in calls if call[0] == "transporter"]
    assert arcs and all(len(src) == 1 for _, src, _ in arcs), calls
    assert len(set(arcs)) == len(arcs), calls
    assert [call for call in calls if call[0] != "transporter"] == [
        ("pointwise_stabilizer", witness.walk)]


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
    for name, (graph, aut) in family.items():
        u, v = 0, graph.adj[0][0]
        assert (_arc_local_order(aut, graph, u, v)
                == oracles.oracle_arc_local_order(aut, graph, u, v)), name
