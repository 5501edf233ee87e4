"""The shunt coset model against element scans.

A walk query reads its answers off one coset answer, a lift and the
stabilizer whose coset it is (``PermutationGroup.coset``), and off the
descent below it.  Here every such answer is compared with a scan of the
group's elements (``tests/oracles.py``), on the automorphism groups of
the family and on subgroups of them generated by two seeded random
elements.  On a full automorphism group the lift a descent carries is
often the least element of its coset already, so the subgroups are the
cases where a least-shunt mistake shows.
"""

import random

import pytest

import consistentwalks as cw
from consistentwalks.errors import NoWitness, NotArcTransitive, NotConsistent, WrongValence

import oracles

SMALL = ("c6", "k4", "q3", "petersen", "k5", "c4k2")


@pytest.fixture(scope="module")
def cases(family):
    """(label, graph, group): each small family graph under Aut and under
    two subgroups generated by two seeded random elements of Aut."""
    found = []
    for name in SMALL:
        graph, aut = family[name]
        found.append((name, graph, aut))
        rng = random.Random(name)
        for k in range(2):
            gens = rng.sample(aut.elements, 2)
            found.append((f"{name}-sub{k}", graph,
                          cw.PermutationGroup.close(gens, degree=aut.degree)))
    return found


def sampled_walks(group, graph, seed, count=4, max_length=4):
    """Seeded consistent walks of the group, none when no arc is consistent."""
    rng = random.Random(seed)
    try:
        return [oracles.random_consistent_walk(group, graph, rng, max_length)
                for _ in range(count)]
    except ValueError:
        return []


def test_coset_lists_the_transporter(cases, family):
    # consistent pairs from the walks, and images under random elements of
    # Aut, which a subgroup may not contain
    empty = listed = 0
    for label, graph, group in cases:
        aut = family[label.partition("-")[0]][1]
        rng = random.Random(label)
        for walk in sampled_walks(group, graph, label):
            g = aut.elements[rng.randrange(aut.order)]
            for src, dst in ((walk[:-1], walk[1:]), (walk, tuple(g[v] for v in walk))):
                expected = oracles.oracle_transporter(group, src, dst)
                found = group.coset(src, dst)
                if not expected:
                    assert found is None, (label, src, dst)
                    empty += 1
                    continue
                lift, stabilizer = found
                assert sorted(h * lift for h in stabilizer.elements) == expected, (
                    label, src, dst)
                listed += 1
    assert empty and listed


def test_walk_queries_match_element_scans(cases):
    carried_not_least = 0
    for label, graph, group in cases:
        for walk in sampled_walks(group, graph, label):
            succ = oracles.oracle_successors(group, walk)
            assert cw.successors(group, graph, walk) == succ, (label, walk)
            assert cw.successor_count(group, graph, walk) == len(succ), (label, walk)
            assert cw.stabilizer_fixes_successors(group, graph, walk) == (
                oracles.oracle_fixes_successors(group, walk)), (label, walk)
            least = oracles.oracle_shunts(group, walk)[0]
            assert cw.is_consistent(group, graph, walk).shunt == least, (label, walk)
            carried_not_least += group.coset(walk[:-1], walk[1:])[0] != least
            if len(walk) > 2:
                assert cw.check_conditions(group, graph, walk).to_json() == (
                    oracles.oracle_conditions(group, walk)), (label, walk)
                assert cw.successor_reachability_classes(group, graph, walk) == (
                    oracles.union_find_reachability_classes(group, walk)), (label, walk)
    assert carried_not_least > 0


def test_certificates_match_element_scans(cases):
    compared = set()
    for label, graph, group in cases:
        if not cw.is_arc_transitive(group, graph):
            with pytest.raises(NotArcTransitive):
                cw.certify_trivial_stabilizer(group, graph, (0, graph.adj[0][0]))
            continue
        for walk in sampled_walks(group, graph, label, max_length=5):
            for seed_length in (1, 2):
                cert = cw.certify_trivial_stabilizer(group, graph, walk, seed_length)
                assert cert == oracles.oracle_certificate(group, graph, walk, seed_length), (
                    label, walk, seed_length)
                compared.add((label.partition("-")[2] != "", cert["certified"]))
    assert compared == {(False, False), (False, True), (True, False), (True, True)}


def test_walk_queries_refuse_walks_without_a_shunt(cases):
    refused = 0
    for label, graph, group in cases:
        for u in range(graph.vertex_count):
            for v in graph.adj[u]:
                if oracles.oracle_shunts(group, (u, v)):
                    continue
                for query in (cw.successors, cw.successor_count,
                              cw.stabilizer_fixes_successors):
                    with pytest.raises(NotConsistent):
                        query(group, graph, (u, v))
                assert cw.is_consistent(group, graph, (u, v)) is None
                refused += 1
    assert refused


def test_walk_queries_expand_no_element(family, monkeypatch):
    # every answer but the listed shunts is read off lifts, orbits,
    # generators and orders, on a cold automorphism group and on every
    # stabilizer its descents keep
    walks = {name: sampled_walks(family[name][1], family[name][0], name, max_length=5)
             for name in SMALL}

    def refused(self):
        raise AssertionError(f"{self!r} expanded its elements")
    monkeypatch.setattr(cw.PermutationGroup, "_expand", refused)
    for name in SMALL:
        graph = family[name][0]
        group = cw.automorphism_group(graph)
        for walk in walks[name]:
            cw.successors(group, graph, walk)
            cw.successor_count(group, graph, walk)
            cw.reachability_by_chase(group, graph, walk, target=0)
            cw.stabilizer_fixes_successors(group, graph, walk)
            cw.is_consistent(group, graph, walk)
            cw.certify_trivial_stabilizer(group, graph, walk, seed_length=2)
            if len(walk) > 2:
                cw.check_conditions(group, graph, walk)
                cw.successor_reachability_classes(group, graph, walk)


def test_structural_search_witnesses_carry_the_least_shunt(cases, c4_wreath):
    # the witness's shunt is the least element of its walk's coset, which
    # the descent's lift need not be on a subgroup
    k5 = cw.named_graph("complete:5")
    affine = cw.PermutationGroup.close([cw.Perm((1, 2, 3, 4, 0)), cw.Perm((0, 2, 4, 1, 3))])
    searched = []
    for label, graph, group in [*cases, ("c4k2-wreath", *c4_wreath), ("k5-affine", k5, affine)]:
        for finder in (cw.find_trivial_walk_wps, cw.find_trivial_walk_4valent):
            try:
                witness, _ = finder(group, graph)
            except (NoWitness, NotArcTransitive, WrongValence):
                continue
            assert witness.shunt == oracles.oracle_shunts(group, witness.walk)[0], (
                label, finder.__name__, witness.walk)
            searched.append(label)
    assert {"c4k2-wreath", "k5-affine"} <= set(searched)
