import pytest

import consistentwalks as cw
from consistentwalks.errors import (
    BadStabilizerOrder,
    NoWitness,
    NotArcTransitive,
    NotTransitive,
    WrongValence,
)
from consistentwalks.localactions import _arc_local_order, factor_3s_2t, shunt_count_pattern

import oracles


def dihedral(n: int) -> cw.PermutationGroup:
    rotation = cw.Perm(tuple(range(1, n)) + (0,))
    reflection = cw.Perm(tuple((-i) % n for i in range(n)))
    return cw.close_group([rotation, reflection])


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
    c3 = cw.close_group([cw.Perm((1, 2, 0))])
    assert cw.weakly_p_subregular(c3) is None


def test_wps_symmetric_4_none():
    s4 = cw.close_group([cw.Perm((1, 0, 2, 3)), cw.Perm((1, 2, 3, 0))])
    assert s4.order == 24
    assert cw.weakly_p_subregular(s4) is None


def test_wps_requires_transitivity():
    with pytest.raises(NotTransitive):
        cw.weakly_p_subregular(cw.close_group([cw.Perm((1, 0, 2))]))


def test_wps_accepts_local_action(family):
    graph, aut = family["q3"]
    local = cw.local_group(aut, graph, 0)
    witness = cw.weakly_p_subregular(local)
    assert witness is not None and witness.prime == 2


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
    blowup, _ = cw.lex_blowup(q3, 2)
    baut = cw.automorphism_group(blowup)
    with pytest.raises(NoWitness):
        cw.find_trivial_walk_exhaustive(baut, blowup, depth_cap=4)


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
