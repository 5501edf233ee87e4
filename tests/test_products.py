from dataclasses import replace

import pytest

import consistentwalks as cw
from consistentwalks.errors import BadParameters, BaseNotVertexTransitive
from consistentwalks.graphs import verify_automorphisms
from consistentwalks.products import fiber_perm, lift_base_perm

import oracles


@pytest.fixture(scope="module")
def q3_family(family):
    graph, group = family["q3"]
    return cw.blowup_cycle_family(graph, group, 2)


def test_family_shapes(q3_family, censuses):
    base_table = censuses["q3"]
    assert len(q3_family.cycles) == 6  # d=3 orbits, m=2 fiber counts
    for (i, j), cycle in q3_family.cycles.items():
        assert len(cycle) - 1 == j * base_table.records[i].length


def test_family_shunts_are_verified_shunts(q3_family):
    for key, cycle in q3_family.cycles.items():
        shunt = q3_family.shunts[key]
        verify_automorphisms(q3_family.blowup, [shunt])
        assert all(shunt[a] == b for a, b in zip(cycle, cycle[1:]))


def test_family_first_fiber_copy(q3_family, censuses):
    # j=1 is the fiber-0 copy of the base representative, shunted by the
    # lifted base shunt (identity on fibers)
    base_table = censuses["q3"]
    for i, record in enumerate(base_table.records):
        cycle = q3_family.cycles[i, 1]
        assert cycle == tuple(2 * v for v in record.representative)
        shunt = q3_family.shunts[i, 1]
        assert all(shunt[2 * v + f] % 2 == f for v in range(8) for f in (0, 1))


def test_family_lengths_differ_between_fiber_counts(q3_family):
    for i in range(3):
        lengths = {len(q3_family.cycles[i, j]) for j in (1, 2)}
        assert len(lengths) == 2


def test_family_distinct_orbits(q3_family, family, censuses):
    _, blow_group = family["q3k2"]
    table = censuses["q3k2"]
    # reference naming: a record's representative is the least member of its orbit
    locate = {r.representative: k for k, r in enumerate(table.records)}
    expected = {key: locate[min(blow_group.tuple_orbit(cycle))]
                for key, cycle in q3_family.cycles.items()}
    assert sorted(expected.values()) == [0, 1, 2, 3, 4, 5]
    assert cw.family_orbit_ids(q3_family, blow_group, table) == expected
    # cycles rooted away from the records' root are moved back to it
    x = blow_group.transporter((0,), (13,))[-1]
    moved = replace(q3_family, cycles={key: tuple(x[v] for v in cycle)
                                       for key, cycle in q3_family.cycles.items()})
    assert cw.family_orbit_ids(moved, blow_group, table) == expected


def test_fiber_swap_fixes_family_cycle(q3_family):
    # a fiber swap at a base vertex off the base cycle stabilizes the lift
    for (i, j), cycle in q3_family.cycles.items():
        base_support = {v // 2 for v in cycle[:-1]}
        off = min(set(range(8)) - base_support)
        swap = cw.fiber_swap(8, 2, off, 0, 1)
        verify_automorphisms(q3_family.blowup, [swap])
        assert tuple(swap[v] for v in cycle) == cycle


def test_family_allows_bad_base_without_orbit_claim(family):
    # C6 fails the counterexample hypotheses, yet fiber cycles still verify
    graph, group = family["c6"]
    fam = cw.blowup_cycle_family(graph, group, 2)
    assert len(fam.cycles) == 4
    for key, cycle in fam.cycles.items():
        assert all(fam.shunts[key][a] == b for a, b in zip(cycle, cycle[1:]))


def test_family_input_errors(family):
    graph, group = family["q3"]
    with pytest.raises(BadParameters):
        cw.blowup_cycle_family(graph, group, 1)
    path = cw.Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(BaseNotVertexTransitive):
        cw.blowup_cycle_family(path, cw.automorphism_group(path), 2)


def test_wreath_generators_embed_and_fill_aut(family):
    base, base_aut = family["q3"]
    gens = cw.wreath_group_generators(base, base_aut, 2)
    blowup = cw.lex_blowup(base, 2)
    verify_automorphisms(blowup, gens)
    wreath = cw.PermutationGroup.close(gens)
    assert wreath.order == 2 ** 8 * 48
    _, blow_aut = family["q3k2"]
    assert wreath.subgroup_equals(blow_aut)  # twin-free base: wreath is all of Aut


def test_lift_and_fiber_perm_shapes():
    p = cw.Perm((1, 2, 3, 0))
    lifted = lift_base_perm(p, 3)
    assert lifted[cw.graphs.blowup_point(0, 2, 3)] == cw.graphs.blowup_point(1, 2, 3)
    cycled = fiber_perm(4, 3, 2, cw.Perm((1, 2, 0)))
    assert cycled[cw.graphs.blowup_point(2, 0, 3)] == cw.graphs.blowup_point(2, 1, 3)
    assert cycled[cw.graphs.blowup_point(1, 0, 3)] == cw.graphs.blowup_point(1, 0, 3)


@pytest.mark.parametrize("spec", ["cycle:4", "hypercube:3", "petersen"])
@pytest.mark.parametrize("m", [2, 3])
def test_family_shunts_match_image_oracle(spec, m):
    graph = cw.named_graph(spec)
    group = cw.automorphism_group(graph)
    fam = cw.blowup_cycle_family(graph, group, m)
    assert len(fam.shunts) == graph.valence() * m
    for (i, j), shunt in fam.shunts.items():
        rep = fam.base_representatives[i]
        base_shunt = cw.shunts(group, graph, rep)[0]
        assert shunt == oracles.blowup_shunt_by_images(base_shunt, rep[0], m, j), (i, j)


def test_no_trivial_stabilizer_verdicts(family, censuses):
    ok, offender = cw.verify_no_trivial_stabilizer(censuses["q3k2"])
    assert ok and offender is None

    _, autp = family["petersen"]
    ok, offender = cw.verify_no_trivial_stabilizer(censuses["petersen"])
    assert not ok
    assert len(offender) - 1 in (5, 6)
    assert len(oracles.oracle_stabilizer(autp, offender)) == 1

    ok, offender = cw.verify_no_trivial_stabilizer(censuses["k5"])
    assert not ok and offender is not None


def test_blowup_hypotheses(family):
    q3, aut3 = family["q3"]
    report = cw.check_blowup_hypotheses(q3, aut3)
    assert report["satisfied"]
    assert report["max_consistent_cycle_length"] == 6  # never spans 8 vertices

    c6, aut6 = family["c6"]
    report = cw.check_blowup_hypotheses(c6, aut6)
    assert not report["satisfied"]
    assert report["spanning_consistent_cycle"]

    k4, aut4 = family["k4"]
    report = cw.check_blowup_hypotheses(k4, aut4)
    assert not report["satisfied"]
    assert report["spanning_consistent_cycle"]


def test_hypotheses_imply_blowup_conclusion(family, censuses):
    # the only family base satisfying the hypotheses is Q3; its blow-up must
    # have no trivial-stabilizer cycle and the family must cover all orbits
    for name in ("c6", "k4", "q3", "petersen"):
        graph, group = family[name]
        if not cw.check_blowup_hypotheses(graph, group)["satisfied"]:
            continue
        fam = cw.blowup_cycle_family(graph, group, 2)
        blow_aut = (family["q3k2"][1] if name == "q3"
                    else cw.automorphism_group(fam.blowup))
        table = cw.consistent_cycle_orbits(blow_aut, fam.blowup)
        ok, _ = cw.verify_no_trivial_stabilizer(table)
        assert ok
        ids = cw.family_orbit_ids(fam, blow_aut, table)
        assert len(set(ids.values())) == len(ids)
