import random

import pytest

import consistentwalks as cw
from consistentwalks.errors import NotVertexTransitive
from consistentwalks.generation import orbit_overlap

import oracles


def test_overlap_examples():
    assert cw.overlap((0, 1, 2), (0, 1, 2)) == 2
    assert cw.overlap((0, 1, 2), (3, 1, 2)) == -1
    assert cw.overlap((0, 1, 2, 3), (0, 1, 4)) == 1
    assert cw.overlap((0, 1, 0), (0, 1, 0)) == 2  # full agreement on a cycle


def test_overlap_invariance_under_simultaneous_action(family):
    rng = random.Random(21)
    graph, group = family["petersen"]
    for _ in range(10):
        a = oracles.random_consistent_walk(group, graph, rng)
        b = oracles.random_consistent_walk(group, graph, rng)
        g = group.elements[rng.randrange(group.order)]
        moved_a = tuple(g[v] for v in a)
        moved_b = tuple(g[v] for v in b)
        assert cw.overlap(a, b) == cw.overlap(moved_a, moved_b)


def test_orbit_overlap_examples(family, censuses):
    c6, aut6 = family["c6"]
    trivial, hexagon = (r.representative for r in censuses["c6"].records)
    assert orbit_overlap(aut6, trivial, trivial) == 2
    assert orbit_overlap(aut6, trivial, hexagon) == 1
    assert orbit_overlap(aut6, hexagon, trivial) == 1

    k4, aut4 = family["k4"]
    triangle = censuses["k4"].records[1].representative
    square = censuses["k4"].records[2].representative
    # (0,1,2,0) and (0,1,2,3,0) share the 2-arc 0,1,2 and diverge after it
    assert orbit_overlap(aut4, triangle, square) == 2


def test_representatives_c6(family):
    c6, aut = family["c6"]
    reps, matrix = cw.overlap_maximal_representatives(aut, c6)
    assert len(reps) == 2
    assert reps[0][:2] == reps[1][:2]  # shared initial arc
    assert matrix.walk_overlaps[0][1] == 1


# exact representatives, frozen: how the census finds them must not change them
REPRESENTATIVES = {
    "c6": ((0, 1, 0), (0, 1, 2, 3, 4, 5, 0)),
    "k4": ((0, 1, 0), (0, 1, 2, 0), (0, 1, 2, 3, 0)),
    "q3": ((0, 1, 0), (0, 1, 3, 2, 0), (0, 1, 3, 7, 6, 4, 0)),
    "petersen": ((0, 7, 0), (0, 7, 3, 4, 9, 0), (0, 7, 3, 4, 2, 8, 0)),
    "k5": ((0, 1, 0), (0, 1, 2, 0), (0, 1, 2, 3, 0), (0, 1, 2, 3, 4, 0)),
    "q4": ((0, 1, 0), (0, 1, 3, 2, 0), (0, 1, 3, 7, 6, 4, 0),
           (0, 1, 3, 7, 15, 14, 12, 8, 0)),
    "c4k2": ((0, 2, 0), (0, 2, 1, 3, 0), (0, 2, 1, 3, 4, 6, 0),
             (0, 2, 1, 3, 4, 6, 5, 7, 0)),
    "q3k2": ((0, 2, 0), (0, 2, 1, 3, 0), (0, 2, 6, 4, 0), (0, 2, 6, 14, 12, 8, 0),
             (0, 2, 6, 4, 1, 3, 7, 5, 0),
             (0, 2, 6, 14, 12, 8, 1, 3, 7, 15, 13, 9, 0)),
}


@pytest.mark.parametrize("name,orbit_count", [
    ("c6", 2), ("k4", 3), ("q3", 3), ("petersen", 3), ("k5", 4), ("q4", 4),
    ("c4k2", 4), ("q3k2", 6),
])
def test_representatives_realize_orbit_overlaps(name, orbit_count, family, censuses):
    graph, group = family[name]
    reps, matrix = cw.overlap_maximal_representatives(group, graph)
    assert tuple(reps) == REPRESENTATIVES[name]
    assert len(reps) == orbit_count
    for i in range(orbit_count):
        for j in range(orbit_count):
            if i != j:
                assert matrix.walk_overlaps[i][j] == matrix.orbit_overlaps[i][j]
                sweep = oracles.orbit_overlap_by_sweep(group, reps[i], reps[j])
                assert matrix.walk_overlaps[i][j] == sweep == orbit_overlap(group, reps[i], reps[j])


@pytest.mark.parametrize("name", [*REPRESENTATIVES, "c6-rotations"])
def test_oracle_selection_is_census(name, family, censuses):
    # the prefix-tree matrix and the depth-first selector the library used
    # to run pick the census representatives, and the matrix is their overlaps
    if name == "c6-rotations":
        graph = cw.named_graph("cycle:6")
        group = cw.PermutationGroup.close([cw.Perm((1, 2, 3, 4, 5, 0))])
        table = cw.consistent_cycle_orbits(group, graph)
    else:
        (graph, group), table = family[name], censuses[name]
    census_reps = [r.representative for r in table.records]
    selected, matrix = oracles.oracle_selection(group, census_reps)
    assert selected == census_reps
    reps, overlaps = cw.overlap_maximal_representatives(group, graph)
    assert reps == census_reps
    assert [list(row) for row in overlaps.orbit_overlaps] == matrix


def test_representatives_need_vertex_transitivity():
    path = cw.Graph(3, [(0, 1), (1, 2)])
    aut = cw.automorphism_group(path)
    with pytest.raises(NotVertexTransitive):
        cw.overlap_maximal_representatives(aut, path)


def test_shunt_generating_set_c6(family, censuses):
    c6, aut = family["c6"]
    reps, _ = cw.overlap_maximal_representatives(aut, c6)
    shunt_set = cw.shunt_generating_set(censuses["c6"])
    assert len(shunt_set) == 2
    by_length = dict(zip((len(r) for r in reps), shunt_set))
    assert by_length[3].order() == 2   # trivial cycle: a reflection
    assert by_length[7].order() == 6   # hexagon: a rotation
    for rep, shunt in zip(reps, shunt_set):
        assert all(shunt[a] == b for a, b in zip(rep, rep[1:]))
        assert shunt == min(cw.shunts(aut, c6, rep))


def test_shunt_generating_set_petersen(censuses):
    assert len(cw.shunt_generating_set(censuses["petersen"])) == 3


@pytest.mark.parametrize("name,bound,exact", [
    ("c6", 2, 2),
    ("petersen", 3, 2),
    ("k5", 4, 2),
])
def test_verify_generation_small(name, bound, exact, family):
    graph, group = family[name]
    report = cw.verify_generation(group, graph)
    assert report.generates
    assert report.with_stabilizer_generates
    assert report.shunt_group_order == group.order
    assert report.chosen_walk_stabilizer_order == 1
    assert report.min_generators_bound == bound
    assert report.min_generators_exact == exact
    data = report.to_json()
    assert len(data["shunts"]) == graph.valence()


def test_shunts_plus_any_representative_stabilizer_generate(family):
    # closing the shunts with any representative's stabilizer recovers G
    for name in ("c6", "k4", "petersen"):
        graph, group = family[name]
        reps, _ = cw.overlap_maximal_representatives(group, graph)
        shunt_set = cw.shunt_generating_set(cw.consistent_cycle_orbits(group, graph))
        for rep in reps:
            stab = group.pointwise_stabilizer(rep[:-1])
            closure = cw.PermutationGroup.close(
                shunt_set + list(stab.small_generating_set()), degree=group.degree)
            assert closure.order == group.order


def test_generation_wps_family_shunts_suffice(family):
    # with a weakly p-subregular local action the shunts alone generate
    for name in ("q3", "petersen"):
        graph, group = family[name]
        local = cw.local_group(group, graph, 0)
        assert cw.weakly_p_subregular(local.group) is not None
        report = cw.verify_generation(group, graph)
        assert report.generates
        assert report.min_generators_bound == graph.valence()


def test_least_shunts_match_the_transporter_route(family, censuses, c4_wreath):
    blowup, wreath = c4_wreath
    cases = [(name, *family[name], censuses[name])
             for name in ("c6", "petersen", "q4", "c4k2", "q3k2")]
    cases.append(("c4-wreath", blowup, wreath, cw.consistent_cycle_orbits(wreath, blowup)))
    for name, graph, group, table in cases:
        reps = [r.representative for r in table.records]
        assert (cw.shunt_generating_set(table)
                == oracles.shunt_generating_set_by_transporter(group, graph, reps)), name


def test_least_shunts_match_the_transporter_route_on_subgroups():
    # on Aut the shunt the census carries happens to be the least one, so
    # only subgroups from seeded random elements catch a coset search that
    # returns the carried shunt instead of the minimum
    carried_not_least = 0
    for name in ("cycle:6", "hypercube:3", "complete:5", "complete_bipartite:3:3",
                 "circulant:8:1,2", "petersen"):
        graph = cw.named_graph(name)
        aut = cw.automorphism_group(graph)
        rng = random.Random(name)
        for _ in range(3):
            group = cw.PermutationGroup.close(rng.sample(aut.elements, 2), degree=aut.degree)
            table = cw.consistent_cycle_orbits(group, graph)
            reps = [r.representative for r in table.records]
            least = cw.shunt_generating_set(table)
            assert least == oracles.shunt_generating_set_by_transporter(group, graph, reps), name
            carried_not_least += sum(r.shunt_coset[0] != s for r, s in zip(table.records, least))
    assert carried_not_least > 0
