import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import consistentwalks as cw
from consistentwalks.errors import InvalidWalk, NotConsistent
from consistentwalks.perms import DEFAULT_GROUP_CAP
from consistentwalks.walks import enumerate_consistent_cycles

import oracles


ROTATION6 = cw.Perm((1, 2, 3, 4, 5, 0))


def test_validate_walk_errors():
    c6 = cw.named_graph("cycle:6")
    with pytest.raises(InvalidWalk):
        cw.validate_walk(c6, (0,))
    with pytest.raises(InvalidWalk):
        cw.validate_walk(c6, (0, 0))  # loops excluded in simple graphs
    with pytest.raises(InvalidWalk):
        cw.validate_walk(c6, (0, 2))
    with pytest.raises(InvalidWalk):
        cw.validate_walk(c6, (0, 9))


def test_shunts_c6(family):
    c6, aut = family["c6"]
    arc = cw.shunts(aut, c6, (0, 1))
    assert len(arc) == 2  # the rotation and one reflection
    assert ROTATION6 in arc
    closed = cw.shunts(aut, c6, (0, 1, 0))
    assert len(closed) == 1
    assert closed[0][0] == 1 and closed[0][1] == 0


def test_shunts_rotation_only_trivial_walk():
    c6 = cw.named_graph("cycle:6")
    rotations = cw.PermutationGroup.close([ROTATION6])
    # no rotation both sends 0 to 1 and 1 to 0, in either orientation
    assert cw.shunts(rotations, c6, (0, 1, 0)) == []
    assert cw.shunts(rotations, c6, (1, 0, 1)) == []
    assert cw.is_consistent(rotations, c6, (0, 1, 0)) is None


def test_shunt_coset_identities(family):
    # the shunt set is simultaneously a left and a right stabilizer coset
    rng = random.Random(11)
    for name in ("c6", "k4", "q3", "petersen"):
        graph, group = family[name]
        for _ in range(6):
            walk = oracles.random_consistent_walk(group, graph, rng, max_length=4)
            shs = set(cw.shunts(group, graph, walk))
            assert shs == set(oracles.oracle_shunts(group, walk))
            assert group.transporter(walk[:-1], walk[1:]) == oracles.oracle_shunts(group, walk)
            g0 = min(shs)
            suffix = oracles.oracle_stabilizer(group, walk[1:])
            prefix = oracles.oracle_stabilizer(group, walk[:-1])
            assert group.transporter(walk[1:], walk[1:]) == suffix
            assert group.transporter(walk[:-1], walk[:-1]) == prefix
            assert shs == {g0 * h for h in suffix} == {h * g0 for h in prefix}


def test_shunt_conjugation(family):
    rng = random.Random(12)
    graph, group = family["petersen"]
    for _ in range(5):
        walk = oracles.random_consistent_walk(group, graph, rng, max_length=4)
        x = group.elements[rng.randrange(group.order)]
        moved = tuple(x[v] for v in walk)
        conjugated = {x.inverse() * g * x for g in cw.shunts(group, graph, walk)}
        assert conjugated == set(cw.shunts(group, graph, moved))


def test_prefix_consistency_inheritance(family):
    rng = random.Random(13)
    graph, group = family["q3"]
    for _ in range(5):
        walk = oracles.random_consistent_walk(group, graph, rng, max_length=4)
        if len(walk) < 3:
            continue
        shs = set(cw.shunts(group, graph, walk))
        assert shs <= set(cw.shunts(group, graph, walk[:-1]))


def test_is_consistent_witnesses(family):
    pet, autp = family["petersen"]
    witness = cw.is_consistent(autp, pet, (0, 7, 3))
    assert witness is not None
    assert all(witness.shunt[a] == b for a, b in zip(witness.walk, witness.walk[1:]))


def test_successors_k5(family):
    k5, aut = family["k5"]
    succ = cw.successors(aut, k5, (0, 1))
    assert len(succ) == 4
    assert {s[-1] for s in succ} == {0, 2, 3, 4}  # every neighbor of 1
    assert all(s[0] == 1 for s in succ)


def test_successors_singleton(family):
    c6, aut = family["c6"]
    assert cw.successors(aut, c6, (0, 1, 0)) == [(1, 0, 1)]


def test_successors_petersen_two_arc(family):
    pet, aut = family["petersen"]
    two_arc = (0, 7, 3)
    succ = cw.successors(aut, pet, two_arc)
    assert len(succ) == 2


def test_successors_not_consistent():
    c6 = cw.named_graph("cycle:6")
    rotations = cw.PermutationGroup.close([ROTATION6])
    with pytest.raises(NotConsistent):
        cw.successors(rotations, c6, (0, 1, 0))


def test_successor_count_identities(family):
    k5, aut5 = family["k5"]
    assert cw.successor_count(aut5, k5, (0, 1)) == 4
    stab_u = oracles.oracle_stabilizer(aut5, (0,))
    stab_uv = oracles.oracle_stabilizer(aut5, (0, 1))
    assert len(stab_u) == 24 and len(stab_uv) == 6
    assert len(stab_u) // len(stab_uv) == 4

    c6, aut6 = family["c6"]
    assert cw.successor_count(aut6, c6, (0, 1, 0)) == 1
    q3, aut3 = family["q3"]
    assert cw.successor_count(aut3, q3, (1, 0, 2)) == 2


def test_order_identity_on_random_walks(family):
    # orbit–stabilizer: |G_prefix| = |G_walk| * |Succ| in every group, so
    # the groups that are not vertex-transitive are checked too
    rng = random.Random(14)
    cases = [family[name] for name in ("c6", "k4", "petersen", "q4")]
    for edges in (NET_EDGES, TWO_TRIANGLES_EDGES):
        graph = cw.Graph(6, edges)
        cases.append((graph, cw.automorphism_group(graph)))
    cases.append((cw.named_graph("cycle:6"), cw.PermutationGroup.close([ROTATION6])))
    for graph, group in cases:
        for _ in range(5):
            walk = oracles.random_consistent_walk(group, graph, rng)
            count = cw.successor_count(group, graph, walk)
            prefix = len(oracles.oracle_stabilizer(group, walk[:-1]))
            full = len(oracles.oracle_stabilizer(group, walk))
            assert prefix == full * count


def test_induced_cycle_examples(family):
    c6, aut6 = family["c6"]
    hexagon = cw.induced_cycle(cw.ConsistencyWitness((0, 1), ROTATION6))
    assert hexagon == (0, 1, 2, 3, 4, 5, 0)
    reflection = cw.shunts(aut6, c6, (0, 1, 0))[0]
    assert cw.induced_cycle(cw.ConsistencyWitness((0, 1, 0), reflection)) == (0, 1, 0)
    # a walk already wrapping past its root truncates to one period
    wrapped = cw.ConsistencyWitness((0, 1, 2, 3, 4, 5, 0, 1), ROTATION6)
    assert cw.induced_cycle(wrapped) == (0, 1, 2, 3, 4, 5, 0)

    three_cycle = cw.Perm((1, 2, 0, 3))
    triangle = cw.induced_cycle(cw.ConsistencyWitness((0, 1), three_cycle))
    assert triangle == (0, 1, 2, 0)


# a triangle 0-1-2 with pendant edges 0-3, 1-4, 2-5: not vertex-transitive
NET_EDGES = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]
# triangles 0-1-2 and 3-4-5 joined by the edge 2-3: each vertex orbit,
# {0,1,4,5} and {2,3}, roots one orbit of trivial cycles
TWO_TRIANGLES_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]


def census_case(name, family, censuses):
    """(graph, group, census) for a family name or one of three extra groups."""
    if name == "c6-rotations":
        graph, group = cw.named_graph("cycle:6"), cw.PermutationGroup.close([ROTATION6])
    elif name in ("net", "two-triangles"):
        graph = cw.Graph(6, NET_EDGES if name == "net" else TWO_TRIANGLES_EDGES)
        group = cw.automorphism_group(graph)
    else:
        graph, group = family[name]
        return graph, group, censuses[name]
    return graph, group, cw.consistent_cycle_orbits(group, graph)


# C4[2K1] (3 s) and Q4 (minutes) are left out: the oracle is brute force
@pytest.mark.parametrize("name,lengths", [
    ("c6", [2, 6]),
    ("k4", [2, 3, 4]),
    ("petersen", [2, 5, 6]),
    ("k5", [2, 3, 4, 5]),
    ("q3", [2, 4, 6]),
    ("c6-rotations", [6, 6]),   # vertex- but not arc-transitive: two hexagon orbits
    ("net", [2, 3]),
    ("two-triangles", [2, 2]),
])
def test_census_against_oracle(name, lengths, family, censuses):
    graph, group, table = census_case(name, family, censuses)
    assert table.lengths() == lengths
    oracle_orbits = oracles.oracle_cycle_orbits(group, graph)
    assert len(oracle_orbits) == len(table.records)
    for record, orbit in zip(table.records, oracle_orbits):
        assert record.representative == orbit[0]
        assert record.orbit_size == len(orbit)
        assert record.shunt_count == len(oracles.oracle_shunts(group, record.representative))
        assert len(cw.shunts(group, graph, record.representative)) == record.stabilizer_order
        assert record.stabilizer_order == len(
            oracles.oracle_stabilizer(group, record.representative[:-1]))
    # every consistent cycle, read off the census records' orbits, against
    # the oracle's filtered DFS cycles; partition_cycles is the tests' reference
    cycles = enumerate_consistent_cycles(group, graph)
    assert cycles == {c for orbit in oracle_orbits for c in orbit}
    assert cw.partition_cycles(group, cycles) == oracle_orbits


def rotation(n, step=1):
    return cw.Perm(tuple((i + step) % n for i in range(n)))


def reflection(n, shift=0):
    """i -> shift - i (mod n)."""
    return cw.Perm(tuple((shift - i) % n for i in range(n)))


# groups whose vertex stabilizers have several orbits on the neighbors
SEVERAL_NEIGHBOR_ORBITS = {
    "z12": ("circulant:12:1,5", [rotation(12)]),
    "d12": ("circulant:12:1,5", [rotation(12), reflection(12)]),
    # swaps 0 with 1 and 3 with 4, the only arcs it shunts
    "c6-reflection": ("cycle:6", [reflection(6, 1)]),
    # sends no vertex to a neighbor: an empty census
    "z4-on-c8": ("cycle:8", [rotation(8, 2)]),
}


def neighbor_orbit_count(group, graph, root):
    return len({group.pointwise_stabilizer((root,)).orbit(v) for v in graph.adj[root]})


@pytest.mark.parametrize("name", [*SEVERAL_NEIGHBOR_ORBITS, "c4k2", "q3k2"])
def test_census_from_least_neighbors_against_oracle(name, family, censuses):
    if name in SEVERAL_NEIGHBOR_ORBITS:
        spec, gens = SEVERAL_NEIGHBOR_ORBITS[name]
        graph, group = cw.named_graph(spec), cw.PermutationGroup.close(gens)
        table = cw.consistent_cycle_orbits(group, graph)
        assert max(neighbor_orbit_count(group, graph, r)
                   for r in range(graph.vertex_count)) > 1
        consistent = oracles.element_cycles(group, graph)
        assert consistent == {c for c in oracles.all_rooted_cycles(graph)
                              if oracles.oracle_shunts(group, c)}
    else:
        # the DFS cannot list the cycles of these blow-ups in time
        (graph, group), table = family[name], censuses[name]
        consistent = oracles.element_cycles(group, graph)
    oracle_orbits = oracles.oracle_cycle_orbits(group, graph, consistent)
    assert [(r.representative, r.orbit_size, r.shunt_count) for r in table.records] == [
        (orbit[0], len(orbit), len(oracles.oracle_shunts(group, orbit[0])))
        for orbit in oracle_orbits]


def census_without_group_queries(monkeypatch, group, graph):
    """The census of ``group``, made while any transporter or pointwise
    stabilizer query, and any expansion of a chain's elements, fails."""
    def refused(self, *args):
        raise AssertionError("the census queried the group's elements")

    with monkeypatch.context() as patched:
        for method in ("transporter", "pointwise_stabilizer", "_expand"):
            patched.setattr(cw.PermutationGroup, method, refused)
        return cw.consistent_cycle_orbits(group, graph)


def test_census_asks_no_transporter_and_expands_no_aut(monkeypatch):
    # fresh chains: the session's groups may have been expanded by other tests
    q3 = cw.named_graph("hypercube:3")
    for m, cap, lengths in [(2, DEFAULT_GROUP_CAP, [2, 4, 4, 6, 8, 12]),
                            (3, 10**8, [2, 4, 4, 6, 6, 8, 12, 12, 18])]:
        blowup = cw.lex_blowup(q3, m)
        aut = cw.automorphism_group(blowup, cap=cap)
        table = census_without_group_queries(monkeypatch, aut, blowup)
        assert table.lengths() == lengths
    # several G_r-orbits on N(r): still the oracle's census
    for graph, group in [
            (cw.named_graph("cycle:6"), cw.PermutationGroup.close([ROTATION6])),
            (cw.named_graph(SEVERAL_NEIGHBOR_ORBITS["d12"][0]),
             cw.PermutationGroup.close(SEVERAL_NEIGHBOR_ORBITS["d12"][1]))]:
        assert max(neighbor_orbit_count(group, graph, r)
                   for r in range(graph.vertex_count)) > 1
        table = census_without_group_queries(monkeypatch, group, graph)
        assert [(r.representative, r.orbit_size, r.stabilizer_order)
                for r in table.records] == [
            (orbit[0], len(orbit), len(oracles.oracle_stabilizer(group, orbit[0][:-1])))
            for orbit in oracles.oracle_cycle_orbits(group, graph)]


def test_random_consistent_walk_refuses_a_group_without_consistent_arcs(family):
    graph, aut = family["q3"]
    with pytest.raises(ValueError, match="no arc is consistent"):
        oracles.random_consistent_walk(aut.pointwise_stabilizer((0,)), graph,
                                       random.Random(1))


def test_census_k5_shunt_counts(censuses):
    table = censuses["k5"]
    assert sorted(table.shunt_counts()) == [1, 1, 2, 6]
    assert table.trivial_record().shunt_count == 6


def test_census_orbit_stabilizer_invariant(family, censuses):
    for name, table in censuses.items():
        group = family[name][1]
        for record in table.records:
            assert record.orbit_size * record.stabilizer_order == group.order


def test_census_without_vertex_transitivity():
    # path graph: only automorphism flips the ends, nothing shunts an arc
    path = cw.Graph(3, [(0, 1), (1, 2)])
    aut = cw.automorphism_group(path)
    assert aut.order == 2
    table = cw.consistent_cycle_orbits(aut, path)
    assert not table.vertex_transitive
    assert table.records == ()

    # the net: vertex orbits {0,1,2} and {3,4,5}; no pendant edge is shunted
    net = cw.Graph(6, NET_EDGES)
    aut = cw.automorphism_group(net)
    assert aut.order == 6
    assert {aut.orbit(0), aut.orbit(3)} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    table = cw.consistent_cycle_orbits(aut, net)
    assert not table.vertex_transitive
    assert [(r.representative, r.orbit_size) for r in table.records] == [
        ((0, 1, 0), 6), ((0, 1, 2, 0), 6)]


def test_census_invariant_survives_optimize():
    # python -O strips assert statements; the census d-orbit check must stay
    script = (
        "import consistentwalks as cw\n"
        "from consistentwalks.errors import InvariantViolation\n"
        "valence = cw.Graph.valence\n"
        "cw.Graph.valence = lambda self: valence(self) + 1\n"
        "graph = cw.named_graph('petersen')\n"
        "try:\n"
        "    cw.consistent_cycle_orbits(cw.automorphism_group(graph), graph)\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(cw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "expected 4 orbits, found 3"


def test_census_serialization(censuses):
    data = censuses["c6"].to_json()
    assert [row["length"] for row in data] == [2, 6]
    assert all(set(row) == {"representative", "length", "orbit_size",
                            "shunt_count", "stabilizer_order", "trivial"}
               for row in data)
    # the shunt coset a record carries is neither serialized nor compared
    record = censuses["c6"].records[1]
    assert dataclasses.replace(record, shunt_coset=(record.least_shunt(), ())) == record
