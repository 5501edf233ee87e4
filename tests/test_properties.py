"""Property tests of the census and of walks on random connected circulants.

Each graph circulant:n:S (n <= 12, at most three steps) is taken under
its rotations Z_n, the dihedral group D_n, and its full automorphism
group when that has at most 1000 elements.  The exhaustive trivial-walk
search is checked against the census there and on four named graphs.
The transporter's answers are checked to be cosets of point stabilizers,
the shunts to generate whenever the census holds a trivial record, and
the lifting conditions and the certificate to read the stabilizers that
the groups' own point stabilizers give.
These use the public API and the brute force in ``oracles``, so they
hold whatever backend the groups use.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import consistentwalks as cw
from consistentwalks import generation
from consistentwalks.errors import CapExceeded, NoWitness
from consistentwalks.perms import generated_order

import oracles

AUT_ORDER_LIMIT = 1000


@st.composite
def connected_circulants(draw):
    n = draw(st.integers(3, 12))
    steps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3)
                 .filter(lambda s: math.gcd(n, *s) == 1))
    return f"circulant:{n}:{','.join(map(str, sorted(steps)))}"


def acting_group(kind, graph):
    n = graph.vertex_count
    rotation = cw.Perm((i + 1) % n for i in range(n))
    if kind == "cyclic":
        return cw.PermutationGroup.close([rotation])
    if kind == "dihedral":
        return cw.PermutationGroup.close([rotation, cw.Perm((-i) % n for i in range(n))])
    try:
        return cw.automorphism_group(graph, cap=AUT_ORDER_LIMIT)
    except CapExceeded:
        return None


def exhaustive_search_agrees_with_census(group, graph, table):
    """On at most 64 vertices the default depth cap of 64 reaches every
    consistent cycle, and a consistent walk has a trivial stabilizer
    exactly when some consistent cycle does: the walk's induced cycle
    holds its vertices, and a cycle's representative is such a walk.  So
    the search ends in NoWitness exactly when no census record is trivial.
    Returns whether a witness exists."""
    assert graph.vertex_count <= 64
    trivial_record = any(r.stabilizer_order == 1 for r in table.records)
    try:
        cw.find_trivial_walk_exhaustive(group, graph)
    except NoWitness:
        assert not trivial_record
        return False
    assert trivial_record
    return True


@pytest.mark.parametrize("spec,m,witness", [
    ("hypercube:3", 2, False), ("petersen", 2, False),
    ("cycle:4", 2, True), ("hypercube:5", 1, True),
])
def test_exhaustive_search_no_witness_iff_no_trivial_census_record(spec, m, witness):
    graph = cw.named_graph(spec)
    if m > 1:
        graph = cw.lex_blowup(graph, m)
    group = cw.automorphism_group(graph)
    table = cw.consistent_cycle_orbits(group, graph)
    assert exhaustive_search_agrees_with_census(group, graph, table) == witness


@pytest.mark.parametrize("kind", ["cyclic", "dihedral", "aut"])
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(spec=connected_circulants())
def test_census_properties_on_circulants(kind, spec):
    graph = cw.named_graph(spec)
    group = acting_group(kind, graph)
    if group is None:
        return
    table = cw.consistent_cycle_orbits(group, graph)
    exhaustive_search_agrees_with_census(group, graph, table)
    assert len(table.records) == graph.valence()
    for record in table.records:
        assert record.orbit_size * record.stabilizer_order == group.order
    census_reps = [r.representative for r in table.records]
    selected, matrix = oracles.oracle_selection(group, census_reps)
    assert selected == census_reps
    reps, overlaps = cw.overlap_maximal_representatives(group, graph)
    assert reps == census_reps
    assert [list(row) for row in overlaps.orbit_overlaps] == matrix


@pytest.mark.parametrize("kind", ["cyclic", "dihedral", "aut"])
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(spec=connected_circulants(), seed=st.integers(0, 2 ** 16))
def test_walk_properties_on_circulants(kind, spec, seed):
    graph = cw.named_graph(spec)
    group = acting_group(kind, graph)
    if group is None:
        return
    rng = random.Random(seed)
    walk = oracles.random_consistent_walk(group, graph, rng, max_length=4)
    while len(walk) < 3:
        extensions = oracles.consistent_extensions(group, graph, walk)
        walk = extensions[rng.randrange(len(extensions))]
    by_group = cw.reachability_by_shunt_group(group, graph, walk)
    assert by_group.verdict == cw.reachability_by_chase(group, graph, walk).verdict
    classes = cw.successor_reachability_classes(group, graph, walk)
    assert classes == oracles.union_find_reachability_classes(group, walk)
    prefix_order = group.pointwise_stabilizer(walk[:-1]).order
    walk_order = group.pointwise_stabilizer(walk).order
    assert prefix_order == walk_order * cw.successor_count(group, graph, walk)


@pytest.mark.parametrize("kind", ["cyclic", "dihedral", "aut"])
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(spec=connected_circulants(), seed=st.integers(0, 2 ** 16),
       seed_length=st.integers(1, 4))
def test_conditions_and_certificate_read_stabilizers_on_circulants(kind, spec, seed,
                                                                   seed_length):
    # J = <G_prefix, g0^-1 * G_prefix * g0> closed from G_prefix's generators,
    # against the order the conditions read off the prefix's shunt coset
    graph = cw.named_graph(spec)
    group = acting_group(kind, graph)
    if group is None:
        return
    rng = random.Random(seed)
    walk = oracles.random_consistent_walk(group, graph, rng, max_length=4)
    while len(walk) < 3:
        extensions = oracles.consistent_extensions(group, graph, walk)
        walk = extensions[rng.randrange(len(extensions))]
    prefix_gens = group.pointwise_stabilizer(walk[:-1]).generators
    g0 = cw.shunts(group, graph, walk)[0]
    shifted = [g0.inverse() * h * g0 for h in prefix_gens]
    report = cw.check_conditions(group, graph, walk)
    assert report.joined_stabilizer_order == closed_order(
        graph.vertex_count, [*prefix_gens, *shifted]), (spec, walk)
    if cw.is_arc_transitive(group, graph):
        cert = cw.certify_trivial_stabilizer(group, graph, walk, seed_length=seed_length)
        assert cert["stabilizer_order"] == group.pointwise_stabilizer(walk).order, (spec, walk)


@pytest.mark.parametrize("kind", ["cyclic", "dihedral", "aut"])
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(spec=connected_circulants(), data=st.data())
def test_transporter_is_a_stabilizer_coset_on_circulants(kind, spec, data):
    graph = cw.named_graph(spec)
    group = acting_group(kind, graph)
    if group is None:
        return
    points = st.integers(0, graph.vertex_count - 1)
    src = tuple(data.draw(st.lists(points, max_size=3)))
    g = data.draw(st.sampled_from(group.elements))
    # the image of src under some element, and any tuple of its length
    arbitrary = data.draw(st.lists(points, min_size=len(src), max_size=len(src)))
    stab = group.pointwise_stabilizer(src)
    for dst in (tuple(g[v] for v in src), tuple(arbitrary)):
        found = group.transporter(src, dst)
        assert len(found) in (0, stab.order), (src, dst)
        if found:
            assert found == sorted(h * found[0] for h in stab), (src, dst)
    assert group.transporter(src, tuple(g[v] for v in src))


@pytest.mark.parametrize("kind", ["cyclic", "dihedral", "aut"])
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(spec=connected_circulants(), data=st.data())
def test_least_image_is_the_minimum_over_elements_on_circulants(kind, spec, data):
    graph = cw.named_graph(spec)
    group = acting_group(kind, graph)
    if group is None:
        return
    tup = data.draw(st.lists(st.integers(0, graph.vertex_count - 1), max_size=5))
    assert group.least_image(tup) == oracles.oracle_least_image(group, tup), (spec, tup)


@pytest.mark.parametrize("kind", ["cyclic", "dihedral", "aut"])
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(spec=connected_circulants())
def test_shunts_generate_when_the_census_has_a_trivial_record(kind, spec):
    # the paper's theorem: a consistent cycle with a trivial stabilizer makes
    # one shunt per cycle orbit a generating set
    graph = cw.named_graph(spec)
    group = acting_group(kind, graph)
    if group is None:
        return
    table = cw.consistent_cycle_orbits(group, graph)
    report = cw.verify_generation(group, graph)
    if any(r.stabilizer_order == 1 for r in table.records):
        assert report.generates, spec
        assert report.shunt_group_order == group.order, spec


def closed_order(degree, generators):
    return cw.PermutationGroup.close(generators, degree=degree).order


@pytest.mark.parametrize("kind", ["cyclic", "dihedral", "aut"])
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(spec=connected_circulants())
def test_generated_order_matches_closure_on_circulants(kind, spec):
    # under Z_n and D_n the shunts generate at most that proper subgroup of Aut
    graph = cw.named_graph(spec)
    group = acting_group(kind, graph)
    if group is None:
        return
    reps = [r.representative for r in cw.consistent_cycle_orbits(group, graph).records]
    shunt_set = cw.shunt_generating_set(group, graph, reps)
    n = graph.vertex_count
    for gens in (shunt_set, *([s] for s in shunt_set)):
        assert generated_order(n, gens) == closed_order(n, gens), (spec, gens)


def test_generated_order_of_sets_that_do_not_generate(family, c4_wreath):
    for name, (graph, aut) in family.items():
        reps = [r.representative for r in cw.consistent_cycle_orbits(aut, graph).records]
        n = graph.vertex_count
        for s in cw.shunt_generating_set(aut, graph, reps):
            assert generated_order(n, [s]) == closed_order(n, [s]) < aut.order, name
        # generators that all fix 0: the orbit is {0} and H_0 is H
        stab = aut.pointwise_stabilizer((0,))
        assert generated_order(n, stab.generators) == stab.order, name
    # the shunts under the fiber-wreath subgroup of Aut(C4[2K1])
    blowup, wreath = c4_wreath
    reps = [r.representative for r in cw.consistent_cycle_orbits(wreath, blowup).records]
    shunt_set = cw.shunt_generating_set(wreath, blowup, reps)
    order = generated_order(blowup.vertex_count, shunt_set)
    assert order == closed_order(blowup.vertex_count, shunt_set) <= wreath.order
    assert wreath.order < family["c4k2"][1].order


def test_verify_generation_unchanged_with_closed_joins(family, monkeypatch):
    joined = {name: generation.verify_generation(aut, graph).to_json()
              for name, (graph, aut) in family.items()}
    monkeypatch.setattr(generation, "generated_order", closed_order)
    for name, (graph, aut) in family.items():
        assert generation.verify_generation(aut, graph).to_json() == joined[name], name
