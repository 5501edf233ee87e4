import json
import random
from itertools import permutations, product

import pytest

import consistentwalks as cw
from consistentwalks.errors import (
    BadParameters,
    CapExceeded,
    DegreeMismatch,
    InvalidPermutation,
)
from consistentwalks import graphs as graphs_module
from consistentwalks import perms as perms_module
from consistentwalks.perms import (
    Perm,
    PermutationGroup,
    least_in_coset,
    point_stabilizer,
    tuple_orbit_under,
)

import oracles


def square_symmetries() -> set[Perm]:
    """Order-8 oracle: bijections of Z4 preserving cyclic adjacency."""
    keep = set()
    for images in permutations(range(4)):
        if all((images[i] - images[(i + 1) % 4]) % 4 in (1, 3) for i in range(4)):
            keep.add(Perm(images))
    return keep


ROTATION = Perm((1, 2, 3, 0))
REFLECTION = Perm((0, 3, 2, 1))


def test_compose_identity_and_inverse():
    p = Perm((2, 0, 1))
    assert Perm.identity(3) * p == p
    assert p * Perm.identity(3) == p
    assert (p * p.inverse()).is_identity()


def test_compose_right_action_order():
    # (0 1) then (1 2): point images evaluated right-to-left in exponent form
    p = Perm((1, 0, 2))
    q = Perm((0, 2, 1))
    r = p * q
    for v in range(3):
        assert r[v] == q[p[v]]
    assert r == Perm((2, 0, 1))  # the 3-cycle 0->2->1->0


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Perm((1, 0)) * Perm((0, 1, 2))


def test_from_images_rejects_non_bijection():
    with pytest.raises(InvalidPermutation):
        Perm.from_images([0, 0, 1])


def test_close_group_dihedral_matches_square_oracle():
    group = PermutationGroup.close([ROTATION, REFLECTION])
    assert group.order == 8
    assert set(group.elements) == square_symmetries()


def test_close_group_empty_generators():
    group = PermutationGroup.close([], degree=5)
    assert group.order == 1
    assert group.identity in group


def test_close_group_transpositions_give_symmetric_group():
    gens = [Perm.from_cycles(5, (i, i + 1)) for i in range(4)]
    group = PermutationGroup.close(gens)
    assert group.order == 120
    assert set(group.elements) == {Perm(p) for p in permutations(range(5))}


def test_constructor_equals_close_on_generator_and_element_lists(family):
    # a group is the chain of whatever list generates it: generators, a
    # whole element list with or without the identity, or nothing at all
    d4 = PermutationGroup.close([ROTATION, REFLECTION])
    lists = [(4, [ROTATION, REFLECTION]), (4, list(d4.elements)),
             (4, list(d4.elements[1:])), (4, [])]
    for name in ("k4", "petersen", "c4k2"):
        aut = family[name][1]
        local = aut.pointwise_stabilizer((0,))
        lists += [(aut.degree, list(aut.generators)), (aut.degree, list(local.elements))]
    for degree, generators in lists:
        chain = PermutationGroup(degree, generators)
        closed = PermutationGroup.close(generators, degree=degree)
        assert chain.order == closed.order, (degree, len(generators))
        assert chain.elements == closed.elements, (degree, len(generators))


def test_a_stabilizer_of_a_group_of_known_order_keeps_its_order(monkeypatch):
    # |G_p| = |G| / |p^G|: once |G| is read, a new point stabilizer reads
    # its order without building a chain of its own; a fresh Aut(Q3[2K1]),
    # so no earlier query has built that chain
    aut = cw.automorphism_group(cw.lex_blowup(cw.named_graph("hypercube:3"), 2))
    assert aut.order == 12288
    stab = aut.pointwise_stabilizer((5,))  # off the chain's base point 0
    built = []
    point_stabilizer = perms_module.point_stabilizer

    def counting(degree, generators, point):
        built.append(point)
        return point_stabilizer(degree, generators, point)

    monkeypatch.setattr(perms_module, "point_stabilizer", counting)
    assert stab.order == aut.order // len(aut.orbit(5))
    assert built == []


def test_close_group_cap(family):
    with pytest.raises(CapExceeded):
        PermutationGroup.close([ROTATION, REFLECTION], cap=5)
    for name in ("c6", "petersen", "c4k2"):
        group = family[name][1]
        gens = group.small_generating_set()
        with pytest.raises(CapExceeded, match=f"group closure reached {group.order} "):
            PermutationGroup.close(gens, degree=group.degree, cap=group.order - 1)
        closed = PermutationGroup.close(gens, degree=group.degree, cap=group.order)
        assert closed.order == group.order
    for cap in (0, -3):
        with pytest.raises(BadParameters):
            PermutationGroup.close([ROTATION], cap=cap)


def test_full_closure_on_small_groups():
    # quadratic product/inverse closure, affordable only at this scale
    for gens in ([ROTATION, REFLECTION], [Perm((1, 2, 3, 4, 5, 0))]):
        group = PermutationGroup.close(gens)
        elements = set(group.elements)
        assert group.identity in elements
        for a in elements:
            assert a.inverse() in elements
            for b in elements:
                assert a * b in elements


def test_orbit_examples():
    trivial = PermutationGroup.close([], degree=5)
    assert trivial.orbit(3) == {3}
    d4 = PermutationGroup.close([ROTATION, REFLECTION])
    assert d4.orbit(0) == {0, 1, 2, 3}
    assert {p[0] for p in d4.elements} == set(d4.orbit(0))
    fixer = d4.pointwise_stabilizer((0,))
    assert fixer.orbit(0) == {0}


def test_pointwise_stabilizer_examples():
    k4 = cw.named_graph("complete:4")
    aut = cw.automorphism_group(k4)
    assert aut.order == 24  # every bijection of a complete graph
    assert aut.pointwise_stabilizer(()).subgroup_equals(aut)
    stab0 = aut.pointwise_stabilizer((0,))
    assert stab0.order == 6
    assert set(stab0.elements) == set(oracles.oracle_stabilizer(aut, (0,)))
    assert aut.pointwise_stabilizer((0, 1, 2, 3)).order == 1


def test_pointwise_stabilizer_chains():
    aut = cw.automorphism_group(cw.named_graph("complete:4"))
    chained = aut.pointwise_stabilizer((0,)).pointwise_stabilizer((2,))
    direct = aut.pointwise_stabilizer((0, 2))
    assert chained.subgroup_equals(direct)


def test_transporter_rejects_points_outside_degree():
    aut = cw.automorphism_group(cw.named_graph("cycle:6"))
    for src, dst in (((-1,), (0,)), ((6,), (0,)), ((0,), (-1,)), ((0,), (6,)),
                     ((0, 1), (1, 6)), ((0, 7), (0, 1))):
        with pytest.raises(BadParameters):
            aut.transporter(src, dst)
    with pytest.raises(BadParameters):
        aut.pointwise_stabilizer((0, -1))


def test_tuple_orbit_rejects_points_outside_degree(family):
    _, aut = family["petersen"]
    for tup in ((99,), (-1,), (0, 10)):
        with pytest.raises(BadParameters, match="outside degree 10"):
            aut.tuple_orbit(tup)


def test_tuple_orbit_under_rejects_points_outside_degree():
    # the generators' degree bounds the points, not the padded table's 256:
    # a rotation of cycle:100 would fix 150
    rotations = [Perm((v + 1) % 100 for v in range(100))]
    with pytest.raises(BadParameters, match="point 150 outside degree 100"):
        tuple_orbit_under(rotations, (150,))
    with pytest.raises(BadParameters, match="point -1 outside degree 100"):
        tuple_orbit_under(rotations, (-1,))
    with pytest.raises(BadParameters, match="point -1 outside degree 256"):
        tuple_orbit_under([], (-1,))
    assert tuple_orbit_under([], (255,)) == {(255,)}


def test_degree_limit_of_256():
    reversal = Perm.from_images(range(255, -1, -1))
    shift = Perm((v + 1) % 256 for v in range(256))
    assert Perm.identity(256).is_identity() and reversal * reversal == Perm.identity(256)
    assert reversal * shift == Perm(shift[v] for v in reversal)
    assert shift.inverse() * shift == Perm.identity(256)
    for make in (Perm.identity, lambda n: Perm.from_images(range(n))):
        with pytest.raises(CapExceeded, match="degree 257 exceeds the limit of 256"):
            make(257)


def test_transporter_matches_plain_scan(family):
    rng = random.Random(20261018)
    for name in ("petersen", "q4", "c4k2"):
        full = family[name][1]
        for group in (full, full.pointwise_stabilizer((0,))):
            assert group.transporter((), ()) == list(group.elements)
            queries = [((a,), (b,)) for a in range(group.degree)
                       for b in range(group.degree)]
            for _ in range(60):
                src = tuple(rng.randrange(group.degree) for _ in range(rng.randint(2, 3)))
                if rng.random() < 0.5:
                    dst = tuple(rng.randrange(group.degree) for _ in src)
                else:
                    g = group.elements[rng.randrange(group.order)]
                    dst = tuple(g[a] for a in src)
                queries.append((src, dst))
            for src, dst in queries:
                found = group.transporter(src, dst)
                assert isinstance(found, list)
                assert found == sorted(found), (name, src, dst)
                assert found == oracles.oracle_transporter(group, src, dst), (name, src, dst)


def test_transporter_over_65536_elements_matches_plain_scan():
    # S_8 x S_2 on 10 points: 80,640 elements, a closed group whose point
    # stabilizers come from its kept generators
    group = PermutationGroup.close([Perm.from_cycles(10, (0, 1)),
                            Perm.from_cycles(10, tuple(range(8))),
                            Perm.from_cycles(10, (8, 9))])
    assert group.order == 80640 > 1 << 16
    for src, dst in (((0,), (5,)), ((7,), (0,)), ((8,), (9,)), ((9,), (0,)),
                     ((3, 8), (7, 9)), ((9, 2, 4), (8, 4, 2))):
        found = group.transporter(src, dst)
        assert found == [g for g in group if all(g[a] == b for a, b in zip(src, dst))], (
            src, dst)


def test_orbit_stabilizer_identity_on_random_tuples():
    rng = random.Random(20240809)
    groups = [PermutationGroup.close([ROTATION, REFLECTION]),
              cw.automorphism_group(cw.named_graph("complete:4")),
              cw.automorphism_group(cw.named_graph("cycle:6"))]
    for group in groups:
        for _ in range(12):
            size = rng.randint(1, 3)
            tup = tuple(rng.randrange(group.degree) for _ in range(size))
            orbit = group.tuple_orbit(tup)
            stab = group.pointwise_stabilizer(tup)
            assert len(orbit) * stab.order == group.order


def test_is_transitive():
    trivial = PermutationGroup.close([], degree=2)
    assert not trivial.is_transitive()
    rot6 = PermutationGroup.close([Perm((1, 2, 3, 4, 5, 0))])
    assert rot6.is_transitive()
    pet = cw.automorphism_group(cw.named_graph("petersen"))
    assert not pet.pointwise_stabilizer((0,)).is_transitive()


def test_subgroup_equals():
    d4 = PermutationGroup.close([ROTATION, REFLECTION])
    assert d4.subgroup_equals(d4)
    trivial = PermutationGroup.close([], degree=4)
    assert not trivial.subgroup_equals(d4)
    a = PermutationGroup.close([Perm((1, 0))])
    b = PermutationGroup.close([Perm((1, 0)), Perm((1, 0))])
    assert a.subgroup_equals(b)
    swap01 = PermutationGroup.close([Perm((1, 0, 2, 3))])
    swap23 = PermutationGroup.close([Perm((0, 1, 3, 2))])  # same order, other elements
    assert not swap01.subgroup_equals(swap23) and not swap23.subgroup_equals(swap01)


def test_min_generating_size_small_cases():
    assert PermutationGroup.close([], degree=3).min_generating_size() == 0
    rot6 = PermutationGroup.close([Perm((1, 2, 3, 4, 5, 0))])
    assert rot6.min_generating_size() == 1


def test_min_generating_size_decides_cyclic_groups_by_element_orders():
    # Z2 x Z3 is cyclic though neither generator alone generates it;
    # Z2 x Z2 is not, and needs both
    z6 = PermutationGroup.close([Perm((1, 0, 2, 3, 4)), Perm((0, 1, 3, 4, 2))])
    assert z6.order == 6 and z6.min_generating_size() == 1
    klein = PermutationGroup.close([Perm((1, 0, 2, 3)), Perm((0, 1, 3, 2))])
    assert klein.order == 4 and klein.min_generating_size() == 2


def test_min_generating_size_petersen(family):
    _, aut = family["petersen"]
    assert aut.order == 120
    # no single element can generate: element orders are all < 120
    assert all(p.order() < 120 for p in aut.elements)
    assert aut.min_generating_size() == 2
    # re-verify by closure that a generating pair really exists
    witness = next(
        (a, b)
        for i, a in enumerate(aut.elements)
        for b in aut.elements[i + 1:]
        if PermutationGroup.close([a, b], degree=aut.degree).order == 120)
    assert PermutationGroup.close(list(witness), degree=aut.degree).subgroup_equals(aut)


# greedy generators, frozen: how the closure is regrown must not change them
SMALL_GENERATORS = {
    "petersen": [(0, 1, 3, 2, 4, 6, 5, 8, 7, 9), (0, 2, 1, 3, 5, 4, 6, 7, 9, 8),
                 (0, 4, 5, 6, 1, 2, 3, 7, 8, 9), (1, 0, 2, 3, 4, 7, 8, 5, 6, 9)],
    "q3k2": [(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 14),
             (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 12, 14, 15),
             (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10, 12, 13, 14, 15),
             (0, 1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11, 12, 13, 14, 15),
             (0, 1, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11, 12, 13, 14, 15),
             (0, 1, 2, 3, 5, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
             (0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15),
             (0, 1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
             (0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15),
             (1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
             (2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13)],
    "c4k2": [(0, 1, 2, 3, 4, 5, 7, 6), (0, 1, 2, 3, 5, 4, 6, 7), (0, 1, 2, 6, 4, 5, 3, 7),
             (0, 1, 3, 2, 4, 5, 6, 7), (0, 4, 2, 3, 1, 5, 6, 7), (1, 0, 2, 3, 4, 5, 6, 7),
             (2, 3, 0, 1, 6, 7, 4, 5)],
    "q5": [(0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23,
            8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31),
           (0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15,
            16, 17, 18, 19, 24, 25, 26, 27, 20, 21, 22, 23, 28, 29, 30, 31),
           (0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15,
            16, 17, 20, 21, 18, 19, 22, 23, 24, 25, 28, 29, 26, 27, 30, 31),
           (0, 2, 1, 3, 4, 6, 5, 7, 8, 10, 9, 11, 12, 14, 13, 15,
            16, 18, 17, 19, 20, 22, 21, 23, 24, 26, 25, 27, 28, 30, 29, 31),
           (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14,
            17, 16, 19, 18, 21, 20, 23, 22, 25, 24, 27, 26, 29, 28, 31, 30)],
}


@pytest.fixture(scope="module")
def ladder(family):
    """The graph ladder's groups: cycle:6, petersen, hypercube:4 and :5, C4[2K1], Q3[2K1]."""
    q5 = cw.named_graph("hypercube:5")
    groups = {name: family[name] for name in ("c6", "petersen", "q4", "c4k2", "q3k2")}
    groups["q5"] = (q5, cw.automorphism_group(q5))
    return groups


def test_small_generating_set_generates(family, ladder):
    for name, (_, group) in {**family, **ladder}.items():
        gens = group.small_generating_set()
        assert PermutationGroup.close(gens, degree=group.degree).subgroup_equals(group)
        if name in SMALL_GENERATORS:
            assert [tuple(g) for g in gens] == SMALL_GENERATORS[name]


def test_membership_matches_element_set(ladder):
    member_transpositions = 0
    for name, (_, group) in ladder.items():
        elements = set(group.elements)
        n = group.degree
        transpositions = [Perm.from_cycles(n, (a, b)) for a in range(n) for b in range(a + 1, n)]
        for p in [*group.elements, *transpositions]:
            assert (p in group) == (p in elements), name
        member_transpositions += len(elements.intersection(transpositions))
    assert member_transpositions  # the blow-ups' fiber swaps


def test_membership_of_plain_tuples(family):
    _, aut = family["petersen"]
    for g in (aut.elements[0], aut.elements[-1]):
        assert tuple(g) in aut and list(g) in aut
    assert tuple(range(9, -1, -1)) not in aut and (0, 1) not in aut
    for images in ((-1, *range(1, 10)), (*range(9), 300), (0,) * 10):
        assert images not in aut


def test_close_group_orders_match_sympy(ladder):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for name, (graph, group) in ladder.items():
        arc = (0, graph.adj[0][0])
        for sub in (group, group.pointwise_stabilizer(arc[:1]), group.pointwise_stabilizer(arc)):
            gens = sub.small_generating_set()
            closed = PermutationGroup.close(gens, degree=group.degree)
            assert closed.subgroup_equals(sub), name
            oracle = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(g)) for g in gens])
            assert closed.order == oracle.order(), name


def test_serialization_round_trip():
    d4 = PermutationGroup.close([ROTATION, REFLECTION])
    data = d4.to_json()
    assert data["degree"] == 4
    rebuilt = PermutationGroup.close(data["generators"], degree=data["degree"])
    assert rebuilt.subgroup_equals(d4)
    # a closure keeps only the generators that enlarged the group
    redundant = PermutationGroup.close([ROTATION, ROTATION.inverse(), Perm.identity(4), REFLECTION])
    assert redundant.to_json()["generators"] == [list(ROTATION), list(REFLECTION)]


def test_products_and_orbits_at_small_degrees():
    # degrees 0 and 1 pad almost all of the translation table
    for degree in range(5):
        perms = [Perm(images) for images in permutations(range(degree))]
        for p in perms:
            for q in perms:
                assert p * q == Perm(q[v] for v in p)
                assert isinstance(p * q, Perm)
        group = PermutationGroup.close(perms, degree=degree)
        assert set(group.elements) == set(perms)
        tuples = [()] + [tuple(t) for size in (1, 2, 3)
                         for t in product(range(degree), repeat=size)]
        for t in tuples:
            assert group.tuple_orbit(t) == {tuple(g[v] for v in t) for g in perms}, t
            assert all(type(u) is tuple for u in group.tuple_orbit(t))
        for v in range(degree):
            assert group.orbit(v) == {g[v] for g in perms}


@pytest.mark.parametrize("degree,generators", [
    (0, []), (1, []), (2, [(1, 0)]), (3, [(1, 2, 0), (0, 2, 1)])])
def test_from_strong_generators_at_small_degrees(degree, generators):
    gens = [Perm(g) for g in generators]
    expanded = PermutationGroup.from_strong_generators(degree, gens)
    assert expanded.elements == tuple(sorted(PermutationGroup.close(gens, degree=degree).elements))
    assert expanded.generators == tuple(gens)


def test_from_strong_generators_lists_the_closure_in_order(ladder):
    for name, (graph, group) in ladder.items():
        strong = graphs_module._strong_generators(graph)[0]
        expanded = PermutationGroup.from_strong_generators(graph.vertex_count, strong)
        closed = PermutationGroup.close(strong, degree=graph.vertex_count)
        assert list(expanded.elements) == sorted(closed.elements), name
        assert expanded.elements == group.elements, name


def test_transversal_expansion_is_closed_under_strong_generators(ladder):
    # |G| is the orbit product by construction, so closure is the real check
    for name, (graph, group) in ladder.items():
        strong = graphs_module._strong_generators(graph)[0]
        members = set(group.elements)
        assert all(p * g in members for p in group.elements for g in strong), name


def base_point(group: PermutationGroup) -> int:
    """The least point any generator moves: a stabilizer chain's first base point."""
    return min((v for g in group.generators for v, x in enumerate(g) if v != x),
               default=0)


@pytest.fixture(scope="module")
def routed_groups(family, tmp_path_factory):
    """name -> group: Aut of the eight family graphs and of hypercube:5, each
    Aut's first point stabilizer, and the closure of a --group-file."""
    from consistentwalks import cli
    groups = {name: aut for name, (_, aut) in family.items()}
    groups["q5"] = cw.automorphism_group(cw.named_graph("hypercube:5"))
    for name, aut in list(groups.items()):
        groups[f"{name}_0"] = aut.pointwise_stabilizer((base_point(aut),))
    # Aut(Q3)_0 from a group file: a closed group, not transitive
    path = tmp_path_factory.mktemp("group") / "q3_0.json"
    path.write_text(json.dumps([list(g) for g in groups["q3_0"].generators]))
    args = cli.build_parser().parse_args(
        ["orbits", "--graph", "hypercube:3", "--group-file", str(path)])
    groups["q3_0_file"] = cli.parse_inputs(args)[1]
    return groups


def test_base_point_route_matches_plain_scan(routed_groups):
    rng = random.Random(20261019)
    for name, group in routed_groups.items():
        n, beta = group.degree, base_point(group)
        # half the queries go down two levels of a chain
        second = base_point(group.pointwise_stabilizer((beta,)))
        assert group.order == len(group.elements), name
        elements = group.elements
        queries = [((beta,), (b,)) for b in range(n)]
        for _ in range(40):
            src = (beta, second if rng.random() < 0.5 else rng.randrange(n))
            src += tuple(rng.randrange(n) for _ in range(rng.randint(0, 1)))
            if rng.random() < 0.5:
                dst = tuple(rng.randrange(n) for _ in src)
            else:
                g = elements[rng.randrange(len(elements))]
                dst = tuple(g[a] for a in src)
            queries.append((src, dst))
        for src, dst in queries:
            found = group.transporter(src, dst)
            assert found == oracles.oracle_transporter(group, src, dst), (name, src, dst)
            assert found == sorted(found), (name, src, dst)
        for rest in [()] + [tuple(rng.randrange(n) for _ in range(k)) for k in (1, 1, 2, 2)]:
            points = (beta,) + rest
            stab = group.pointwise_stabilizer(points)
            assert set(stab.elements) == set(oracles.oracle_stabilizer(group, points)), (
                name, points)
            assert stab.order == len(stab.elements), (name, points)
        members = set(elements)
        transpositions = [Perm.from_cycles(n, (a, b)) for a in range(n) for b in range(a + 1, n)]
        shuffled = [Perm(rng.sample(range(n), n)) for _ in range(50)]
        for p in [*elements, *transpositions, *shuffled]:
            assert (p in group) == (p in members), (name, p)
        for src, dst in (((beta,), (-1,)), ((beta,), (n,)), ((beta, n), (beta, 0)),
                         ((beta, 0), (n, 0)), ((beta, 0), (0, -1)), ((beta,), ())):
            with pytest.raises(BadParameters):
                group.transporter(src, dst)
        for points in ((beta, -1), (beta, n)):
            with pytest.raises(BadParameters):
                group.pointwise_stabilizer(points)


def test_point_stabilizer_matches_oracle(routed_groups):
    for name, group in routed_groups.items():
        n, beta = group.degree, base_point(group)
        for point in sorted({0, beta, n - 1}):
            trans, gens = point_stabilizer(n, group.generators, point)
            assert set(trans) == group.orbit(point), (name, point)
            assert all(u[point] == b and u in group for b, u in trans.items()), (name, point)
            assert trans[point].is_identity(), (name, point)
            # Sims' filter: one generator per (first moved point, image)
            firsts = [next(v for v, x in enumerate(h) if v != x) for h in gens]
            assert len({(v, h[v]) for v, h in zip(firsts, gens)}) == len(gens), (name, point)
            assert set(PermutationGroup.close(gens, degree=n).elements) == set(
                oracles.oracle_stabilizer(group, (point,))), (name, point)


def test_least_image_matches_minimum_over_elements(routed_groups, censuses):
    rng = random.Random(20261020)
    for name, group in routed_groups.items():
        n = group.degree
        tuples = [(), *((v,) for v in range(n))]
        tuples += [tuple(rng.randrange(n) for _ in range(rng.randint(2, 5)))
                   for _ in range(20)]
        for tup in tuples:
            assert group.least_image(tup) == oracles.oracle_least_image(group, tup), (
                name, tup)
        for bad in ((-1,), (0, n)):
            with pytest.raises(BadParameters):
                group.least_image(bad)
    # a census record's representative is the least member of its orbit
    for name, table in censuses.items():
        for record in table.records:
            rep = record.representative
            assert routed_groups[name].least_image(rep) == rep, name


def test_base_point_stabilizer_keeps_strong_generators(family):
    for name, (_, aut) in family.items():
        stab = aut.pointwise_stabilizer((0,))
        assert stab.generators == tuple(g for g in aut.generators if g[0] == 0), name
        assert aut.pointwise_stabilizer((0,)) is stab, name


@pytest.mark.parametrize("name", ["c6", "petersen", "q4", "c4k2", "q3k2", "q5"])
def test_orbit_stabilizer_agrees_with_point_stabilizer(name, ladder):
    # the read-off at a chain's base point bypasses point_stabilizer, and
    # with it the suite's rederivation hook, so it is checked here: on the
    # chain and on the same group closed, at every point
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def sympy_order(degree, gens):
        return combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g), size=degree) for g in gens]
            or [combinatorics.Permutation(list(range(degree)))]).order()

    _, aut = ladder[name]
    groups = [aut]
    if aut.order <= 20_000:
        groups.append(PermutationGroup.close(aut.generators, degree=aut.degree))
    for group in groups:
        n = group.degree
        for point in range(n):
            trans, gens = group.orbit_stabilizer(point)
            ref_trans, ref_gens = point_stabilizer(n, group.generators, point)
            assert set(trans) == set(ref_trans) == group.orbit(point), (name, point)
            assert all(u[point] == b and u in group for b, u in trans.items()), (name, point)
            assert all(h[point] == point and h in group for h in gens), (name, point)
            assert (sympy_order(n, gens) * len(trans) == sympy_order(n, ref_gens) * len(ref_trans)
                    == group.order), (name, point)


def test_orbit_stabilizer_reads_a_chain_at_its_base_point(ladder, monkeypatch):
    def refused(*args):
        raise AssertionError("point_stabilizer called at the chain's base point")

    for name, (_, aut) in ladder.items():
        stabilizer = aut.pointwise_stabilizer((0,))
        with monkeypatch.context() as patched:
            patched.setattr(perms_module, "point_stabilizer", refused)
            trans, gens = aut.orbit_stabilizer(0)
        assert gens == list(stabilizer.generators), name
        assert len(trans) * stabilizer.order == aut.order, name
        trans[0] = None  # a copy: the chain's own transversal is untouched
        assert aut.orbit_stabilizer(0)[0][0] == aut.identity, name


def test_least_in_coset_is_the_minimum_of_the_coset(family, c4_wreath):
    rng = random.Random(27)
    for name, aut in [*((name, aut) for name, (_, aut) in family.items()),
                      ("c4-wreath", c4_wreath[1])]:
        for size in (0, 1, 2, 3):
            gens = rng.sample(aut.elements, size)
            g = rng.choice(aut.elements)
            group = PermutationGroup.close(gens, degree=aut.degree)
            coset = [h * g for h in group]
            assert least_in_coset(gens, g) == group.least_in_coset(g) == min(coset), (
                name, size)


def test_off_base_queries_expand_only_the_final_stabilizer(monkeypatch):
    # a descent reads the elements of the stabilizer where it ends and
    # walks every other level by generators: Aut itself is never expanded
    graph = cw.lex_blowup(cw.named_graph("hypercube:3"), 2)
    aut = cw.automorphism_group(graph)
    expand = PermutationGroup._expand
    expanded = []

    def counting_expand(self):
        expanded.append(self)
        return expand(self)

    monkeypatch.setattr(PermutationGroup, "_expand", counting_expand)
    u = 5
    v = graph.adj[u][0]
    walk = (u, v, next(w for w in graph.adj[v] if w != u))
    final = aut.pointwise_stabilizer(walk[:-1])
    assert expanded == []
    found = cw.shunts(aut, graph, walk)
    assert expanded == [final]
    successors = cw.successors(aut, graph, walk)
    assert expanded == [final]
    stab = aut.pointwise_stabilizer((3, 7))
    assert stab.order * len(aut.tuple_orbit((3, 7))) == aut.order
    assert expanded == [final]
    stab_elements = set(stab.elements)
    assert expanded == [final, stab]
    # the oracles scan Aut's elements, so they come last
    assert stab_elements == set(oracles.oracle_stabilizer(aut, (3, 7)))
    assert found == oracles.oracle_transporter(aut, walk[:-1], walk[1:])
    assert successors == sorted({tuple(g[x] for x in walk) for g in found})


def test_off_base_stabilizers_are_kept(family):
    _, aut = family["q3k2"]
    closed = PermutationGroup.close(family["petersen"][1].generators, degree=10)
    for group, points in ((aut, (0,)), (aut, (5,)), (aut, (5, 3)), (closed, (4,)),
                          (closed, (4, 7))):
        stab = group.pointwise_stabilizer(points)
        assert group.pointwise_stabilizer(points) is stab, points
        assert stab.order < group.order, points
        assert group.pointwise_stabilizer(points[:1]).pointwise_stabilizer(points[1:]) is stab


def test_shunts_of_a_two_arc_on_q3_blowup_by_three():
    # G_(5,0) of |Aut(Q3[3K1])| = 80,621,568 holds 373,248 elements; no
    # element of Aut is built
    graph = cw.lex_blowup(cw.named_graph("hypercube:3"), 3)
    aut = cw.automorphism_group(graph, cap=10**8)
    found = cw.shunts(aut, graph, (5, 0, 3))
    assert len(found) == aut.pointwise_stabilizer((0, 3)).order == 373_248
    assert all(g[5] == 0 and g[0] == 3 for g in found[:: 997])
    assert aut._elements is None
