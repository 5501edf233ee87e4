import random

import pytest

import consistentwalks as cw
from consistentwalks.errors import BadParameters, NotConsistent, OrbitTooLarge, WalkTooShort
from consistentwalks.reachability import no_intermediate_divisor

import oracles


ROTATION6 = cw.Perm((1, 2, 3, 4, 5, 0))


def test_arc_has_property_r(family):
    for name in ("c6", "k4", "q3", "petersen", "k5"):
        graph, group = family[name]
        arc = (0, graph.adj[0][0])
        assert cw.reachability_by_shunt_group(group, graph, arc).verdict
        assert cw.reachability_by_chase(group, graph, arc).verdict


def test_least_arc_shunt_group_is_the_whole_group(family):
    # why an arc seed needs no closure: on a connected graph under an
    # arc-transitive group G, <G_u, s> is G
    for name, (graph, group) in family.items():
        arc = (0, graph.adj[0][0])
        report = cw.reachability_by_shunt_group(group, graph, arc)
        assert report.witness == {"shunt_group_order": group.order, "transitive": True}, name


def test_property_r_under_rotations_only():
    c6 = cw.named_graph("cycle:6")
    rotations = cw.PermutationGroup.close([ROTATION6])
    report = cw.reachability_by_shunt_group(rotations, c6, (0, 1, 2))
    assert report.verdict
    assert report.witness["shunt_group_order"] == 6


def test_shunt_group_equals_closure_of_all_shunts(family):
    # the prefix stabilizer plus any one shunt generates the same group as
    # the entire shunt coset
    rng = random.Random(99)
    for name in ("c6", "k4", "q3", "petersen"):
        graph, group = family[name]
        walk = oracles.random_consistent_walk(group, graph, rng, max_length=4)
        all_shunts = cw.shunts(group, graph, walk)
        direct = cw.PermutationGroup.close(all_shunts, degree=group.degree)
        prefix_stab = group.pointwise_stabilizer(walk[:-1])
        via_prefix_stabilizer = cw.PermutationGroup.close(
            list(prefix_stab.small_generating_set()) + [all_shunts[0]],
            degree=group.degree)
        assert direct.subgroup_equals(via_prefix_stabilizer)


def test_property_r_not_consistent():
    c6 = cw.named_graph("cycle:6")
    rotations = cw.PermutationGroup.close([ROTATION6])
    with pytest.raises(NotConsistent):
        cw.reachability_by_shunt_group(rotations, c6, (0, 1, 0))
    with pytest.raises(NotConsistent):
        cw.reachability_by_chase(rotations, c6, (0, 1, 0))


def test_chase_witness_chains(family):
    k4, aut = family["k4"]
    report = cw.reachability_by_chase(aut, k4, (0, 1), target=1)
    assert report.verdict and report.witness["chain"] == []
    report = cw.reachability_by_chase(aut, k4, (0, 1), target=3)
    chain = report.witness["chain"]
    assert chain and chain[-1][-1] == 3
    assert len(chain) <= 3  # diameter 1 plus slack
    # the chain is a genuine successor sequence
    current = (0, 1)
    for step in chain:
        assert tuple(step) in cw.successors(aut, k4, current)
        current = tuple(step)


def test_methods_agree_on_samples(family):
    rng = random.Random(15)
    for name in ("c6", "k4", "q3", "petersen", "c4k2"):
        graph, group = family[name]
        for _ in range(8):
            walk = oracles.random_consistent_walk(group, graph, rng)
            by_group = cw.reachability_by_shunt_group(group, graph, walk)
            by_chase = cw.reachability_by_chase(group, graph, walk)
            assert by_group.verdict == by_chase.verdict


def test_chase_matches_successor_query_oracle(family):
    # the library's chase queries the group once; the oracle once per reached walk
    rng = random.Random(20261019)
    for name, (graph, aut) in family.items():
        for group in (aut, aut.pointwise_stabilizer((0,))):
            arcs = [(u, v) for u in range(graph.vertex_count) for v in graph.adj[u]
                    if cw.shunts(group, graph, (u, v))]
            if not arcs:  # G_0 moves no vertex to a neighbor
                continue
            walks = [arcs[rng.randrange(len(arcs))]]  # lengths 1 to 5
            while len(walks[-1]) < 6:
                extensions = oracles.consistent_extensions(group, graph, walks[-1])
                walks.append(extensions[rng.randrange(len(extensions))])
            for walk in walks:
                reached = oracles.chase_by_successor_queries(group, graph, walk)["reached"]
                unreached = [v for v in range(graph.vertex_count) if v not in reached]
                for target in (walk[-1], rng.randrange(graph.vertex_count), *unreached[:1]):
                    report = cw.reachability_by_chase(group, graph, walk, target=target)
                    expected = oracles.chase_by_successor_queries(group, graph, walk, target)
                    assert report.verdict == expected["verdict"], (name, walk, target)
                    assert report.witness == {"reached_vertices": len(expected["reached"]),
                                              "target": target, "chain": expected["chain"]}, (
                        name, walk, target)
        # an arc walked back and on is never consistent: a shunt sends its
        # first vertex to two different ones
        u, v = graph.adj[0][0], 0
        walk = (u, v, u, next(x for x in graph.adj[u] if x != v))
        for group in (aut, aut.pointwise_stabilizer((0,))):
            with pytest.raises(NotConsistent) as ours:
                cw.reachability_by_chase(group, graph, walk)
            with pytest.raises(NotConsistent) as theirs:
                oracles.chase_by_successor_queries(group, graph, walk)
            assert str(ours.value) == str(theirs.value), name


def test_blowup_two_arc_fiber_chase(c4_wreath):
    # a 2-arc in the C4 blow-up under the fiber wreath group: compute both
    # verdicts, no claim which way, only that they agree
    blowup, wreath = c4_wreath
    walk = (2, 0, 6)
    by_group = cw.reachability_by_shunt_group(wreath, blowup, walk)
    by_chase = cw.reachability_by_chase(wreath, blowup, walk)
    assert by_group.verdict == by_chase.verdict


def test_no_intermediate_divisor_arithmetic():
    assert no_intermediate_divisor(3, 3)      # empty range
    assert no_intermediate_divisor(2, 3)      # 2 does not divide 3
    assert not no_intermediate_divisor(2, 4)  # 2 divides 4
    assert not no_intermediate_divisor(1, 2)  # 1 divides everything


def test_check_conditions_k4(family):
    k4, aut = family["k4"]
    report = cw.check_conditions(aut, k4, (0, 1, 2))
    assert (report.succ_count, report.prefix_succ_count) == (2, 3)
    assert report.condition_a and report.condition_b and report.condition_c
    assert report.succ_count <= report.prefix_succ_count


def test_check_conditions_c_implies_b(family):
    rng = random.Random(16)
    for name in ("c6", "k4", "q3", "petersen"):
        graph, group = family[name]
        for _ in range(5):
            walk = oracles.random_consistent_walk(group, graph, rng, max_length=4)
            if len(walk) < 3:
                walk = oracles.consistent_extensions(group, graph, walk)[0]
            report = cw.check_conditions(group, graph, walk)
            assert not report.condition_c or report.condition_b


def test_check_conditions_walk_too_short(family):
    c6, aut = family["c6"]
    with pytest.raises(WalkTooShort):
        cw.check_conditions(aut, c6, (0, 1))


def all_consistent_walks_up_to(group, graph, max_length):
    """Every consistent walk of length 2..max_length (exhaustive, small graphs)."""
    walks = [(u, w) for u in range(graph.vertex_count) for w in graph.adj[u]
             if cw.is_consistent(group, graph, (u, w))]
    for _ in range(max_length - 1):
        longer = [ext for w in walks if len(w) <= max_length
                  for ext in oracles.consistent_extensions(group, graph, w)]
        fresh = [w for w in longer if len(w) - 1 <= max_length]
        yield from fresh
        walks = fresh


def closure_oracle_conditions(group, graph, walk):
    """(joined order, (b), (c)) with J = <G_prefix, G_shifted> closed from
    the stabilizers' full element lists."""
    prefix, shifted = walk[:-1], walk[1:]
    joined = cw.PermutationGroup.close(
        oracles.oracle_stabilizer(group, prefix)
        + oracles.oracle_stabilizer(group, shifted), degree=group.degree)
    prefix_succ = set(cw.successors(group, graph, prefix))
    inner = set(oracles.oracle_stabilizer(group, walk[1:-1]))
    return (joined.order, joined.tuple_orbit(min(prefix_succ)) == prefix_succ,
            set(joined.elements) == inner)


def test_check_conditions_join_against_its_closure(family, c4_wreath):
    # the closed J's order, its orbit of the least successor and its
    # equality with G_inner must be what check_conditions reads from J's
    # generators
    cases = [family[name] for name in ("c6", "k4", "q3", "petersen")] + [c4_wreath]
    seen_c = set()
    for graph, group in cases:
        for walk in all_consistent_walks_up_to(group, graph, 3):
            expected = closure_oracle_conditions(group, graph, walk)
            report = cw.check_conditions(group, graph, walk)
            assert (report.joined_stabilizer_order, report.condition_b,
                    report.condition_c) == expected, walk
            seen_c.add(expected[2])
    assert seen_c == {False, True}


def test_check_conditions_under_a_subgroup_with_an_outside_shunt(family, c4_wreath):
    # walks that also have shunts in Aut outside the group: the report
    # describes the group's own stabilizers
    k4, aut4 = family["k4"]
    a4 = cw.PermutationGroup.close([cw.Perm.from_cycles(4, (0, 1, 2)),
                                    cw.Perm.from_cycles(4, (1, 2, 3))])
    odd = cw.Perm.from_cycles(4, (0, 1, 2, 3))
    assert odd not in a4 and odd in cw.shunts(aut4, k4, (0, 1, 2))
    cases = [(k4, a4, (0, 1, 2))]
    graph, wreath = c4_wreath
    _, aut = family["c4k2"]
    for walk in all_consistent_walks_up_to(wreath, graph, 3):
        if any(s not in wreath for s in cw.shunts(aut, graph, walk)):
            cases.append((graph, wreath, walk))
    assert len(cases) > 1
    for graph, group, walk in cases:
        report = cw.check_conditions(group, graph, walk)
        expected = closure_oracle_conditions(group, graph, walk)
        assert (report.joined_stabilizer_order, report.condition_b,
                report.condition_c) == expected, walk
        assert (report.succ_count, report.prefix_succ_count) == (
            cw.successor_count(group, graph, walk),
            cw.successor_count(group, graph, walk[:-1]))
    # (0 1 2 3) is the only shunt of these walks in S4, and it is odd; the
    # second one's prefix has no shunt in A4 either
    for walk in ((0, 1, 2, 3), (0, 1, 2, 3, 0)):
        assert cw.shunts(aut4, k4, walk) == [odd]
        with pytest.raises(NotConsistent) as caught:
            cw.check_conditions(a4, k4, walk)
        assert str(caught.value) == f"walk {walk} has no shunt in the group"


def test_check_conditions_queries_the_group_once_at_the_first_vertex(family, c4_wreath,
                                                                    group_queries,
                                                                    monkeypatch):
    # the prefix's shunt coset, rooted at walk[0], and no stabilizer; calls
    # nested inside that query do not count
    def no_successor_query(*args):
        raise AssertionError("check_conditions queried successors")

    monkeypatch.setattr(cw.walks, "successors", no_successor_query)
    cases = [family[name] for name in ("c6", "k4", "q3", "petersen", "c4k2")] + [c4_wreath]
    for graph, group in cases:
        for walk in all_consistent_walks_up_to(group, graph, 3):
            _, calls = group_queries(group, lambda: cw.check_conditions(group, graph, walk))
            assert calls == [("coset", walk[:-2], walk[1:-1])], (walk, calls)


def test_walk_queries_ask_the_group_once(family, group_queries):
    # each answer is read off the walk's shunt coset, asked once; the shunt
    # group closes that coset, listed, and asks for no G_prefix
    k4, _ = family["k4"]
    a4 = cw.PermutationGroup.close([cw.Perm.from_cycles(4, (0, 1, 2)),
                                    cw.Perm.from_cycles(4, (1, 2, 3))])
    rng = random.Random(21)
    for graph, group in [family[name] for name in sorted(family)] + [(k4, a4)]:
        walks = [(0, graph.adj[0][0])] + [
            oracles.random_consistent_walk(group, graph, rng, max_length=4)
            for _ in range(2)]
        for walk in walks:
            for query in (cw.successors, cw.successor_count, cw.reachability_by_chase,
                          cw.stabilizer_fixes_successors, cw.reachability_by_shunt_group):
                method = ("transporter" if query is cw.reachability_by_shunt_group
                          else "coset")
                _, calls = group_queries(group, lambda: query(group, graph, walk))
                assert calls == [(method, walk[:-1], walk[1:])], (query.__name__, walk, calls)


def test_conditions_lift_property_r_exhaustively(family):
    # whenever the prefix reaches every vertex and some condition holds, the
    # walk itself does too; exhaustive over the small graphs'
    # consistent walks of length <= 5, sampled elsewhere for the large ones
    for name in ("c6", "k4", "q3"):
        graph, group = family[name]
        for walk in all_consistent_walks_up_to(group, graph, 5):
            report = cw.check_conditions(group, graph, walk)
            prefix_r = cw.reachability_by_shunt_group(group, graph, walk[:-1]).verdict
            if prefix_r and (report.condition_a or report.condition_b
                             or report.condition_c):
                assert cw.reachability_by_shunt_group(group, graph, walk).verdict


def test_conditions_lift_property_r_sampled(family):
    rng = random.Random(17)
    for name in ("petersen", "q4", "c4k2"):
        graph, group = family[name]
        for _ in range(6):
            walk = oracles.random_consistent_walk(group, graph, rng, max_length=5)
            if len(walk) < 3:
                continue
            report = cw.check_conditions(group, graph, walk)
            prefix_r = cw.reachability_by_shunt_group(group, graph, walk[:-1]).verdict
            if prefix_r and (report.condition_a or report.condition_b
                             or report.condition_c):
                assert cw.reachability_by_shunt_group(group, graph, walk).verdict


def test_stabilizer_fixes_successors(family):
    c6, aut6 = family["c6"]
    assert cw.stabilizer_fixes_successors(aut6, c6, (0, 1, 2))  # trivial stabilizer
    k5, aut5 = family["k5"]
    assert not cw.stabilizer_fixes_successors(aut5, k5, (0, 1))


def test_stabilizer_fixes_successors_against_sweep_oracle(family):
    verdicts = set()
    for name, (graph, group) in family.items():
        arc = (0, graph.adj[0][0])
        for walk in [arc, *oracles.consistent_extensions(group, graph, arc)]:
            verdict = cw.stabilizer_fixes_successors(group, graph, walk)
            assert verdict == oracles.oracle_fixes_successors(group, walk), (name, walk)
            assert verdict == oracles.fixes_successors_by_extension_counts(
                group, graph, walk), (name, walk)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_fixes_successors_plus_property_r_forces_trivial_stabilizer(family):
    rng = random.Random(18)
    for name in ("k4", "q3", "petersen", "k5"):
        graph, group = family[name]
        for _ in range(6):
            walk = oracles.random_consistent_walk(group, graph, rng)
            if (cw.reachability_by_shunt_group(group, graph, walk).verdict
                    and cw.stabilizer_fixes_successors(group, graph, walk)):
                assert len(oracles.oracle_stabilizer(group, walk)) == 1


def test_certify_k4_two_arc(family):
    k4, aut = family["k4"]
    cert = cw.certify_trivial_stabilizer(aut, k4, (0, 1, 2))
    assert cert["certified"]
    assert cert["stabilizer_order"] == 1
    assert cert["prefix_conditions"] == [{"n": 1, "a": True, "b": True, "c": True}]


def test_certify_failure_reasons(family):
    k5, aut5 = family["k5"]
    cert = cw.certify_trivial_stabilizer(aut5, k5, (0, 1))
    assert not cert["certified"]
    assert cert["failure_reason"] == "final fix check"

    # conditions are sufficient, not necessary: this walk's stabilizer is
    # trivial yet its only prefix fails all three conditions
    c6, aut6 = family["c6"]
    cert = cw.certify_trivial_stabilizer(aut6, c6, (0, 1, 2))
    assert not cert["certified"]
    assert "violates all three conditions" in cert["failure_reason"]
    assert cert["stabilizer_order"] == 1


def test_certify_asks_the_group_once(family, group_queries):
    # only the seed's shunt coset; every prefix's conditions, the fix check
    # and the stabilizer order are read off its descent down the walk
    rng = random.Random(23)
    for name, (graph, group) in sorted(family.items()):
        walks = [(0, graph.adj[0][0])] + [
            oracles.random_consistent_walk(group, graph, rng, max_length=5)
            for _ in range(3)]
        for walk in walks:
            for seed_length in (1, 2):
                k = min(seed_length, len(walk) - 1)
                _, calls = group_queries(group, lambda: cw.certify_trivial_stabilizer(
                    group, graph, walk, seed_length=seed_length))
                assert calls == [("coset", walk[:k], walk[1:k + 1])], (name, walk, calls)


def test_certify_seed_edge_cases(family, group_queries):
    k4, aut4 = family["k4"]
    a4 = cw.PermutationGroup.close([cw.Perm.from_cycles(4, (0, 1, 2)),
                                    cw.Perm.from_cycles(4, (1, 2, 3))])
    walk = (0, 1, 2)

    def refusal(group, w, seed_length):
        try:
            cw.certify_trivial_stabilizer(group, k4, w, seed_length=seed_length)
        except BadParameters as exc:
            return str(exc)
        raise AssertionError(f"seed length {seed_length} was accepted")

    # a seed shorter than an arc is refused before any group query, also
    # on a walk whose seed would slice from the end or that no group element shunts
    for seed_length in (0, -1, -2, -5):
        for group, w in ((aut4, walk), (aut4, (0, 1, 2, 3, 0)), (a4, (0, 1, 2, 3))):
            refused, calls = group_queries(group, lambda: refusal(group, w, seed_length))
            assert refused == f"seed length {seed_length} is below 1"
            assert calls == []
    # a seed longer than the walk is the whole walk
    assert cw.certify_trivial_stabilizer(aut4, k4, walk, seed_length=5) == {
        "walk": [0, 1, 2],
        "seed": {"length": 5, "walk": [0, 1, 2], "shunt_group_transitive": True},
        "prefix_conditions": [], "stabilizer_order": 1, "certified": True}


def test_successor_reachability_classes_rotations_single_class():
    c6 = cw.named_graph("cycle:6")
    rotations = cw.PermutationGroup.close([ROTATION6])
    classes = cw.successor_reachability_classes(rotations, c6, (0, 1, 2))
    assert len(classes) == 1


def test_successor_reachability_classes_block_structure(family):
    c6, aut6 = family["c6"]
    classes = cw.successor_reachability_classes(aut6, c6, (0, 1, 2))
    # orientation splits the 12 arcs into two G-invariant blocks
    assert sorted(len(c) for c in classes) == [6, 6]

    k4, aut4 = family["k4"]
    classes = cw.successor_reachability_classes(aut4, k4, (0, 1, 2))
    sizes = {len(c) for c in classes}
    assert len(sizes) == 1  # blocks of a transitive action share a size
    assert sum(len(c) for c in classes) == len(aut4.tuple_orbit((0, 1)))


@pytest.mark.parametrize("seed", [5, 17, 41])
def test_successor_classes_match_union_find_oracle(family, seed):
    rng = random.Random(seed)
    for name, (graph, group) in family.items():
        walk = oracles.random_consistent_walk(group, graph, rng, max_length=4)
        while len(walk) < 3:
            extensions = oracles.consistent_extensions(group, graph, walk)
            walk = extensions[rng.randrange(len(extensions))]
        classes = cw.successor_reachability_classes(group, graph, walk)
        assert classes == oracles.union_find_reachability_classes(group, walk), (name, walk)


def test_sim_alpha_prefix_and_shift_share_class(family):
    for name in ("c6", "k4", "q3"):
        graph, group = family[name]
        walk = oracles.random_consistent_walk(group, graph, random.Random(19), max_length=3)
        if len(walk) < 3:
            walk = oracles.consistent_extensions(group, graph, walk)[0]
        shunt = cw.shunts(group, graph, walk)[0]
        classes = cw.successor_reachability_classes(group, graph, walk)
        prefix = walk[:-1]
        shifted = tuple(shunt[v] for v in prefix)
        (home,) = [c for c in classes if prefix in c]
        assert shifted in home


def test_sim_alpha_reachability_is_symmetric(family):
    # directed successor-prefix reachability restricted to a class is total:
    # every ordered pair is connected, which is the symmetry the class
    # partition silently relies on
    k4, aut = family["k4"]
    walk = (0, 1, 2)
    classes = cw.successor_reachability_classes(aut, k4, walk)
    edges: dict[tuple, set[tuple]] = {}
    for member in aut.tuple_orbit(walk):
        edges.setdefault(member[:-1], set()).add(member[1:])
    for cls in classes:
        for start in cls:
            seen = {start}
            frontier = [start]
            while frontier:
                new = []
                for node in frontier:
                    for nxt in edges.get(node, ()):
                        if nxt not in seen:
                            seen.add(nxt)
                            new.append(nxt)
                frontier = new
            assert seen == set(cls)


def test_sim_alpha_errors(family):
    c6, aut = family["c6"]
    with pytest.raises(WalkTooShort):
        cw.successor_reachability_classes(aut, c6, (0, 1))
    with pytest.raises(OrbitTooLarge):
        cw.successor_reachability_classes(aut, c6, (0, 1, 2), cap=3)


def test_bad_parameters_refused_before_any_group_query(group_queries):
    # a bad target and a walk too short for the relation are refused before
    # the walk's coset is asked, also on a walk that no element shunts
    c6 = cw.named_graph("cycle:6")
    trivial = cw.PermutationGroup.close([], degree=6)

    def refusal(query, exc):
        try:
            query()
        except exc as caught:
            return type(caught)
        raise AssertionError(f"{exc.__name__} was not raised")

    for query, exc in (
            (lambda: cw.reachability_by_chase(trivial, c6, (0, 1), target=99), BadParameters),
            (lambda: cw.reachability_by_chase(trivial, c6, (0, 1), target=-1), BadParameters),
            (lambda: cw.successor_reachability_classes(trivial, c6, (0, 1)), WalkTooShort)):
        refused, calls = group_queries(trivial, lambda: refusal(query, exc))
        assert (refused, calls) == (exc, [])
