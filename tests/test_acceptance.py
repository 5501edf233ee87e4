"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); every
comparison is exact.  Criteria 2 and 3 draw seeded-random consistent walks
so reruns are deterministic.
"""

import random
import time
from contextlib import contextmanager

import consistentwalks as cw
from conftest import FAMILY_VALENCE

import oracles


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title} "
              f"({time.perf_counter() - started:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} PASS: {title} "
          f"({time.perf_counter() - started:.1f}s)")


def sample_walks(family, per_graph: dict[str, int], seed: int, max_length: int = 5):
    rng = random.Random(seed)
    for name, count in per_graph.items():
        graph, group = family[name]
        for _ in range(count):
            yield name, graph, group, oracles.random_consistent_walk(
                group, graph, rng, max_length=max_length)


def test_criterion_1_orbit_count_law(family, censuses):
    with criterion(1, "cycle census has exactly d orbits on all eight graphs"):
        for name, table in censuses.items():
            assert table.vertex_transitive
            assert len(table.records) == FAMILY_VALENCE[name], name


def test_criterion_2_shunt_successor_order_identities(family):
    per_graph = {"c6": 65, "k4": 65, "q3": 65, "petersen": 65,
                 "k5": 65, "q4": 65, "c4k2": 65, "q3k2": 45}
    assert sum(per_graph.values()) >= 500
    with criterion(2, "coset, successor-set, and order identities on 500 walks"):
        for name, graph, group, walk in sample_walks(family, per_graph, seed=2024):
            shunt_set = set(cw.shunts(group, graph, walk))
            assert shunt_set == set(oracles.oracle_shunts(group, walk))
            suffix = oracles.oracle_stabilizer(group, walk[1:])
            prefix = oracles.oracle_stabilizer(group, walk[:-1])
            for g0 in (min(shunt_set), max(shunt_set)):
                assert shunt_set == {g0 * h for h in suffix}, name
                assert shunt_set == {h * g0 for h in prefix}, name
            succ = set(cw.successors(group, graph, walk))
            assert succ == {tuple(g[v] for v in walk) for g in shunt_set}, name
            full = oracles.oracle_stabilizer(group, walk)
            assert len(prefix) == len(full) * len(succ), name


def test_criterion_3_property_r_equivalence(family):
    per_graph = {"c6": 25, "k4": 25, "q3": 25, "petersen": 25,
                 "k5": 25, "q4": 25, "c4k2": 25, "q3k2": 25}
    with criterion(3, "chase and shunt-group reachability verdicts agree"):
        for name, graph, group, walk in sample_walks(family, per_graph, seed=34):
            by_group = cw.reachability_by_shunt_group(group, graph, walk)
            by_chase = cw.reachability_by_chase(group, graph, walk)
            assert by_group.verdict == by_chase.verdict, (name, walk)


def test_criterion_4_wps_search(family, c4_wreath):
    with criterion(4, "subregular search yields trivial stabilizers, counts = p"):
        cases = [family["q3"], family["petersen"], c4_wreath]
        for graph, group in cases:
            witness, cert = cw.find_trivial_walk_wps(group, graph)
            assert len(oracles.oracle_stabilizer(group, witness.walk)) == 1
            assert cert["successor_counts"]
            assert all(c == cert["prime"] for c in cert["successor_counts"])


def test_criterion_5_4valent_search(family):
    with criterion(5, "4-valent search yields trivial stabilizers"):
        for name in ("k5", "q4", "c4k2"):
            graph, group = family[name]
            witness, cert = cw.find_trivial_walk_4valent(group, graph)
            assert cert["certified"], name
            assert len(oracles.oracle_stabilizer(group, witness.walk)) == 1, name


def test_criterion_6_shunt_count_pattern(family):
    with criterion(6, "shunt counts {6,1,1,2} with 6 on the trivial orbit"):
        for name in ("k5", "q4"):
            graph, group = family[name]
            report = cw.verify_shunt_count_pattern(group, graph)
            assert report["status"] == "ok", name
            assert (report["s"], report["t"]) == (1, 3), name
            assert report["trivial_shunts"] == 6, name
            assert sorted(report["shunt_counts"]) == [1, 1, 2, 6], name


def test_criterion_7_blowup_counterexample(family, censuses):
    with criterion(7, "no trivial stabilizer in the Q3 blow-up; family hits all 6 orbits"):
        _, blow_group = family["q3k2"]
        assert blow_group.order == 12288
        table = censuses["q3k2"]
        assert len(table.records) == 6
        assert all(r.stabilizer_order >= 2 for r in table.records)
        ok, offender = cw.verify_no_trivial_stabilizer(table)
        assert ok and offender is None
        base, base_group = family["q3"]
        fam = cw.blowup_cycle_family(base, base_group, 2)
        ids = cw.family_orbit_ids(fam, blow_group, table)
        assert sorted(ids.values()) == [0, 1, 2, 3, 4, 5]


def test_criterion_8_generation(family):
    with criterion(8, "shunt sets generate; blow-up needs the stabilizer"):
        for name in ("petersen", "k5"):
            graph, group = family[name]
            report = cw.verify_generation(group, graph)
            assert report.generates, name
            assert report.shunt_group_order == group.order, name
            assert report.chosen_walk_stabilizer_order == 1, name
        blowup, blow_group = family["q3k2"]
        report = cw.verify_generation(blow_group, blowup)
        shunt_set = list(report.shunts)
        chosen_stab = blow_group.pointwise_stabilizer(report.chosen_walk[:-1])
        closure = cw.PermutationGroup.close(
            shunt_set + list(chosen_stab.small_generating_set()),
            degree=blow_group.degree)
        assert closure.order == blow_group.order
        assert report.min_generators_bound == 6 + chosen_stab.min_generating_size()


def test_criterion_9_overlap_maximal_representatives(family, censuses):
    with criterion(9, "representatives realize orbit overlaps on every graph"):
        for name, (graph, group) in family.items():
            reps, matrix = cw.overlap_maximal_representatives(group, graph)
            d = len(reps)
            assert d == FAMILY_VALENCE[name], name
            for i in range(d):
                for j in range(d):
                    if i == j:
                        continue
                    sweep = oracles.orbit_overlap_by_sweep(group, reps[i], reps[j])
                    assert matrix.walk_overlaps[i][j] == sweep, (name, i, j)


def test_criterion_10_wps_detection():
    with criterion(10, "subregular witnesses for dihedral actions, none for C3/S4"):
        def dihedral(n):
            return cw.PermutationGroup.close([
                cw.Perm(tuple(range(1, n)) + (0,)),
                cw.Perm(tuple((-i) % n for i in range(n)))])
        w3 = cw.weakly_p_subregular(dihedral(3))
        w4 = cw.weakly_p_subregular(dihedral(4))
        assert w3 is not None and w3.prime == 2
        assert w4 is not None and w4.prime == 2
        c3 = cw.PermutationGroup.close([cw.Perm((1, 2, 0))])
        assert cw.weakly_p_subregular(c3) is None
        s4 = cw.PermutationGroup.close([cw.Perm((1, 0, 2, 3)), cw.Perm((1, 2, 3, 0))])
        assert cw.weakly_p_subregular(s4) is None
