"""
Blow-ups where every consistent walk is held by a symmetry
==========================================================

Trivial-stabilizer walks do not always exist.  Replace each vertex of a
graph by an independent set of m "fiber" points, joining fibers of
adjacent vertices completely.  If the base graph is connected,
vertex-transitive, has no two vertices with identical neighborhoods, and
no consistent cycle running through all its vertices, then in the blown-up
graph every consistent cycle (hence every consistent walk) is fixed by
some nonidentity automorphism: swapping two fiber points over a vertex the
cycle misses costs nothing.

The cube Q3 satisfies the hypotheses; this script verifies the whole story
for its 2-point blow-up, a 6-valent graph on 16 vertices.
"""

import consistentwalks as cw

q3 = cw.named_graph("hypercube:3")
aut = cw.automorphism_group(q3)

report = cw.check_blowup_hypotheses(q3, aut)
print("Q3 hypothesis report:")
for key in ("connected", "vertex_transitive", "twin_free",
            "spanning_consistent_cycle", "max_consistent_cycle_length",
            "satisfied"):
    print(f"  {key}: {report[key]}")

family = cw.blowup_cycle_family(q3, aut, 2)
blowup = family.blowup
blow_aut = cw.automorphism_group(blowup)
print(f"\nblow-up: {blowup.vertex_count} vertices, valence {blowup.valence()}, "
      f"|Aut| = {blow_aut.order}")

# the fiber symmetries together with lifted base automorphisms already
# fill the whole automorphism group here (the base is twin-free)
wreath = cw.PermutationGroup.close(cw.wreath_group_generators(q3, aut, 2))
print(f"fiber-wreath subgroup order {wreath.order}; "
      f"equals full Aut: {wreath.subgroup_equals(blow_aut)}")

# each base orbit representative lifts to m cycles sweeping 1..m fibers,
# and these hit every orbit of the blow-up's consistent cycles exactly once
table = cw.consistent_cycle_orbits(blow_aut, blowup)
ids = cw.family_orbit_ids(family, blow_aut, table)
print("\nlifted cycle family (orbit representative index, fibers swept):")
for (i, j), cycle in sorted(family.cycles.items()):
    print(f"  rep {i}, {j} fiber(s): length {len(cycle) - 1:>2} "
          f"-> blow-up orbit {ids[i, j]}")
print(f"orbits hit, pairwise distinct: {sorted(ids.values())}")

ok, offender = cw.verify_no_trivial_stabilizer(table)
print(f"\nno consistent cycle with trivial stabilizer: {ok}")
print("stabilizer orders across the six orbits:",
      [rec.stabilizer_order for rec in table.records])

# contrast: the Petersen graph does have a trivial-stabilizer cycle
pet = cw.named_graph("petersen")
autp = cw.automorphism_group(pet)
ok, offender = cw.verify_no_trivial_stabilizer(cw.consistent_cycle_orbits(autp, pet))
print(f"\nPetersen for contrast: verdict {ok}, offending cycle {offender}")
