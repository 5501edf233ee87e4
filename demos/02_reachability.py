"""
Reachability from a walk, decided two ways
===============================================

From a consistent walk, repeatedly taking successors (slide the window one
step along any shunt) sweeps out new walks.  A walk reaches everywhere when
every vertex of the graph shows up as the endpoint of some swept walk.

There are two independent ways to decide this:

 * chase: breadth-first search over the successor relation itself;
 * shunt group: check whether the group generated by the walk's shunts is
   vertex-transitive.

The two verdicts always agree; the chase additionally produces an explicit
chain of walks leading to any requested target vertex.
"""

import consistentwalks as cw

pet = cw.named_graph("petersen")
aut = cw.automorphism_group(pet)

walk = (0, 7, 3)
print(f"Petersen graph, walk {walk}, |Aut| = {aut.order}")

by_group = cw.reachability_by_shunt_group(aut, pet, walk)
print(f"shunt-group method: verdict {by_group.verdict}, "
      f"shunt group order {by_group.witness['shunt_group_order']}")

by_chase = cw.reachability_by_chase(aut, pet, walk, target=9)
print(f"chase method:       verdict {by_chase.verdict}, "
      f"reached {by_chase.witness['reached_vertices']} vertices")
print("chain of successor walks ending at vertex 9:")
for step in by_chase.witness["chain"]:
    print("   ", step)

# The three lifting conditions: when a walk's prefix reaches every vertex,
# any of them transfers the property to the walk itself.
k4 = cw.named_graph("complete:4")
aut4 = cw.automorphism_group(k4)
two_arc = (0, 1, 2)
report = cw.check_conditions(aut4, k4, two_arc)
print(f"\nK4 walk {two_arc}: successor counts {report.succ_count} "
      f"(walk) vs {report.prefix_succ_count} (prefix)")
print(f"conditions: divisor-gap {report.condition_a}, "
      f"joined-stabilizer transitivity {report.condition_b}, "
      f"full inner stabilizer {report.condition_c}")

# The full certification pipeline stitches these into a proof that the
# walk's pointwise stabilizer is trivial.
cert = cw.certify_trivial_stabilizer(aut4, k4, two_arc)
print(f"certificate: certified={cert['certified']}, "
      f"stabilizer order {cert['stabilizer_order']}")

# Conditions are sufficient, not necessary: this hexagon walk fails all
# three at its only prefix, yet its stabilizer happens to be trivial.
c6 = cw.named_graph("cycle:6")
aut6 = cw.automorphism_group(c6)
cert6 = cw.certify_trivial_stabilizer(aut6, c6, (0, 1, 2))
print(f"\nC6 walk (0, 1, 2): certified={cert6['certified']} "
      f"({cert6['failure_reason']}), yet directly computed stabilizer "
      f"order is {cert6['stabilizer_order']}")
