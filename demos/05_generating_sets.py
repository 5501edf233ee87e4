"""
Generating a group from one shunt per cycle orbit
=================================================

Pick one representative per consistent-cycle orbit so that any two
representatives share as long an initial segment as their orbits allow
(overlap-maximal representatives), then take one shunt for each.  Those d
shunts, together with the stabilizer of any one representative, always
generate the whole vertex-transitive group; when some representative has a
trivial stabilizer the shunts alone do it, so the minimal number of
generators is at most the valence.
"""

import consistentwalks as cw

for spec in ("petersen", "complete:5"):
    graph = cw.named_graph(spec)
    group = cw.automorphism_group(graph)
    reps, matrix = cw.overlap_maximal_representatives(group, graph)
    print(f"\n{spec}: valence {graph.valence()}, |Aut| = {group.order}")
    print("overlap-maximal representatives:")
    for rep in reps:
        print(f"   {rep}")
    print("pairwise overlaps (index through which walks agree):")
    for row in matrix.walk_overlaps:
        print("   ", list(row))

    report = cw.verify_generation(group, graph)
    print(f"shunts generate the full group: {report.generates} "
          f"(closure order {report.shunt_group_order})")
    print(f"chosen representative stabilizer order: {report.chosen_walk_stabilizer_order}")
    print(f"minimal generating set size: bound {report.min_generators_bound}, "
          f"exact {report.min_generators_exact}")

# The blow-up from the counterexample demo has no trivial-stabilizer cycle,
# so the guarantee degrades to "shunts + a cycle stabilizer generate".
q3 = cw.named_graph("hypercube:3")
blowup = cw.lex_blowup(q3, 2)
blow_aut = cw.automorphism_group(blowup)
report = cw.verify_generation(blow_aut, blowup)
print(f"\nQ3 blow-up: generates={report.generates}, "
      f"chosen-walk stabilizer order {report.chosen_walk_stabilizer_order}, "
      f"bound {report.min_generators_bound} (= valence 6 + generators of the stabilizer)")
