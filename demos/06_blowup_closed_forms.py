"""
Blow-ups against their closed forms
===================================

Blowing up a twin-free graph X on n vertices by independent m-sets gives a
graph X[mK1] whose fibers are its twin classes, and its automorphism group
is the fiber symmetries extended by Aut X: |Aut X[mK1]| = (m!)^n |Aut X|
(Sabidussi 1961).  A 3-valent arc-transitive base has 3 orbits of
consistent cycles, and its 3m-valent blow-up has 3m (Miklavic, Potocnik
and Wilson 2007).  The counterexample of demo 04 holds for every m: no
consistent cycle of the blow-up has a trivial stabilizer, and the m lifts
of each base cycle land in distinct orbits.

The automorphism group is read off the twin quotient, which is X itself,
so the table runs past the 64 vertices of the search up to 160.
"""

import math

import consistentwalks as cw

FIBER_SIZES = (2, 3, 4, 6, 8, 12, 16)
CAP = 10 ** 400  # far above every order in the table

print(f"{'graph':<15} {'vertices':>8} {'|Aut| digits':>12} {'closed form':>11} "
      f"{'records':>7} {'= 3m':>5} {'no trivial':>10} {'distinct':>8}")
for spec, name in (("hypercube:3", "Q3"), ("petersen", "Petersen")):
    base = cw.named_graph(spec)
    aut = cw.automorphism_group(base)
    for m in FIBER_SIZES:
        family = cw.blowup_cycle_family(base, aut, m)
        blowup = family.blowup
        group = cw.automorphism_group(blowup, cap=CAP)
        table = cw.consistent_cycle_orbits(group, blowup)
        ids = cw.family_orbit_ids(family, group, table)
        verdict, _ = cw.verify_no_trivial_stabilizer(table)
        closed_form = math.factorial(m) ** base.vertex_count * aut.order
        print(f"{name + f'[{m}K1]':<15} {blowup.vertex_count:>8} "
              f"{len(str(group.order)):>12} {str(group.order == closed_form):>11} "
              f"{len(table.records):>7} {str(len(table.records) == 3 * m):>5} "
              f"{str(verdict):>10} {str(len(set(ids.values())) == len(ids)):>8}")
