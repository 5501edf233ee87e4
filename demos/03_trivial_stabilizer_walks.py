"""
Hunting walks with trivial stabilizers
======================================

When does a graph admit a consistent walk that no nonidentity automorphism
fixes pointwise?  Two structural situations guarantee one, and both come
with constructive searches:

 * the local action at a vertex (stabilizer restricted to the
   neighborhood) is weakly p-subregular: some point's stabilizer has prime
   order p and two point stabilizers together reach the whole
   neighborhood;
 * the graph is 4-valent and the group is arc-transitive.

Each search returns the walk, a shunt, and a certificate whose steps are
all re-verified computationally, ending with the directly computed
stabilizer order.
"""

import consistentwalks as cw

# -- the weakly p-subregular route on the cube ------------------------------

q3 = cw.named_graph("hypercube:3")
aut = cw.automorphism_group(q3)
local = cw.local_group(aut, q3, 0)
print(f"cube Q3: local group order {local.group.order} on "
      f"neighborhood {local.domain}")
witness = cw.weakly_p_subregular(local.group)
print(f"subregular witness: p = {witness.prime}, points "
      f"{witness.x}, {witness.y}, joined order {witness.joined_order}")

walk, cert = cw.find_trivial_walk_wps(aut, q3)
print(f"walk found: {walk.walk} with shunt {walk.shunt.cycle_string()}")
print(f"successor counts along the way: {cert['successor_counts']} "
      f"(every one equals p)")
print(f"stabilizer order: {cert['stabilizer_order']}")

# -- the 4-valent route on K5 ------------------------------------------------

k5 = cw.named_graph("complete:5")
aut5 = cw.automorphism_group(k5)
walk5, cert5 = cw.find_trivial_walk_4valent(aut5, k5)
print(f"\nK5 (4-valent): branch {cert5['branch']!r}, walk {walk5.walk}, "
      f"stabilizer order {cert5['stabilizer_order']}")

# In a 4-valent arc-transitive graph the census also shows a rigid
# shunt-count pattern tied to |G_v| = 3^s * 2^t.
report = cw.verify_shunt_count_pattern(aut5, k5)
print(f"shunt-count pattern: {report['shunt_counts']} "
      f"(trivial orbit carries {report['trivial_shunts']} = "
      f"3^{report['s']} * 2^{report['t'] - 2})")

# -- where both routes fail, brute force remains ----------------------------

walk_x, cert_x = cw.find_trivial_walk_exhaustive(aut, q3)
print(f"\nexhaustive search on Q3 agrees: walk {cert_x['walk']}, "
      f"stabilizer order {cert_x['stabilizer_order']}")
