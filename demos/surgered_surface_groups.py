"""Fundamental groups of twist-surgered surface complements.

The complement group is the knot group with two families of extra
relations: the meridian has order d, and every generator commutes with
the m-th power of the meridian, written as the (m mod d)-th power and
left out when d divides m.  When d = +/-1 mod m the group
collapses to Z/d; other (d, m) can be distinguished by bounded coset
enumeration.

Run:  python demos/surgered_surface_groups.py
"""

import rimtwist as rt

trefoil = rt.presentation_of_knot(rt.parse_knot("T(2,3)"))
fig8 = rt.presentation_of_knot(rt.parse_knot("braid(3; 1 -2 1 -2)"))

print("=== the quotient presentation ===")
print(f"  trefoil, d=4, m=6:\n  {rt.twist_rim_presentation(trefoil, 4, 6)}")

print()
print("=== d=2 with even m: the group remembers the knot ===")
twisted = rt.twist_rim_presentation(trefoil, 2, 2)
table = rt.todd_coxeter(twisted)
print(f"  enumeration completes with order {table.order} (Z/2 would have order 2)")
print(f"  abelianization: {rt.abelianization(twisted)}")
verdict = rt.cyclic_verdict(twisted, 2)
print("  so there is a nontrivial index-2 subgroup:")
print(f"  cyclic_verdict(..., 2) = {verdict}, proven not Z/2: {verdict.proves_not_cyclic}")

print()
print("=== d = +/-1 mod m: the group collapses to Z/d ===")
for knot_name, pres in [("trefoil", trefoil), ("figure-eight", fig8)]:
    for d, m in [(3, 2), (5, 4), (7, 6), (7, 8)]:
        q = rt.twist_rim_presentation(pres, d, m)
        verdict = rt.cyclic_verdict(q, d)
        print(f"  {knot_name:13s} d={d} m={m}: {verdict}")

print()
print("=== coset budgets make stubborn cases honest ===")
q = rt.twist_rim_presentation(trefoil, 5, 5)
small = rt.todd_coxeter(q, budget=500)
print(f"  trefoil d=5 m=5 with budget 500: completed={small.completed} (no conclusion)")
print(f"  with the default budget: order {rt.todd_coxeter(q).order}")

print()
print("=== Tietze simplification of the trefoil group ===")
simp = rt.tietze_simplify(trefoil)
print(f"  {trefoil}")
print(f"  -> {simp}")
print(f"  (two generators, one relator of length six; Alexander polynomial "
      f"{rt.poly_text(rt.alexander_polynomial(simp))} is preserved)")
