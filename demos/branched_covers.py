"""Cyclic branched covers: the order product formula against the Smith
normal form of the Reidemeister-Schreier presentation, plus the homology
spheres coming from torus knots with pairwise coprime parameters.

Run:  python demos/branched_covers.py
"""

from math import gcd

import rimtwist as rt
from rimtwist.covers import order_value

print("=== |H1| of d-fold branched covers, two independent algorithms ===")
print("    (resultant of t^d - 1 against Delta  vs  Reidemeister-Schreier SNF)")
for text in ["T(2,3)", "braid(3; 1 -2 1 -2)", "T(2,5)"]:
    knot = rt.parse_knot(text)
    pres = rt.presentation_of_knot(knot)
    delta = rt.alexander_polynomial(pres)
    print(f"  {text}  (Delta = {rt.poly_text(delta)})")
    for d in range(1, 7):
        order = rt.branched_cover_order(delta, d)
        structure = rt.branched_cover_structure(pres, d)
        print(f"    d={d}: order {str(order_value(order)):9s} structure {structure}")

print()
print("=== the trefoil's 6-fold cover is infinite ===")
delta = rt.torus_alexander(2, 3)
print(f"  Delta = {rt.poly_text(delta)} vanishes at a primitive 6th root of unity,")
print(f"  so the resultant is {rt.resultant_with_cyclotomic(delta, 6)} and the order is "
      f"{order_value(rt.branched_cover_order(delta, 6))}")

print()
print("=== homology spheres from torus knots ===")
print("    order 1 whenever p, q, d are pairwise coprime")
for p, q in [(2, 3), (2, 5), (3, 4), (3, 5)]:
    delta = rt.torus_alexander(p, q)
    row = []
    for d in range(2, 12):
        order = rt.branched_cover_order(delta, d)
        coprime = gcd(d, p) == 1 and gcd(d, q) == 1
        row.append(f"d={d}:{order_value(order)}{'*' if not coprime else ''}")
    print(f"  T({p},{q}): " + "  ".join(row))
print("    (* marks d sharing a factor with p or q, where order 1 is not promised)")

print()
print("=== homology circles feed the topological-standardness test ===")
print("    the unbranched cover is a homology circle exactly when the branched order is 1")
square = rt.alexander_of_knot(rt.parse_knot("T(2,3)#mirror(T(2,3))"))
for d in range(2, 8):
    order = rt.branched_cover_order(square, d)
    print(f"  J#mirror(J), d={d}: branched order {order_value(order)}, "
          f"homology circle: {order == 1}")
