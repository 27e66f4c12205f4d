"""The headline family: surfaces that are smoothly knotted yet
topologically standard.

For a torus knot J, the ribbon knot K = J # mirror(J) has nontrivial
Alexander polynomial (so the surgered surface is smoothly distinct
under the Seiberg-Witten hypothesis) while, for d coprime to p and q
and d = +/-1 mod m, its d-fold cover data certify that the surgered
surface is topologically unchanged.

Run:  python demos/classify_family.py
"""

import json

import rimtwist as rt

print("=== one full report ===")
knot = rt.parse_knot("T(2,3)#mirror(T(2,3))")
report = rt.classify(knot, rt.SurgeryParams(d=5, m=4, cp2=True))
print(f"  knot:       {rt.render(report.knot)}")
print(f"  surgery:    d={report.params.d}, m={report.params.m}, degree-5 curve")
print(f"  alexander:  {rt.poly_text(report.alexander)}")
print(f"  pi1:        {report.pi1}")
print(f"  cover:      order {report.branched_order}")
print(f"  smooth:     {report.smoothly_knotted} -- {report.smoothly_knotted_reason}")
print(f"  topological:{report.topologically_standard}")
print(f"  curve genus {report.cp2_genus} ( = (d-1)(d-2)/2 )")

print()
print("=== the same report as schema-stable JSON ===")
print(json.dumps(report.to_json(), sort_keys=True, indent=2))

print()
print("=== contrast: an obstructed case ===")
bad = rt.classify(rt.parse_knot("T(2,3)"), rt.SurgeryParams(d=2, m=2))
print(f"  T(2,3) at d=2, m=2: pi1 = {bad.pi1}, obstruction={bad.pi1_obstruction},")
print(f"  topologically standard: {bad.topologically_standard} "
      f"(failed: {bad.topologically_standard_failed})")

print()
print("=== sweeping the family ===")
reports = list(rt.enumerate_examples(3, 5, 7, 6))
print(f"  bounds p<=3, q<=5, d<=7, m<=6 give {len(reports)} rows; every row is")
print("  smoothly knotted and topologically standard:")
for r in reports:
    assert r.smoothly_knotted == "yes" and r.topologically_standard == "yes"
    print(f"    {rt.render(r.knot):28s} d={r.params.d} m={r.params.m} "
          f"cover_order={r.branched_order}")
