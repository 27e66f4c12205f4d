"""Pi1 verdicts on a grid of twist-rim groups, checked against a golden file.

For each knot below, each d = 2..12 and each twist t = m mod d, the
verdict of ``cyclic_verdict`` on the twist-rim group of the knot's
reduced presentation, at the default coset budget: 539 groups in all.
The twist-rim group is built here as the paper constructs it, so the
grid is the oracle for ``determine_pi1``, which decides the same group
on its quotient by mu^gcd(d, t) and never builds it; a test in
tests/test_surgery.py checks the golden file against that rule.
Prints how many each certificate decided, the groups that no
certificate decides, and the five slowest verdicts, then compares
every verdict with tests/golden/verdict_grid.txt and exits 1 on any
difference, printing the golden line and the new one.  A golden line
may change only when its verdict grows stronger (an undecided group
becomes decided): then replace it with the new line.

Run:  python demos/verdict_grid.py
"""

import sys
import time
from collections import Counter
from pathlib import Path

import rimtwist as rt

KNOTS = (
    "T(2,3)",
    "T(2,5)",
    "T(3,4)",
    "braid(3; 1 -2 1 -2)",
    "T(2,7)",
    "T(3,5)",
    "T(2,3)#mirror(T(2,3))",
)
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "verdict_grid.txt"

lines, seconds, undecided = [], [], []
counts: Counter = Counter()
for text in KNOTS:
    p = rt.presentation_of_knot(rt.parse_knot(text)).reduced
    for d in range(2, 13):
        for t in range(d):
            start = time.perf_counter()
            verdict = rt.cyclic_verdict(rt.twist_rim_presentation(p, d, t), d)
            seconds.append((time.perf_counter() - start, text, d, t))
            counts[verdict.certificate] += 1
            lines.append(f"{text}\t{d}\t{t}\t{verdict}")
            if verdict.certificate == "budget-exhausted":
                undecided.append(f"{text} at d={d}, t={t}")

print(f"=== {len(lines)} groups, by certificate ===")
for certificate, n in counts.most_common():
    print(f"  {certificate:28s} {n}")
print("=== undecided: no certificate proves or disproves Z/d ===")
for group in undecided:
    print(f"  {group}")
print("=== the five slowest ===")
for s, text, d, t in sorted(seconds, reverse=True)[:5]:
    print(f"  {s:6.2f} s  {text} at d={d}, t={t}")

golden = GOLDEN.read_text().splitlines()
changed = [(old, new) for old, new in zip(golden, lines) if old != new]
if changed or len(golden) != len(lines):
    for old, new in changed:
        print(f"  golden: {old}\n  now:    {new}")
    print(f"=== {len(changed)} verdicts differ from {GOLDEN.name} ({len(golden)} lines there) ===")
    sys.exit(1)
print(f"=== every verdict equals {GOLDEN.name} ===")
