"""Output checks, computed apart from the program.

Nothing here imports rimtwist.  Alexander polynomials come from the
torus-knot closed form over plain integer lists, cover orders from a
resultant taken by Euclid's algorithm over ``Fraction``, and the rest
from closed forms: Lucas and Fibonacci numbers for the figure-eight,
the period-6 orders of the trefoil, and Coxeter's orders of
B3/<<sigma1^d>>.  Each ``check_*`` returns None when an output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, prod

from workloads import Op, family_rows

INFINITE = "infinite"


# -- integer polynomials, lowest degree first --------------------------------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divexact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    lead = den[-1]
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c, rem = divmod(num[k + len(den) - 1], lead)
        if rem:
            raise ArithmeticError("inexact division")
        quot[k] = c
        for j, y in enumerate(den):
            num[k + j] -= c * y
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact division")
    return quot


def normalize(coeffs: list[int]) -> list[int]:
    """Strip zero ends and make the lowest coefficient positive: a unit class representative."""
    lo = next((i for i, c in enumerate(coeffs) if c), None)
    if lo is None:
        return []
    hi = max(i for i, c in enumerate(coeffs) if c)
    out = coeffs[lo : hi + 1]
    return out if out[0] > 0 else [-c for c in out]


def one_minus_t_power(k: int) -> list[int]:
    return [1] + [0] * (k - 1) + [-1]


def torus_alexander(p: int, q: int) -> list[int]:
    """(1-t)(1-t^pq) / ((1-t^p)(1-t^q))."""
    num = poly_mul(one_minus_t_power(1), one_minus_t_power(p * q))
    den = poly_mul(one_minus_t_power(p), one_minus_t_power(q))
    return normalize(poly_divexact(num, den))


FIGURE_EIGHT_ALEXANDER = [1, -3, 1]


def summand_alexander(s: tuple) -> list[int]:
    return FIGURE_EIGHT_ALEXANDER if s[0] == "fig8" else torus_alexander(s[1], s[2])


def knot_alexander(summands: tuple) -> list[int]:
    out = [1]
    for s in summands:
        out = poly_mul(out, summand_alexander(s))
    return normalize(out)


# -- resultant against t^d - 1 -------------------------------------------------


def _trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        c = a[-1] / lead
        shift = len(a) - 1 - db
        for j, y in enumerate(b):
            a[shift + j] -= c * y
        _trim(a)
    return a


def resultant(f: list[int], g: list[int]) -> Fraction:
    """Res(f, g) by Euclid's algorithm over the rationals.

    Uses Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r)
    with r = f mod g, and Res(f, c) = c^deg f for a constant c.
    """
    a = _trim([Fraction(x) for x in f])
    b = _trim([Fraction(x) for x in g])
    result = Fraction(1)
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return result * b[0] ** da
        r = _poly_mod(a, b)
        if not r:
            return Fraction(0)
        if da * db % 2:
            result = -result
        result *= b[-1] ** (da - (len(r) - 1))
        a, b = b, r


def cover_order(alexander: list[int], d: int):
    """|H1| of the d-fold branched cover: |Res(t^d - 1, Delta)|, or INFINITE when it vanishes."""
    r = resultant([-1] + [0] * (d - 1) + [1], alexander)
    if r == 0:
        return INFINITE
    if r.denominator != 1:
        raise ArithmeticError("resultant of integer polynomials is not an integer")
    return abs(r.numerator)


# -- closed forms ----------------------------------------------------------------


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def trefoil_cover_order(d: int):
    """1, 3 and 4 for d = +-1, +-2 and 3 mod 6; infinite for d = 0 mod 6."""
    return {0: INFINITE, 1: 1, 5: 1, 2: 3, 4: 3, 3: 4}[d % 6]


def figure_eight_cover_order(d: int) -> int:
    return lucas(2 * d) - 2


def figure_eight_cover_torsion(d: int) -> list[int]:
    """Z/L_d + Z/L_d for odd d, Z/F_d + Z/5F_d for even d (invariant factors above 1)."""
    pair = [lucas(d), lucas(d)] if d % 2 else [fibonacci(d), 5 * fibonacci(d)]
    return [t for t in pair if t > 1]


def coxeter_order(d: int) -> int | None:
    """|B3 / <<sigma1^d>>| = 3! (2d / (6 - d))^2 for d < 6, infinite (None) from d = 6 on (Coxeter 1957)."""
    if d >= 6:
        return None
    order = 6 * Fraction(2 * d, 6 - d) ** 2
    return int(order)


def closed_form_order(summands: tuple, d: int):
    """Product of the summands' closed-form orders, or None when one has no closed form at d."""
    orders = []
    for s in summands:
        if s[0] == "fig8":
            orders.append(figure_eight_cover_order(d))
        elif (s[1], s[2]) == (2, 3):
            orders.append(trefoil_cover_order(d))
        elif gcd(d, s[1]) == 1 and gcd(d, s[2]) == 1:
            orders.append(1)
        else:
            return None
    if INFINITE in orders:
        return INFINITE
    return prod(orders)


# -- per-workload checks ------------------------------------------------------------


def _alexander_of_row(obj: dict) -> list[int]:
    return normalize(list(obj["coeffs"]))


def check_search(op: Op, text: str) -> str | None:
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    expected = family_rows(*op.facts["bounds"])
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for row, (p, q, d, m) in zip(rows, expected):
        where = f"row T({p},{q}) d={d} m={m}"
        if (row["knot"], row["d"], row["m"]) != (f"T({p},{q})#mirror(T({p},{q}))", d, m):
            return f"{where}: got {row['knot']} d={row['d']} m={row['m']}"
        if _alexander_of_row(row["alexander"]) != normalize(poly_mul(torus_alexander(p, q), torus_alexander(p, q))):
            return f"{where}: Alexander polynomial is not the squared torus form"
        if row["branched_cover"]["order"] != 1:
            return f"{where}: cover order {row['branched_cover']['order']}, expected 1"
        if (row["pi1"]["kind"], row["pi1"].get("order")) != ("cyclic", d):
            return f"{where}: pi1 {row['pi1']}, expected Z/{d}"
        if row["smoothly_knotted"]["verdict"] != "yes" or row["topologically_standard"]["verdict"] != "yes":
            return f"{where}: not smoothly knotted and topologically standard"
    return None


def check_classify(op: Op, text: str) -> str | None:
    (row,) = [json.loads(line) for line in text.splitlines() if line.strip()]
    summands, d, m = op.facts["summands"], op.facts["d"], op.facts["m"]
    alexander = knot_alexander(summands)
    if (row["d"], row["m"]) != (d, m):
        return f"echoed d={row['d']} m={row['m']}, asked d={d} m={m}"
    if _alexander_of_row(row["alexander"]) != alexander:
        return "Alexander polynomial differs from the closed form"
    if row["branched_cover"]["order"] != cover_order(alexander, d):
        return f"cover order {row['branched_cover']['order']} differs from the resultant"
    pi1 = row["pi1"]
    kind, order = pi1["kind"], pi1.get("order")
    if kind == "cyclic" and order != d:
        return f"cyclic pi1 of order {order}, expected {d}"
    if kind == "finite" and (order is None or order % d):
        return f"finite pi1 of order {order}, not a multiple of d={d}"
    if kind not in ("cyclic", "finite", "undetermined"):
        return f"unknown pi1 kind {kind!r}"
    if summands == (("T", 2, 3),) and m % d == 0:
        expected = coxeter_order(d)
        if expected is not None and kind != "undetermined" and (kind, order) != ("finite", expected):
            return f"trefoil d={d}: pi1 {pi1}, expected finite of order {expected}"
        if expected is None and kind in ("cyclic", "finite"):
            return f"trefoil d={d}: pi1 {pi1}, but B3/<<sigma1^d>> is infinite"
    if d == 2 and m % 2 == 0 and alexander != [1]:
        if kind == "cyclic":
            return "d=2, m even, nontrivial Alexander polynomial: pi1 cannot be cyclic"
        if row["topologically_standard"]["verdict"] != "no":
            return "d=2, m even, nontrivial Alexander polynomial: must not be topologically standard"
    return None


def check_cover(op: Op, text: str) -> str | None:
    (row,) = [json.loads(line) for line in text.splitlines() if line.strip()]
    summands, d = op.facts["summands"], op.facts["d"]
    order = row["order"]
    expected = cover_order(knot_alexander(summands), d)
    if row["d"] != d:
        return f"echoed d={row['d']}, asked d={d}"
    if order != expected:
        return f"order {order}, resultant gives {expected}"
    closed = closed_form_order(summands, d)
    if closed is not None and order != closed:
        return f"order {order}, closed form gives {closed}"
    if op.facts["structure"]:
        structure = row.get("structure")
        if structure is None:
            return "no structure in the output"
        free, torsion = structure["free_rank"], list(structure["torsion"])
        if (free > 0) != (order == INFINITE):
            return f"free rank {free} with order {order}"
        if order != INFINITE and prod(torsion) != order:
            return f"torsion {torsion} has product {prod(torsion)}, order is {order}"
        if summands == (("fig8",),) and torsion != figure_eight_cover_torsion(d):
            return f"figure-eight torsion {torsion}, expected {figure_eight_cover_torsion(d)}"
    return None


CHECKS = {"search": check_search, "classify": check_classify, "cover": check_cover}


def check(op: Op, returncode, text: str) -> str | None:
    """None when the operation succeeded with a right output, else why it did not."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return CHECKS[op.argv[0]](op, text)
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        return f"unreadable output: {exc!r}"


def tally(results: list[tuple[Op, object, str]]) -> dict:
    """Attempted, failed and correct over (op, returncode, output) triples.

    An operation fails when it raises or exits non-zero, or when its
    output is wrong; a wrong output also makes the run incorrect.
    """
    failed, wrong, reasons = 0, 0, []
    for op, returncode, text in results:
        reason = check(op, returncode, text)
        if reason is None:
            continue
        failed += 1
        if returncode == 0:
            wrong += 1
        if len(reasons) < 20:
            reasons.append(f"{' '.join(op.argv)}: {reason}")
    return {"attempted": len(results), "failed": failed, "correct": wrong == 0, "reasons": reasons}
