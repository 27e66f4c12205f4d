"""Seeded operation schedules for the three workloads.

A schedule is a list of rounds.  Every round holds one operation from
each slot of the workload, in the same slot order, so every round has
the same make-up; the seed only decides which input of each slot's
pool a round draws.  Pools are drawn without replacement, so no input
repeats within a run, and a run ends when a pool is used up or the
timed phase is over, whichever comes first.

This module does not import rimtwist: it only writes argument lists
and the facts the checkers need about each input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

BUDGET = 200_000  # cosets per enumeration in pi1-enumerate

FIGURE_EIGHT = "braid(3; 1 -2 1 -2)"


@dataclass(frozen=True)
class Op:
    slot: str
    argv: tuple[str, ...]
    knots: tuple[str, ...]  # the knot strings this operation works on
    facts: dict = field(default_factory=dict, compare=False, hash=False)


# -- knots as summand lists --------------------------------------------------
#
# A summand is ("T", p, q), ("mirrorT", p, q) or ("fig8",).  The checkers
# compute every invariant from these tuples, never from the program.


def summand_text(s: tuple) -> str:
    if s[0] == "T":
        return f"T({s[1]},{s[2]})"
    if s[0] == "mirrorT":
        return f"mirror(T({s[1]},{s[2]}))"
    return FIGURE_EIGHT


def knot_text(summands: tuple) -> str:
    return "#".join(summand_text(s) for s in summands)


def alexander_degree(summands: tuple) -> int:
    return sum(2 if s[0] == "fig8" else (s[1] - 1) * (s[2] - 1) for s in summands)


# -- search-family -----------------------------------------------------------


def _congruent(d: int, m: int) -> bool:
    """d = +-1 mod m."""
    return d % m in (1 % m, m - 1)


def family_rows(p_max: int, q_max: int, d_max: int, m_max: int) -> list[tuple[int, int, int, int]]:
    """The (p, q, d, m) rows ``search`` sweeps for these bounds."""
    rows = []
    for p in range(2, p_max + 1):
        for q in range(p + 1, q_max + 1):
            if gcd(p, q) != 1:
                continue
            for d in range(2, d_max + 1):
                if gcd(d, p) == 1 and gcd(d, q) == 1:
                    rows += [(p, q, d, m) for m in range(2, m_max + 1) if _congruent(d, m)]
    return rows


# Milliseconds one row of T(p,q)#mirror(T(p,q)) took (classify on a 2-vCPU Intel Xeon
# virtual machine, Python 3.11), used only to pick sweeps of about equal cost.
ROW_MS = {
    (2, 3): 0.8, (2, 5): 1.4, (2, 7): 3.1, (2, 9): 6.3, (3, 4): 3.7, (3, 5): 7.4,
    (3, 7): 13.4, (3, 8): 26.9, (4, 5): 21.4, (4, 7): 36.4, (4, 9): 79.9,
}
SEARCH_MS = (540, 660)  # estimated cost of each sweep in the pool


def search_pool() -> list[tuple[int, int, int, int]]:
    """Bound tuples with pmax 3 or 4 and qmax up to 9 whose estimated cost lies in SEARCH_MS.

    Only tight tuples are kept: lowering qmax, dmax or mmax by one would
    drop a row, so no two tuples in the pool sweep the same rows.
    """
    pool = []
    top_d = 30
    for p_max in (3, 4):
        for q_max in range(p_max + 1, 10):
            # prefix sums over the (d, m) grid of: cost, rows, rows of a T(., q_max) knot
            grid = [[[0.0, 0, 0] for _ in range(top_d + 3)] for _ in range(top_d + 2)]
            for p, q, d, m in family_rows(p_max, q_max, top_d, top_d + 1):
                cell = grid[d][m]
                cell[0] += ROW_MS[p, q]
                cell[1] += 1
                cell[2] += q == q_max
            for d in range(1, top_d + 2):
                for m in range(1, top_d + 3):
                    for k in range(3):
                        grid[d][m][k] += grid[d - 1][m][k] + grid[d][m - 1][k] - grid[d - 1][m - 1][k]
            for d_max in range(4, top_d + 1):
                for m_max in range(2, d_max + 2):
                    cost, rows, top = grid[d_max][m_max]
                    tight = top and rows > grid[d_max - 1][m_max][1] and rows > grid[d_max][m_max - 1][1]
                    if tight and SEARCH_MS[0] <= cost <= SEARCH_MS[1]:
                        pool.append((p_max, q_max, d_max, m_max))
    return pool


def _search_slots() -> dict[str, list[Op]]:
    """One slot: every sweep in the pool costs about the same."""
    ops = []
    for p, q, d, m in search_pool():
        argv = ("search", "--pmax", str(p), "--qmax", str(q), "--dmax", str(d), "--mmax", str(m), "--json")
        knots = tuple(sorted({knot_text((("T", a, b), ("mirrorT", a, b))) for a, b, _, _ in family_rows(p, q, d, m)}))
        ops.append(Op("sweep", argv, knots, {"bounds": (p, q, d, m)}))
    return {"sweep": ops}


# -- pi1-enumerate -----------------------------------------------------------

TREFOIL = (("T", 2, 3),)
TREFOIL_SUM = (("T", 2, 3), ("mirrorT", 2, 3))
OTHER_KNOTS = ((("T", 2, 5),), (("T", 3, 4),), (("fig8",),))


def _classify_op(slot: str, summands: tuple, d: int, m: int) -> Op:
    knot = knot_text(summands)
    argv = ("classify", knot, "--d", str(d), "--m", str(m), "--budget", str(BUDGET), "--json")
    return Op(slot, argv, (knot,), {"summands": summands, "d": d, "m": m})


def _pi1_slots() -> dict[str, list[Op]]:
    """Two closing operations and six exhausting ones a round, so the median falls among the latter.

    Closing tables: the trefoil with d | m and d = 2..5, and T(2,5),
    T(3,4) and the figure-eight where d does not divide m (plus d | m at
    d = 2, and at d = 3 for T(2,5)).  Exhausting tables at the 2e5
    budget: the trefoil with d | m and d = 7..9; T(2,5) and the
    figure-eight at d = 4, 5 and T(3,4) at d = 3..5, all with d | m; and
    T(2,3)#mirror(T(2,3)) at d = 2 with even m from 20 on.  Left out, as
    they cost about twice as much as the other exhausting cases: the
    trefoil at d = 6, the figure-eight at d = 3, and the trefoil sum at
    m < 20.
    """
    slots: dict[str, list[Op]] = {
        "trefoil-finite": [_classify_op("trefoil-finite", TREFOIL, d, d * k) for d in range(2, 6) for k in range(1, 13)],
        "other-closing": [],
        "trefoil-infinite": [_classify_op("trefoil-infinite", TREFOIL, d, d * k) for d in range(7, 10) for k in range(1, 17)],
        "other-exhausting": [],
        "trefoil-sum": [_classify_op("trefoil-sum", TREFOIL_SUM, 2, m) for m in range(20, 120, 2)],
    }
    for summands in OTHER_KNOTS:
        for d in range(2, 6):
            for m in range(2, 41):
                if _congruent(d, m):
                    continue
                if m % d or d == 2 or (summands == (("T", 2, 5),) and d == 3):
                    slots["other-closing"].append(_classify_op("other-closing", summands, d, m))
                elif not (summands == (("fig8",),) and d == 3):
                    slots["other-exhausting"].append(_classify_op("other-exhausting", summands, d, m))
    return slots


PI1_ROUND = (
    "trefoil-finite",
    "other-closing",
    "trefoil-infinite",
    "trefoil-infinite",
    "other-exhausting",
    "other-exhausting",
    "trefoil-sum",
    "trefoil-sum",
)


# -- cover-large-d -----------------------------------------------------------

ORDER_KNOTS = (
    (("T", 2, 3),),
    (("fig8",),),
    (("T", 2, 5),),
    (("T", 3, 4),),
    (("T", 3, 5),),
    (("T", 2, 9),),
    (("T", 3, 7),),
    (("T", 4, 5),),
    (("T", 4, 7),),
    (("T", 5, 6),),
    (("T", 3, 11),),
    (("T", 5, 7),),
    (("T", 3, 13),),
    (("T", 4, 9),),
    (("T", 2, 3), ("fig8",)),
    (("T", 3, 4), ("mirrorT", 2, 5)),
    (("T", 3, 5), ("mirrorT", 3, 5)),
    (("T", 4, 5), ("T", 2, 7)),
)
# Knots with small Alexander blocks, and the total block size n the program's
# presentation reduces them to; the structure's relation matrix is (d-1)n square.
STRUCTURE_KNOTS = (
    ((("T", 2, 3),), 2),
    ((("mirrorT", 2, 3),), 2),
    ((("fig8",),), 3),
    ((("T", 2, 5),), 4),
    ((("mirrorT", 2, 5),), 4),
    ((("T", 2, 3), ("T", 2, 3)), 4),
    ((("T", 2, 3), ("mirrorT", 2, 3)), 4),
    ((("mirrorT", 2, 3), ("mirrorT", 2, 3)), 4),
    ((("fig8",), ("T", 2, 3)), 5),
    ((("fig8",), ("mirrorT", 2, 3)), 5),
)
# Slots are strata of the matrix size that sets each operation's cost: the
# Sylvester size d + e for the order (d from about 60 to 240), and (d-1)n for the
# structure (d up to 48).
ORDER_STRATA = tuple((lo, lo + 14) for lo in range(75, 255, 15))
STRUCTURE_STRATA = tuple((lo, lo + 23) for lo in range(24, 192, 24))
STRUCTURE_MAX_D = 48


def _cover_op(slot: str, summands: tuple, d: int, structure: bool) -> Op:
    knot = knot_text(summands)
    argv = ("cover", knot, "--d", str(d)) + (("--structure",) if structure else ()) + ("--json",)
    return Op(slot, argv, (knot,), {"summands": summands, "d": d, "structure": structure})


def _cover_slots() -> dict[str, list[Op]]:
    slots = {}
    for lo, hi in ORDER_STRATA:
        slots[f"order-{lo}"] = [
            _cover_op(f"order-{lo}", k, n - alexander_degree(k), False) for k in ORDER_KNOTS for n in range(lo, hi + 1)
        ]
    for lo, hi in STRUCTURE_STRATA:
        slots[f"structure-{lo}"] = [
            _cover_op(f"structure-{lo}", k, d, True)
            for k, n in STRUCTURE_KNOTS
            for d in range(2, STRUCTURE_MAX_D + 1)
            if lo <= (d - 1) * n <= hi
        ]
    return slots


# -- schedules -----------------------------------------------------------------

WORKLOADS = ("search-family", "pi1-enumerate", "cover-large-d")


def _slots_and_round(workload: str) -> tuple[dict[str, list[Op]], tuple[str, ...]]:
    if workload == "search-family":
        return _search_slots(), ("sweep",)
    if workload == "pi1-enumerate":
        return _pi1_slots(), PI1_ROUND
    if workload == "cover-large-d":
        slots = _cover_slots()
        return slots, tuple(slots)
    raise ValueError(f"unknown workload {workload!r}")


def schedule(workload: str, seed: int) -> list[list[Op]]:
    """Rounds of operations for one run, drawn from the pools by ``seed``."""
    slots, round_slots = _slots_and_round(workload)
    rng = random.Random(f"{workload}:{seed}")
    queues = {}
    for name, pool in slots.items():
        pool = list(pool)
        rng.shuffle(pool)
        queues[name] = pool
    rounds = []
    while True:
        need = {name: round_slots.count(name) for name in set(round_slots)}
        if any(len(queues[name]) < n for name, n in need.items()):
            return rounds
        rounds.append([queues[name].pop() for name in round_slots])
