"""Shared test fixtures: knot corpus and seeded random generators."""

import random

import rimtwist as rt

TREFOIL = rt.parse_knot("T(2,3)")
FIGURE_EIGHT = rt.parse_knot("braid(3; 1 -2 1 -2)")
FIGURE_EIGHT_PD = rt.PD(((4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)))
TREFOIL_PD = rt.PD(((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)))
TREFOIL_SUM = rt.parse_knot("T(2,3)#mirror(T(2,3))")

SMALL_CORPUS = [
    ("3_1", TREFOIL),
    ("4_1", FIGURE_EIGHT),
    ("T(2,5)", rt.parse_knot("T(2,5)")),
    ("T(3,4)", rt.parse_knot("T(3,4)")),
    ("3_1#mirror(3_1)", TREFOIL_SUM),
]

# the knots of the cover-large-d benchmark's order and structure pools
COVER_POOL_KNOTS = [
    "T(2,3)",
    "braid(3; 1 -2 1 -2)",
    "T(2,5)",
    "T(3,4)",
    "T(3,5)",
    "T(2,9)",
    "T(3,7)",
    "T(4,5)",
    "T(4,7)",
    "T(5,6)",
    "T(3,11)",
    "T(5,7)",
    "T(3,13)",
    "T(4,9)",
    "T(2,3)#braid(3; 1 -2 1 -2)",
    "T(3,4)#mirror(T(2,5))",
    "T(3,5)#mirror(T(3,5))",
    "T(4,5)#T(2,7)",
    "mirror(T(2,3))",
    "mirror(T(2,5))",
    "T(2,3)#T(2,3)",
    "T(2,3)#mirror(T(2,3))",
    "mirror(T(2,3))#mirror(T(2,3))",
    "braid(3; 1 -2 1 -2)#T(2,3)",
    "braid(3; 1 -2 1 -2)#mirror(T(2,3))",
]
# inputs of the Alexander and Tietze oracle tests beyond the pools
ORACLE_EXTRA_KNOTS = ["T(7,11)", "T(2,3)#unknot", "unknot#T(2,3)"]


def random_knot_braids(seed, count, max_len=8, max_strands=4):
    """Braids with single-component closure, at most max_len crossings."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        strands = rng.randint(2, max_strands)
        length = rng.randint(1, max_len)
        word = tuple(
            rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)
        )
        if rt.braid_closure_components(strands, word) == 1:
            out.append(rt.Braid(strands, word))
    return out


def braid_pd(braid):
    """PD code of a braid closure, edges numbered 1..2n along the knot.

    Strands run down, position i left of i + 1; the closure identifies
    each bottom segment with the top one of its position.  Around each
    crossing the slots read top-right, bottom-right, bottom-left,
    top-left, so sigma_i, whose strand at position i passes over, gives
    a crossing whose over-strand runs d -> b, the braid route's sign.
    """
    s = braid.strands
    parent = list(range(s))  # segment j enters position j at the top
    current = list(range(s))
    ends = []  # per crossing: (top-left, top-right, bottom-left, bottom-right) segments
    for k in braid.word:
        i = abs(k) - 1
        left, right = len(parent), len(parent) + 1
        parent += [left, right]
        ends.append((current[i], current[i + 1], left, right))
        current[i], current[i + 1] = left, right
    for j in range(s):
        parent[current[j]] = j
    root = [parent[x] if parent[x] < s else x for x in range(len(parent))]
    # a strand entering at the top left leaves at the bottom right, and vice versa
    leave = {root[tl]: root[br] for tl, _, _, br in ends}
    leave.update((root[tr], root[bl]) for _, tr, bl, _ in ends)
    label = {}
    seg = root[ends[0][2]]
    while seg not in label:
        label[seg] = len(label) + 1
        seg = leave[seg]
    out = []
    for k, (tl, tr, bl, br) in zip(braid.word, ends):
        tl, tr, bl, br = (label[root[x]] for x in (tl, tr, bl, br))
        out.append((tr, br, bl, tl) if k > 0 else (tl, tr, br, bl))
    return rt.PD(tuple(out))


def random_knot_exprs(seed, count):
    """Left-associated expression trees for parser round-trip checks."""
    rng = random.Random(seed)

    def leaf():
        kind = rng.choice(["unknot", "torus", "braid", "pd"])
        if kind == "unknot":
            return rt.Unknot()
        if kind == "torus":
            pairs = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7)]
            return rt.TorusKnot(*rng.choice(pairs))
        if kind == "braid":
            braids = [
                rt.Braid(2, (1, 1, 1)),
                rt.Braid(3, (1, -2, 1, -2)),
                rt.Braid(2, (-1, -1, -1)),
                rt.Braid(2, (1,)),
            ]
            return rng.choice(braids)
        return rt.PD(((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)))

    def term(depth):
        e = leaf()
        if depth > 0 and rng.random() < 0.4:
            return rt.Mirror(term(depth - 1))
        return e

    out = []
    for _ in range(count):
        expr = term(2)
        for _ in range(rng.randint(0, 2)):
            expr = rt.ConnectedSum(expr, term(2))
        out.append(expr)
    return out


def lucas(n):
    """L_n by fast doubling on Fibonacci pairs (F_k, F_k+1)."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return 2 * b - a
