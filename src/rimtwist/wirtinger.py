"""Wirtinger presentations of knot groups.

One generator per arc of the diagram, one conjugation relator per
crossing, a distinguished meridian generator (index 1 by convention),
and exactly one redundant relator which is kept in the stored
presentation; ``drop_redundant_crossing_relators`` removes it.

Sign convention: at a positive crossing the outgoing under-arc is
``over * in * over^-1``; a negative crossing conjugates the other way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from .knots import (
    PD,
    Braid,
    ConnectedSum,
    KnotExpr,
    KnotSemanticError,
    Mirror,
    TorusKnot,
    Unknot,
    mirror_braid,
    mirror_pd,
    torus_braid,
)
from .words import Word


@dataclass(frozen=True)
class GroupPresentation:
    """A finite presentation with a distinguished meridian generator.

    ``generators`` are display names; relators are words over 1-based
    signed generator indices.  ``meridian`` is a generator index.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = field(default_factory=tuple)
    meridian: int = 1

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(tuple(r) for r in self.relators))
        n = len(self.generators)
        for r in self.relators:
            for x in r:
                if x == 0 or abs(x) > n:
                    raise ValueError(f"relator letter {x} references no generator")
        if n and not (1 <= self.meridian <= n):
            raise ValueError("meridian index out of range")

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    def __str__(self) -> str:
        gens = ", ".join(self.generators)
        if not self.relators:
            return f"< {gens} | >"

        def letter(x: int) -> str:
            name = self.generators[abs(x) - 1]
            return name if x > 0 else name + "^-1"

        rels = ", ".join(" ".join(letter(x) for x in r) for r in self.relators)
        return f"< {gens} | {rels} >"

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [list(r) for r in self.relators],
            "meridian": self.meridian,
        }

    @staticmethod
    def from_json(obj: dict) -> "GroupPresentation":
        return GroupPresentation(
            generators=tuple(obj["generators"]),
            relators=tuple(tuple(int(x) for x in r) for r in obj["relators"]),
            meridian=int(obj["meridian"]),
        )


def _default_names(n: int) -> tuple[str, ...]:
    return tuple(f"g{i}" for i in range(1, n + 1))


class _ArcUnion:
    """Union-find over small integer ids: Wirtinger arcs, or Fox matrix columns."""

    def __init__(self):
        self.parent: list[int] = []

    def add(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            if rj < ri:
                ri, rj = rj, ri
            self.parent[rj] = ri


def _finish_presentation(
    arcs: _ArcUnion,
    raw_relators: list[tuple[int, int, int, int]],
    meridian_arc: int,
) -> GroupPresentation:
    """Renumber arc classes (meridian class first) and rewrite relators.

    ``raw_relators`` hold (over, in, out, sign) arc ids; the emitted
    word is ``over^s in over^-s out^-1``.
    """
    roots: list[int] = []
    seen: set[int] = set()
    mer_root = arcs.find(meridian_arc)
    roots.append(mer_root)
    seen.add(mer_root)
    for i in range(len(arcs.parent)):
        r = arcs.find(i)
        if r not in seen:
            seen.add(r)
            roots.append(r)
    index = {r: i + 1 for i, r in enumerate(roots)}

    def gen(arc: int) -> int:
        return index[arcs.find(arc)]

    relators: list[Word] = []
    for over, inc, out, sign in raw_relators:
        o, a, c = gen(over), gen(inc), gen(out)
        relators.append((sign * o, a, -sign * o, -c))
    return GroupPresentation(
        generators=_default_names(len(roots)),
        relators=tuple(relators),
        meridian=1,
    )


def wirtinger_from_braid(braid: Braid) -> GroupPresentation:
    """Wirtinger presentation of the braid-closure knot group.

    Arcs are tracked per strand position top to bottom; the closure
    identifies the bottom arc of each strand with its top arc.  The
    meridian is the arc entering strand 1 at the top.
    """
    s = braid.strands
    arcs = _ArcUnion()
    top = [arcs.add() for _ in range(s)]
    current = list(top)
    raw: list[tuple[int, int, int, int]] = []
    for k in braid.word:
        i = abs(k) - 1
        a, b = current[i], current[i + 1]
        c = arcs.add()
        if k > 0:
            # strand at position i passes over: out-arc c = a b a^-1
            raw.append((a, b, c, 1))
            current[i], current[i + 1] = c, a
        else:
            # strand at position i+1 passes over: out-arc c = b^-1 a b
            raw.append((b, a, c, -1))
            current[i], current[i + 1] = b, c
    for j in range(s):
        arcs.union(current[j], top[j])
    return _finish_presentation(arcs, raw, top[0])


def wirtinger_from_pd(code: PD) -> GroupPresentation:
    """Wirtinger presentation from a PD code.

    Edge labels must run 1..2n in traversal order (the standard PD
    convention), which fixes the orientation: the under-strand enters
    at the first slot and leaves at the third, and the over-strand's
    incoming edge is the one whose successor is also on the crossing.
    """
    n = len(code.crossings)
    if n == 0:
        return GroupPresentation(generators=("g1",), relators=(), meridian=1)
    labels = sorted({a for c in code.crossings for a in c})
    if labels != list(range(1, 2 * n + 1)):
        raise KnotSemanticError(
            "PD edge labels must be exactly 1..2n (sequential along the knot)"
        )

    def succ(e: int) -> int:
        return e % (2 * n) + 1

    arcs = _ArcUnion()
    for _ in range(2 * n):
        arcs.add()
    oriented: list[tuple[int, int, int, int]] = []  # (over_in, under_in, under_out, sign)
    for (a, b, c, d) in code.crossings:
        if succ(a) != c:
            raise KnotSemanticError(
                f"inconsistent orientation or multi-component code: under-strand "
                f"{a}->{c} is not sequential"
            )
        if succ(b) == d:
            over_in, over_out, sign = b, d, -1
        elif succ(d) == b:
            over_in, over_out, sign = d, b, 1
        else:
            raise KnotSemanticError(
                f"inconsistent orientation or multi-component code: over-strand "
                f"{b}/{d} is not sequential"
            )
        arcs.union(over_in - 1, over_out - 1)
        oriented.append((over_in, a, c, sign))
    raw = [(o - 1, a - 1, c - 1, sign) for (o, a, c, sign) in oriented]
    return _finish_presentation(arcs, raw, 0)


def presentation_connected_sum(
    a: GroupPresentation, b: GroupPresentation
) -> GroupPresentation:
    """Free product of two knot-group presentations amalgamated over meridians.

    Disjoint union of generators and relators plus one relator
    identifying the meridians; the meridian of ``a`` is distinguished.
    """
    na = a.generator_count
    gens = tuple(f"g{i}" for i in range(1, na + b.generator_count + 1))

    def shift(w: Word) -> Word:
        return tuple(x + na if x > 0 else x - na for x in w)

    relators = list(a.relators) + [shift(r) for r in b.relators]
    relators.append((a.meridian, -(b.meridian + na)))
    return GroupPresentation(generators=gens, relators=tuple(relators), meridian=a.meridian)


def presentation_of_knot(expr: KnotExpr) -> GroupPresentation:
    """Knot-group presentation of any knot expression.

    Mirrors push down to the diagram level (braid letters negated, PD
    tuples reflected); connected sums are assembled at the presentation
    level, never diagrammatically.
    """
    if isinstance(expr, Unknot):
        return GroupPresentation(generators=("g1",), relators=(), meridian=1)
    if isinstance(expr, TorusKnot):
        return wirtinger_from_braid(torus_braid(expr.p, expr.q))
    if isinstance(expr, Braid):
        return wirtinger_from_braid(expr)
    if isinstance(expr, PD):
        return wirtinger_from_pd(expr)
    if isinstance(expr, ConnectedSum):
        return presentation_connected_sum(
            presentation_of_knot(expr.left), presentation_of_knot(expr.right)
        )
    if isinstance(expr, Mirror):
        return presentation_of_knot(mirror_expr(expr.child))
    raise TypeError(f"not a knot expression: {expr!r}")


def mirror_expr(expr: KnotExpr) -> KnotExpr:
    """Push a mirror through an expression tree down to the diagrams."""
    if isinstance(expr, Unknot):
        return expr
    if isinstance(expr, TorusKnot):
        return mirror_braid(torus_braid(expr.p, expr.q))
    if isinstance(expr, Braid):
        return mirror_braid(expr)
    if isinstance(expr, PD):
        return mirror_pd(expr)
    if isinstance(expr, ConnectedSum):
        return ConnectedSum(mirror_expr(expr.left), mirror_expr(expr.right))
    if isinstance(expr, Mirror):
        return expr.child
    raise TypeError(f"not a knot expression: {expr!r}")


def _is_crossing_relator(r: Word) -> bool:
    """True for a crossing relator x y x^-1 z^-1: the outgoing arc z is x y x^-1."""
    return len(r) == 4 and r[2] == -r[0] and r[1] > 0 and r[3] < 0


def drop_redundant_crossing_relators(p: GroupPresentation) -> GroupPresentation:
    """``p`` without the redundant crossing relator of each diagram it was built from.

    Crossing relators whose generators connect are one diagram's
    Wirtinger relators when they number as many as those generators (one
    crossing per arc), and any one of them follows from the others, so
    the last is dropped.  Other relators, such as a connected sum's
    meridian identification, are kept.
    """
    arcs = _ArcUnion()
    for _ in range(p.generator_count + 1):
        arcs.add()
    crossing = [i for i, r in enumerate(p.relators) if _is_crossing_relator(r)]
    for i in crossing:
        x, y, _, z = p.relators[i]
        arcs.union(abs(x), y)
        arcs.union(y, -z)
    rows: dict[int, list[int]] = {}
    for i in crossing:
        rows.setdefault(arcs.find(p.relators[i][1]), []).append(i)
    gens = Counter(arcs.find(g) for g in {abs(x) for i in crossing for x in p.relators[i]})
    dropped = {ids[-1] for root, ids in rows.items() if len(ids) == gens[root]}
    return replace(p, relators=tuple(r for i, r in enumerate(p.relators) if i not in dropped))
