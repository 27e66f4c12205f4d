"""Knot-group presentations and their reduction.

A Wirtinger presentation has one generator per arc of the diagram, one
conjugation relator per crossing, a distinguished meridian generator
(index 1 by convention), and exactly one redundant relator which is
kept in the stored presentation.  ``GroupPresentation.reduced`` is the
same group on fewer generators: ``drop_redundant_crossing_relators``
removes that relator, then ``tietze_simplify`` eliminates generators.

Sign convention: at a positive crossing the outgoing under-arc is
``over * in * over^-1``; a negative crossing conjugates the other way.

The package has one union-find, a parent list whose roots ``_root``
finds by path halving: the Wirtinger builders join arcs in it,
``_components`` splits out diagrams here and Alexander blocks in
``alexander``, and the coset enumeration in ``groups`` merges cosets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

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
from .words import Word, canonical_cyclic, cyclic_reduce, invert, substitute


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

    @cached_property
    def reduced(self) -> "GroupPresentation":
        """The same group on fewer generators: crossing relators dropped, then Tietze.

        Drops the redundant crossing relator of each diagram, which leaves
        a knot group's Wirtinger presentation of deficiency one, and
        Tietze-simplifies the rest; the meridian survives both steps.
        Computed once per object and kept out of the fields, so ``==``,
        ``hash``, ``repr`` and ``to_json`` do not see it.
        """
        return tietze_simplify(drop_redundant_crossing_relators(self))

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


def _root(parent: list[int], k: int) -> int:
    """Root of ``k`` in the union-find forest ``parent``, halving the path to it."""
    while parent[k] != k:
        parent[k] = k = parent[parent[k]]
    return k


def _components(n: int, supports: list[list[int]]) -> list[tuple[list[int], list[int]]]:
    """Classes of the ids 0..n-1 that the supports connect, in one ``_root`` forest.

    For each class that some nonempty support touches, returns the
    indices of the class's supports and its ids, both ascending; the
    pairs come in the order of each class's first support.
    """
    parent = list(range(n))
    for support in supports:
        for k in support[1:]:
            parent[_root(parent, k)] = _root(parent, support[0])
    classes: dict[int, tuple[list[int], list[int]]] = {}
    for i, support in enumerate(supports):
        if support:
            classes.setdefault(_root(parent, support[0]), ([], []))[0].append(i)
    for k in range(n):
        if (pair := classes.get(_root(parent, k))) is not None:
            pair[1].append(k)
    return list(classes.values())


def _finish_presentation(
    parent: list[int],
    raw_relators: list[tuple[int, int, int, int]],
    meridian_arc: int,
) -> GroupPresentation:
    """Renumber arc classes (meridian class first) and rewrite relators.

    ``parent`` is the ``_root`` forest over arc ids; ``raw_relators``
    hold (over, in, out, sign) arc ids, and the emitted word is
    ``over^s in over^-s out^-1``.
    """
    index = {_root(parent, meridian_arc): 1}
    gen = [index.setdefault(_root(parent, i), len(index) + 1) for i in range(len(parent))]
    relators = tuple(
        (sign * gen[o], gen[a], -sign * gen[o], -gen[c]) for o, a, c, sign in raw_relators
    )
    return GroupPresentation(generators=_default_names(len(index)), relators=relators)


def wirtinger_from_braid(braid: Braid) -> GroupPresentation:
    """Wirtinger presentation of the braid-closure knot group.

    Arcs are tracked per strand position top to bottom; the closure
    identifies the bottom arc of each strand with its top arc.  The
    meridian is the arc entering strand 1 at the top.
    """
    s = braid.strands
    parent = list(range(s))  # arc j enters strand j at the top
    current = list(range(s))
    raw: list[tuple[int, int, int, int]] = []
    for k in braid.word:
        i = abs(k) - 1
        a, b = current[i], current[i + 1]
        c = len(parent)
        parent.append(c)
        if k > 0:
            # strand at position i passes over: out-arc c = a b a^-1
            raw.append((a, b, c, 1))
            current[i], current[i + 1] = c, a
        else:
            # strand at position i+1 passes over: out-arc c = b^-1 a b
            raw.append((b, a, c, -1))
            current[i], current[i + 1] = b, c
    for j in range(s):
        parent[_root(parent, current[j])] = _root(parent, j)
    return _finish_presentation(parent, raw, 0)


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

    parent = list(range(2 * n))
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
        parent[_root(parent, over_in - 1)] = _root(parent, over_out - 1)
        oriented.append((over_in, a, c, sign))
    raw = [(o - 1, a - 1, c - 1, sign) for (o, a, c, sign) in oriented]
    return _finish_presentation(parent, raw, 0)


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

    Crossing relators whose generators connect, a class of
    ``_components``, are one diagram's Wirtinger relators when they
    number as many as those generators (one crossing per arc), and any
    one of them follows from the others, so the last is dropped.  Other
    relators, such as a connected sum's meridian identification, are kept.
    """
    supports = [
        [abs(x) - 1 for x in r] if _is_crossing_relator(r) else [] for r in p.relators
    ]
    classes = _components(p.generator_count, supports)
    dropped = {rows[-1] for rows, gens in classes if len(rows) == len(gens)}
    return replace(p, relators=tuple(r for i, r in enumerate(p.relators) if i not in dropped))


# -- Tietze simplification ------------------------------------------------


def _letters(w: Word) -> dict[int, int]:
    """Occurrences of each generator in ``w``; on words this short a loop
    beats ``Counter``'s set-up."""
    counts: dict[int, int] = {}
    for x in w:
        g = abs(x)
        counts[g] = counts.get(g, 0) + 1
    return counts


def tietze_simplify(p: GroupPresentation) -> GroupPresentation:
    """Shrink a presentation without changing the group.

    Free/cyclic reduction, duplicate-relator removal, and elimination
    of generators isolated (single occurrence) in some relator.  Each
    pass drops empty and repeated relators (up to rotation and
    inversion), then tries the eliminations in order of (relator
    length, relator index, generator) and applies the first that does
    not increase the total relator length, so generator count, relator
    count, and total length never exceed the input's.  The
    distinguished meridian is never eliminated.  Passes repeat until
    one eliminates nothing; each of the others removes a generator, so
    the loop terminates.

    An elimination rewrites only the relators that hold the generator;
    the others keep their letter counts and canonical keys, and the
    surviving generators are renumbered once, at the end.
    """
    meridian = p.meridian
    # one [word, letters per generator, canonical key once computed] per relator
    rels = [[w, _letters(w), None] for w in map(cyclic_reduce, p.relators)]
    gone: set[int] = set()
    while True:
        seen: set[Word] = set()
        kept = []
        for rel in rels:
            if not rel[0]:
                continue
            if rel[2] is None:
                rel[2] = canonical_cyclic(rel[0])
            if rel[2] not in seen:
                seen.add(rel[2])
                kept.append(rel)
        rels = kept
        candidates = sorted(
            (len(w), ri, g)
            for ri, (w, letters, _) in enumerate(rels)
            for g, n in letters.items()
            if n == 1 and g != meridian
        )
        for size, ri, g in candidates:
            r = rels[ri][0]
            pos = r.index(g) if g in r else r.index(-g)
            rot = r[pos + 1 :] + r[:pos]
            image = invert(rot) if r[pos] > 0 else rot
            holders = [rj for rj, rel in enumerate(rels) if g in rel[1] and rj != ri]
            words = [cyclic_reduce(substitute(rels[rj][0], g, image)) for rj in holders]
            if sum(map(len, words)) - sum(len(rels[rj][0]) for rj in holders) <= size:
                for rj, w in zip(holders, words):
                    rels[rj] = [w, _letters(w), None]
                del rels[ri]
                gone.add(g)
                break
        else:
            break
    kept_gens = [g for g in range(1, p.generator_count + 1) if g not in gone]
    index = {g: k for k, g in enumerate(kept_gens, 1)}
    return GroupPresentation(
        tuple(p.generators[g - 1] for g in kept_gens),
        tuple(tuple(index[x] if x > 0 else -index[-x] for x in rel[0]) for rel in rels),
        meridian - sum(1 for g in gone if g < meridian),
    )
