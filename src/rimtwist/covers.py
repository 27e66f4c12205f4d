"""Homology of d-fold cyclic covers of knot complements.

Two independent routes to the branched-cover homology: the order as a
resultant against t^d - 1 (the product of Alexander values over d-th
roots of unity), and the full group structure from the Alexander
matrix over Z[t]/(1 + t + ... + t^(d-1)).  Quotienting by
1 + t + ... + t^(d-1), rather than t^d - 1, excludes the free summand
of the unbranched cover, so the result is exactly the branched-cover
torsion.

The order costs O(e^2 log d) for an Alexander polynomial of degree e,
plus an integer determinant of size at most 2e - 1, so d = 10^5 is
cheap.  The structure replaces each entry f of the Alexander matrix by
the (d-1)-square matrix of multiplication by f in the basis
1, t, ..., t^(d-2), which has a closed form: fold the exponents of f
modulo d (t^-1 = t^(d-1)) into a_0, ..., a_(d-1); then t^j f has
coefficient a_((k-j) mod d) - a_((d-1-j) mod d) at t^k, since t^(d-1)
reduces to -(1 + t + ... + t^(d-2)).  The Alexander matrix comes from a
Tietze-simplified deficiency-one presentation and is block-diagonal, so
each block of size b gives its own (b (d-1))-square relation matrix and
its own Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .alexander import reduced_alexander_blocks
from .groups import AbelianInvariants, reduced_knot_presentation, smith_invariants
from .laurent import LaurentPoly, resultant_with_cyclotomic
from .wirtinger import GroupPresentation


def order_value(order: int | None) -> int | str:
    """A branched-cover order as text and JSON show it: the int, or "infinite" for None."""
    return "infinite" if order is None else order


def branched_cover_order(delta: LaurentPoly, d: int) -> int | None:
    """|H1| of the d-fold branched cover from the Alexander polynomial.

    The absolute value of the resultant of t^d - 1 against delta; zero
    (a root of delta among d-th roots of unity) means the homology is
    infinite, returned as None like ``AbelianInvariants.order``.
    """
    return abs(resultant_with_cyclotomic(delta, d)) or None


def _cover_block(entry: LaurentPoly, d: int) -> list[list[int]]:
    """Matrix of multiplication by ``entry`` on Z[t]/(1 + t + ... + t^(d-1)).

    Column j holds t^j * entry in the basis 1, t, ..., t^(d-2).
    """
    a = [0] * d
    for i, coeff in enumerate(entry.coeffs):
        a[(entry.min_exp + i) % d] += coeff
    e = d - 1
    last = [a[(e - j) % d] for j in range(e)]
    return [[a[(k - j) % d] - last[j] for j in range(e)] for k in range(e)]


def _invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """Torsion of the direct sum of the Z/c for c in ``orders``, in divisibility order.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); after one pass over the later
    entries, each entry divides all of them.
    """
    a = list(orders)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = gcd(a[i], a[j])
            a[i], a[j] = g, a[i] // g * a[j]
    return tuple(v for v in a if v > 1)


def branched_cover_structure(p: GroupPresentation, d: int) -> AbelianInvariants:
    """H1 of the d-fold branched cover as an abelian group.

    Drops the redundant crossing relator of each diagram, which leaves a
    deficiency-one presentation, and Tietze-simplifies it.  Tietze moves
    keep the deficiency, so the Alexander matrix without the meridian
    column is square, and a knot group's is nonsingular: its blocks are
    square with no row to shed.  Each entry f of a block becomes its
    (d-1)-square multiplication block on Z[t]/(1 + t + ... + t^(d-1)),
    whose entry in row k and column j is a_((k-j) mod d) - a_((d-1-j) mod d)
    for the coefficients a of f folded modulo t^d - 1; each block's
    integer relation matrix gets its own Smith normal form, and the
    torsion of all blocks is merged into invariant factors.

    Raises ValueError for a presentation that is not a knot group's or
    is not of deficiency one once its crossing relators are dropped.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    e = d - 1
    q = reduced_knot_presentation(p)
    if len(q.relators) != q.generator_count - 1:
        raise ValueError(
            "presentation is not of deficiency one after dropping its redundant "
            f"crossing relators ({len(q.relators)} relators against {q.generator_count} generators)"
        )
    blocks, _ = reduced_alexander_blocks(q)
    if e == 0:
        return AbelianInvariants(free_rank=0, torsion=())
    free_rank = 0
    torsion: list[int] = []
    for block in blocks:
        size = len(block) * e
        rel = [[0] * size for _ in range(size)]
        for bi, block_row in enumerate(block):
            for bj, entry in enumerate(block_row):
                if not entry:
                    continue  # rel starts at zero
                for r, sub_row in enumerate(_cover_block(entry, d)):
                    rel[bi * e + r][bj * e : bj * e + e] = sub_row
        inv = smith_invariants(rel, size)
        free_rank += size - len(inv)
        torsion += (v for v in inv if v > 1)
    return AbelianInvariants(free_rank=free_rank, torsion=_invariant_factors(torsion))


@dataclass(frozen=True)
class CoverHomology:
    """Branched-cover homology for one d: order plus optional group structure.

    A structure given with the order must agree with it, so the resultant
    and the Smith normal form check each other.
    """

    d: int
    order: int | None
    structure: AbelianInvariants | None = None

    def __post_init__(self):
        if self.structure is not None:
            struct_order = self.structure.order()
            if struct_order != self.order:
                raise ValueError(
                    f"structure order {struct_order} disagrees with resultant order {self.order}"
                )

    def __str__(self) -> str:
        text = f"order {order_value(self.order)}"
        if self.structure is not None:
            text += f"\nstructure {self.structure}"
        return text

    def to_json(self) -> dict:
        out: dict = {"d": self.d, "order": order_value(self.order)}
        if self.structure is not None:
            out["structure"] = {
                "free_rank": self.structure.free_rank,
                "torsion": list(self.structure.torsion),
            }
        return out
