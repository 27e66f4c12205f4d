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
reduces to -(1 + t + ... + t^(d-2)).  For Alexander blocks of total
size n the relation matrix is dense and ((d-1) n)-square, and its Smith
normal form dominates at large d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alexander import reduced_alexander_blocks
from .groups import AbelianInvariants, smith_invariants
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


def branched_cover_structure(p: GroupPresentation, d: int) -> AbelianInvariants:
    """H1 of the d-fold branched cover as an abelian group.

    Replaces each entry f of the square Alexander matrix of the
    presentation by its (d-1)-square multiplication block on
    Z[t]/(1 + t + ... + t^(d-1)), whose entry in row k and column j is
    a_((k-j) mod d) - a_((d-1-j) mod d) for the coefficients a of f
    folded modulo t^d - 1, and takes the Smith normal form of the
    resulting integer relation matrix.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    e = d - 1
    blocks, free_columns = reduced_alexander_blocks(p)
    if e == 0:
        return AbelianInvariants(free_rank=0, torsion=())
    size = sum(len(b) for b in blocks) * e
    big = [[0] * size for _ in range(size)]
    offset = 0
    for block in blocks:
        bn = len(block)
        for bi in range(bn):
            for bj in range(bn):
                if not block[bi][bj]:
                    continue  # big starts at zero
                col = offset + bj * e
                for r, sub_row in enumerate(_cover_block(block[bi][bj], d)):
                    big[offset + bi * e + r][col : col + e] = sub_row
        offset += bn * e
    inv = smith_invariants(big, size)
    return AbelianInvariants(
        free_rank=size - len(inv) + free_columns * e,
        torsion=tuple(v for v in inv if v > 1),
    )


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
