"""Homology of d-fold cyclic branched covers of knots.

Two independent routes to the branched-cover homology.  The order is
the resultant of the Alexander polynomial against t^d - 1 (the product
of its values over the d-th roots of unity); it costs O(e^2 log d) for
a polynomial of degree e, plus an integer determinant of size at most
2e - 1, so d = 10^5 is cheap.  The group structure is H1 of
pi1(Sigma_d), the kernel of G/<<mu^d>> -> Z/d for a meridian mu:
Reidemeister-Schreier on the d cosets of the reduced knot presentation
(``groups.kernel_h1``) and one Smith normal form of the rewritten,
sparse relators.  The two routes share only the presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .alexander import require_knot_group
from .groups import DEFAULT_COSET_BUDGET, AbelianInvariants, kernel_h1, reduced_knot_presentation
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


def branched_cover_structure(p: GroupPresentation, d: int) -> AbelianInvariants:
    """H1 of the d-fold branched cover as an abelian group.

    ``p.meridian`` must be a meridian of the knot, as it is in every
    presentation this package builds.  Reduces ``p`` (redundant crossing
    relators dropped, then Tietze moves), appends mu^d for the meridian
    mu, and returns H1 of the kernel of that group onto Z/d with every
    generator sent to 1: pi1 of the d-fold branched cover, whose
    meridian lifts to mu^d.

    Raises ValueError for d < 1, for d above ``DEFAULT_COSET_BUDGET``,
    the largest coset table that any default-budget computation builds
    (the d-coset table here has no other bound), and for a presentation
    that is not a knot group's (``require_knot_group``).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > DEFAULT_COSET_BUDGET:
        raise ValueError(f"d must be <= {DEFAULT_COSET_BUDGET} for the structure")
    q = reduced_knot_presentation(p)
    require_knot_group(q)
    closed = replace(q, relators=q.relators + ((q.meridian,) * d,))
    return kernel_h1(closed, d)[0]


@dataclass(frozen=True)
class CoverHomology:
    """Branched-cover homology for one d: order plus optional group structure.

    A structure given with the order must agree with it, so the resultant
    and the Reidemeister-Schreier route check each other.
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
