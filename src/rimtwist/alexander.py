"""Fox free differential calculus and Alexander polynomials.

The free derivative of a relator word is abelianized on the fly
(every generator maps to t).  ``reduced_alexander_blocks`` lays the
derivatives out as the Alexander matrix without the meridian column and
splits it into square column-connected blocks with the union-find of
``wirtinger._components``, and the polynomial is
the product of their determinants, each by fraction-free elimination
over Z[t, t^-1].  The matrix is taken on
``GroupPresentation.reduced``, the presentation that the pi1
verdict and the cover structure read too: Tietze moves shrink the
Wirtinger presentation of a braid closure to about one generator per
strand, so T(4,9) gives one 4 x 4 block where its Wirtinger
presentation gives 26 x 26, and they leave no zero row and no row that
is a lone unit to strip first.
"""

from __future__ import annotations

from math import gcd

from .groups import abelianization
from .knots import KnotExpr, KnotSemanticError
from .laurent import LaurentPoly, laurent_det
from .wirtinger import GroupPresentation, _components, presentation_of_knot
from .words import Word, total_exponent


def fox_derivative(w: Word, gen: int) -> LaurentPoly:
    """Abelianized free derivative d(w)/d(gen) with every generator sent to t.

    Computed by one pass over the word: d(uv) = du + ab(u) dv with
    d(g) = 1 and d(g^-1) = -t^-1.
    """
    if gen <= 0:
        raise ValueError("generator index must be positive")
    acc: dict[int, int] = {}
    exp = 0
    for x in w:
        if x > 0:
            if x == gen:
                acc[exp] = acc.get(exp, 0) + 1
            exp += 1
        else:
            exp -= 1
            if -x == gen:
                acc[exp] = acc.get(exp, 0) - 1
    if not acc:
        return LaurentPoly.zero()
    lo = min(acc)
    hi = max(acc)
    return LaurentPoly(lo, [acc.get(k, 0) for k in range(lo, hi + 1)])


def require_knot_group(p: GroupPresentation) -> None:
    """Raise ValueError unless ``p`` abelianizes like a knot group.

    Every relator must have total exponent sum zero and the
    abelianization must be Z, so sending every generator to 1 in Z is
    the abelianization map.
    """
    for r in p.relators:
        if total_exponent(r) != 0:
            raise ValueError(
                "not a knot-group presentation: relator with nonzero total exponent"
            )
    ab = abelianization(p)
    if ab.free_rank != 1 or ab.torsion:
        raise ValueError(
            f"not a knot-group presentation: abelianization is not Z (got {ab})"
        )


def reduced_alexander_blocks(
    p: GroupPresentation,
) -> tuple[list[list[list[LaurentPoly]]], int]:
    """Square blocks presenting the Alexander module of a knot-group presentation.

    Raises ValueError unless ``require_knot_group`` accepts the
    presentation, so g_i -> t is the abelianization onto Z.

    Builds the Fox matrix of the presentation (one row per relator, one
    column per generator) without the meridian column and splits its
    nonzero rows into column-connected components with
    ``wirtinger._components``, the package's one union-find.  The
    reduced presentation of a knot group has deficiency one, so each
    component is a square block presenting a factor's Alexander module;
    any other shape raises ValueError.  A lone unit in a row, as in a
    connected sum's meridian identification before Tietze moves, stays
    in its block: Laplace expansion along that row changes the
    determinant only by a unit, which ``normalize`` removes.

    Returns ``(blocks, free_columns)`` where ``free_columns`` counts
    the columns outside every block, the generators no relator touches.
    It is always 0: H1 = Z makes t - 1 invertible on the Alexander
    module, so the module has no free summand.  The count stays in the
    return value while ``perfbench/tracing.py`` reads the blocks as its
    first item.
    """
    require_knot_group(p)
    cols = [j for j in range(1, p.generator_count + 1) if j != p.meridian]
    rows = [[fox_derivative(r, j) for j in cols] for r in p.relators]
    supports = [[c for c, x in enumerate(row) if x] for row in rows]
    blocks: list[list[list[LaurentPoly]]] = []
    for block_rows, block_cols in _components(len(cols), supports):
        if len(block_rows) != len(block_cols):
            raise ValueError(
                "presentation does not reduce to square Alexander blocks "
                f"({len(block_rows)} relators against {len(block_cols)} generators)"
            )
        blocks.append([[rows[i][c] for c in block_cols] for i in block_rows])
    # each block is square, so its row count is its column count
    return blocks, len(cols) - sum(map(len, blocks))


def alexander_polynomial(p: GroupPresentation) -> LaurentPoly:
    """Alexander polynomial of a knot-group presentation, normalized.

    The product of the determinants of the reduced Alexander blocks, which
    delete the meridian's column, of ``p.reduced``:
    ``p`` without the redundant crossing relator of each diagram, then
    Tietze-simplified.  Both steps keep the group and the meridian, so
    the polynomial is that of the blocks of ``p`` itself.
    """
    blocks, _ = reduced_alexander_blocks(p.reduced)
    det = LaurentPoly.one()
    for block in blocks:
        det = det * laurent_det(block)
    return det.normalize()


def alexander_of_knot(expr: KnotExpr) -> LaurentPoly:
    """Alexander polynomial of a knot expression via its Wirtinger presentation."""
    return alexander_polynomial(presentation_of_knot(expr))


def torus_alexander(p: int, q: int) -> LaurentPoly:
    """Closed form for torus knots: (1-t)(1-t^pq) / ((1-t^p)(1-t^q)), exactly divided."""
    if p < 2 or q < 2:
        raise KnotSemanticError("torus_alexander requires p, q >= 2")
    if gcd(p, q) != 1:
        raise KnotSemanticError(f"T({p},{q}) is not a knot (gcd={gcd(p, q)})")
    one = LaurentPoly.one()
    num = (one - LaurentPoly.t_power(1)) * (one - LaurentPoly.t_power(p * q))
    den = (one - LaurentPoly.t_power(p)) * (one - LaurentPoly.t_power(q))
    return (num // den).normalize()
