"""Fox free differential calculus and Alexander polynomials.

The free derivatives of a relator word are abelianized on the fly
(every generator maps to t), all of them in one walk over the word.
``reduced_alexander_blocks`` lays them out as the Alexander matrix
without the meridian column and splits it into square column-connected
blocks with the union-find of ``wirtinger._components``, and the
polynomial is the product of their determinants, each one integer
determinant by Kronecker substitution (``laurent.laurent_det``).  The
same blocks certify that the presentation is a knot group's: with every
exponent sum 0, no column outside the blocks and +-1 at t = 1 make
H1 = Z, so no abelianization is computed.  The matrix is taken on
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


def _fox_row(w: Word) -> dict[int, LaurentPoly]:
    """Abelianized free derivatives of ``w`` by every generator it contains.

    One pass over the word, every generator sent to t: d(uv) = du +
    ab(u) dv with d(g) = 1 and d(g^-1) = -t^-1.  The pass records each
    letter's term and the exponent range; the terms then fill one
    coefficient list per generator.  A derivative whose terms cancel is
    the zero polynomial.
    """
    terms = []
    exp = lo = hi = 0
    for x in w:
        if x > 0:
            terms.append((x, exp, 1))
            exp += 1
            if exp > hi:
                hi = exp
        else:
            exp -= 1
            if exp < lo:
                lo = exp
            terms.append((-x, exp, -1))
    coeffs: dict[int, list[int]] = {}
    for gen, e, sign in terms:
        row = coeffs.get(gen)
        if row is None:
            row = coeffs[gen] = [0] * (hi - lo + 1)
        row[e - lo] += sign
    return {gen: LaurentPoly(lo, row) for gen, row in coeffs.items()}


def fox_derivative(w: Word, gen: int) -> LaurentPoly:
    """Abelianized free derivative d(w)/d(gen) with every generator sent to t."""
    if gen <= 0:
        raise ValueError("generator index must be positive")
    return _fox_row(w).get(gen, LaurentPoly.zero())


def _require_zero_exponent_sums(p: GroupPresentation) -> None:
    for r in p.relators:
        if total_exponent(r) != 0:
            raise ValueError(
                "not a knot-group presentation: relator with nonzero total exponent"
            )


def require_knot_group(p: GroupPresentation) -> None:
    """Raise ValueError unless ``p`` abelianizes like a knot group.

    Every relator must have total exponent sum zero and the
    abelianization must be Z, so sending every generator to 1 in Z is
    the abelianization map.  ``alexander_polynomial`` reads the same
    fact off its Fox matrix instead.
    """
    _require_zero_exponent_sums(p)
    ab = abelianization(p)
    if ab.free_rank != 1 or ab.torsion:
        raise ValueError(
            f"not a knot-group presentation: abelianization is not Z (got {ab})"
        )


def reduced_alexander_blocks(
    p: GroupPresentation,
) -> tuple[list[list[list[LaurentPoly]]], int]:
    """Square blocks presenting the Alexander module of a presentation.

    Raises ValueError unless every relator has total exponent sum 0, so
    g_i -> t is a map onto Z.  Builds the Fox matrix of the presentation
    (one row per relator, one column per generator, each relator walked
    once) without the meridian column and splits its nonzero rows into
    column-connected components with ``wirtinger._components``, the
    package's one union-find.  The reduced presentation of a knot group
    has deficiency one, so each component is a square block presenting a
    factor's Alexander module; any other shape raises ValueError, after
    ``require_knot_group`` has had the chance to name a group that is
    not a knot group's.  A lone unit in a row, as in a connected sum's
    meridian identification before Tietze moves, stays in its block:
    Laplace expansion along that row changes the determinant only by a
    unit, which ``normalize`` removes.

    Returns ``(blocks, free_columns)`` where ``free_columns`` counts
    the columns outside every block, those whose Fox entries are all 0.
    Both make up the knot-group certificate of ``alexander_polynomial``.
    With every exponent sum 0, the basis g_i g_m^-1 (i != m) and g_m of
    the free abelian group on the generators, m the meridian, shows
    H1 = Z + coker A(1), where A(1) is the Fox matrix without the
    meridian column at t = 1.  Its columns split into the blocks and the
    free columns, so coker A(1) is Z^free_columns plus the cokernels of
    the blocks at 1, and a square block's cokernel is trivial exactly
    when its determinant is +-1.  So H1 = Z if and only if
    ``free_columns`` is 0 and the product of the blocks' determinants is
    +-1 at t = 1.
    """
    _require_zero_exponent_sums(p)
    cols = [j for j in range(1, p.generator_count + 1) if j != p.meridian]
    index = {j: c for c, j in enumerate(cols)}
    rows = [_fox_row(r) for r in p.relators]
    supports = [[index[j] for j, x in row.items() if x and j != p.meridian] for row in rows]
    zero = LaurentPoly.zero()
    blocks: list[list[list[LaurentPoly]]] = []
    for block_rows, block_cols in _components(len(cols), supports):
        if len(block_rows) != len(block_cols):
            require_knot_group(p)
            raise ValueError(
                "presentation does not reduce to square Alexander blocks "
                f"({len(block_rows)} relators against {len(block_cols)} generators)"
            )
        blocks.append([[rows[i].get(cols[c], zero) for c in block_cols] for i in block_rows])
    # each block is square, so its row count is its column count
    return blocks, len(cols) - sum(map(len, blocks))


def alexander_polynomial(p: GroupPresentation) -> LaurentPoly:
    """Alexander polynomial of a knot-group presentation, normalized.

    The product of the determinants of the reduced Alexander blocks, which
    delete the meridian's column, of ``p.reduced``:
    ``p`` without the redundant crossing relator of each diagram, then
    Tietze-simplified.  Both steps keep the group and the meridian, so
    the polynomial is that of the blocks of ``p`` itself.

    Raises ValueError unless ``p`` presents a group with H1 = Z in which
    every relator has exponent sum 0, read off the blocks as
    ``reduced_alexander_blocks`` shows: no free column and +-1 at t = 1.
    """
    blocks, free_columns = reduced_alexander_blocks(p.reduced)
    det = LaurentPoly.one()
    for block in blocks:
        det = det * laurent_det(block)
    if free_columns or det.evaluate(1) not in (1, -1):
        raise ValueError("not a knot-group presentation: abelianization is not Z")
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
