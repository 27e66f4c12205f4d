"""Fox free differential calculus and Alexander polynomials.

The free derivative of a relator word is abelianized on the fly
(every generator maps to t), rows of derivatives form the Alexander
matrix, built once by ``reduced_alexander_blocks``, and the polynomial
is the determinant of its square reduction, computed by fraction-free
elimination over Z[t, t^-1].  The matrix is taken on
``groups.reduced_knot_presentation``, the presentation that the pi1
verdict and the cover structure read too: Tietze moves shrink the
Wirtinger presentation of a braid closure to about one generator per
strand, so T(4,9) gives one 4 x 4 block where its Wirtinger
presentation gives 26 x 26.
"""

from __future__ import annotations

from math import gcd

from .groups import abelianization, reduced_knot_presentation
from .knots import KnotExpr, KnotSemanticError
from .laurent import LaurentPoly, laurent_det
from .wirtinger import GroupPresentation, presentation_of_knot
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
    column per generator) without the meridian column, then repeatedly
    strips rows whose single nonzero entry is a unit together with their
    column (the generator they kill), drops freely-trivial rows, and
    splits what is left into column-connected components.  A
    deficiency-one presentation of a knot group has a nonsingular square
    matrix, so each component is a square block presenting a factor's
    Alexander module; any other shape raises ValueError.

    Returns ``(blocks, free_columns)`` where ``free_columns`` counts
    generators no surviving relator touches.  It is always 0: H1 = Z
    makes t - 1 invertible on the Alexander module, so the module has no
    free summand.
    """
    require_knot_group(p)
    kept_cols = [j for j in range(1, p.generator_count + 1) if j != p.meridian]
    rows = [[fox_derivative(r, j) for j in kept_cols] for r in p.relators]

    live_cols = list(range(len(kept_cols)))
    # strip unit-singleton rows (and zero rows) until stable
    changed = True
    while changed:
        changed = False
        next_rows = []
        kill_col: int | None = None
        for row in rows:
            support = [c for c in live_cols if row[c]]
            if not support:
                changed = True
                continue
            if len(support) == 1 and row[support[0]].is_unit() and kill_col is None:
                kill_col = support[0]
                changed = True
                continue
            next_rows.append(row)
        rows = next_rows
        if kill_col is not None:
            live_cols.remove(kill_col)

    # split by column-connected components
    parent = {c: c for c in live_cols}

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    row_support = []
    for row in rows:
        support = [c for c in live_cols if row[c]]
        row_support.append(support)
        root = find(support[0])
        for c in support[1:]:
            parent[find(c)] = root

    comp_cols: dict[int, list[int]] = {}
    for c in live_cols:
        comp_cols.setdefault(find(c), []).append(c)
    comp_rows: dict[int, list[int]] = {root: [] for root in comp_cols}
    for i, support in enumerate(row_support):
        comp_rows[find(support[0])].append(i)

    free_columns = sum(1 for root, cols in comp_cols.items() if not comp_rows[root])
    blocks: list[list[list[LaurentPoly]]] = []
    for root in sorted(comp_cols):
        cols = sorted(comp_cols[root])
        ridx = comp_rows[root]
        if not ridx:
            continue
        if len(ridx) != len(cols):
            raise ValueError(
                "presentation does not reduce to square Alexander blocks "
                f"({len(ridx)} relators against {len(cols)} generators)"
            )
        blocks.append([[rows[i][c] for c in cols] for i in ridx])
    return blocks, free_columns


def alexander_polynomial(p: GroupPresentation) -> LaurentPoly:
    """Alexander polynomial of a knot-group presentation, normalized.

    The product of the determinants of the reduced Alexander blocks, which
    delete the meridian's column, of ``reduced_knot_presentation(p)``:
    ``p`` without the redundant crossing relator of each diagram, then
    Tietze-simplified.  Both steps keep the group and the meridian, so
    the polynomial is that of the blocks of ``p`` itself.
    """
    blocks, _ = reduced_alexander_blocks(reduced_knot_presentation(p))
    det = LaurentPoly.one()
    for block in blocks:
        det = det * laurent_det(block)
        if not det:
            break
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
