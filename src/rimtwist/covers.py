"""Homology of d-fold cyclic covers of knot complements.

Two independent routes to the branched-cover homology: the order as a
resultant against t^d - 1 (the product of Alexander values over d-th
roots of unity), and the full group structure from the Alexander
matrix with t replaced by the companion matrix of 1 + t + ... + t^(d-1).
Using the size-(d-1) companion matrix, rather than t^d - 1, excludes
the free summand of the unbranched cover, so the result is exactly the
branched-cover torsion.

The order costs O(e^2 log d) for an Alexander polynomial of degree e,
plus an integer determinant of size at most 2e - 1, so d = 10^5 is
cheap.  The structure builds a dense ((d-1) n)-square relation matrix
for Alexander blocks of total size n, and its Smith normal form
dominates at large d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alexander import _check_knot_presentation, reduced_alexander_blocks
from .groups import AbelianInvariants, smith_invariants
from .laurent import LaurentPoly, resultant_with_cyclotomic
from .wirtinger import GroupPresentation


class Infinite:
    """Sentinel order for covers with positive first Betti number."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infinite"


INFINITE = Infinite()


def branched_cover_order(delta: LaurentPoly, d: int) -> int | Infinite:
    """|H1| of the d-fold branched cover from the Alexander polynomial.

    The absolute value of the resultant of t^d - 1 against delta; zero
    (a root of delta among d-th roots of unity) means the homology is
    infinite.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    r = resultant_with_cyclotomic(delta, d)
    return abs(r) if r != 0 else INFINITE


def _companion_powers(d: int) -> tuple[list[list[int]], list[list[int]]]:
    """Companion matrix of 1 + t + ... + t^(d-1) and its integer inverse."""
    e = d - 1
    c = [[0] * e for _ in range(e)]
    for j in range(e - 1):
        c[j + 1][j] = 1
    for i in range(e):
        c[i][e - 1] = -1
    cinv = [[0] * e for _ in range(e)]
    for j in range(1, e):
        cinv[j - 1][j] = 1
    for i in range(e):
        cinv[i][0] = -1
    return c, cinv


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for k in range(n):
            v = ai[k]
            if v:
                bk = b[k]
                oi = out[i]
                for j in range(n):
                    oi[j] += v * bk[j]
    return out


def _power(powers: dict[int, list[list[int]]], c, cinv, k: int) -> list[list[int]]:
    if k not in powers:
        step = 1 if k > 0 else -1
        base = k - step
        while base not in powers:
            base -= step
        mat = powers[base]
        while base != k:
            mat = _mat_mul(mat, c if step > 0 else cinv)
            base += step
            powers[base] = mat
    return powers[k]


def _substitute_companion(entry: LaurentPoly, powers: dict[int, list[list[int]]],
                          c: list[list[int]], cinv: list[list[int]], e: int) -> list[list[int]]:
    out = [[0] * e for _ in range(e)]
    for i, coeff in enumerate(entry.coeffs):
        if not coeff:
            continue
        pk = _power(powers, c, cinv, entry.min_exp + i)
        for r in range(e):
            for s in range(e):
                out[r][s] += coeff * pk[r][s]
    return out


def branched_cover_structure(p: GroupPresentation, d: int) -> AbelianInvariants:
    """H1 of the d-fold branched cover as an abelian group.

    Substitutes the size-(d-1) companion matrix for t in the square
    Alexander matrix of the presentation and takes the Smith normal
    form of the resulting integer relation matrix.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    _check_knot_presentation(p)
    e = d - 1
    blocks, free_columns = reduced_alexander_blocks(p)
    if e == 0:
        return AbelianInvariants(free_rank=0, torsion=())
    c, cinv = _companion_powers(d)
    powers: dict[int, list[list[int]]] = {0: [[1 if i == j else 0 for j in range(e)] for i in range(e)]}
    size = sum(len(b) for b in blocks) * e
    big = [[0] * size for _ in range(size)]
    offset = 0
    for block in blocks:
        bn = len(block)
        for bi in range(bn):
            for bj in range(bn):
                sub = _substitute_companion(block[bi][bj], powers, c, cinv, e)
                for r in range(e):
                    row = big[offset + bi * e + r]
                    for s in range(e):
                        row[offset + bj * e + s] = sub[r][s]
        offset += bn * e
    inv = smith_invariants(big, size)
    return AbelianInvariants(
        free_rank=size - len(inv) + free_columns * e,
        torsion=tuple(v for v in inv if v > 1),
    )


def unbranched_cover_is_homology_circle(delta: LaurentPoly, d: int) -> bool:
    """Whether the d-fold cyclic cover of the knot exterior has the homology of a circle.

    H1 of the unbranched cover splits as Z plus the branched-cover
    homology, so this is exactly "branched-cover order 1".
    """
    return branched_cover_order(delta, d) == 1


@dataclass(frozen=True)
class CoverHomology:
    """Branched-cover homology for one d: order plus optional group structure."""

    d: int
    order: int | Infinite
    structure: AbelianInvariants | None = None

    def __post_init__(self):
        if self.structure is not None:
            struct_order = self.structure.order()
            expected = None if self.order is INFINITE else self.order
            if struct_order != expected:
                raise ValueError(
                    f"structure order {struct_order} disagrees with resultant order {self.order}"
                )


def cover_homology(delta: LaurentPoly, p: GroupPresentation, d: int) -> CoverHomology:
    """Both routes at once, cross-checked: resultant order and SNF structure."""
    return CoverHomology(
        d=d,
        order=branched_cover_order(delta, d),
        structure=branched_cover_structure(p, d),
    )
