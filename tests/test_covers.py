import dataclasses
import random
from math import gcd

import pytest

import rimtwist as rt
from rimtwist import AbelianInvariants, LaurentPoly
from rimtwist.alexander import reduced_alexander_blocks
from rimtwist.groups import _homology
from rimtwist.wirtinger import drop_redundant_crossing_relators
from helpers import FIGURE_EIGHT, SMALL_CORPUS, TREFOIL, TREFOIL_SUM, random_knot_braids, random_knot_exprs


# -- reference oracle: substitute the companion matrix of 1 + t + ... + t^(d-1)


def _companion_powers(d):
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


def _mat_mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                for j in range(n):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def _power(powers, c, cinv, k):
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


def _substitute_companion(entry, d, powers):
    """entry(C) for the companion matrix C, with C^k from a shared power cache."""
    e = d - 1
    c, cinv = _companion_powers(d)
    out = [[0] * e for _ in range(e)]
    for i, coeff in enumerate(entry.coeffs):
        pk = _power(powers, c, cinv, entry.min_exp + i)
        for r in range(e):
            for s in range(e):
                out[r][s] += coeff * pk[r][s]
    return out


# -- reference oracle: Fox calculus over Z[t]/(1 + t + ... + t^(d-1)), one dense matrix


def _cover_block(entry, d):
    """Matrix of multiplication by ``entry`` on Z[t]/(1 + t + ... + t^(d-1)).

    Column j holds t^j * entry in the basis 1, t, ..., t^(d-2): with the
    coefficients a of entry folded modulo t^d - 1, t^j * entry has
    a_((k-j) mod d) - a_((d-1-j) mod d) at t^k, since t^(d-1) reduces to
    -(1 + t + ... + t^(d-2)).
    """
    a = [0] * d
    for i, coeff in enumerate(entry.coeffs):
        a[(entry.min_exp + i) % d] += coeff
    e = d - 1
    last = [a[(e - j) % d] for j in range(e)]
    return [[a[(k - j) % d] - last[j] for j in range(e)] for k in range(e)]


def _dense_structure(p, d):
    """Branched-cover H1 from one ((d-1) n)-square matrix over all the reduced blocks.

    Each entry of the reduced Alexander blocks becomes its ``_cover_block``;
    quotienting by 1 + t + ... + t^(d-1) rather than t^d - 1 excludes the
    free summand of the unbranched cover.  The blocks come from the
    Wirtinger presentation without its redundant crossing relators, with
    no Tietze move.
    """
    e = d - 1
    blocks, free_columns = reduced_alexander_blocks(drop_redundant_crossing_relators(p))
    if e == 0:
        return AbelianInvariants(0, ())
    size = sum(len(b) for b in blocks) * e
    big = [[0] * size for _ in range(size)]
    offset = 0
    for block in blocks:
        bn = len(block)
        for bi in range(bn):
            for bj in range(bn):
                if block[bi][bj]:
                    col = offset + bj * e
                    for r, sub_row in enumerate(_cover_block(block[bi][bj], d)):
                        big[offset + bi * e + r][col : col + e] = sub_row
        offset += bn * e
    h1 = _homology([{j: v for j, v in enumerate(row) if v} for row in big], size)[0]
    return AbelianInvariants(h1.free_rank + free_columns * e, h1.torsion)


# the knots of the benchmark's --structure inputs
STRUCTURE_POOL = [
    rt.parse_knot(text)
    for text in (
        "T(2,3)",
        "mirror(T(2,3))",
        "braid(3; 1 -2 1 -2)",
        "T(2,5)",
        "mirror(T(2,5))",
        "T(2,3)#T(2,3)",
        "T(2,3)#mirror(T(2,3))",
        "mirror(T(2,3))#mirror(T(2,3))",
        "braid(3; 1 -2 1 -2)#T(2,3)",
        "braid(3; 1 -2 1 -2)#mirror(T(2,3))",
    )
]


def _oracle_knots():
    knots = {rt.render(k): k for k in [k for _, k in SMALL_CORPUS] + STRUCTURE_POOL}
    knots.update((rt.render(k), k) for k in random_knot_braids(3, 12))
    return list(knots.values())


def test_structure_matches_dense_oracle():
    for knot in _oracle_knots():
        p = rt.presentation_of_knot(knot)
        for d in range(2, 25):
            assert rt.branched_cover_structure(p, d) == _dense_structure(p, d), (rt.render(knot), d)


def test_structure_is_the_same_at_every_meridian():
    # H1 of the branched cover is a knot invariant, so every meridian choice
    # must give the oracle's group at the presentation's own meridian
    knots = _oracle_knots() + random_knot_exprs(11, 20)
    knots.append(rt.parse_knot("T(2,3)#T(2,5)#braid(3; 1 -2 1 -2)"))
    for knot in knots:
        p = rt.presentation_of_knot(knot)
        for d in (2, 3, 5, 6, 8):
            expected = _dense_structure(p, d)
            for meridian in range(1, p.generator_count + 1):
                q = dataclasses.replace(p, meridian=meridian)
                assert rt.branched_cover_structure(q, d) == expected, (rt.render(knot), meridian, d)


def test_structure_drops_crossing_relators_before_tietze():
    # Tietze first would eliminate g1 through the meridian identification,
    # leaving a block with one row more than columns and no crossing
    # relator left to drop
    p = dataclasses.replace(rt.presentation_of_knot(rt.parse_knot("braid(3; 1 -2 1 -2)#T(2,3)")), meridian=2)
    with pytest.raises(ValueError, match="square Alexander blocks"):
        _dense_structure(rt.tietze_simplify(p), 6)
    assert rt.branched_cover_structure(p, 6) == AbelianInvariants(2, (8, 40))


def test_structure_of_presentations_not_of_deficiency_one():
    # the second relator is a consequence of the first, but not a crossing
    # relator; the trefoil group is still presented, and so is its cover
    braid_rel = (1, 2, 1, -2, -1, -2)
    p = rt.GroupPresentation(("a", "b"), (braid_rel, braid_rel * 2))
    assert rt.branched_cover_structure(p, 2) == AbelianInvariants(0, (3,))
    assert rt.branched_cover_structure(dataclasses.replace(p, relators=(braid_rel,)), 2) == AbelianInvariants(0, (3,))


def test_structure_merges_invariant_factors():
    # the summands of a connected sum's cover come out in divisibility order
    def structure(text, d):
        return rt.branched_cover_structure(rt.presentation_of_knot(rt.parse_knot(text)), d)

    assert structure("T(2,3)#T(2,5)", 2) == AbelianInvariants(0, (15,))
    assert structure("braid(3; 1 -2 1 -2)#T(2,3)", 10) == AbelianInvariants(0, (55, 825))
    assert structure("braid(3; 1 -2 1 -2)#T(2,3)", 14) == AbelianInvariants(0, (377, 5655))


def test_structure_at_large_d():
    # d cosets of a reduced presentation on 7 and on 2 generators; the dense
    # oracle's matrix would be 6,000- and 20,000-square
    t57 = rt.presentation_of_knot(rt.parse_knot("T(5,7)"))
    assert rt.branched_cover_structure(t57, 1000) == AbelianInvariants(0, (7, 7, 7, 7))
    tre = rt.presentation_of_knot(TREFOIL)
    assert rt.branched_cover_structure(tre, 20000) == AbelianInvariants(0, (3,))


def test_cover_block_matches_companion_substitution():
    rng = random.Random(59)
    for d in range(2, 41):
        e = d - 1
        powers = {0: [[int(i == j) for j in range(e)] for i in range(e)]}
        entries = [LaurentPoly.zero(), LaurentPoly.t_power(-1), LaurentPoly.t_power(d, 3)]
        for _ in range(6):
            # exponents from below -d to beyond d, zeros inside
            lo = rng.randint(-2 * d, d)
            coeffs = [rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(rng.randint(1, 2 * d))]
            entries.append(LaurentPoly(lo, coeffs))
        for entry in entries:
            assert _cover_block(entry, d) == _substitute_companion(entry, d, powers), (entry, d)


def test_cover_block_matches_companion_substitution_on_t57():
    p = drop_redundant_crossing_relators(rt.presentation_of_knot(rt.parse_knot("T(5,7)")))
    blocks, _ = reduced_alexander_blocks(p)
    entries = {entry for block in blocks for row in block for entry in row}
    assert not all(entries)
    for d in (2, 7, 24):
        e = d - 1
        powers = {0: [[int(i == j) for j in range(e)] for i in range(e)]}
        for entry in entries:
            assert _cover_block(entry, d) == _substitute_companion(entry, d, powers), (entry, d)


def test_branched_cover_order_examples():
    trefoil = rt.torus_alexander(2, 3)
    assert rt.branched_cover_order(trefoil, 2) == 3
    assert rt.branched_cover_order(trefoil, 6) is None
    fig8 = rt.alexander_of_knot(FIGURE_EIGHT)
    assert rt.branched_cover_order(fig8, 2) == 5
    assert fig8.evaluate(-1) in (5, -5)  # direct evaluation oracle
    with pytest.raises(ValueError):
        rt.branched_cover_order(trefoil, 0)


def test_branched_cover_order_large_d():
    trefoil = rt.torus_alexander(2, 3)
    orders = [rt.branched_cover_order(trefoil, d) for d in range(10**5, 10**5 + 6)]
    assert orders == [3, 1, None, 1, 3, 4]


def test_branched_cover_order_at_large_alexander_degree():
    # for d prime to p, |H1(Sigma_d(T(p,q)))| = p^(gcd(d,q) - 1); the order is
    # multiplicative over connected sums and blind to mirrors.  Delta has
    # degree e = 240 here, past what the Sylvester oracle can take in time.
    delta = rt.alexander_of_knot(rt.parse_knot("T(11,13)#mirror(T(11,13))"))
    assert delta.normalize().max_exp == 240
    assert rt.branched_cover_order(delta, 1300) == 11**24 == 9849732675807611094711841
    assert rt.branched_cover_order(delta, 100_000) == 1


def test_branched_cover_structure_examples():
    tre = rt.presentation_of_knot(TREFOIL)
    assert rt.branched_cover_structure(tre, 2) == AbelianInvariants(0, (3,))
    assert rt.branched_cover_structure(tre, 3) == AbelianInvariants(0, (2, 2))
    unknot = rt.presentation_of_knot(rt.Unknot())
    assert rt.branched_cover_structure(unknot, 5) == AbelianInvariants(0, ())
    with pytest.raises(ValueError):
        rt.branched_cover_structure(tre, 0)


def test_order_structure_agreement_over_corpus():
    # two independent algorithms (resultant vs Reidemeister-Schreier and SNF), one value
    for _, knot in SMALL_CORPUS:
        pres = rt.presentation_of_knot(knot)
        delta = rt.alexander_polynomial(pres)
        for d in range(1, 6):
            order = rt.branched_cover_order(delta, d)
            structure = rt.branched_cover_structure(pres, d)
            assert structure.order() == order, (rt.render(knot), d)


def test_infinite_homology_at_vanishing_resultant():
    tre = rt.presentation_of_knot(TREFOIL)
    delta = rt.alexander_polynomial(tre)
    assert rt.branched_cover_order(delta, 6) is None
    structure = rt.branched_cover_structure(tre, 6)
    assert structure.free_rank > 0
    assert structure.order() is None


def test_d1_is_trivial():
    for _, knot in SMALL_CORPUS:
        pres = rt.presentation_of_knot(knot)
        delta = rt.alexander_polynomial(pres)
        assert rt.branched_cover_order(delta, 1) == 1
        assert rt.branched_cover_structure(pres, 1) == AbelianInvariants(0, ())


def test_mirror_invariance_of_order():
    for knot in (TREFOIL, FIGURE_EIGHT, rt.parse_knot("T(2,5)")):
        delta = rt.alexander_of_knot(knot)
        mirrored = rt.alexander_of_knot(rt.Mirror(knot))
        for d in range(1, 6):
            assert rt.branched_cover_order(delta, d) == rt.branched_cover_order(mirrored, d)


def test_multiplicativity_of_order():
    pairs = [(TREFOIL, FIGURE_EIGHT), (TREFOIL, rt.parse_knot("T(2,5)"))]
    for a, b in pairs:
        da, db = rt.alexander_of_knot(a), rt.alexander_of_knot(b)
        ds = rt.alexander_of_knot(rt.ConnectedSum(a, b))
        for d in range(1, 6):
            oa, ob = rt.branched_cover_order(da, d), rt.branched_cover_order(db, d)
            os = rt.branched_cover_order(ds, d)
            if oa is None or ob is None:
                continue
            assert os == oa * ob


def test_torus_knot_homology_sphere_law():
    # pairwise coprime (p, q, d) gives an integral homology sphere
    for p in range(2, 12):
        for q in range(p + 1, 12):
            if gcd(p, q) != 1:
                continue
            delta = rt.torus_alexander(p, q)
            for d in range(1, 12):
                if gcd(d, p) == 1 and gcd(d, q) == 1:
                    assert rt.branched_cover_order(delta, d) == 1, (p, q, d)


def test_homology_circle_examples():
    # the unbranched cover is a homology circle exactly when the branched order is 1
    square = rt.alexander_of_knot(TREFOIL_SUM)
    assert rt.branched_cover_order(square, 5) == 1
    trefoil = rt.torus_alexander(2, 3)
    assert rt.branched_cover_order(trefoil, 2) == 3
    one = rt.LaurentPoly.one()
    for d in (1, 2, 3, 7):
        assert rt.branched_cover_order(one, d) == 1


def test_cover_homology_crosscheck():
    tre = rt.presentation_of_knot(TREFOIL)
    delta = rt.alexander_polynomial(tre)
    combined = rt.CoverHomology(
        d=3,
        order=rt.branched_cover_order(delta, 3),
        structure=rt.branched_cover_structure(tre, 3),
    )
    assert combined.order == 4
    assert combined.structure == AbelianInvariants(0, (2, 2))
    assert str(combined) == "order 4\nstructure Z/2 ⊕ Z/2"
    assert combined.to_json() == {"d": 3, "order": 4, "structure": {"free_rank": 0, "torsion": [2, 2]}}
    infinite = rt.CoverHomology(d=6, order=None, structure=rt.branched_cover_structure(tre, 6))
    assert str(infinite) == "order infinite\nstructure Z ⊕ Z"
    assert rt.CoverHomology(d=6, order=None).to_json() == {"d": 6, "order": "infinite"}
    # the constructor rejects mismatched routes
    with pytest.raises(ValueError):
        rt.CoverHomology(d=2, order=7, structure=AbelianInvariants(0, (3,)))
