import dataclasses
import random

import pytest

import rimtwist as rt
from rimtwist import LaurentPoly, fox_derivative, poly_text
from rimtwist.alexander import reduced_alexander_blocks
from rimtwist.wirtinger import drop_redundant_crossing_relators
from helpers import (
    COVER_POOL_KNOTS,
    FIGURE_EIGHT,
    ORACLE_EXTRA_KNOTS,
    SMALL_CORPUS,
    TREFOIL,
    TREFOIL_SUM,
    random_knot_braids,
    random_knot_exprs,
)


def _fox_oracle(word, gen):
    """Independent recursive expansion of the abelianized free derivative."""
    if len(word) == 0:
        return {}
    if len(word) == 1:
        x = word[0]
        if x == gen:
            return {0: 1}
        if x == -gen:
            return {-1: -1}
        return {}
    du = _fox_oracle(word[:1], gen)
    dv = _fox_oracle(word[1:], gen)
    shift = 1 if word[0] > 0 else -1
    out = dict(du)
    for e, c in dv.items():
        out[e + shift] = out.get(e + shift, 0) + c
    return {e: c for e, c in out.items() if c}


def _alexander_oracle(p):
    """The Fox blocks of ``p`` without its redundant crossing relators, unreduced."""
    blocks, _ = reduced_alexander_blocks(drop_redundant_crossing_relators(p))
    det = LaurentPoly.one()
    for block in blocks:
        det = det * rt.laurent_det(block)
    return det.normalize()


def _as_dict(p):
    return {p.min_exp + i: c for i, c in enumerate(p.coeffs) if c}


def test_fox_base_cases():
    assert fox_derivative((1,), 1) == LaurentPoly.one()
    assert fox_derivative((1,), 2) == LaurentPoly.zero()
    assert fox_derivative((-1,), 1) == LaurentPoly.t_power(-1, -1)
    assert fox_derivative((), 1) == LaurentPoly.zero()


def test_fox_commutator():
    # d(g1 g2 g1^-1 g2^-1)/d(g1) = 1 - t, hand recursion
    d = fox_derivative((1, 2, -1, -2), 1)
    assert _as_dict(d) == {0: 1, 1: -1}


def test_fox_product_rule_oracle():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 3)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 9)))
        for g in range(1, n + 1):
            assert _as_dict(fox_derivative(word, g)) == _fox_oracle(word, g)


def test_alexander_examples():
    assert poly_text(rt.alexander_polynomial(rt.presentation_of_knot(TREFOIL))) == "t^2 - t + 1"
    assert rt.alexander_polynomial(rt.presentation_of_knot(rt.Unknot())) == LaurentPoly.one()
    assert (
        poly_text(rt.alexander_polynomial(rt.presentation_of_knot(FIGURE_EIGHT)))
        == "t^2 - 3t + 1"
    )


def test_alexander_rejects_non_knot_presentation():
    cyclic = rt.GroupPresentation(("g1",), ((1, 1, 1),), 1)
    with pytest.raises(ValueError, match="abelianization|exponent"):
        rt.alexander_polynomial(cyclic)
    two_free = rt.GroupPresentation(("g1", "g2"), (), 1)
    with pytest.raises(ValueError, match="abelianization"):
        rt.alexander_polynomial(two_free)
    # a knot group of deficiency zero with no crossing relator left to drop
    # has no square blocks, and no row is guessed away
    t34 = rt.tietze_simplify(rt.presentation_of_knot(rt.parse_knot("T(3,4)")))
    with pytest.raises(ValueError, match="square Alexander blocks"):
        rt.alexander_polynomial(t34)


def test_torus_alexander_examples():
    assert poly_text(rt.torus_alexander(2, 3)) == "t^2 - t + 1"
    assert poly_text(rt.torus_alexander(2, 5)) == "t^4 - t^3 + t^2 - t + 1"
    with pytest.raises(rt.KnotSemanticError):
        rt.torus_alexander(2, 4)
    with pytest.raises(rt.KnotSemanticError):
        rt.torus_alexander(1, 5)


def test_torus_alexander_matches_fox_route():
    for p, q in [(2, 3), (2, 5), (3, 4)]:
        via_fox = rt.alexander_polynomial(rt.wirtinger_from_braid(rt.torus_braid(p, q)))
        assert via_fox == rt.torus_alexander(p, q)


def test_alexander_matrix_entries():
    # the trefoil's one block is its Fox matrix without the meridian column
    # and without the redundant (last) crossing relator row
    p = rt.presentation_of_knot(TREFOIL)
    assert (p.generator_count, len(p.relators), p.meridian) == (3, 3, 1)
    q = drop_redundant_crossing_relators(p)
    assert q.relators == p.relators[:2]
    blocks, free_cols = reduced_alexander_blocks(q)
    assert free_cols == 0
    assert blocks == [[[fox_derivative(r, j) for j in (2, 3)] for r in p.relators[:2]]]
    assert poly_text(rt.laurent_det(blocks[0]).normalize()) == "t^2 - t + 1"


def test_choice_independence_exhaustive_small_knots():
    # deleting any one crossing relator and taking any generator as the
    # meridian give the same polynomial up to units
    for knot in (TREFOIL, FIGURE_EIGHT, rt.parse_knot("T(2,5)")):
        p = rt.presentation_of_knot(knot)
        reference = rt.alexander_polynomial(p)
        for row in range(len(p.relators)):
            relators = p.relators[:row] + p.relators[row + 1 :]
            for col in range(1, p.generator_count + 1):
                q = rt.GroupPresentation(p.generators, relators, col)
                assert rt.alexander_polynomial(q).unit_equal(reference), (knot, row, col)


def test_connected_sum_blocks():
    # without Tietze moves the meridian-identification row, a lone unit,
    # stays in the second summand's block; with them each summand is 1 x 1
    p = rt.presentation_of_knot(TREFOIL_SUM)
    blocks, free_cols = reduced_alexander_blocks(drop_redundant_crossing_relators(p))
    assert free_cols == 0
    assert sorted(len(b) for b in blocks) == [2, 3]
    blocks, free_cols = reduced_alexander_blocks(p.reduced)
    assert free_cols == 0
    assert sorted(len(b) for b in blocks) == [1, 1]
    assert poly_text(rt.alexander_polynomial(p)) == "t^4 - 2t^3 + 3t^2 - 2t + 1"
    # blocks come in the order of their first rows: here one per summand,
    # the unknot's made of its meridian identification alone
    p = rt.presentation_of_knot(rt.parse_knot("T(2,3)#unknot#mirror(T(2,3))"))
    blocks, free_cols = reduced_alexander_blocks(drop_redundant_crossing_relators(p))
    assert free_cols == 0
    assert [len(b) for b in blocks] == [2, 1, 3]


def test_reduced_presentations_leave_no_zero_or_unit_row():
    # the blocks take every Fox row of the reduced presentation as it is;
    # a Tietze change that left a zero row or a lone unit would grow them
    knots = [k for _, k in SMALL_CORPUS] + [rt.parse_knot(s) for s in COVER_POOL_KNOTS + ORACLE_EXTRA_KNOTS]
    for knot in knots:
        p = rt.presentation_of_knot(knot)
        for meridian in range(1, min(p.generator_count, 6) + 1):
            q = dataclasses.replace(p, meridian=meridian).reduced
            for r in q.relators:
                row = [fox_derivative(r, j) for j in range(1, q.generator_count + 1) if j != q.meridian]
                support = [x for x in row if x]
                assert support, (rt.render(knot), meridian, r)
                units = ((1,), (-1,))
                assert len(support) > 1 or support[0].coeffs not in units, (rt.render(knot), meridian, r)


def test_no_free_columns_on_knot_groups():
    # H1 = Z leaves the Alexander module no free summand, so once the
    # knot-group check passes no generator column is left untouched
    knots = [k for _, k in SMALL_CORPUS] + random_knot_braids(17, 20) + random_knot_exprs(19, 20)
    for knot in knots:
        p = drop_redundant_crossing_relators(rt.presentation_of_knot(knot))
        for meridian in range(1, p.generator_count + 1):
            _, free_cols = reduced_alexander_blocks(dataclasses.replace(p, meridian=meridian))
            assert free_cols == 0, (rt.render(knot), meridian)


def test_meridian_choice_on_connected_sums():
    # a connected sum's meridian-identification relator is no crossing
    # relator: at other meridians it raised or gave 0 when the blocks shed
    # their last row in place of the redundant crossing relator
    sums = [
        "T(2,3)#unknot",
        "unknot#T(2,3)",
        "T(3,4)#mirror(T(3,4))",
        "T(2,5)#T(2,3)#mirror(T(2,5))",
        "braid(3; 1 -2 1 -2)#T(2,3)",
    ]
    knots = [k for _, k in SMALL_CORPUS] + [rt.parse_knot(s) for s in sums]
    for knot in knots + random_knot_exprs(11, 40):
        p = rt.presentation_of_knot(knot)
        reference = rt.alexander_polynomial(p)
        for meridian in range(2, p.generator_count + 1):
            q = dataclasses.replace(p, meridian=meridian)
            got = rt.alexander_polynomial(q)
            assert got.unit_equal(reference), (rt.render(knot), meridian)
            assert got == _alexander_oracle(q), (rt.render(knot), meridian)
    mixed = rt.presentation_of_knot(rt.parse_knot("mirror(mirror(T(2,5)))#unknot#braid(2; 1)"))
    for meridian in (2, 3, 4):
        got = rt.alexander_polynomial(dataclasses.replace(mixed, meridian=meridian))
        assert poly_text(got) == "t^4 - t^3 + t^2 - t + 1"


def test_alexander_matches_the_unreduced_route():
    # the Tietze-reduced presentation gives the polynomial of the Wirtinger
    # blocks, at every meridian of a connected sum
    knots = [k for _, k in SMALL_CORPUS] + [rt.parse_knot(s) for s in COVER_POOL_KNOTS + ORACLE_EXTRA_KNOTS]
    for knot in knots:
        p = rt.presentation_of_knot(knot)
        meridians = range(1, p.generator_count + 1) if isinstance(knot, rt.ConnectedSum) else (p.meridian,)
        for meridian in meridians:
            q = dataclasses.replace(p, meridian=meridian)
            assert rt.alexander_polynomial(q) == _alexander_oracle(q), (rt.render(knot), meridian)
    assert rt.alexander_of_knot(rt.parse_knot("T(11,13)")) == rt.torus_alexander(11, 13)


def test_alexander_at_one_is_unit():
    for knot in (TREFOIL, FIGURE_EIGHT, rt.parse_knot("T(3,4)"), TREFOIL_SUM):
        d = rt.alexander_polynomial(rt.presentation_of_knot(knot))
        assert d.evaluate(1) in (1, -1)


def test_alexander_of_knot_convenience():
    assert rt.alexander_of_knot(rt.parse_knot("T(2,5)")) == rt.torus_alexander(2, 5)
