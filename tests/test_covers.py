from math import gcd

import pytest

import rimtwist as rt
from rimtwist import INFINITE, AbelianInvariants
from helpers import FIGURE_EIGHT, SMALL_CORPUS, TREFOIL, TREFOIL_SUM


def test_branched_cover_order_examples():
    trefoil = rt.torus_alexander(2, 3)
    assert rt.branched_cover_order(trefoil, 2) == 3
    assert rt.branched_cover_order(trefoil, 6) is INFINITE
    fig8 = rt.alexander_of_knot(FIGURE_EIGHT)
    assert rt.branched_cover_order(fig8, 2) == 5
    assert fig8.evaluate(-1) in (5, -5)  # direct evaluation oracle
    with pytest.raises(ValueError):
        rt.branched_cover_order(trefoil, 0)


def test_branched_cover_order_large_d():
    trefoil = rt.torus_alexander(2, 3)
    orders = [rt.branched_cover_order(trefoil, d) for d in range(10**5, 10**5 + 6)]
    assert orders == [3, 1, INFINITE, 1, 3, 4]


def test_branched_cover_structure_examples():
    tre = rt.presentation_of_knot(TREFOIL)
    assert rt.branched_cover_structure(tre, 2) == AbelianInvariants(0, (3,))
    assert rt.branched_cover_structure(tre, 3) == AbelianInvariants(0, (2, 2))
    unknot = rt.presentation_of_knot(rt.Unknot())
    assert rt.branched_cover_structure(unknot, 5) == AbelianInvariants(0, ())
    with pytest.raises(ValueError):
        rt.branched_cover_structure(tre, 0)


def test_order_structure_agreement_over_corpus():
    # two independent algorithms (resultant vs companion-matrix SNF), one value
    for _, knot in SMALL_CORPUS:
        pres = rt.presentation_of_knot(knot)
        delta = rt.alexander_polynomial(pres)
        for d in range(1, 6):
            order = rt.branched_cover_order(delta, d)
            structure = rt.branched_cover_structure(pres, d)
            if order is INFINITE:
                assert structure.order() is None
            else:
                assert structure.order() == order, (rt.render(knot), d)


def test_infinite_homology_at_vanishing_resultant():
    tre = rt.presentation_of_knot(TREFOIL)
    delta = rt.alexander_polynomial(tre)
    assert rt.branched_cover_order(delta, 6) is INFINITE
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
            if oa is INFINITE or ob is INFINITE:
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
    square = rt.alexander_of_knot(TREFOIL_SUM)
    assert rt.unbranched_cover_is_homology_circle(square, 5) is True
    trefoil = rt.torus_alexander(2, 3)
    assert rt.unbranched_cover_is_homology_circle(trefoil, 2) is False
    one = rt.LaurentPoly.one()
    for d in (1, 2, 3, 7):
        assert rt.unbranched_cover_is_homology_circle(one, d) is True


def test_cover_homology_crosscheck():
    tre = rt.presentation_of_knot(TREFOIL)
    delta = rt.alexander_polynomial(tre)
    combined = rt.cover_homology(delta, tre, 3)
    assert combined.order == 4
    assert combined.structure == AbelianInvariants(0, (2, 2))
    # the constructor rejects mismatched routes
    with pytest.raises(ValueError):
        rt.CoverHomology(d=2, order=7, structure=AbelianInvariants(0, (3,)))


def test_infinite_singleton():
    assert rt.Infinite() is INFINITE
    assert repr(INFINITE) == "Infinite"
    assert INFINITE != 1
