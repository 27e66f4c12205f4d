import json
import pathlib

import pytest

import rimtwist as rt
from rimtwist import GroupPresentation
from helpers import (
    FIGURE_EIGHT,
    FIGURE_EIGHT_PD,
    TREFOIL_PD,
    TREFOIL_SUM,
    braid_pd,
    random_knot_braids,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_trefoil_braid_presentation_shape():
    p = rt.wirtinger_from_braid(rt.torus_braid(2, 3))
    assert p.generator_count == 3
    assert len(p.relators) == 3
    assert p.meridian == 1
    for r in p.relators:
        assert len(r) == 4
        assert r[0] == -r[2]  # conjugation shape x y x^-1 z^-1
    # the simplification oracle: two generators, one relator of length six
    simp = rt.tietze_simplify(p)
    assert simp.generator_count == 2
    assert len(simp.relators) == 1
    assert len(simp.relators[0]) == 6


def test_unknot_braids():
    p = rt.wirtinger_from_braid(rt.Braid(1, ()))
    assert p.generator_count == 1 and p.relators == ()
    one_crossing = rt.wirtinger_from_braid(rt.Braid(2, (1,)))
    assert one_crossing.generator_count == 1
    assert rt.abelianization(one_crossing) == rt.AbelianInvariants(1, ())
    assert rt.alexander_polynomial(one_crossing) == rt.LaurentPoly.one()


def test_braid_closure_knots_abelianize_to_Z():
    from rimtwist.wirtinger import _is_crossing_relator

    for b in random_knot_braids(seed=5, count=40):
        p = rt.wirtinger_from_braid(b)
        assert len(p.relators) == len(b.word)
        assert all(_is_crossing_relator(r) for r in p.relators)
        assert rt.abelianization(p) == rt.AbelianInvariants(1, ())


def test_pd_presentations():
    p = rt.wirtinger_from_pd(TREFOIL_PD)
    assert p.generator_count == 3 and len(p.relators) == 3
    assert rt.abelianization(p) == rt.AbelianInvariants(1, ())
    # agreement with the braid route, by Alexander polynomial
    from_braid = rt.alexander_polynomial(rt.wirtinger_from_braid(rt.torus_braid(2, 3)))
    assert rt.alexander_polynomial(p).unit_equal(from_braid)

    p8 = rt.wirtinger_from_pd(FIGURE_EIGHT_PD)
    assert p8.generator_count == 4
    assert rt.poly_text(rt.alexander_polynomial(p8)) == "t^2 - 3t + 1"

    empty = rt.wirtinger_from_pd(rt.PD(()))
    assert empty.generator_count == 1 and empty.relators == ()


def test_pd_codes_of_braid_closures():
    # every closure's PD code is valid, and its Wirtinger presentation has the
    # braid route's Alexander polynomial, crossing count and crossing signs
    for b in random_knot_braids(seed=17, count=200, max_len=10, max_strands=5):
        code = braid_pd(b)
        p, q = rt.wirtinger_from_pd(code), rt.wirtinger_from_braid(b)
        assert rt.alexander_polynomial(p).unit_equal(rt.alexander_polynomial(q)), (b, code)
        assert sorted(r[0] > 0 for r in p.relators) == sorted(r[0] > 0 for r in q.relators)
    trefoil = braid_pd(rt.Braid(2, (1, 1, 1)))
    assert trefoil == rt.PD(((6, 4, 1, 3), (4, 2, 5, 1), (2, 6, 3, 5)))
    # the same relators as the braid route, in another order
    assert set(rt.wirtinger_from_pd(trefoil).relators) == set(
        rt.wirtinger_from_braid(rt.Braid(2, (1, 1, 1))).relators
    )


def test_pd_rejects_inconsistent_orientation():
    # Hopf-link-like code: labels appear twice but are not sequential
    with pytest.raises(rt.KnotSemanticError, match="orientation|component"):
        rt.wirtinger_from_pd(rt.PD(((1, 3, 2, 4), (2, 4, 1, 3))))
    with pytest.raises(rt.KnotSemanticError, match="1..2n"):
        rt.wirtinger_from_pd(rt.PD(((1, 7, 2, 8), (2, 8, 1, 7))))


def test_connected_sum_unknot_is_identity():
    tre = rt.wirtinger_from_braid(rt.torus_braid(2, 3))
    unk = rt.presentation_of_knot(rt.Unknot())
    s = rt.presentation_connected_sum(unk, tre)
    assert rt.alexander_polynomial(s).unit_equal(rt.alexander_polynomial(tre))
    s2 = rt.presentation_connected_sum(tre, unk)
    assert rt.alexander_polynomial(s2).unit_equal(rt.alexander_polynomial(tre))


def test_connected_sum_trefoils():
    tre = rt.wirtinger_from_braid(rt.torus_braid(2, 3))
    phi6 = rt.alexander_polynomial(tre)
    square = (phi6 * phi6).normalize()

    s = rt.presentation_connected_sum(tre, tre)
    assert s.generator_count == 6
    assert len(s.relators) == 7
    assert s.meridian == tre.meridian
    assert rt.alexander_polynomial(s) == square

    mirror_tre = rt.wirtinger_from_braid(rt.mirror_braid(rt.torus_braid(2, 3)))
    sm = rt.presentation_connected_sum(tre, mirror_tre)
    assert rt.alexander_polynomial(sm) == square


def test_wirtinger_redundant_relator():
    # deleting any single crossing relator presents the same group, checked
    # through the finite quotients by the squared meridian
    samples = [
        rt.wirtinger_from_braid(rt.torus_braid(2, 3)),
        rt.wirtinger_from_braid(rt.Braid(3, (1, -2, 1, -2))),
        rt.wirtinger_from_braid(rt.torus_braid(2, 5)),
    ]
    for p in samples:
        full = GroupPresentation(
            p.generators, p.relators + ((p.meridian, p.meridian),), p.meridian
        )
        reference = rt.todd_coxeter(full).order
        assert reference is not None
        for i in range(len(p.relators)):
            relators = tuple(r for j, r in enumerate(p.relators) if j != i)
            dropped = GroupPresentation(
                p.generators, relators + ((p.meridian, p.meridian),), p.meridian
            )
            assert rt.todd_coxeter(dropped).order == reference


def test_presentation_json_roundtrip():
    p = rt.wirtinger_from_braid(rt.torus_braid(2, 3))
    obj = p.to_json()
    assert set(obj) == {"generators", "relators", "meridian"}
    assert GroupPresentation.from_json(json.loads(json.dumps(obj))) == p


def test_presentation_golden_file():
    p = rt.wirtinger_from_braid(rt.torus_braid(2, 3))
    golden = json.loads((GOLDEN / "trefoil_braid_presentation.json").read_text())
    assert p.to_json() == golden


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation(("g1",), ((2,),), 1)
    with pytest.raises(ValueError):
        GroupPresentation(("g1", "g2"), (), 3)


def test_mirror_expr_pushdown():
    e = rt.parse_knot("mirror(T(2,3)#mirror(braid(2; 1 1 1)))")
    by_hand = rt.ConnectedSum(rt.Braid(2, (-1, -1, -1)), rt.Braid(2, (1, 1, 1)))
    assert rt.presentation_of_knot(e) == rt.presentation_of_knot(by_hand)


def test_reduced_keeps_relators_that_are_not_redundant():
    # two crossing-shaped relators on two generators that present Z, yet no
    # generator but b is an outgoing arc, so neither relator is redundant
    p = GroupPresentation(("a", "b"), ((1, 2, -1, -2), (1, 1, -1, -2)))
    assert p.reduced == GroupPresentation(("a",), ())
    assert rt.alexander_polynomial(p) == rt.LaurentPoly.one()
    assert rt.branched_cover_structure(p, 3) == rt.AbelianInvariants(0, ())
    verdict = rt.surgery.determine_pi1(p, 3, 3, 10_000)[0]
    assert (verdict.kind, verdict.order) == ("cyclic", 3)
    unknot = rt.presentation_of_knot(rt.Unknot())
    assert verdict == rt.surgery.determine_pi1(unknot, 3, 3, 10_000)[0]


def test_drop_redundant_crossing_relators():
    from rimtwist.wirtinger import drop_redundant_crossing_relators

    # two diagrams lose their last crossing relator; the meridian identification stays
    p = rt.presentation_of_knot(TREFOIL_SUM)
    q = drop_redundant_crossing_relators(p)
    assert q.relators == p.relators[:2] + p.relators[3:5] + p.relators[6:]
    assert (q.generators, q.meridian) == (p.generators, p.meridian)
    # with one relator per diagram gone, no diagram has a redundant one left
    assert drop_redundant_crossing_relators(q) == q

    # the unknot's generator is in no crossing relator, so it joins no diagram
    p = rt.presentation_of_knot(rt.parse_knot("T(2,3)#unknot#mirror(T(2,3))"))
    q = drop_redundant_crossing_relators(p)
    assert len(p.relators) == 8
    assert q.relators == p.relators[:2] + p.relators[3:6] + p.relators[7:]
    # a one-crossing diagram loses its only relator
    p = rt.presentation_of_knot(rt.parse_knot("braid(2; 1)#T(2,3)"))
    q = drop_redundant_crossing_relators(p)
    assert len(p.relators) == 5
    assert q.relators == p.relators[1:3] + p.relators[4:]
