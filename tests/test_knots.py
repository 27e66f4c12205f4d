from math import gcd

import pytest

import rimtwist as rt
from rimtwist import (
    Braid,
    ConnectedSum,
    KnotSemanticError,
    KnotSyntaxError,
    Mirror,
    TorusKnot,
    Unknot,
    parse_knot,
    render,
)
from helpers import FIGURE_EIGHT_PD, TREFOIL_PD, random_knot_exprs


def test_parse_torus_knot():
    assert parse_knot("T(2,3)") == TorusKnot(2, 3)
    assert parse_knot(" T( 2 , 3 ) ") == TorusKnot(2, 3)


def test_parse_connected_sum_left_associative():
    e = parse_knot("T(2,3)#mirror(T(2,3))")
    assert e == ConnectedSum(TorusKnot(2, 3), Mirror(TorusKnot(2, 3)))
    e3 = parse_knot("unknot#T(2,3)#T(2,5)")
    assert e3 == ConnectedSum(ConnectedSum(Unknot(), TorusKnot(2, 3)), TorusKnot(2, 5))


def test_parse_braid_and_pd():
    assert parse_knot("braid(3; 1 -2 1 -2)") == Braid(3, (1, -2, 1, -2))
    assert parse_knot("braid(1; )") == Braid(1, ())
    pd = parse_knot("pd((1,4,2,5),(3,6,4,1),(5,2,6,3))")
    assert isinstance(pd, rt.PD)
    assert pd.crossings[0] == (1, 4, 2, 5)


def test_torus_normalizes_to_unknot():
    assert parse_knot("T(1,5)") == Unknot()
    assert parse_knot("T(7,1)") == Unknot()


def test_torus_knot_is_canonical():
    assert TorusKnot(3, 2) == TorusKnot(2, 3)
    assert (TorusKnot(7, 4).p, TorusKnot(7, 4).q) == (4, 7)
    assert parse_knot("T(3,2)") == TorusKnot(2, 3)
    assert render(TorusKnot(3, 2)) == "T(2,3)"
    for p, q in ((1, 5), (5, 1), (0, 3), (-2, 3)):
        with pytest.raises(KnotSemanticError):
            TorusKnot(p, q)
    with pytest.raises(KnotSemanticError, match="gcd=3"):
        TorusKnot(6, 3)


def test_torus_errors_name_the_knot_as_typed():
    with pytest.raises(KnotSemanticError, match=r"^T\(2,-3\) needs both parameters"):
        TorusKnot(2, -3)
    with pytest.raises(KnotSemanticError, match=r"^T\(4,2\) is not a knot \(gcd=2\)"):
        parse_knot("T(4,2)")


def test_parse_rejects_links():
    with pytest.raises(KnotSemanticError, match="gcd=2"):
        parse_knot("T(2,4)")
    with pytest.raises(KnotSemanticError, match="component"):
        parse_knot("braid(2; 1 1)")  # Hopf link
    with pytest.raises(KnotSemanticError, match="component"):
        parse_knot("braid(2; )")  # two-strand unlink


def test_parse_syntax_errors_carry_offsets():
    with pytest.raises(KnotSyntaxError) as exc:
        parse_knot("T(2,3)!")
    assert exc.value.offset == 6
    with pytest.raises(KnotSyntaxError):
        parse_knot("torus(2,3)")
    with pytest.raises(KnotSyntaxError):
        parse_knot("T(2 3)")
    with pytest.raises(KnotSyntaxError):
        parse_knot("")


def test_pd_label_validation():
    with pytest.raises(KnotSemanticError, match="exactly twice"):
        rt.PD(((1, 2, 3, 4), (1, 2, 3, 5)))
    with pytest.raises(KnotSemanticError):
        rt.PD(((0, 1, 2, 3),))


def test_pd_passage_rule():
    # labels and orientation hold, but edge 1 enters both crossings (under
    # at the first, over at the second) and edge 2 enters none
    with pytest.raises(KnotSemanticError, match="PD edge 1 enters two crossings"):
        rt.PD(((1, 3, 2, 4), (3, 1, 4, 2)))
    with pytest.raises(KnotSemanticError, match="enters two crossings"):
        parse_knot("pd((1,3,2,4),(3,1,4,2))")


def test_pd_planarity():
    # the virtual trefoil: a non-planar Gauss code (Kauffman, "Virtual knot
    # theory", 1999) whose crossings glue into 2 faces, not 4
    with pytest.raises(KnotSemanticError, match=r"not planar \(a virtual code\): 2 faces"):
        rt.PD(((3, 1, 4, 2), (4, 2, 1, 3)))
    with pytest.raises(KnotSemanticError, match="not planar"):
        parse_knot("mirror(pd((3,1,4,2),(4,2,1,3)))")
    # the planar codes and their mirrors pass: TREFOIL_PD has 5 faces, FIGURE_EIGHT_PD 6
    for code in (TREFOIL_PD, FIGURE_EIGHT_PD):
        assert rt.mirror_pd(rt.mirror_pd(code)) == code
    # every one-crossing code is a kink of the unknot; the empty code is the unknot
    for code in ((1, 1, 2, 2), (2, 2, 1, 1), (1, 2, 2, 1), (2, 1, 1, 2)):
        p = rt.wirtinger_from_pd(rt.PD((code,)))
        assert rt.abelianization(p) == rt.AbelianInvariants(1, ())
    assert rt.PD(()).crossings == ()


def test_pd_over_strand():
    assert [TREFOIL_PD.over_strand(c) for c in TREFOIL_PD.crossings] == [
        (4, 5, -1), (6, 1, -1), (2, 3, -1)
    ]
    # on one crossing b and d follow each other; the over-strand enters at the one that is not a
    assert rt.PD(((1, 2, 2, 1),)).over_strand((1, 2, 2, 1)) == (2, 1, -1)
    assert rt.PD(((1, 1, 2, 2),)).over_strand((1, 1, 2, 2)) == (2, 1, 1)


def test_braid_letter_validation():
    with pytest.raises(KnotSemanticError):
        Braid(2, (2,))
    with pytest.raises(KnotSemanticError):
        Braid(3, (0,))
    with pytest.raises(KnotSemanticError):
        Braid(0, ())


def test_torus_braid_examples():
    assert rt.torus_braid(2, 3) == Braid(2, (1, 1, 1))
    assert rt.torus_braid(3, 4) == Braid(3, (1, 2, 1, 2, 1, 2, 1, 2))
    assert rt.torus_braid(2, 5) == Braid(2, (1, 1, 1, 1, 1))
    with pytest.raises(KnotSemanticError):
        rt.torus_braid(1, 5)
    with pytest.raises(KnotSemanticError):
        rt.torus_braid(4, 6)


def test_torus_braid_closure_single_component():
    for p in range(2, 10):
        for q in range(p + 1, 10):
            if gcd(p, q) == 1:
                b = rt.torus_braid(p, q)
                assert rt.braid_closure_components(b.strands, b.word) == 1


def test_mirror_braid():
    assert rt.mirror_braid(Braid(2, (1, 1, 1))) == Braid(2, (-1, -1, -1))
    assert rt.mirror_braid(Braid(3, (1, -2))) == Braid(3, (-1, 2))
    assert rt.mirror_braid(Braid(1, ())) == Braid(1, ())  # empty word fixed


def test_mirror_braid_involution():
    for b in (Braid(2, (1, 1, 1)), Braid(3, (1, -2, 1, -2)), Braid(4, (3, -1, 2))):
        assert rt.mirror_braid(rt.mirror_braid(b)) == b


def test_mirror_pd_preserves_validity():
    pd = rt.PD(((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)))
    m = rt.mirror_pd(pd)
    assert m.crossings[0] == (1, 5, 2, 4)
    assert rt.mirror_pd(m) == pd


def test_parse_render_roundtrip():
    for expr in random_knot_exprs(seed=99, count=150):
        assert parse_knot(render(expr)) == expr


def test_render_examples():
    assert render(parse_knot("T(2,3)#mirror(T(2,3))")) == "T(2,3)#mirror(T(2,3))"
    assert render(Braid(3, (1, -2))) == "braid(3; 1 -2)"
    assert render(Unknot()) == "unknot"
