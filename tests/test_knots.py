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
from helpers import random_knot_exprs


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
