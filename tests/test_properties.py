"""Seeded randomized property suites cutting across modules."""

import dataclasses
import random

import rimtwist as rt
from helpers import random_knot_braids


def test_alexander_unit_at_one():
    for b in random_knot_braids(seed=101, count=60):
        d = rt.alexander_polynomial(rt.wirtinger_from_braid(b))
        assert d.evaluate(1) in (1, -1), b


def test_alexander_symmetry():
    for b in random_knot_braids(seed=103, count=60):
        d = rt.alexander_polynomial(rt.wirtinger_from_braid(b))
        assert d.unit_equal(d.reverse()), b


def test_mirror_reverses_alexander():
    for b in random_knot_braids(seed=107, count=60):
        d = rt.alexander_polynomial(rt.wirtinger_from_braid(b))
        dm = rt.alexander_polynomial(rt.wirtinger_from_braid(rt.mirror_braid(b)))
        assert dm.unit_equal(d.reverse()), b


def test_connected_sum_multiplicativity():
    braids = random_knot_braids(seed=109, count=40)
    for a, b in zip(braids[0::2], braids[1::2]):
        pa = rt.wirtinger_from_braid(a)
        pb = rt.wirtinger_from_braid(b)
        ds = rt.alexander_polynomial(rt.presentation_connected_sum(pa, pb))
        prod = (rt.alexander_polynomial(pa) * rt.alexander_polynomial(pb)).normalize()
        assert ds.unit_equal(prod), (a, b)


def test_meridian_choice_independence():
    rng = random.Random(113)
    for b in random_knot_braids(seed=113, count=60):
        p = rt.wirtinger_from_braid(b)
        d = rt.alexander_polynomial(p)
        col = rng.randint(1, p.generator_count)
        assert rt.alexander_polynomial(dataclasses.replace(p, meridian=col)).unit_equal(d), (b, col)


def test_mirror_invariant_branched_order():
    for b in random_knot_braids(seed=127, count=25, max_len=6):
        d = rt.alexander_polynomial(rt.wirtinger_from_braid(b))
        dm = rt.alexander_polynomial(rt.wirtinger_from_braid(rt.mirror_braid(b)))
        for dd in (2, 3, 4):
            assert rt.branched_cover_order(d, dd) == rt.branched_cover_order(dm, dd)


def test_order_structure_agreement_random():
    for b in random_knot_braids(seed=131, count=15, max_len=6):
        p = rt.wirtinger_from_braid(b)
        delta = rt.alexander_polynomial(p)
        for dd in range(1, 5):
            order = rt.branched_cover_order(delta, dd)
            structure = rt.branched_cover_structure(p, dd)
            assert structure.order() == order, (b, dd)


def test_tietze_preserves_invariants_random():
    for b in random_knot_braids(seed=137, count=25, max_len=6):
        p = rt.wirtinger_from_braid(b)
        s = rt.tietze_simplify(p)
        assert rt.abelianization(s) == rt.abelianization(p)
        assert rt.alexander_polynomial(s).unit_equal(rt.alexander_polynomial(p)), b
