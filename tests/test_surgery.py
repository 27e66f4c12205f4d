import inspect
import json
import pathlib
import tracemalloc
from collections import Counter
from math import gcd

import pytest

import rimtwist as rt
from rimtwist import GroupPresentation, Pi1Verdict, SurgeryParams, congruent_pm1
from rimtwist.groups import (
    cover_tower,
    kernel_h1,
    low_index_actions,
    shift_action,
)
from rimtwist.surgery import determine_pi1
from rimtwist.words import power
from helpers import FIGURE_EIGHT, SMALL_CORPUS, TREFOIL, TREFOIL_SUM

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_params_validation():
    with pytest.raises(ValueError):
        SurgeryParams(d=0, m=1)
    with pytest.raises(ValueError, match="open cases"):
        SurgeryParams(d=2, m=3, cp2=True)
    p = SurgeryParams(d=5, m=4, cp2=True)
    assert p.sw_nontrivial  # the degree-d curve hypothesis implies it
    assert SurgeryParams(d=3, m=0).m == 0


def test_congruence_semantics():
    assert congruent_pm1(5, 4) and congruent_pm1(3, 4) and congruent_pm1(7, 8)
    assert not congruent_pm1(5, 7) and not congruent_pm1(3, 7)
    assert congruent_pm1(17, 1) and congruent_pm1(4, 1)  # m = 1 always
    assert congruent_pm1(3, 2) and not congruent_pm1(4, 2)  # m = 2 means d odd
    assert congruent_pm1(5, -4) and not congruent_pm1(5, -7)  # |m| is used
    assert congruent_pm1(1, 0) and not congruent_pm1(2, 0)  # m = 0 edge case
    assert congruent_pm1(1, 5)  # d = 1 always passes for m >= 1


def test_twist_rim_presentation_unknot():
    unknot = rt.presentation_of_knot(rt.Unknot())
    for d, m in [(1, 0), (3, 2), (7, 5)]:
        p = rt.twist_rim_presentation(unknot, d, m)
        assert p.generator_count == 1
        assert rt.todd_coxeter(p).order == d


def test_twist_rim_presentation_shape():
    tre = rt.presentation_of_knot(TREFOIL)
    p = rt.twist_rim_presentation(tre, 5, 4)
    assert len(p.relators) == len(tre.relators) + tre.generator_count
    assert p.relators[len(tre.relators)] == (1, 1, 1, 1, 1)
    # conjugation relator: g_j^-1 mu^-m g_j mu^m
    assert p.relators[-1] == (-3, -1, -1, -1, -1, 3, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        rt.twist_rim_presentation(GroupPresentation((), (), 1), 2, 2)


def test_twist_rim_presentation_reduces_m_mod_d():
    # given mu^d, mu^m = mu^(m mod d): the same group, shorter relators
    tre = rt.presentation_of_knot(TREFOIL)
    assert rt.twist_rim_presentation(tre, 5, 9) == rt.twist_rim_presentation(tre, 5, 4)
    assert rt.twist_rim_presentation(tre, 5, -1) == rt.twist_rim_presentation(tre, 5, 4)
    # and no twist relator at all when d divides m
    untwisted = rt.twist_rim_presentation(tre, 5, 10)
    assert untwisted.relators == tre.relators + ((1,) * 5,)
    assert untwisted == rt.twist_rim_presentation(tre, 5, 0)


def _full_twist_presentation(p, d, m):
    """The twist-rim group with the twist relators g^-1 mu^-m g mu^m written out in full."""
    mu = p.meridian
    relators = list(p.relators) + [power(mu, d)]
    for j in range(1, p.generator_count + 1):
        if j != mu:
            relators.append((-j,) + power(mu, -m) + (j,) + power(mu, m))
    return GroupPresentation(p.generators, tuple(relators), mu)


def test_twist_rim_presentation_matches_the_full_twist_relators():
    # the m mod d relators give the same group as the full-m ones, for m
    # at least d and for negative m, on finite groups of several orders
    cases = [
        (TREFOIL, 3, 3, 24), (TREFOIL, 3, -6, 24), (TREFOIL, 4, 8, 96), (TREFOIL, 4, -2, 12),
        (TREFOIL, 5, 10, 600), (TREFOIL, 5, -5, 600), (FIGURE_EIGHT, 4, 6, 20), (FIGURE_EIGHT, 4, -6, 20),
        (FIGURE_EIGHT, 5, -1, 5), (rt.parse_knot("T(2,5)"), 3, -3, 360), (rt.parse_knot("T(2,5)"), 3, 9, 360),
    ]
    for knot, d, m, order in cases:
        p = rt.presentation_of_knot(knot)
        full = rt.todd_coxeter(_full_twist_presentation(p, d, m), 20000)
        reduced = rt.todd_coxeter(rt.twist_rim_presentation(p, d, m), 20000)
        assert full.order == reduced.order == order, (rt.render(knot), d, m)


def test_twist_rim_orders():
    tre = rt.presentation_of_knot(TREFOIL)
    assert rt.todd_coxeter(rt.twist_rim_presentation(tre, 2, 2)).order == 6
    cyclic5 = Pi1Verdict("cyclic", 5, "coset-enumeration")
    assert rt.cyclic_verdict(rt.twist_rim_presentation(tre, 5, 4), 5) == cyclic5
    fig8 = rt.presentation_of_knot(FIGURE_EIGHT)
    cyclic3 = Pi1Verdict("cyclic", 3, "coset-enumeration")
    assert rt.cyclic_verdict(rt.twist_rim_presentation(fig8, 3, 2), 3) == cyclic3


def test_classical_rim_surgery_m0():
    # m = 0 keeps only the meridian power: for d = 1 everything collapses
    tre = rt.presentation_of_knot(TREFOIL)
    assert rt.todd_coxeter(rt.twist_rim_presentation(tre, 1, 0)).order == 1
    # for d = 2 the quotient is the knot group modulo the squared meridian
    assert rt.todd_coxeter(rt.twist_rim_presentation(tre, 2, 0)).order == 6


def test_congruence_sweep_matches_enumeration():
    # wherever d = +/-1 mod m, the enumerated order equals d
    corpus = [TREFOIL, FIGURE_EIGHT, rt.parse_knot("T(2,5)")]
    for knot in corpus:
        pres = rt.presentation_of_knot(knot)
        for d in range(2, 8):
            for m in range(2, 9):
                if not congruent_pm1(d, m):
                    continue
                p = rt.twist_rim_presentation(pres, d, m)
                assert rt.cyclic_verdict(p, d) == Pi1Verdict(
                    "cyclic", d, "coset-enumeration"
                ), (rt.render(knot), d, m)


def test_ribbon_certificate():
    assert rt.ribbon_certificate(TREFOIL_SUM) == "certified"
    assert rt.ribbon_certificate(TREFOIL) == "unknown"
    assert rt.ribbon_certificate(rt.Unknot()) == "certified"
    # reassociation and mirror pushdown
    nested = rt.parse_knot("T(2,3)#T(2,5)#mirror(T(2,5)#T(2,3))")
    assert rt.ribbon_certificate(nested) == "certified"
    assert rt.ribbon_certificate(rt.parse_knot("T(2,3)#T(2,3)")) == "unknown"
    assert rt.ribbon_certificate(rt.parse_knot("mirror(mirror(unknot))")) == "certified"
    double = rt.parse_knot("mirror(mirror(T(2,3)))#mirror(T(2,3))")
    assert rt.ribbon_certificate(double) == "certified"
    # T(3,2) is T(2,3), so the summands pair off
    assert rt.ribbon_certificate(rt.parse_knot("T(2,3)#mirror(T(3,2))")) == "certified"
    assert rt.ribbon_certificate(rt.parse_knot("T(5,2)#mirror(T(2,5))")) == "certified"


def test_classify_flagship_example():
    report = rt.classify(TREFOIL_SUM, SurgeryParams(d=5, m=4, cp2=True))
    assert rt.poly_text(report.alexander) == "t^4 - 2t^3 + 3t^2 - 2t + 1"
    assert report.pi1.kind == "cyclic" and report.pi1.order == 5
    assert report.smoothly_knotted == "yes"
    assert report.topologically_standard == "yes"
    assert report.cp2_genus == 6
    assert report.branched_order == 1
    assert report.pi1_obstruction is False


def test_classify_unknot():
    report = rt.classify(rt.Unknot(), SurgeryParams(d=3, m=2))
    assert report.alexander == rt.LaurentPoly.one()
    assert report.pi1.kind == "cyclic" and report.pi1.order == 3
    assert report.smoothly_knotted == "no-evidence"
    assert report.topologically_standard == "yes"


def test_classify_pi1_obstruction():
    report = rt.classify(TREFOIL, SurgeryParams(d=2, m=2))
    assert report.pi1.kind == "finite" and report.pi1.order == 6
    assert report.pi1_obstruction is True
    assert report.topologically_standard == "no"
    assert report.topologically_standard_failed == "pi1-obstruction"


def test_classify_failure_reasons():
    # each unmet condition of the topological-standardness test is named
    report = rt.classify(TREFOIL, SurgeryParams(d=5, m=4))
    assert (report.topologically_standard, report.topologically_standard_failed) == (
        "unknown", "ribbon-certificate"
    )
    report = rt.classify(TREFOIL_SUM, SurgeryParams(d=3, m=4))
    assert report.branched_order == 16
    assert (report.topologically_standard, report.topologically_standard_failed) == (
        "unknown", "homology-circle"
    )
    report = rt.classify(TREFOIL_SUM, SurgeryParams(d=5, m=7), budget=1000)
    assert report.pi1 == Pi1Verdict("cyclic", 5, "coset-enumeration")
    assert (report.topologically_standard, report.topologically_standard_failed) == (
        "unknown", "congruence"
    )


def test_classify_smith_obstruction_without_enumeration():
    # d = 2, m even, nontrivial Alexander polynomial: obstructed even when
    # the coset budget is too small to finish
    report = rt.classify(TREFOIL, SurgeryParams(d=2, m=2), budget=3)
    assert report.pi1.kind == "undetermined"
    assert report.pi1_obstruction is True
    assert report.topologically_standard == "no"


def test_classify_budget_exhaustion_is_undetermined():
    # congruence fails and the budget is too small: no fabricated verdict
    report = rt.classify(FIGURE_EIGHT, SurgeryParams(d=3, m=3), budget=3)
    assert report.pi1.kind == "undetermined"
    assert report.topologically_standard in ("unknown", "no")


def test_classify_never_yes_with_obstruction():
    for knot in (TREFOIL, FIGURE_EIGHT, TREFOIL_SUM):
        for d in (2, 3, 5):
            for m in (0, 2, 3, 4):
                report = rt.classify(knot, SurgeryParams(d=d, m=m), budget=20000)
                if report.topologically_standard == "yes":
                    assert report.pi1_obstruction is False


def test_classify_deterministic():
    a = rt.classify(TREFOIL_SUM, SurgeryParams(d=5, m=4, cp2=True))
    b = rt.classify(TREFOIL_SUM, SurgeryParams(d=5, m=4, cp2=True))
    assert a == b
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_report_json_schema():
    report = rt.classify(TREFOIL_SUM, SurgeryParams(d=5, m=4, cp2=True))
    obj = report.to_json()
    assert set(obj) == {
        "knot", "d", "m", "alexander", "pi1", "smoothly_knotted",
        "topologically_standard", "branched_cover", "cp2",
    }
    assert obj["pi1"] == {"kind": "cyclic", "order": 5, "certificate": "congruence"}
    assert obj["branched_cover"] == {"order": 1}
    assert obj["cp2"] == {"degree": 5, "genus": 6}
    assert obj["topologically_standard"] == {"verdict": "yes"}

    plain = rt.classify(TREFOIL, SurgeryParams(d=6, m=6), budget=2000).to_json()
    assert "cp2" not in plain
    assert plain["branched_cover"] == {"order": "infinite"}


def test_enumerate_examples_rows():
    reports = list(rt.enumerate_examples(3, 5, 7, 8))
    rows = {
        (r.knot.left.p, r.knot.left.q, r.params.d, r.params.m) for r in reports
    }
    assert (2, 3, 5, 4) in rows
    for r in reports:
        assert r.smoothly_knotted == "yes"
        assert r.topologically_standard == "yes"
        assert r.branched_order == 1
        assert congruent_pm1(r.params.d, r.params.m)
        assert r.alexander != rt.LaurentPoly.one()
        assert rt.ribbon_certificate(r.knot) == "certified"
        p, q, d = r.knot.left.p, r.knot.left.q, r.params.d
        assert gcd(p, q) == 1 and gcd(d, p) == 1 and gcd(d, q) == 1


def test_enumerate_examples_deterministic_order():
    a = list(rt.enumerate_examples(3, 5, 7, 8))
    b = list(rt.enumerate_examples(3, 5, 7, 8))
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    keys = [(r.knot.left.p, r.knot.left.q, r.params.d, r.params.m) for r in a]
    assert keys == sorted(keys)


def test_enumerate_examples_streams():
    # a generator: the first row arrives before the sweep is classified
    rows = rt.enumerate_examples(4, 9, 30, 31)
    assert inspect.isgenerator(rows)
    first = next(rows)
    assert first == next(rt.enumerate_examples(2, 3, 5, 4))
    assert (rt.render(first.knot), first.params.d, first.params.m) == (
        "T(2,3)#mirror(T(2,3))", 5, 2
    )


def test_enumerate_examples_rows_equal_classify():
    # the one-row route is the oracle for the sweep, which shares work across rows
    reports = list(rt.enumerate_examples(4, 7, 11, 12))
    assert len(reports) == 144
    for r in reports:
        alone = rt.classify(r.knot, r.params)
        assert r == alone
        assert r.to_json() == alone.to_json()


def test_enumerate_examples_builds_once_per_knot_and_cover(monkeypatch):
    import rimtwist.surgery as surgery
    import rimtwist.wirtinger as wirtinger

    calls = Counter()

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(surgery, "presentation_of_knot")
    spy(wirtinger, "tietze_simplify")
    spy(surgery, "branched_cover_order")
    spy(surgery, "alexander_polynomial")
    reports = list(rt.enumerate_examples(4, 7, 11, 12))
    covers = {(r.knot.left.p, r.knot.left.q, r.params.d) for r in reports}
    assert (len(reports), len(covers)) == (144, 33)
    assert calls == Counter(
        presentation_of_knot=8,
        tietze_simplify=8,
        branched_cover_order=33,
        alexander_polynomial=144,  # Δ is still computed per row
    )


@pytest.mark.parametrize(
    "kind, certificate, proven",
    [
        ("cyclic", "congruence", False),
        ("cyclic", "coset-enumeration", False),
        ("finite", "coset-enumeration", True),
        ("undetermined", "infinite-cover-homology", True),
        ("undetermined", "infinite-subgroup-homology", True),
        ("undetermined", "kernel-homology", True),
        ("undetermined", "abelianization-mismatch", True),
        ("undetermined", "budget-exhausted", False),
    ],
)
def test_pi1_verdict_proves_not_cyclic(kind, certificate, proven):
    order = {"cyclic": 5, "finite": 24}.get(kind)
    assert Pi1Verdict(kind, order, certificate).proves_not_cyclic is proven


def test_determine_pi1_rejects_bad_budget():
    tre = rt.presentation_of_knot(TREFOIL)
    assert determine_pi1(tre, 5, 4, 1) == (
        Pi1Verdict("cyclic", 5, "congruence"), False
    )
    for budget in (0, -7):
        with pytest.raises(ValueError, match="budget"):
            determine_pi1(tre, 5, 4, budget)
        with pytest.raises(ValueError, match="budget"):
            rt.classify(TREFOIL, SurgeryParams(d=5, m=4), budget=budget)


def test_determine_pi1_rejects_bad_d():
    # d = 0 and d = -3 would pass the congruence for these m
    tre = rt.presentation_of_knot(TREFOIL)
    for d, m in ((0, 1), (-3, 2)):
        assert congruent_pm1(d, m)
        with pytest.raises(ValueError, match="d must be >= 1"):
            determine_pi1(tre, d, m, 10)


def _enumerated_verdict(group, d, budget):
    """The verdict from abelianization and coset enumeration alone."""
    expected = rt.AbelianInvariants(0, (d,) if d > 1 else ())
    ab_ok = rt.abelianization(group) == expected
    table = rt.todd_coxeter(group, budget)
    if table.completed:
        if table.order == d and ab_ok:
            return Pi1Verdict("cyclic", d, "coset-enumeration"), False
        return Pi1Verdict("finite", table.order, "coset-enumeration"), True
    if not ab_ok:
        return Pi1Verdict("undetermined", None, "abelianization-mismatch"), True
    return Pi1Verdict("undetermined", None, "budget-exhausted"), False


def _strength(verdict):
    """2 for a decided verdict, 1 for proven not Z/d, 0 for nothing."""
    pi1, proven_not_cyclic = verdict
    return 2 if pi1.kind != "undetermined" else int(proven_not_cyclic)


def test_determine_pi1_matches_wirtinger_route():
    # the oracle enumerates the twist-rim group on the Wirtinger generators,
    # with the full-m twist relators and no certificate; production decides
    # its quotient G_K/<<mu^g>>, g = gcd(d, m), on the reduced presentation,
    # after the kernel, cover-tower and subgroup checks.  A decided verdict
    # never changes, and no verdict gets weaker
    knots = [k for _, k in SMALL_CORPUS] + [rt.parse_knot("T(2,7)"), rt.parse_knot("T(3,5)")]
    changes = Counter()
    for knot in knots:
        p = rt.presentation_of_knot(knot)
        for d in range(2, 8):
            for m in range(-2, 9):
                if congruent_pm1(d, m):
                    continue
                for budget in (3000, 50000):
                    want = _enumerated_verdict(_full_twist_presentation(p, d, m), d, budget)
                    got = determine_pi1(p, d, m, budget)
                    case = (rt.render(knot), d, m, budget, want, got)
                    assert got[1] == got[0].proves_not_cyclic, case
                    if want[0].kind != "undetermined":
                        assert got == want, case
                    assert _strength(got) >= _strength(want), case
                    if rt.render(knot) == "T(2,3)#mirror(T(2,3))" and d == 2 and m % 2 == 0:
                        assert got[0].certificate == "infinite-cover-homology", case
                    changes[want[0].certificate, got[0].certificate] += 1
    # of the oracle's 208 exhausted budgets, the certificates prove 166
    # groups infinite, and 13 more close on the reduced presentation
    assert changes == {
        ("coset-enumeration", "coset-enumeration"): 282,
        ("budget-exhausted", "coset-enumeration"): 13,
        ("budget-exhausted", "infinite-cover-homology"): 128,
        ("budget-exhausted", "infinite-subgroup-homology"): 38,
        ("budget-exhausted", "budget-exhausted"): 29,
    }


def test_pi1_kernel_certificates():
    # T(2,3)#mirror(T(2,3)) at d = 2: H1(K) = Z/3 + Z/3, and the tower over
    # K reaches a subgroup with a free summand, so enumeration is skipped
    group = rt.twist_rim_presentation(rt.presentation_of_knot(TREFOIL_SUM).reduced, 2, 4)
    assert kernel_h1(group, 2) == rt.AbelianInvariants(0, (3, 3))
    assert cover_tower(group, [shift_action(group, 2)], 10**6).free_rank > 0
    assert determine_pi1(rt.presentation_of_knot(TREFOIL_SUM), 2, 4, 10**6) == (
        Pi1Verdict("undetermined", None, "infinite-cover-homology"), True
    )
    # T(2,3) at d = 3, m = 3: H1(K) = Z/2 + Z/2 and the group still
    # enumerates to order 24 (K is the quaternion group, so no tower over
    # it certifies); once the budget runs out, the kernel proves it is not Z/3
    tre = rt.presentation_of_knot(TREFOIL)
    group = rt.twist_rim_presentation(tre.reduced, 3, 3)
    assert kernel_h1(group, 3) == rt.AbelianInvariants(0, (2, 2))
    assert cover_tower(group, [shift_action(group, 3)], 10**6) is None
    assert determine_pi1(tre, 3, 3, 10**6) == (Pi1Verdict("finite", 24, "coset-enumeration"), True)
    assert determine_pi1(tre, 3, 3, 3) == (Pi1Verdict("undetermined", None, "kernel-homology"), True)


def test_pi1_subgroup_certificates():
    # B3/<<sigma1^d>> is infinite from d = 6 on (Coxeter), but at d = 7, 8, 9
    # H1(K) is finite; the cover tower over the actions of degree at most 9
    # reaches a subgroup that has a free H1.  At d = 8 and 9 the tower over
    # K finds one first; at d = 7 H1(K) is trivial, so K has no cover
    def infinite(certificate):
        return Pi1Verdict("undetermined", None, certificate), True

    tre = rt.presentation_of_knot(TREFOIL)
    for d, certificate in (
        (7, "infinite-subgroup-homology"),
        (8, "infinite-cover-homology"),
        (9, "infinite-cover-homology"),
    ):
        assert determine_pi1(tre, d, 2 * d, 200000) == infinite(certificate), d
        group = rt.twist_rim_presentation(tre.reduced, d, 0)
        assert kernel_h1(group, d).free_rank == 0
        assert cover_tower(group, low_index_actions(group, 9), 200000).free_rank > 0, d
    t25 = rt.presentation_of_knot(rt.parse_knot("T(2,5)"))
    assert determine_pi1(t25, 4, 8, 200000) == infinite("infinite-cover-homology")
    # twist relators with m mod d in place of m give the same group
    assert determine_pi1(tre, 7, 7, 200000) == determine_pi1(tre, 7, 0, 200000) == infinite(
        "infinite-subgroup-homology"
    )


def test_pi1_cover_tower_certificates(monkeypatch):
    # no kernel of a quotient of small degree shows these groups infinite,
    # and without the towers they spent the whole budget; a tower of cyclic
    # covers over K, or over a point stabilizer, reaches a subgroup with a
    # free H1
    cover = (Pi1Verdict("undetermined", None, "infinite-cover-homology"), True)
    subgroup = (Pi1Verdict("undetermined", None, "infinite-subgroup-homology"), True)
    fig8 = rt.presentation_of_knot(FIGURE_EIGHT)
    t34 = rt.presentation_of_knot(rt.parse_knot("T(3,4)"))
    for p, d, want in ((fig8, 4, cover), (fig8, 5, subgroup), (t34, 5, subgroup)):
        for m in (d, 2 * d):
            assert determine_pi1(p, d, m, 200000) == want, (p.generator_count, d, m)
    # no group that a tenth of a 2e5 budget leaves open, among these knots
    # with d | m, reaches the enumeration with the whole budget
    budgets = []
    todd_coxeter = rt.surgery.todd_coxeter
    monkeypatch.setattr(rt.surgery, "todd_coxeter", lambda g, b: budgets.append(b) or todd_coxeter(g, b))
    tre, tre_sum = rt.presentation_of_knot(TREFOIL), rt.presentation_of_knot(TREFOIL_SUM)
    t25 = rt.presentation_of_knot(rt.parse_knot("T(2,5)"))
    cases = [(tre, d) for d in (7, 8, 9)] + [(tre_sum, 2)] + [(t25, d) for d in (4, 5)]
    cases += [(t34, d) for d in (3, 4, 5)] + [(fig8, d) for d in (4, 5)]
    for p, d in cases:
        assert determine_pi1(p, d, d, 200000)[0].certificate.startswith("infinite-"), d
    assert budgets and 200000 not in budgets


def test_determine_pi1_fails_fast_when_d_exceeds_the_budget():
    # pi1 is decided on G_g = G_K/<<mu^g>>, g = gcd(d, m), which maps onto
    # Z/g, so no table of fewer than g cosets closes: for g > budget the
    # verdict is the one that enumerating the twist-rim group would reach,
    # found without building either group
    budget = 12
    for _, knot in SMALL_CORPUS:
        p = rt.presentation_of_knot(knot)
        for d in range(budget + 1, 2 * budget + 1):
            for m in (0, d, 2 * d, -d):
                group = rt.twist_rim_presentation(p.reduced, d, m)
                want = rt.surgery.cyclic_verdict(group, d, budget)
                assert want == Pi1Verdict("undetermined", None, "budget-exhausted")
                assert determine_pi1(p, d, m, budget) == (want, False), (rt.render(knot), d, m)
    # <a, b | a b^-2> abelianizes to Z, but its relator has exponent sum -1,
    # so its group has no map onto Z/d that sends every generator to 1, and
    # mu^g need not have order d/g: it is refused, as alexander refuses it
    doubled = GroupPresentation(("a", "b"), ((1, -2, -2),), 1)
    with pytest.raises(ValueError, match="nonzero total exponent"):
        determine_pi1(doubled, 20, 4, budget)


def test_determine_pi1_depends_on_m_through_gcd():
    # the twist-rim group depends on m only through g = gcd(d, m): every m
    # with the same g gets the same verdict, congruence or not
    for _, knot in SMALL_CORPUS:
        p = rt.presentation_of_knot(knot)
        for d in range(2, 8):
            by_g = {}
            for m in range(-d, 2 * d + 1):
                verdict = determine_pi1(p, d, m, 50000)[0]
                if verdict.certificate == "congruence":
                    verdict = Pi1Verdict("cyclic", d, "coset-enumeration")
                assert by_g.setdefault(gcd(d, m), verdict) == verdict, (rt.render(knot), d, m)


def test_verdict_grid_obeys_the_central_quotient_lemma():
    # the golden grid enumerates the twist-rim groups themselves; on every
    # line (knot, d, t) with g = gcd(d, t), the verdict is Z/d when g = 1,
    # and otherwise the verdict of (knot, g, 0), G_g itself, with its order
    # multiplied by d/g.  The figure-eight at (10, 5) is the one exception:
    # the grid reads kernel-homology there, and G_5 is proven infinite
    grid = {}
    for line in (GOLDEN / "verdict_grid.txt").read_text().splitlines():
        knot, d, t, verdict = line.split("\t")
        grid[knot, int(d), int(t)] = verdict
    assert len(grid) == 539
    exceptions = []
    for (knot, d, t), verdict in grid.items():
        g = gcd(d, t)
        if g == 1:
            assert verdict == f"Z/{d} (certificate: coset-enumeration)", (knot, d, t)
            continue
        want = grid[knot, g, 0]
        if want.startswith("finite of order "):
            order = int(want.split()[3])
            want = want.replace(f"order {order} ", f"order {order * d // g} ")
        if verdict != want:
            exceptions.append((knot, d, t, verdict, want))
    assert exceptions == [
        (
            "braid(3; 1 -2 1 -2)", 10, 5,
            "undetermined (kernel-homology)",
            "undetermined (infinite-subgroup-homology)",
        )
    ]


def test_determine_pi1_decides_more_on_the_reduced_presentation():
    # both run out of budget on the Wirtinger generators
    t25 = rt.presentation_of_knot(rt.parse_knot("T(2,5)"))
    assert determine_pi1(t25, 3, 3, 3000) == (
        Pi1Verdict("finite", 360, "coset-enumeration"), True
    )
    t35 = rt.presentation_of_knot(rt.parse_knot("T(3,5)"))
    assert determine_pi1(t35, 6, 8, 50000) == (
        Pi1Verdict("finite", 720, "coset-enumeration"), True
    )


def test_determine_pi1_memory_on_the_reduced_group():
    # 3 generators in place of 10, so the exhausted table holds 6 columns, not 20;
    # no certificate decides the group, so enumeration runs and exhausts
    p = rt.presentation_of_knot(rt.parse_knot("T(3,5)"))
    assert p.generator_count == 10
    assert p.reduced.generator_count == 3
    tracemalloc.start()
    try:
        verdict = determine_pi1(p, 7, 7, 50000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == (Pi1Verdict("undetermined", None, "budget-exhausted"), False)
    assert peak < 5 * 2**20


def test_enumerate_examples_small_bounds_empty():
    # with everything bounded by 3 no admissible d survives the coprimality
    # filter, so the row set is empty (and deterministically so)
    assert list(rt.enumerate_examples(3, 3, 3, 3)) == []
    with pytest.raises(ValueError):
        list(rt.enumerate_examples(1, 3, 3, 3))
