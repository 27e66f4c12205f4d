import random
from itertools import combinations
from math import gcd

import pytest

import rimtwist as rt
from rimtwist import AbelianInvariants, GroupPresentation, Pi1Verdict
from rimtwist.groups import _Enumerator, _word_to_cols, smith_invariants
from helpers import FIGURE_EIGHT, TREFOIL


def _det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        acc += (-1) ** j * m[0][j] * _det_cofactor(minor)
    return acc


def _snf_oracle(mat, ncols):
    """Determinant-divisor oracle: k-th invariant = gcd(k-minors)/gcd((k-1)-minors)."""
    nrows = len(mat)
    invariants = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = gcd(g, _det_cofactor(sub))
        if g == 0:
            break
        invariants.append(g // prev)
        prev = g
    return invariants


def test_smith_known_matrices():
    assert smith_invariants([[5]], 1) == [5]
    assert smith_invariants([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_invariants([[0, 0], [0, 0]], 2) == []
    assert smith_invariants([[2, 4], [4, 8]], 2) == [2]
    assert smith_invariants([[1, 0], [0, 1]], 2) == [1, 1]


def test_smith_against_minor_gcd_oracle():
    rng = random.Random(41)
    for _ in range(120):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        got = smith_invariants(mat, ncols)
        assert got == _snf_oracle(mat, ncols), mat
        for a, b in zip(got, got[1:]):
            assert b % a == 0


def test_smith_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(53)
    for i in range(60):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        mat = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        if i % 3 == 0 and nrows > 1:
            # singular: one row a combination of two others
            mat[-1] = [2 * x - 3 * y for x, y in zip(mat[0], mat[-2])]
        expected = [
            abs(int(v))
            for v in invariant_factors(sympy.Matrix(mat), domain=sympy.ZZ)
            if v != 0
        ]
        assert smith_invariants(mat, ncols) == expected, mat


def test_smith_shuffle_invariance():
    rng = random.Random(43)
    base = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(3)]
    reference = smith_invariants(base, 4)
    for _ in range(20):
        rows = base[:]
        rng.shuffle(rows)
        cols = list(range(4))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert smith_invariants(shuffled, 4) == reference


def test_abelianization_examples():
    braid_relation = GroupPresentation(("a", "b"), ((1, 2, 1, -2, -1, -2),), 1)
    assert rt.abelianization(braid_relation) == AbelianInvariants(1, ())
    cyclic = GroupPresentation(("g",), ((1, 1, 1, 1, 1),), 1)
    assert rt.abelianization(cyclic) == AbelianInvariants(0, (5,))
    free = GroupPresentation(("g",), (), 1)
    assert rt.abelianization(free) == AbelianInvariants(1, ())


def test_abelian_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 6))  # 4 does not divide 6
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))
    assert AbelianInvariants(0, (2, 4)).order() == 8
    assert AbelianInvariants(1, ()).order() is None
    assert str(AbelianInvariants(1, (2, 4))) == "Z ⊕ Z/2 ⊕ Z/4"
    assert str(AbelianInvariants(0, ())) == "trivial"


def test_todd_coxeter_finite_groups():
    cyclic5 = GroupPresentation(("g",), ((1,) * 5,), 1)
    assert rt.todd_coxeter(cyclic5).order == 5

    s3 = GroupPresentation(("a", "b"), ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)), 1)
    assert rt.todd_coxeter(s3).order == 6

    q8 = GroupPresentation(("a", "b"), ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)), 1)
    assert rt.todd_coxeter(q8).order == 8

    trivial = GroupPresentation(("a",), ((1,),), 1)
    assert rt.todd_coxeter(trivial).order == 1


def test_todd_coxeter_trefoil_quotients():
    tre = rt.presentation_of_knot(TREFOIL)
    mod2 = rt.twist_rim_presentation(tre, 2, 2)
    table = rt.todd_coxeter(mod2)
    assert table.completed and table.order == 6

    mod5 = rt.twist_rim_presentation(tre, 5, 4)
    assert rt.todd_coxeter(mod5).order == 5


def test_todd_coxeter_table_closure():
    s3 = GroupPresentation(("a", "b"), ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)), 1)
    enum = _Enumerator(2, [_word_to_cols(r) for r in s3.relators], 10**6)
    enum.run()
    live = [c for c in range(len(enum.rows)) if enum.p[c] == c]
    assert len(live) == rt.todd_coxeter(s3).order == 6
    assert enum.verify_closed()
    for c in live:
        # every signed generator is defined, and a^2 fixes every coset
        assert all(x is not None for x in enum.rows[c])
        a = enum.rep(enum.rows[c][0])
        assert enum.rep(enum.rows[a][0]) == c


def test_todd_coxeter_budget_exhaustion():
    free = GroupPresentation(("a",), (), 1)
    out = rt.todd_coxeter(free, budget=50)
    assert out.status == "exhausted"
    assert out.order is None
    with pytest.raises(ValueError):
        rt.todd_coxeter(free, budget=0)


def test_todd_coxeter_relator_permutation_invariance():
    rng = random.Random(47)
    tre = rt.presentation_of_knot(TREFOIL)
    base = rt.twist_rim_presentation(tre, 3, 2)
    reference = rt.todd_coxeter(base).order
    relators = list(base.relators)
    for _ in range(10):
        rng.shuffle(relators)
        shuffled = GroupPresentation(base.generators, tuple(relators), base.meridian)
        assert rt.todd_coxeter(shuffled).order == reference


def test_tietze_examples():
    tre = rt.presentation_of_knot(TREFOIL)
    simp = rt.tietze_simplify(tre)
    assert simp.generator_count == 2
    assert len(simp.relators) == 1 and len(simp.relators[0]) == 6
    assert rt.abelianization(simp) == rt.abelianization(tre)
    assert rt.alexander_polynomial(simp).unit_equal(rt.alexander_polynomial(tre))

    sub = GroupPresentation(("a", "b"), ((1, -2),), 1)
    out = rt.tietze_simplify(sub)
    assert out.generator_count == 1 and out.relators == ()

    fix = GroupPresentation(("g",), ((1, 1, 1),), 1)
    assert rt.tietze_simplify(fix) == fix


def test_tietze_never_grows():
    for knot in (TREFOIL, FIGURE_EIGHT, rt.parse_knot("T(3,4)")):
        p = rt.presentation_of_knot(knot)
        s = rt.tietze_simplify(p)
        assert s.generator_count <= p.generator_count
        assert len(s.relators) <= len(p.relators)
        assert sum(map(len, s.relators)) <= sum(map(len, p.relators))
        assert rt.abelianization(s) == AbelianInvariants(1, ())
        assert rt.alexander_polynomial(s).unit_equal(rt.alexander_polynomial(p))


def test_tietze_preserves_enumerated_order():
    tre = rt.presentation_of_knot(TREFOIL)
    quotient = rt.twist_rim_presentation(tre, 2, 2)
    simplified = rt.tietze_simplify(quotient)
    assert rt.todd_coxeter(simplified).order == rt.todd_coxeter(quotient).order == 6


def test_cyclic_verdict():
    fig8 = rt.presentation_of_knot(FIGURE_EIGHT)
    assert rt.cyclic_verdict(rt.twist_rim_presentation(fig8, 3, 2), 3) == (
        Pi1Verdict("cyclic", 3, "coset-enumeration"), False
    )

    tre = rt.presentation_of_knot(TREFOIL)
    assert rt.cyclic_verdict(rt.twist_rim_presentation(tre, 2, 2), 2) == (
        Pi1Verdict("finite", 6, "coset-enumeration"), True
    )

    for d in (1, 2, 5, 12):
        cyclic = GroupPresentation(("g",), ((1,) * d,), 1)
        assert rt.cyclic_verdict(cyclic, d) == (
            Pi1Verdict("cyclic", d, "coset-enumeration"), False
        )

    # exhaustion with consistent abelianization is inconclusive: an infinite
    # perfect group (the 2-3-7 triangle group) has trivial abelianization
    triangle = GroupPresentation(
        ("a", "b"), ((1, 1), (2, 2, 2), (1, 2) * 7), 1
    )
    assert rt.cyclic_verdict(triangle, 1, budget=500) == (
        Pi1Verdict("undetermined", None, "budget-exhausted"), False
    )
    with pytest.raises(ValueError):
        rt.cyclic_verdict(tre, 0)


def test_cyclic_verdict_abelianization_certificate():
    # abelianization Z/6 can never be Z/5: proven not cyclic even when the
    # budget is too small to enumerate
    cyclic6 = GroupPresentation(("g",), ((1,) * 6,), 1)
    assert rt.cyclic_verdict(cyclic6, 5, budget=1) == (
        Pi1Verdict("undetermined", None, "abelianization-mismatch"), True
    )
