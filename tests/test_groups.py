import dataclasses
import random
import tracemalloc
from collections import deque
from itertools import combinations
from math import gcd

import pytest

import rimtwist as rt
from rimtwist import AbelianInvariants, GroupPresentation, Pi1Verdict, groups
from rimtwist.groups import (
    _closed,
    _enumerate_cosets,
    _homology,
    _root,
    _schreier_rows,
    _word_to_cols,
    cover_tower,
    low_index_actions,
    shift_action,
)
from rimtwist.wirtinger import drop_redundant_crossing_relators
from rimtwist.words import Word, canonical_cyclic, cyclic_reduce, invert, substitute, total_exponent
from helpers import COVER_POOL_KNOTS, FIGURE_EIGHT, ORACLE_EXTRA_KNOTS, SMALL_CORPUS, TREFOIL


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


def _smith(mat, ncols):
    """H1 of Z^ncols modulo the rows of a dense matrix, by ``_homology``.

    Taken with the images, as ``cover_tower`` takes it, and without them,
    as ``kernel_h1`` does; both must give one group.
    """
    group, _ = _homology([{j: v for j, v in enumerate(row) if v} for row in mat], ncols)
    bare = _homology([{j: v for j, v in enumerate(row) if v} for row in mat], ncols, with_images=False)
    assert bare == (group, None), mat
    return group


def _from_factors(factors, ncols):
    """The group that nonzero invariant factors of a matrix with ncols columns present."""
    return AbelianInvariants(ncols - len(factors), tuple(t for t in factors if t > 1))


def _sympy_factors(mat):
    """Nonzero invariant factors of an integer matrix, by sympy's Smith normal form."""
    import sympy
    from sympy.matrices.normalforms import invariant_factors

    return [abs(int(v)) for v in invariant_factors(sympy.Matrix(mat), domain=sympy.ZZ) if v != 0]


def test_smith_known_matrices():
    assert _smith([[5]], 1) == _from_factors([5], 1)
    assert _smith([[2, 0], [0, 3]], 2) == _from_factors([1, 6], 2)
    assert _smith([[0, 0], [0, 0]], 2) == _from_factors([], 2)
    assert _smith([[2, 4], [4, 8]], 2) == _from_factors([2], 2)
    assert _smith([[1, 0], [0, 1]], 2) == _from_factors([1, 1], 2)


def test_smith_against_minor_gcd_oracle():
    rng = random.Random(41)
    for _ in range(120):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        assert _smith(mat, ncols) == _from_factors(_snf_oracle(mat, ncols), ncols), mat


def test_smith_against_sympy_oracle():
    pytest.importorskip("sympy")
    rng = random.Random(53)
    for i in range(60):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        mat = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        if i % 3 == 0 and nrows > 1:
            # singular: one row a combination of two others
            mat[-1] = [2 * x - 3 * y for x, y in zip(mat[0], mat[-2])]
        assert _smith(mat, ncols) == _from_factors(_sympy_factors(mat), ncols), mat
    # Reidemeister-Schreier-shaped: sparse rows of mostly +/-1 entries, with
    # zero rows and columns no row touches, so the unit-pivot phase does
    # most of the work and leaves fill-in to the dense loop
    for _ in range(40):
        nrows = rng.randint(1, 16)
        ncols = rng.randint(1, 14)
        touched = rng.sample(range(ncols), rng.randint(1, ncols))
        mat = [[0] * ncols for _ in range(nrows)]
        for row in mat:
            for j in rng.sample(touched, min(len(touched), rng.randint(0, 4))):
                row[j] = rng.choice((1, -1, 1, -1, 1, -1, 2, -2, 3))
        assert _smith(mat, ncols) == _from_factors(_sympy_factors(mat), ncols), mat


def test_smith_shuffle_invariance():
    rng = random.Random(43)
    base = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(3)]
    reference = _smith(base, 4)
    for _ in range(20):
        rows = base[:]
        rng.shuffle(rows)
        cols = list(range(4))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert _smith(shuffled, 4) == reference


def test_abelianization_examples():
    braid_relation = GroupPresentation(("a", "b"), ((1, 2, 1, -2, -1, -2),), 1)
    assert rt.abelianization(braid_relation) == AbelianInvariants(1, ())
    cyclic = GroupPresentation(("g",), ((1, 1, 1, 1, 1),), 1)
    assert rt.abelianization(cyclic) == AbelianInvariants(0, (5,))
    free = GroupPresentation(("g",), (), 1)
    assert rt.abelianization(free) == AbelianInvariants(1, ())
    # no generators: no coset action to read relators on, and a trivial group
    for relators in ((), ((),)):
        assert rt.abelianization(GroupPresentation((), relators)) == AbelianInvariants(0, ())
    mixed = GroupPresentation(("a", "b"), ((1, 1, 1, -2, -2),), 1)
    assert rt.abelianization(mixed) == AbelianInvariants(1, ())
    # powers of one letter take the one-row-per-orbit reading of ``_schreier_rows``
    powers = GroupPresentation(("a",), ((1,) * 6, (1,) * 4), 1)
    assert rt.abelianization(powers) == AbelianInvariants(0, (2,))


def test_every_exported_name_resolves():
    namespace = {}
    exec("from rimtwist import *", namespace)
    assert set(rt.__all__) <= set(namespace)


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
    relators = [_word_to_cols(r) for r in s3.relators]
    table, parent, defined, live, complete = _enumerate_cosets(2, relators, 10**6)
    assert complete
    roots = [c for c in range(defined) if parent[c] == c]
    assert len(roots) == live == rt.todd_coxeter(s3).order == 6
    assert _closed(table, parent, defined, relators)
    a = table[0]
    for c in roots:
        # every signed generator is defined, and a^2 fixes every coset
        assert all(col[c] >= 0 for col in table)
        assert _root(parent, a[_root(parent, a[c])]) == c


def test_todd_coxeter_huge_budget_allocates_nothing_up_front():
    s3 = GroupPresentation(("a", "b"), ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)), 1)
    tracemalloc.start()
    try:
        table = rt.todd_coxeter(s3, budget=10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.order == table.live == 6
    assert peak < 2**20


def test_todd_coxeter_budget_exhaustion():
    free = GroupPresentation(("a",), (), 1)
    out = rt.todd_coxeter(free, budget=50)
    assert not out.completed
    assert out.order is None
    assert out.live == 50
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


class _BudgetExhausted(Exception):
    pass


class _RowMajorHLT:
    """Reference HLT enumerator: one row per coset, None for undefined.

    The production kernel must define exactly the cosets this one
    defines, in the same order, with the same merges.
    """

    def __init__(self, ngens, relator_cols, budget):
        self.width = 2 * ngens
        self.relators = relator_cols
        self.budget = budget
        self.rows = [[None] * self.width]
        self.p = [0]

    def rep(self, k):
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            self.p[b] = a
            queue.append(b)

    def coincidence(self, a, b):
        rows = self.rows
        queue = deque()
        self.merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            row = rows[gamma]
            for x in range(self.width):
                delta = row[x]
                if delta is None:
                    continue
                rows[delta][x ^ 1] = None
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if rows[mu][x] is not None:
                    self.merge(nu, rows[mu][x], queue)
                elif rows[nu][x ^ 1] is not None:
                    self.merge(mu, rows[nu][x ^ 1], queue)
                else:
                    rows[mu][x] = nu
                    rows[nu][x ^ 1] = mu

    def define(self, alpha, x):
        if len(self.rows) >= self.budget:
            raise _BudgetExhausted
        beta = len(self.rows)
        self.rows.append([None] * self.width)
        self.p.append(beta)
        self.rows[alpha][x] = beta
        self.rows[beta][x ^ 1] = alpha
        return beta

    def scan_and_fill(self, alpha, w):
        rows = self.rows
        f, i = alpha, 0
        b, j = alpha, len(w) - 1
        while True:
            while i <= j and rows[f][w[i]] is not None:
                f = rows[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and rows[b][w[j] ^ 1] is not None:
                b = rows[b][w[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                rows[f][w[i]] = b
                rows[b][w[i] ^ 1] = f
                return
            self.define(f, w[i])

    def run(self):
        """True when the table closes, False when the budget runs out."""
        try:
            alpha = 0
            while alpha < len(self.rows):
                if self.p[alpha] == alpha:
                    for w in self.relators:
                        self.scan_and_fill(alpha, w)
                        if self.p[alpha] != alpha:
                            break
                    if self.p[alpha] == alpha:
                        for x in range(self.width):
                            if self.rows[alpha][x] is None:
                                self.define(alpha, x)
                alpha += 1
        except _BudgetExhausted:
            return False
        return True


def _assert_same_enumeration(ngens, relators, budget):
    """The kernel and the row-major oracle agree coset for coset."""
    relators = [_word_to_cols(r) for r in relators]
    oracle = _RowMajorHLT(ngens, relators, budget)
    complete = oracle.run()
    table, parent, defined, live, got_complete = _enumerate_cosets(
        ngens, relators, budget
    )
    assert got_complete == complete
    assert defined == len(oracle.rows)
    roots = [c for c in range(defined) if parent[c] == c]
    assert roots == [c for c in range(defined) if oracle.p[c] == c]
    assert live == len(roots)
    for c in roots:
        for x in range(2 * ngens):
            want = oracle.rows[c][x]
            got = table[x][c]
            if want is None:
                assert got == -1
            else:
                assert _root(parent, got) == oracle.rep(want)
    return complete


def test_enumeration_matches_row_major_oracle_on_twisted_knots():
    outcomes = set()
    for _, knot in SMALL_CORPUS:
        group = rt.presentation_of_knot(knot)
        for d in range(1, 8):
            for m in range(-2, 9):
                p = rt.twist_rim_presentation(group, d, m)
                for budget in (50, 3000):
                    complete = _assert_same_enumeration(
                        p.generator_count, p.relators, budget
                    )
                    outcomes.add((budget, complete))
    # tables close and exhaust at both budgets
    assert len(outcomes) == 4


def test_enumeration_matches_row_major_oracle_on_random_presentations():
    rng = random.Random(59)
    for _ in range(300):
        ngens = rng.randint(1, 3)
        relators = [
            tuple(
                rng.choice((1, -1)) * rng.randint(1, ngens)
                for _ in range(rng.randint(1, 8))
            )
            for _ in range(rng.randint(1, 4))
        ]
        _assert_same_enumeration(ngens, relators, rng.choice((1, 20, 400)))


def test_enumeration_matches_row_major_oracle_on_edge_cases():
    assert _assert_same_enumeration(0, [], 1)
    assert _assert_same_enumeration(0, [()], 5)
    assert _assert_same_enumeration(1, [(1,)], 1)
    assert _assert_same_enumeration(1, [(1,), ()], 10)
    assert not _assert_same_enumeration(1, [], 1)
    assert not _assert_same_enumeration(2, [(1, 1)], 1)
    assert rt.todd_coxeter(GroupPresentation((), (), 1), budget=1).order == 1
    # the definition loop hands back to the scans when the next letter
    # cancels the one just defined (b b^-1), and when a definition also
    # fills the backward scan's entry (a ... a^-1 from one coset)
    s3 = [(1, 2, 1, 2, 1, 2)]
    for relators in ([(1, 2, -2, 1), (2, 2)] + s3, [(1, 2, 2, -1), (1, 1)] + s3):
        assert _assert_same_enumeration(2, relators, 100)
        assert not _assert_same_enumeration(2, relators, 5)
        assert rt.todd_coxeter(GroupPresentation(("a", "b"), tuple(relators), 1)).order == 6
    assert rt.todd_coxeter(GroupPresentation(("a",), ((1,),), 1), 1).order == 1


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
        copy, seen = dataclasses.replace(p), (hash(p), repr(p), p.to_json())
        for q in (p, drop_redundant_crossing_relators(p)):
            s = rt.tietze_simplify(q)
            assert s.generator_count <= q.generator_count
            assert len(s.relators) <= len(q.relators)
            assert sum(map(len, s.relators)) <= sum(map(len, q.relators))
            assert rt.abelianization(s) == AbelianInvariants(1, ())
        # Tietze moves keep the deficiency one the Alexander blocks need
        assert s == p.reduced
        assert rt.alexander_polynomial(s).unit_equal(rt.alexander_polynomial(p))
        # the cached reduction is not part of the value, and a replaced
        # meridian gets its own reduction rather than the cached one
        assert p == copy and (hash(p), repr(p), p.to_json()) == seen
        fresh = {
            k: rt.tietze_simplify(drop_redundant_crossing_relators(dataclasses.replace(p, meridian=k)))
            for k in range(2, p.generator_count + 1)
        }
        k = next(k for k, r in fresh.items() if r != p.reduced)
        assert dataclasses.replace(p, meridian=k).reduced == fresh[k]


def test_tietze_runs_to_a_fixpoint_on_large_presentations():
    # 130 braid generators shrink to 13; each pass removes at most one generator
    p = rt.presentation_of_knot(rt.parse_knot("T(11,13)"))
    assert p.generator_count == 130
    s = rt.tietze_simplify(p)
    assert s.generator_count == 13
    assert rt.abelianization(s) == AbelianInvariants(1, ())


# the oracle of tietze_simplify: the same moves, rewriting and renumbering
# every relator on each elimination
def _renumber(w: Word, gone: int) -> Word:
    out = []
    for x in w:
        a = abs(x)
        if a > gone:
            a -= 1
        out.append(a if x > 0 else -a)
    return tuple(out)


def _tietze_reference(p: GroupPresentation) -> GroupPresentation:
    """Shrink a presentation without changing the group.

    Free/cyclic reduction, duplicate-relator removal, and elimination
    of generators isolated (single occurrence) in some relator.  An
    elimination is applied only if it does not increase the total
    relator length, so generator count, relator count, and total length
    never exceed the input's.  The distinguished meridian is never
    eliminated.  Passes repeat until one changes nothing; every changing
    pass removes a relator or a generator, so the loop terminates.
    """
    gens = list(p.generators)
    meridian = p.meridian
    relators = [cyclic_reduce(r) for r in p.relators]
    changed = True
    while changed:
        changed = False
        # duplicate and empty relator removal (up to rotation and inversion)
        seen: set[Word] = set()
        kept: list[Word] = []
        for r in relators:
            if not r:
                changed = True
                continue
            key = canonical_cyclic(r)
            if key in seen:
                changed = True
                continue
            seen.add(key)
            kept.append(r)
        relators = kept

        total = sum(len(r) for r in relators)
        candidates: list[tuple[int, int, int]] = []
        for ri, r in enumerate(relators):
            for g in {abs(x) for x in r}:
                if g == meridian:
                    continue
                if sum(1 for x in r if abs(x) == g) == 1:
                    candidates.append((len(r), ri, g))
        candidates.sort()
        for _, ri, g in candidates:
            r = relators[ri]
            pos = next(i for i, x in enumerate(r) if abs(x) == g)
            rot = r[pos + 1 :] + r[:pos]
            image = invert(rot) if r[pos] > 0 else rot
            new_relators = [
                cyclic_reduce(substitute(r2, g, image))
                for rj, r2 in enumerate(relators)
                if rj != ri
            ]
            if sum(len(w) for w in new_relators) <= total:
                relators = [_renumber(w, g) for w in new_relators]
                gens.pop(g - 1)
                if meridian > g:
                    meridian -= 1
                changed = True
                break
    return GroupPresentation(tuple(gens), tuple(relators), meridian)


def _random_presentations(seed, count):
    """Presentations on 0-4 generators, with empty and repeated relators among them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(0, 4)
        relators = []
        for _ in range(rng.randint(0, 5)):
            if relators and rng.random() < 0.2:
                # a rotated inverse of an earlier relator, or a copy of it
                r = rng.choice(relators)
                k = rng.randint(0, len(r))
                relators.append(invert(r[k:] + r[:k]) if rng.random() < 0.5 else r)
                continue
            length = rng.randint(0, 8) if n else 0
            relators.append(tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length)))
        gens = tuple(f"x{i}" for i in range(1, n + 1))
        out.append(GroupPresentation(gens, tuple(relators), rng.randint(1, n) if n else 1))
    return out


def test_tietze_matches_reference():
    # the Wirtinger and crossing-dropped presentations at meridians 1-6, the
    # twist-rim groups of the crossing-dropped ones at meridian 1, and
    # random presentations: the same generators, relators and meridian
    inputs = []
    knots = [k for _, k in SMALL_CORPUS] + [rt.parse_knot(s) for s in COVER_POOL_KNOTS + ORACLE_EXTRA_KNOTS]
    for knot in knots:
        p = rt.presentation_of_knot(knot)
        q = drop_redundant_crossing_relators(p)
        for form in (p, q):
            inputs += [dataclasses.replace(form, meridian=k) for k in range(1, min(6, form.generator_count) + 1)]
        inputs += [rt.twist_rim_presentation(q, d, m) for d in (2, 3, 5) for m in (0, 1, 2, 7)]
    inputs += _random_presentations(23, 1500)
    assert any(p.generator_count == 0 for p in inputs)
    assert any(() in p.relators for p in inputs)
    for p in inputs:
        assert rt.tietze_simplify(p) == _tietze_reference(p), p


def test_tietze_preserves_enumerated_order():
    tre = rt.presentation_of_knot(TREFOIL)
    quotient = rt.twist_rim_presentation(tre, 2, 2)
    simplified = rt.tietze_simplify(quotient)
    assert rt.todd_coxeter(simplified).order == rt.todd_coxeter(quotient).order == 6


def test_cyclic_verdict():
    fig8 = rt.presentation_of_knot(FIGURE_EIGHT)
    assert rt.cyclic_verdict(rt.twist_rim_presentation(fig8, 3, 2), 3) == Pi1Verdict(
        "cyclic", 3, "coset-enumeration"
    )

    tre = rt.presentation_of_knot(TREFOIL)
    assert rt.cyclic_verdict(rt.twist_rim_presentation(tre, 2, 2), 2) == Pi1Verdict(
        "finite", 6, "coset-enumeration"
    )

    for d in (1, 2, 5, 12):
        cyclic = GroupPresentation(("g",), ((1,) * d,), 1)
        assert rt.cyclic_verdict(cyclic, d) == Pi1Verdict("cyclic", d, "coset-enumeration")

    # a group with no generators has no coset action, so no tower over K;
    # enumeration decides it
    trivial = GroupPresentation((), (), 1)
    assert rt.cyclic_verdict(trivial, 1) == Pi1Verdict("cyclic", 1, "coset-enumeration")
    for d in (2, 5):
        assert rt.cyclic_verdict(trivial, d) == Pi1Verdict("finite", 1, "coset-enumeration")

    # the 2-3-7 triangle group is infinite and perfect, so its abelianization
    # says nothing; a degree-7 point stabilizer H has H1(H) = Z/2 + Z/2, and
    # a cyclic cover of [H, H], of index 84, has a free H1; below that index
    # the tower reaches no subgroup with one, so exhaustion stays inconclusive
    triangle = GroupPresentation(
        ("a", "b"), ((1, 1), (2, 2, 2), (1, 2) * 7), 1
    )
    for budget in (500, 100):
        assert rt.cyclic_verdict(triangle, 1, budget=budget) == Pi1Verdict(
            "undetermined", None, "infinite-subgroup-homology"
        )
    assert rt.cyclic_verdict(triangle, 1, budget=83) == Pi1Verdict(
        "undetermined", None, "budget-exhausted"
    )
    with pytest.raises(ValueError):
        rt.cyclic_verdict(tre, 0)


def test_cyclic_verdict_abelianization_certificate():
    # abelianization Z/6 can never be Z/5: proven not cyclic even when the
    # budget is too small to enumerate
    cyclic6 = GroupPresentation(("g",), ((1,) * 6,), 1)
    assert rt.cyclic_verdict(cyclic6, 5, budget=1) == Pi1Verdict(
        "undetermined", None, "abelianization-mismatch"
    )
    # no map sends g to 1 in Z/5, since the exponent sum 6 is not 0 mod 5:
    # the shift action breaks the relator, so no kernel is taken, and
    # enumeration decides the group
    with pytest.raises(RuntimeError, match="does not fix"):
        _schreier_rows(cyclic6.relators, shift_action(cyclic6, 5))
    assert rt.cyclic_verdict(cyclic6, 5, budget=10) == Pi1Verdict(
        "finite", 6, "coset-enumeration"
    )


def _sympy_kernel_h1(p, d):
    """H1 of the kernel of G -> Z/d, by sympy's Reidemeister-Schreier."""
    from sympy.combinatorics.fp_groups import FpGroup, reidemeister_presentation
    from sympy.combinatorics.free_groups import free_group

    free, *xs = free_group(" ".join(f"x{i}" for i in range(p.generator_count)))

    def word(w):
        out = free.identity
        for x in w:
            out *= xs[abs(x) - 1] ** (1 if x > 0 else -1)
        return out

    a = xs[0]
    schreier = [a**i * x * a ** -(i + 1) for i in range(d) for x in xs]
    gens, rels = reidemeister_presentation(FpGroup(free, [word(r) for r in p.relators]), schreier)
    column = {g.array_form[0][0]: k for k, g in enumerate(gens)}
    rows = []
    for r in rels:
        row = [0] * len(gens)
        for symbol, e in r.array_form:
            row[column[symbol]] += e
        rows.append(row)
    return _from_factors(_sympy_factors(rows), len(gens))


def test_kernel_homology_against_sympy_oracle():
    pytest.importorskip("sympy")
    cases = [("T(2,3)", 3, 3), ("T(2,3)", 5, 7), ("T(2,3)#mirror(T(2,3))", 2, 4)]
    for text, d, m in cases:
        p = rt.presentation_of_knot(rt.parse_knot(text)).reduced
        group = rt.twist_rim_presentation(p, d, m)
        assert groups.kernel_h1(group, d) == _sympy_kernel_h1(group, d), (text, d, m)


def test_homology_images_satisfy_the_relations():
    # each basis vector's image respects every relation row, and the images
    # generate the whole finite group
    rng = random.Random(61)
    checked = 0
    for _ in range(200):
        ncols = rng.randint(1, 5)
        rows = [
            {j: rng.choice((1, -1, 2, -2, 3, 4)) for j in rng.sample(range(ncols), rng.randint(1, ncols))}
            for _ in range(rng.randint(ncols, ncols + 3))
        ]
        group, images = _homology([dict(r) for r in rows], ncols)
        if group.free_rank:
            assert images is None
            continue
        torsion = group.torsion
        for row in rows:
            total = [sum(a * images[j][i] for j, a in row.items()) % t for i, t in enumerate(torsion)]
            assert not any(total), (rows, images)
        reached = {(0,) * len(torsion)}
        frontier = list(reached)
        for v in frontier:
            for image in images:
                w = tuple((a + b) % t for a, b, t in zip(v, image, torsion))
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        assert len(reached) == group.order(), (rows, images)
        checked += 1
    assert checked > 50


def test_schreier_rows_read_a_power_once_per_orbit():
    # a^d read from coset c and from c·a passes the same edges, so
    # <a | a^d> gives one row for it, not d
    for d in (1, 2, 7, 1000):
        shift = [(i + 1) % d for i in range(d)]
        rows, ncols, _ = _schreier_rows([(1,) * d], [shift])
        assert (rows, ncols) == ([{0: 1}], 1), d
        rows, _, _ = _schreier_rows([(-1,) * d], [shift])
        assert rows == [{0: -1}], d
    # read once around an orbit of length L, the row of a^k is k/L times that
    # of a^L, and a power that L does not divide fixes no coset
    shift = [1, 2, 0]
    assert _schreier_rows([(1,) * 6], [shift])[0] == [{0: 2}]
    assert _schreier_rows([(-1,) * 6], [shift])[0] == [{0: -2}]
    with pytest.raises(RuntimeError, match="does not fix"):
        _schreier_rows([(1,) * 4], [shift])
    # one row per orbit: a swaps two pairs of four cosets, b links them
    swap = [1, 0, 3, 2]
    link = [2, 3, 0, 1]
    rows, _, _ = _schreier_rows([(1, 1), (2, 2)], [swap, link])
    assert len(rows) == 4


def _image(action, word, point):
    """Where a word sends a point, reading its letters left to right."""
    for x in word:
        perm = action[abs(x) - 1]
        point = perm[point] if x > 0 else perm.index(point)
    return point


def _conjugacy_class(action):
    """The action renumbered breadth-first from every point: equal for conjugate stabilizers."""
    n = len(action[0])
    columns = [col for perm in action for col in (perm, [perm.index(c) for c in range(n)])]
    tables = set()
    for base in range(n):
        new, order = {base: 0}, [base]
        for old in order:
            for col in columns:
                if col[old] not in new:
                    new[col[old]] = len(order)
                    order.append(col[old])
        tables.add(tuple(tuple(new[col[old]] for col in columns) for old in order))
    return frozenset(tables)


def _trefoil_quotient(d, m=0):
    tre = rt.presentation_of_knot(TREFOIL).reduced
    return rt.twist_rim_presentation(tre, d, m)


def test_low_index_actions_against_sympy_oracle():
    pytest.importorskip("sympy")
    from sympy.combinatorics.fp_groups import FpGroup, low_index_subgroups
    from sympy.combinatorics.free_groups import free_group

    for d in (3, 4):
        p = _trefoil_quotient(d)
        free, *xs = free_group(" ".join(f"x{i}" for i in range(p.generator_count)))
        relators = []
        for r in p.relators:
            w = free.identity
            for x in r:
                w *= xs[abs(x) - 1] ** (1 if x > 0 else -1)
            relators.append(w)
        # sympy's tables have columns x0, x0^-1, x1, x1^-1, ...
        expected = {
            _conjugacy_class([[row[2 * j] for row in table.table] for j in range(len(xs))])
            for table in low_index_subgroups(FpGroup(free, relators), 6)
        }
        found = [_conjugacy_class(a) for a in low_index_actions(p, 6)]
        assert len(set(found)) == len(found), d
        assert set(found) == expected, d


def test_low_index_actions_satisfy_every_relator():
    triangle = GroupPresentation(("a", "b"), ((1, 1), (2, 2, 2), (1, 2) * 7), 1)
    presentations = [triangle] + [
        rt.twist_rim_presentation(rt.presentation_of_knot(knot).reduced, d, m)
        for _, knot in SMALL_CORPUS
        for d, m in ((3, 0), (4, 2), (5, 5))
    ]
    found = 0
    for p in presentations:
        classes = set()
        for action in low_index_actions(p, 7):
            n = len(action[0])
            assert 1 <= n <= 7
            assert all(sorted(perm) == list(range(n)) for perm in action)
            for r in p.relators:
                assert all(_image(action, r, c) == c for c in range(n)), (p, action, r)
            # transitive: generators reach every point from 0
            reached = {0}
            frontier = [0]
            for c in frontier:
                for perm in action:
                    if perm[c] not in reached:
                        reached.add(perm[c])
                        frontier.append(perm[c])
            assert len(reached) == n
            classes.add(_conjugacy_class(action))
            found += 1
        assert len(classes) == sum(1 for _ in low_index_actions(p, 7))
    assert found > 50
    # the triangle group's smallest nontrivial quotient is PSL(2,7), on 7 points
    assert sorted(len(a[0]) for a in low_index_actions(triangle, 7)) == [1, 7, 7]


def test_finite_groups_are_never_certified_infinite():
    # B3/<<sigma1^d>> is finite for d < 6, of order 6, 24, 96 and 600
    for d, order in ((2, 6), (3, 24), (4, 96), (5, 600)):
        group = _trefoil_quotient(d)
        assert rt.todd_coxeter(group).order == order
        assert cover_tower(group, low_index_actions(group, 9), 10**6) is None, d
    # and the groups of pi1-enumerate's closing inputs: the trefoil with
    # d | m, the others with every twist m mod d, and d | m at d = 2 (and at
    # d = 3 for T(2,5)); neither tower finds a subgroup with a free H1
    cases = [(_trefoil_quotient(d), d) for d in range(2, 6)]
    for knot in (rt.parse_knot("T(2,5)"), rt.parse_knot("T(3,4)"), FIGURE_EIGHT):
        p = rt.presentation_of_knot(knot).reduced
        for d in range(2, 6):
            for t in range(d):
                if t or d == 2 or (rt.render(knot) == "T(2,5)" and d == 3):
                    cases.append((rt.twist_rim_presentation(p, d, t), d))
    assert len(cases) == 38
    for group, d in cases:
        assert rt.todd_coxeter(group, 200000).completed
        assert cover_tower(group, [shift_action(group, d)], 10**6) is None, group
        assert cover_tower(group, low_index_actions(group, 9), 10**6) is None, group


def _regular_action(action, limit):
    """The image of a permutation representation acting on itself, or None.

    ``action[j]`` is the permutation of generator j+1.  The image is
    built by closing the identity under right multiplication, so element
    k is the k-th one reached breadth-first and the result depends only
    on the kernel: ``regular[j][k]`` is element k times generator j+1.
    None when the image has more than ``limit`` elements.
    """
    identity = tuple(range(len(action[0])))
    place = {identity: 0}
    elements = [identity]
    regular = [[] for _ in action]
    for e in elements:
        for perm, row in zip(action, regular):
            h = tuple(perm[i] for i in e)
            k = place.get(h)
            if k is None:
                if len(elements) == limit:
                    return None
                k = place[h] = len(elements)
                elements.append(h)
            row.append(k)
    return regular


def _quotient_kernels(p, actions, limit):
    """H1 of the kernel of a finite quotient of G, when it has a free summand.

    The route that the cover tower no longer takes: the kernel of each
    action's image of at most ``limit`` elements, which is the stabilizer
    of the identity in the image's regular action (Sims, *Computation
    with Finitely Presented Groups*, ch. 5), taken once per kernel, and
    its H1.  The tower climbs from the point stabilizers alone.  None
    when no kernel shows a free summand.
    """
    seen = set()
    for action in actions:
        regular = _regular_action(action, limit)
        if regular is None or (key := tuple(map(tuple, regular))) in seen:
            continue
        seen.add(key)
        rows, ncols, _ = _schreier_rows(p.relators, regular)
        kernel = _homology(rows, ncols)[0]
        if kernel.free_rank:
            return kernel
    return None


def test_cover_tower_proves_what_the_quotient_kernels_prove():
    # the (2,3,7) triangle group through PSL(2,7), of order 168; the
    # trefoil at d = 7, 8, 9; the groups of pi1-enumerate's exhausting
    # inputs, all with d | m; and the figure-eight at d = 7 and the
    # trefoil sum at d = 5, 7 and 10, the twist m mod d given beside d:
    # wherever the kernel of an image of at most 500 elements has a free
    # H1, the tower from the point stabilizers of the same actions finds one
    triangle = GroupPresentation(("a", "b"), ((1, 1), (2, 2, 2), (1, 2) * 7), 1)
    cases = [triangle] + [_trefoil_quotient(d) for d in (7, 8, 9)]
    for knot, dts in (
        (rt.parse_knot("T(2,5)"), ((4, 0), (5, 0))),
        (rt.parse_knot("T(3,4)"), ((3, 0), (4, 0), (5, 0))),
        (rt.parse_knot("T(2,3)#mirror(T(2,3))"), ((2, 0), (5, 0), (7, 0), (10, 5))),
        (FIGURE_EIGHT, ((4, 0), (5, 0), (7, 0))),
    ):
        p = rt.presentation_of_knot(knot).reduced
        cases += [rt.twist_rim_presentation(p, d, t) for d, t in dts]
    certified = 0
    for group in cases:
        actions = list(low_index_actions(group, 9))
        if _quotient_kernels(group, actions, 500) is not None:
            certified += 1
            assert cover_tower(group, actions, 10**6).free_rank > 0, group
    # all but the figure-eight at d = 4, 5 and T(3,4) at d = 5
    assert certified == 13
    # the kernels do not certify the finite B3/<<sigma1^d>>, d < 6, and
    # neither does the tower (test_finite_groups_are_never_certified_infinite)
    for d in range(2, 6):
        group = _trefoil_quotient(d)
        assert _quotient_kernels(group, low_index_actions(group, 9), 500) is None, d


def _kernel_homology(p, d):
    """H1 of the kernel K of G -> Z/d sending every generator to 1, then of [K, K].

    The route that the tower over K replaced: empty when the map does
    not exist, and H1([K, K]) only when H1(K) is finite and nontrivial
    and d·|H1(K)| is at most 200.  A free summand in either proves G
    infinite.
    """
    if any(total_exponent(r) % d for r in p.relators):
        return []
    shift = shift_action(p, d)
    rows, ncols, column = _schreier_rows(p.relators, shift)
    kernel, images = _homology(rows, ncols)
    order = kernel.order()
    if order is None or order == 1 or d * order > 200:
        return [kernel]
    action = groups._lift_action(shift, column, images, kernel.torsion)
    rows, ncols, _ = _schreier_rows(p.relators, action)
    return [kernel, _homology(rows, ncols)[0]]


def test_cover_tower_over_k_proves_what_the_kernel_homology_proves():
    # the groups of the 490-case sweep in test_determine_pi1_matches_wirtinger_route,
    # and the trefoil at d = 600 and 606 with d | m, where K's index exceeds
    # TOWER_INDEX: wherever the oracle finds a free H1(K) or H1([K, K]), the
    # tower over K finds a free summand too
    knots = [k for _, k in SMALL_CORPUS] + [rt.parse_knot("T(2,7)"), rt.parse_knot("T(3,5)")]
    cases = []
    for knot in knots:
        p = rt.presentation_of_knot(knot).reduced
        for d in range(2, 8):
            for m in range(-2, 9):
                if not rt.congruent_pm1(d, m):
                    group = rt.twist_rim_presentation(p, d, m)
                    cases += [(group, d, budget) for budget in (3000, 50000)]
    assert len(cases) == 490
    cases += [(_trefoil_quotient(d), d, 10**6) for d in (600, 606)]
    certified = 0
    for group, d, budget in cases:
        if any(h.free_rank for h in _kernel_homology(group, d)):
            certified += 1
            assert cover_tower(group, [shift_action(group, d)], budget).free_rank > 0, (d, budget)
    # 45 groups of the sweep at each budget, and both trefoils
    assert certified == 92


def test_cover_tower_rejects_a_wrong_action():
    # the trefoil at d = 8: H1(K) = Z/3, and K's cover of index 3 comes from
    # the images of K's Schreier generators in it
    group = _trefoil_quotient(8)
    shift = shift_action(group, 8)
    rows, ncols, column = _schreier_rows(group.relators, shift)
    kernel, images = _homology(rows, ncols)
    assert kernel == AbelianInvariants(0, (3,))
    lifted = groups._lift_action(shift, column, images, (3,))
    assert len(lifted[0]) == 24
    for r in group.relators:
        assert all(_image(lifted, r, c) == c for c in range(24)), r
    _schreier_rows(group.relators, lifted)
    # sending every Schreier generator to 1 is no homomorphism: the
    # action breaks a relator, so the tower raises instead of certifying
    wrong = groups._lift_action(shift, column, [(1,)] * len(images), (3,))
    with pytest.raises(RuntimeError, match="does not fix"):
        cover_tower(group, [wrong], 10**6)
    with pytest.raises(RuntimeError, match="not transitive"):
        cover_tower(group, [[[0, 1]] * group.generator_count], 10**6)


def test_budget_caps_the_cover_tower():
    # the figure-eight at d = 5: the first subgroup with a free H1 that the
    # tower over point stabilizers reaches has index 330
    fig8 = rt.presentation_of_knot(FIGURE_EIGHT)
    group = rt.twist_rim_presentation(fig8.reduced, 5, 0)
    actions = list(low_index_actions(group, 9))
    assert cover_tower(group, actions, 330).free_rank > 0
    assert cover_tower(group, actions, 329) is None
    # below that budget the kernel's nontrivial H1 is all that is proven
    assert rt.surgery.determine_pi1(fig8, 5, 5, 330) == (
        Pi1Verdict("undetermined", None, "infinite-subgroup-homology"), True
    )
    assert rt.surgery.determine_pi1(fig8, 5, 5, 329) == (
        Pi1Verdict("undetermined", None, "kernel-homology"), True
    )


def test_low_index_actions_read_a_power_of_one_letter_once():
    # a^N holds for a permutation of degree at most 9 exactly when
    # a^gcd(N, 2520) does, so a million letters cost 40 per scan
    cyclic = GroupPresentation(("a",), ((1,) * 10**6,), 1)
    actions = list(low_index_actions(cyclic, 9))
    assert sorted(len(a[0]) for a in actions) == [1, 2, 4, 5, 8]
    for (perm,) in actions:
        # a cycle through every point, so a^N fixes each of them
        assert {_image([perm], (1,) * k, 0) for k in range(len(perm))} == set(range(len(perm)))


def test_low_index_search_stops_at_its_step_bound(monkeypatch):
    # the figure-eight at d = 4 has 13 classes of subgroups of index at most
    # 9; the step bound stops the search after 10 of them
    fig8 = rt.presentation_of_knot(FIGURE_EIGHT).reduced
    group = rt.twist_rim_presentation(fig8, 4, 0)
    assert len(list(low_index_actions(group, 9))) == 10
    monkeypatch.setattr(groups, "LOW_INDEX_STEPS", 10**9)
    assert len(list(low_index_actions(group, 9))) == 13

