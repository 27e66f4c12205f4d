import random
from math import gcd

import pytest

import rimtwist.laurent
from rimtwist.alexander import torus_alexander
from rimtwist.laurent import (
    REMAINDER_BITS,
    LaurentPoly,
    _pseudo_divmod,
    _resultant,
    laurent_det,
    poly_text,
    resultant_with_cyclotomic,
)

from helpers import lucas

ONE = LaurentPoly.one()
T = LaurentPoly.t_power(1)


def P(min_exp, *coeffs):
    return LaurentPoly(min_exp, coeffs)


def test_normal_form_trims_zeros():
    assert P(0, 0, 1, 0) == P(1, 1)
    assert P(-3, 0, 0, 0) == LaurentPoly.zero()
    assert LaurentPoly.zero().min_exp == 0


def test_ring_basics():
    f = P(0, 1, -1, 1)  # 1 - t + t^2
    g = P(-1, 1, 1)  # t^-1 + 1
    assert f + g == P(-1, 1, 2, -1, 1)
    assert f - f == LaurentPoly.zero()
    assert (f * g).coeff(-1) == 1
    assert f * ONE == f
    assert f * LaurentPoly.zero() == LaurentPoly.zero()
    assert T * T * T * T * T == P(5, 1)


def test_mul_commutes_with_evaluation():
    rng = random.Random(7)
    for _ in range(100):
        f = P(rng.randint(-3, 3), *[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        g = P(rng.randint(-3, 3), *[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        for x in (1, -1):
            assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
            assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)


def test_evaluate_refuses_negative_powers_at_non_units():
    f = P(-1, 1, 2)  # t^-1 + 2
    assert (f.evaluate(1), f.evaluate(-1)) == (3, 1)
    assert P(2, 1, 2).evaluate(3) == 9 + 2 * 27
    for x in (0, 2, -3):
        with pytest.raises(ValueError, match="negative powers at non-unit"):
            f.evaluate(x)


def test_reverse_is_involution():
    f = P(-2, 3, 0, -1, 5)
    assert f.reverse().reverse() == f
    assert ONE.reverse() == ONE


def test_div_exact_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        f = P(rng.randint(-3, 3), *[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        g = P(rng.randint(-3, 3), *[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        if not f or not g:
            continue
        assert (f * g) // g == f


def test_div_exact_rejects_remainder():
    assert P(-1, 2, -4, 6) // 2 == P(-1, 1, -2, 3)
    assert P(0, 2, 3, 1) // P(0, 1, 1) == P(0, 2, 1)
    assert LaurentPoly.zero() // P(-2, 3, 1) == LaurentPoly.zero()
    # a remainder; a quotient over Q that is not integral; a divisor of higher degree
    for num, den in ((P(0, 1, 1, 1), P(0, 1, 1)), (P(0, 1, 1), P(0, 2, 2)), (P(0, 1), P(0, 1, 1))):
        with pytest.raises(ValueError):
            num // den
    with pytest.raises(ValueError):
        P(0, 3) // 2
    with pytest.raises(ZeroDivisionError):
        ONE // LaurentPoly.zero()


def test_normalize_convention():
    f = P(-3, -1, 1, -1)  # -t^-3 + t^-2 - t^-1
    n = f.normalize()
    assert n.min_exp == 0
    assert n.coeffs[0] > 0
    assert n == P(0, 1, -1, 1)
    assert f.unit_equal(P(0, 1, -1, 1))
    assert not f.unit_equal(P(0, 1, 1))


def test_poly_text():
    assert poly_text(P(0, 1, -1, 1)) == "t^2 - t + 1"
    assert poly_text(P(0, 1, -3, 1)) == "t^2 - 3t + 1"
    assert poly_text(ONE) == "1"
    assert poly_text(LaurentPoly.zero()) == "0"
    assert poly_text(P(-1, 2, 0, -1)) == "-t + 2t^-1"
    assert poly_text(P(1, 1)) == "t"


def test_json_roundtrip():
    f = P(-2, 3, 0, -1)
    assert LaurentPoly.from_json(f.to_json()) == f


def _det_cofactor(m):
    """Oracle: cofactor expansion along the first row, over Z or Z[t, t^-1]."""
    n = len(m)
    if n == 0:
        return ONE
    if n == 1:
        return m[0][0]
    terms = [m[0][j] * _det_cofactor([row[:j] + row[j + 1 :] for row in m[1:]]) for j in range(n)]
    acc = terms[0]
    for j, term in enumerate(terms[1:], 1):
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_laurent_det_against_cofactor_expansion():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = [
            [
                P(rng.randint(-1, 1), *[rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert laurent_det(m) == _det_cofactor([row[:] for row in m])


def test_laurent_det_edge_cases():
    assert laurent_det([]) == 1
    assert laurent_det([[P(0, 5)]]) == P(0, 5)
    # singular matrix
    row = [P(0, 1, 1), P(0, 2)]
    assert laurent_det([row, row]) == LaurentPoly.zero()


def _random_laurent_matrix(rng, n, kind):
    """A seeded n x n matrix over Z[t, t^-1] that stresses the Kronecker decoding.

    Entries lie in exponents -20..20 with up to 31 terms, coefficients up
    to 10^6 in absolute value and about one in twenty of them +-2^70.
    "zero-row" and "zero-column" zero one row or column, "unit-row" makes
    one row a lone +-t^k, and "singular" makes the last row a
    Z[t, t^-1]-combination of two earlier ones.
    """

    def coeff():
        size = 2**70 if rng.random() < 0.05 else rng.randint(1, 10**6)
        return rng.choice((-1, 1)) * size

    def entry():
        if rng.random() < 0.2:
            return LaurentPoly.zero()
        length = rng.randint(1, rng.choice((3, 31)))
        return P(rng.randint(-20, 21 - length), *[coeff() for _ in range(length)])

    m = [[entry() for _ in range(n)] for _ in range(n)]
    i = rng.randrange(n)
    if kind == "zero-row":
        m[i] = [LaurentPoly.zero()] * n
    elif kind == "zero-column":
        for row in m:
            row[i] = LaurentPoly.zero()
    elif kind == "unit-row":
        m[i] = [LaurentPoly.zero()] * n
        m[i][rng.randrange(n)] = P(rng.randint(-20, 20), rng.choice((-1, 1)))
    elif kind == "singular" and n > 1:
        a, b = rng.randrange(n - 1), rng.randrange(n - 1)
        ca = P(rng.randint(-3, 3), *[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        cb = P(rng.randint(-3, 3), rng.randint(-3, 3))
        m[-1] = [ca * x + cb * y for x, y in zip(m[a], m[b])]
    return m


LAURENT_MATRIX_KINDS = ("dense", "zero-row", "zero-column", "unit-row", "singular")


def test_laurent_det_kronecker_against_cofactor_expansion():
    rng = random.Random(67)
    nonzero = 0
    for trial in range(100):
        kind = LAURENT_MATRIX_KINDS[trial % len(LAURENT_MATRIX_KINDS)]
        m = _random_laurent_matrix(rng, 1 + trial % 6, kind)
        det = laurent_det(m)
        assert det == _det_cofactor([row[:] for row in m]), (kind, m)
        if kind in ("zero-row", "zero-column") or kind == "singular" and len(m) > 1:
            assert det == LaurentPoly.zero(), (kind, m)
        nonzero += bool(det)
    assert nonzero > 30


def test_laurent_det_kronecker_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring = sympy.ZZ[sympy.symbols("t")]
    rng = random.Random(71)
    for trial, kind in enumerate(LAURENT_MATRIX_KINDS):
        n = 7 + trial % 4
        m = _random_laurent_matrix(rng, n, kind)
        # over Z[t]: every entry times t^-low, so the determinant times t^(-n low)
        low = min(x.min_exp for row in m for x in row if x)
        rows = [
            [ring.ring.from_dict({(x.min_exp - low + i,): c for i, c in enumerate(x.coeffs)}) for x in row]
            for row in m
        ]
        det = DomainMatrix(rows, (n, n), ring).det()
        terms = {k: c for (k,), c in det.to_dict().items()}
        expected = LaurentPoly(n * low, [int(terms.get(k, 0)) for k in range(max(terms, default=-1) + 1)])
        assert laurent_det(m) == expected, (kind, m)


def test_int_det_known():
    assert laurent_det([]) == 1
    assert laurent_det([[7]]) == 7
    assert laurent_det([[1, 2], [3, 4]]) == -2
    assert laurent_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert laurent_det([[1, 2], [2, 4]]) == 0
    assert laurent_det([[0, 1], [1, 0]]) == -1
    assert laurent_det([[0, 2], [0, 3]]) == 0
    with pytest.raises(ValueError):
        laurent_det([[1, 2], [3]])


def _random_int_matrix(rng, n, kind):
    """A seeded n x n integer matrix of one of several shapes.

    "singular" makes the last row a combination of two earlier ones,
    "zero-pivot" zeroes the top-left entry, "zero-column" the first
    column, and "sparse" leaves most entries (so most row heads) zero.
    """
    bound = 3 if kind == "sparse" else 9
    m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    if kind == "sparse":
        m = [[x if rng.random() < 0.3 else 0 for x in row] for row in m]
    elif kind == "singular" and n > 1:
        a, b = rng.randrange(n - 1), rng.randrange(n - 1)
        ca, cb = rng.randint(-3, 3), rng.randint(-3, 3)
        m[-1] = [ca * x + cb * y for x, y in zip(m[a], m[b])]
    elif kind == "zero-pivot":
        m[0][0] = 0
    elif kind == "zero-column":
        for row in m:
            row[0] = 0
    return m


INT_MATRIX_KINDS = ("dense", "singular", "zero-pivot", "zero-column", "sparse")


def test_int_det_against_cofactor_expansion():
    rng = random.Random(53)
    zeros = nonzeros = 0
    for trial in range(400):
        kind = INT_MATRIX_KINDS[trial % len(INT_MATRIX_KINDS)]
        m = _random_int_matrix(rng, rng.randint(1, 6), kind)
        det = laurent_det(m)
        assert type(det) is int
        assert det == _det_cofactor([row[:] for row in m]), (kind, m)
        if kind in ("singular", "zero-column") and len(m) > 1:
            assert det == 0, (kind, m)
        zeros += det == 0
        nonzeros += det != 0
    assert zeros > 100 and nonzeros > 100


def test_int_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(59)
    for trial in range(60):
        kind = INT_MATRIX_KINDS[trial % len(INT_MATRIX_KINDS)]
        m = _random_int_matrix(rng, rng.randint(7, 14), kind)
        assert laurent_det(m) == sympy.Matrix(m).det(method="berkowitz"), (kind, m)


def _circulant_resultant(delta, d):
    """Independent oracle: Res(t^d - 1, g) = det of g(C) for the cyclic shift C."""
    g = delta.normalize()
    rows = [[0] * d for _ in range(d)]
    for i, c in enumerate(g.coeffs):
        k = (g.min_exp + i) % d
        for r in range(d):
            rows[(r + k) % d][r] += c

    def det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        acc = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            acc += (-1) ** j * m[0][j] * det(minor)
        return acc

    return det(rows)


def test_resultant_examples():
    phi6 = P(0, 1, -1, 1)  # t^2 - t + 1
    assert resultant_with_cyclotomic(phi6, 2) == 3  # delta(1) * delta(-1)
    assert resultant_with_cyclotomic(phi6, 6) == 0  # sixth root of unity is a root
    square = (phi6 * phi6).normalize()
    assert resultant_with_cyclotomic(square, 5) == 1


def test_resultant_small_d_evaluation_oracle():
    rng = random.Random(31)
    for _ in range(80):
        f = P(rng.randint(-2, 2), *[rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        if not f:
            continue
        g = f.normalize()
        assert resultant_with_cyclotomic(f, 1) == g.evaluate(1)
        assert resultant_with_cyclotomic(f, 2) == g.evaluate(1) * g.evaluate(-1)


def test_resultant_circulant_oracle():
    rng = random.Random(37)
    for _ in range(40):
        f = P(rng.randint(-2, 2), *[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        if not f:
            continue
        for d in range(1, 7):
            assert resultant_with_cyclotomic(f, d) == _circulant_resultant(f, d), (f, d)


def test_resultant_validation():
    with pytest.raises(ValueError):
        resultant_with_cyclotomic(ONE, 0)
    with pytest.raises(ValueError):
        resultant_with_cyclotomic(LaurentPoly.zero(), 3)
    # constants: resultant is c^d
    assert resultant_with_cyclotomic(P(0, 2), 3) == 8
    assert resultant_with_cyclotomic(ONE, 11) == 1


def test_resultant_unit_invariance():
    f = P(0, 1, -1, 1)
    for unit_shift in (-2, 1, 3):
        shifted = f * LaurentPoly.t_power(unit_shift)
        assert resultant_with_cyclotomic(shifted, 4) == resultant_with_cyclotomic(f, 4)
        assert resultant_with_cyclotomic(-shifted, 4) == resultant_with_cyclotomic(f, 4)


def _sylvester(a, b):
    """Oracle: Res(a, b) as the determinant of the Sylvester matrix (ascending lists)."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    assert all(len(row) == size for row in rows)
    return laurent_det(rows)


def _sylvester_resultant(delta, d):
    """Oracle: the (d + e)-square Sylvester determinant of t^d - 1 and delta'."""
    return _sylvester([-1] + [0] * (d - 1) + [1], list(delta.normalize().coeffs))


def _random_poly(rng, degree, bound=6):
    """Ascending integer coefficients of exactly this degree; the leading one may be negative."""
    lead = rng.choice([c for c in range(-bound, bound + 1) if c])
    return [rng.randint(-bound, bound) for _ in range(degree)] + [lead]


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pseudo_divmod_pairs(rng):
    """Seeded (kind, p, g) pairs for the pseudo-division checks.

    Leading coefficients of g are nonzero in [-6, 6], so many are
    negative or non-units; "short" has deg p < deg g, "constant" a
    constant g, "shifted" a p with a zero constant term, and "exact" a
    p that g divides.
    """
    for trial in range(300):
        kind = ("dense", "short", "constant", "shifted", "exact")[trial % 5]
        g = _random_poly(rng, rng.randint(1, 6))
        p = _random_poly(rng, rng.randint(0, 10))
        if kind == "short":
            p = _random_poly(rng, rng.randint(0, len(g) - 2))
        elif kind == "constant":
            g = [rng.choice((-6, -3, -1, 1, 2, 5))]
        elif kind == "shifted":
            p = [0] * rng.randint(1, 3) + p
        elif kind == "exact":
            p = _times(_random_poly(rng, rng.randint(0, 5)), g)
        yield kind, p, g


def test_pseudo_divmod_identity():
    rng = random.Random(71)
    for kind, p, g in _pseudo_divmod_pairs(rng):
        q, r, k = _pseudo_divmod(p, g)
        assert len(r) < len(g) and (not r or r[-1]), (kind, p, g)
        assert len(q) == max(len(p) - len(g) + 1, 0)
        qg = _times(q, g) if q else []
        rhs = [(qg[i] if i < len(qg) else 0) + (r[i] if i < len(r) else 0) for i in range(len(p))]
        assert [k * x for x in p] == rhs, (kind, p, g)
        assert k > 0 and abs(g[-1]) ** len(q) % k == 0, (kind, p, g)
        if kind == "exact" or abs(g[-1]) == 1:
            assert k == 1, (kind, p, g)
        if kind == "exact":
            assert r == [], (p, g)
        if kind == "short":
            assert (q, r, k) == ([], p, 1)
    assert _pseudo_divmod([], [3, 2]) == ([], [], 1)


def test_pseudo_divmod_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(73)

    def poly(coeffs):
        return sympy.Poly(coeffs[::-1] or [0], t)

    for kind, p, g in _pseudo_divmod_pairs(rng):
        q, r, k = _pseudo_divmod(p, g)
        # sympy scales by lc(g)^(deg p - deg g + 1), a multiple of k
        scale = g[-1] ** max(len(p) - len(g) + 1, 0)
        assert scale % k == 0, (kind, p, g)
        quot, rem = sympy.pdiv(poly(p), poly(g))
        assert quot == poly([x * scale // k for x in q]), (kind, p, g)
        assert rem == poly([x * scale // k for x in r]), (kind, p, g)
        assert sympy.prem(poly(p), poly(g)) == rem


def _resultant_pairs(rng):
    """Seeded (kind, a, b) pairs for the subresultant oracles.

    "content" scales both operands by non-unit integers of either sign;
    "gap" builds a = q b + r with deg r <= deg b - 2, so the second step
    of the remainder sequence drops two or more degrees while h is a
    non-unit power of lc(b); "shared" multiplies both by one factor of
    positive degree; "constant" makes one operand a constant.
    """
    for trial in range(240):
        kind = ("dense", "content", "gap", "shared", "constant")[trial % 5]
        a = _random_poly(rng, rng.randint(1, 8))
        b = _random_poly(rng, rng.randint(1, 8))
        if kind == "content":
            a = [rng.choice((-6, -4, 2, 3, 9)) * x for x in a]
            b = [rng.choice((-5, -2, 4, 6, 10)) * x for x in b]
        elif kind == "gap":
            b = _random_poly(rng, rng.randint(3, 7))
            b[-1] = rng.choice((-3, -2, 2, 3, 5))
            r = _random_poly(rng, rng.randint(0, len(b) - 3))
            qb = _times(_random_poly(rng, rng.randint(1, 3)), b)
            a = [x + (r[i] if i < len(r) else 0) for i, x in enumerate(qb)]
        elif kind == "shared":
            f = _random_poly(rng, rng.randint(1, 3))
            a, b = _times(a, f), _times(b, f)
        elif kind == "constant":
            a = [rng.choice((-7, -2, -1, 1, 3, 8))]
        if rng.random() < 0.5:
            a, b = b, a
        yield kind, a, b


def test_subresultant_against_sylvester():
    rng = random.Random(61)
    zeros = 0
    for kind, a, b in _resultant_pairs(rng):
        res = _resultant(a, b)
        assert type(res) is int
        assert res == _sylvester(a, b), (kind, a, b)
        assert _resultant(b, a) == (-1) ** ((len(a) - 1) * (len(b) - 1)) * res, (kind, a, b)
        if kind == "shared":
            assert res == 0, (a, b)
        zeros += res == 0
    assert zeros == 48  # the shared factors, and no other pair


def test_subresultant_edge_cases():
    assert _resultant([5], [-3]) == 1
    assert _resultant([2], [1, 0, 1]) == 4  # c^deg b
    assert _resultant([1, 0, 1], [-2]) == 4
    assert _resultant([0, 1], [3, 2]) == _sylvester([0, 1], [3, 2]) == 3
    assert _resultant([-1, 0, 1], [1, 1]) == 0  # t + 1 divides t^2 - 1


def test_subresultant_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(67)
    for kind, a, b in _resultant_pairs(rng):
        # sympy 1.14 swaps a lower-degree first operand without the sign
        # (resultant(t, t^3 + 2) gives -2, not 2), so it gets the higher first
        res = _resultant(a, b)
        if len(a) < len(b):
            a, b = b, a
            res *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        fa = sum(c * t**i for i, c in enumerate(a))
        fb = sum(c * t**i for i, c in enumerate(b))
        assert res == sympy.resultant(fa, fb, t), (kind, a, b)


def _oracle_degrees(e, d_max, extra=()):
    """1..d_max, the boundary values around e and 2e, and any extras."""
    degrees = {*range(1, d_max + 1), e - 1, e, e + 1, 2 * e, 2 * e + 1, *extra}
    return sorted(d for d in degrees if d >= 1)


# the trefoil; non-monic polynomials, one of them (2t^2 - 3t + 2)(t^2 - t + 1);
# 2 - 3t, whose leading coefficient is negative; constants
NAMED_POLYS = [
    torus_alexander(2, 3),
    P(0, 2, -3, 2),
    P(0, 2, -5, 7, -5, 2),
    P(0, 2, -3),
    P(0, 1),
    P(-2, -3),
    P(0, 2),
]


def test_resultant_sylvester_oracle_named():
    zeros = set()
    for i, f in enumerate(NAMED_POLYS):
        for d in _oracle_degrees(f.normalize().max_exp, 60, extra=(97, 241)):
            r = resultant_with_cyclotomic(f, d)
            assert r == _sylvester_resultant(f, d), (f, d)
            if r == 0:
                zeros.add((i, d))
    # a sixth root of unity is a root of exactly the polynomials with the trefoil factor
    assert zeros == {(i, d) for i in (0, 2) for d in range(6, 61, 6)}


def test_resultant_sylvester_oracle_torus():
    for p in range(2, 5):
        for q in range(p + 1, 10):
            if gcd(p, q) != 1:
                continue
            delta = torus_alexander(p, q)
            for f in (delta, delta * delta):
                for d in _oracle_degrees(f.max_exp, 30):
                    assert resultant_with_cyclotomic(f, d) == _sylvester_resultant(f, d), (p, q, d)


def test_resultant_sylvester_oracle_random():
    rng = random.Random(43)
    count = 0
    while count < 40:
        f = P(rng.randint(-3, 3), *[rng.randint(-5, 5) for _ in range(rng.randint(1, 9))])
        if not f:
            continue
        count += 1
        for d in _oracle_degrees(f.normalize().max_exp, 30):
            assert resultant_with_cyclotomic(f, d) == _sylvester_resultant(f, d), (f, d)


def test_resultant_large_d_figure_eight():
    # prod over w^d = 1 of (w - phi^2)(w - phi^-2) = 2 - L_2d
    d = 10**5
    assert resultant_with_cyclotomic(P(0, 1, -3, 1), d) == 2 - lucas(2 * d)


def test_resultant_remainder_size_is_bounded(monkeypatch):
    # the figure-eight's remainder grows by about 1.39 bits a step of d, so it
    # passes 2^21 bits before d = 2 * 10^6, and a huge d stops as early
    assert REMAINDER_BITS == 1 << 21
    for d in (2 * 10**6, 10**12):
        with pytest.raises(ValueError, match="t\\^2 - 3t \\+ 1 passes 2097152 bits"):
            resultant_with_cyclotomic(P(0, 1, -3, 1), d)
    # roots of unity keep the remainder small at any d
    assert resultant_with_cyclotomic(P(0, 1, -1, 1), 10**12) == 3
    # 2t^2 - 3t + 2 has its roots on the unit circle, but its remainder's
    # denominator grows by 1 bit a step of d
    below = resultant_with_cyclotomic(P(0, 2, -3, 2), 4000)
    monkeypatch.setattr(rimtwist.laurent, "REMAINDER_BITS", 1 << 12)
    assert resultant_with_cyclotomic(P(0, 2, -3, 2), 4000) == below
    with pytest.raises(ValueError, match="passes 4096 bits"):
        resultant_with_cyclotomic(P(0, 2, -3, 2), 5000)


def test_resultant_large_d_non_monic():
    # 2t^2 - 3t + 2 = 2(t - a)(t - b) with a + b = 3/2 and ab = 1, so the
    # product is 2^d (2 - a^d - b^d) = 2^(d+1) - u_d with u_d = 2^d (a^d + b^d)
    d = 2 * 10**4
    u, u_next = 2, 3
    for _ in range(d):
        u, u_next = u_next, 3 * u_next - 4 * u
    assert resultant_with_cyclotomic(P(0, 2, -3, 2), d) == 2 ** (d + 1) - u
