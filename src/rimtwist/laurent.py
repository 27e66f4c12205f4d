"""Exact Laurent-polynomial arithmetic over the integers.

Single variable t, arbitrary-precision integer coefficients, no
floating point anywhere.  This module also carries the one
fraction-free (Bareiss) determinant over Z, which takes a determinant
over Z[t, t^-1] too once Kronecker substitution has packed the matrix
into integers, and the resultant against t^d - 1 used by the
branched-cover order formula, taken by a reduction modulo the
polynomial and a subresultant remainder sequence.  One integer
pseudo-division, ``_pseudo_divmod``, does every polynomial division
here: the exact quotients of ``//``, that reduction, and the
remainders of that sequence.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

# the largest remainder of t^d - 1 modulo delta, in bits of its leading
# numerator or its denominator, that ``resultant_with_cyclotomic`` carries on
REMAINDER_BITS = 1 << 21


class LaurentPoly:
    """An element of Z[t, t^-1].

    Stored as ``min_exp`` plus a coefficient tuple: ``coeffs[i]`` is
    the coefficient of ``t**(min_exp + i)``.  The zero polynomial has
    an empty tuple; otherwise the first and last coefficients are
    nonzero.
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int = 0, coeffs: Sequence[int] = ()):
        lo = 0
        hi = len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "min_exp", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "min_exp", min_exp + lo)
            object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(0, (1,))

    @staticmethod
    def t_power(k: int, c: int = 1) -> "LaurentPoly":
        """The monomial c * t^k."""
        return LaurentPoly(k, (c,))

    # -- basic queries ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            return 0
        return self.min_exp + len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        i = k - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self:
            return other
        if not other:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_exp - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exp - lo + i] += c
        return LaurentPoly(lo, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LaurentPoly.zero()
        if len(a) == 1:
            c = a[0]
            return LaurentPoly(self.min_exp + other.min_exp, tuple(c * x for x in b))
        if len(b) == 1:
            c = b[0]
            return LaurentPoly(self.min_exp + other.min_exp, tuple(c * x for x in a))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return LaurentPoly(self.min_exp + other.min_exp, out)

    def reverse(self) -> "LaurentPoly":
        """Substitute t -> t^-1."""
        return LaurentPoly(-self.max_exp, tuple(reversed(self.coeffs)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.min_exp, self.coeffs))

    # -- division -----------------------------------------------------

    def __floordiv__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        """Exact quotient self / other; raises if the division has a remainder.

        An int divisor is a constant polynomial.  Division in
        Z[t, t^-1]: shift both operands to honest polynomials with
        nonzero constant term, divide in Z[t] by ``_pseudo_divmod``, and
        restore the exponent offset.  The division is exact when it
        scaled nothing (k = 1) and left no remainder.
        """
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        quot, rem, k = _pseudo_divmod(self.coeffs, other.coeffs)
        if k != 1 or rem:
            raise ValueError("inexact polynomial division")
        return LaurentPoly(self.min_exp - other.min_exp, quot)

    def evaluate(self, x: int) -> int:
        """Evaluate at an integer; x must be a unit (+-1) if min_exp < 0."""
        if not self:
            return 0
        if self.min_exp < 0 and x not in (1, -1):
            raise ValueError("cannot evaluate negative powers at non-unit integer")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.min_exp:
            acc *= x ** self.min_exp if self.min_exp > 0 else x ** (-self.min_exp)
        return acc

    # -- normal form ----------------------------------------------------

    def normalize(self) -> "LaurentPoly":
        """Unit-multiple representative: min_exp = 0, positive constant term."""
        if not self:
            return self
        sign = 1 if self.coeffs[0] > 0 else -1
        return LaurentPoly(0, tuple(sign * c for c in self.coeffs))

    def unit_equal(self, other: "LaurentPoly") -> bool:
        """Equality up to multiplication by +-t^k."""
        return self.normalize() == other.normalize()

    # -- presentation ---------------------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({self.min_exp}, {self.coeffs})"

    def __str__(self) -> str:
        return poly_text(self)

    def to_json(self) -> dict:
        return {"min_exp": self.min_exp, "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        return LaurentPoly(int(obj["min_exp"]), [int(c) for c in obj["coeffs"]])


def poly_text(p: LaurentPoly) -> str:
    """Render as e.g. ``t^2 - t + 1`` (descending exponents)."""
    if not p:
        return "0"
    parts: list[str] = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        e = p.min_exp + i
        if e == 0:
            body = str(abs(c))
        else:
            tpart = "t" if e == 1 else f"t^{e}"
            body = tpart if abs(c) == 1 else f"{abs(c)}{tpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# -- determinants ------------------------------------------------------


def laurent_det(
    matrix: Sequence[Sequence[int]] | Sequence[Sequence[LaurentPoly]],
) -> int | LaurentPoly:
    """Determinant of a square matrix over Z or over Z[t, t^-1].

    The entries are all ints or all ``LaurentPoly``; the 0x0 matrix
    gives the int 1.  Over Z[t, t^-1] the matrix becomes one integer
    matrix by Kronecker substitution: each row is divided by t to its
    least exponent, every entry is evaluated at t = 2^B, and the
    integer determinant is read back as signed base-2^B digits.  The
    coefficients of the determinant are bounded in absolute value by
    the product over the rows of the sum of the entries' coefficient
    1-norms, so 2^(B-1) above that product makes every digit exact.
    A zero row gives 0 and a 1x1 matrix its entry, with no substitution.
    """
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if not isinstance(matrix[0][0], LaurentPoly):
        return _bareiss([list(row) for row in matrix])
    if n == 1:
        return matrix[0][0]
    lows = []
    bound = 1
    for row in matrix:
        live = [x for x in row if x]
        if not live:
            return LaurentPoly.zero()
        lows.append(min(x.min_exp for x in live))
        bound *= sum(abs(c) for x in live for c in x.coeffs)
    bits = bound.bit_length() + 1
    packed = []
    for row, lo in zip(matrix, lows):
        out = []
        for x in row:
            acc = 0
            for c in reversed(x.coeffs):
                acc = (acc << bits) + c
            out.append(acc << (bits * (x.min_exp - lo)) if acc else 0)
        packed.append(out)
    value = _bareiss(packed)
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    coeffs = []
    while value:
        c = ((value + half) & mask) - half
        coeffs.append(c)
        value = (value - c) >> bits
    return LaurentPoly(sum(lows), coeffs)


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix, eliminating in place.

    Fraction-free Bareiss elimination (Bareiss 1968): every division is
    exact and every intermediate entry is a minor of the input, so
    coefficient growth stays polynomial.  A row whose head is already
    zero is only rescaled.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        tail_k = row_k[k + 1 :]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            if head:
                row_i[k + 1 :] = [
                    (pivot * a - head * b) // prev for a, b in zip(row_i[k + 1 :], tail_k)
                ]
            else:
                row_i[k + 1 :] = [pivot * a // prev for a in row_i[k + 1 :]]
        prev = pivot
    return sign * m[n - 1][n - 1]


def _pseudo_divmod(p: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division: (q, r, k) with k * p = q * g + r and deg r < deg g.

    Coefficient lists are ascending, and g's last entry is nonzero.  Each
    step cancels the leading term of p; when c, the leading coefficient
    of g, does not divide that term, p and q are first scaled by
    |c| / gcd(lead, c).  So k > 0 divides a power of c, and k = 1 exactly
    when the quotient over Q is integral, as it is when g divides p in
    Z[t] or c = +-1.  (Knuth, TAOCP vol. 2, 4.6.1.)
    """
    e = len(g) - 1
    c = g[-1]
    p = list(p)
    q = [0] * max(len(p) - e, 0)
    k = 1
    for base in range(len(q) - 1, -1, -1):
        a = p[base + e]
        if a == 0:
            continue
        if a % c:
            h = gcd(a, c) if c > 0 else -gcd(a, c)
            s = c // h
            p = [s * x for x in p[: base + e]]
            q = [s * x for x in q]
            k *= s
            a //= h
        else:
            a //= c
        q[base] = a
        for i in range(e):
            p[base + i] -= a * g[i]
    r = p[:e]
    while r and r[-1] == 0:
        r.pop()
    return q, r, k


def _square_mod(a: list[int], g: list[int]) -> tuple[list[int], int]:
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(a):
                out[i + j] += x * y
    return _pseudo_divmod(out, g)[1:]


def _resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) of two nonzero integer polynomials, by the subresultant PRS.

    Coefficient lists are ascending with a nonzero last entry.  Collins's
    subresultant remainder sequence (Collins 1967; Cohen, *A Course in
    Computational Algebraic Number Theory*, Algorithm 3.3.7): the
    contents are divided out first, each pseudo-remainder lc(b)^(delta+1) a
    mod b is divided exactly by g h^delta, and the sign follows the
    odd-by-odd degree pairs.  O(deg a * deg b) coefficient steps whose
    sizes stay linear in the degrees, against the cubic determinant of
    the Sylvester matrix.  A remainder that vanishes means a common
    factor and gives 0.
    """
    m, n = len(a) - 1, len(b) - 1
    sign = 1
    if m < n:
        a, b, m, n = b, a, n, m
        if m * n % 2:
            sign = -1
    if n == 0:
        return b[0] ** m
    ca, cb = gcd(*a), gcd(*b)
    scale = ca**n * cb**m
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    g = h = 1
    while n > 0:
        delta = m - n
        if m % 2 and n % 2:
            sign = -sign
        lead = b[-1]
        _, r, k = _pseudo_divmod(a, b)
        if not r:
            return 0
        mul, div = lead ** (delta + 1) // k, g * h**delta
        a, m = b, n
        b = [x * mul // div for x in r]
        n = len(b) - 1
        g = lead
        if delta:
            h = g**delta // h ** (delta - 1)
    return sign * scale * b[0] ** m // h ** (m - 1)


def resultant_with_cyclotomic(delta: LaurentPoly, d: int) -> int:
    """Res(t^d - 1, delta'), the exact integer product of delta over d-th roots of unity.

    delta' is the unit normalization of delta (min_exp = 0, positive
    constant term) of degree e and leading coefficient c.  A zero value
    signals a root of delta among the d-th roots of unity.

    t^d - 1 is first reduced modulo delta' by square-and-multiply, in
    integers: the remainder is kept as R / D with D dividing a power of
    c.  Then Res(t^d - 1, delta') = (-1)^((d - k)e) c^(d - k)
    Res(R, delta') / D^e with k = deg R, and Res(R, delta') is taken by
    the subresultant remainder sequence of ``_resultant`` (Collins 1967;
    Cohen, Algorithm 3.3.7) in O(e^2) coefficient steps.  The whole
    costs O(e^2 log d).  For d < e nothing is reduced and R = t^d - 1.

    Raises ValueError once the remainder's leading numerator or its
    denominator passes ``REMAINDER_BITS`` bits, which happens only when
    delta has a root off the unit circle or c != +-1, and then the value
    has Theta(d) digits: for t^2 - 3t + 1 the remainder has 1.4 * 10^6
    bits at d = 10^6, where the computation takes seconds.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not delta:
        raise ValueError("resultant of the zero polynomial is undefined")
    g = list(delta.normalize().coeffs)
    e = len(g) - 1
    if e == 0:
        return g[0] ** d
    c = g[-1]
    # t^d mod g as num / den, by square-and-multiply from the top bit
    num, den = [1], 1
    for bit in bin(d)[2:]:
        num, scale = _square_mod(num, g)
        den = den * den * scale
        if bit == "1":
            _, num, scale = _pseudo_divmod([0] + num, g)
            den *= scale
        if max(num[-1].bit_length(), den.bit_length()) > REMAINDER_BITS:
            raise ValueError(
                f"t^{d} - 1 modulo {delta.normalize()} passes {REMAINDER_BITS} bits; "
                "the resultant is too large to compute"
            )
        common = gcd(den, *num)
        if common > 1:
            num = [x // common for x in num]
            den //= common
    num[0] -= den  # now num / den = (t^d - 1) mod g
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return 0
    k = len(num) - 1
    res = c ** (d - k) * _resultant(num, g) // den**e
    return -res if (d - k) * e % 2 else res
