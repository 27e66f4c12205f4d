"""Exact Laurent-polynomial arithmetic over the integers.

Single variable t, arbitrary-precision integer coefficients, no
floating point anywhere.  This module also carries the one
fraction-free (Bareiss) determinant, over Z and over Z[t, t^-1], and the
resultant against t^d - 1 used by the branched-cover order formula.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd


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

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple(c * x for x in self.coeffs))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly(self.min_exp + k, self.coeffs)

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
        nonzero constant term, divide in Z[t], and restore the exponent
        offset.
        """
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly.zero()
        quot = _poly_div_exact(self.coeffs, other.coeffs)
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


def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division of trimmed, nonzero coefficient sequences (ascending order) over Z."""
    if len(num) < len(den):
        raise ValueError("inexact polynomial division")
    num = list(num)
    dlead = den[-1]
    qlen = len(num) - len(den) + 1
    quot = [0] * qlen
    for k in range(qlen - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % dlead != 0:
            raise ValueError("inexact polynomial division")
        q = c // dlead
        quot[k] = q
        if q:
            for i, dc in enumerate(den):
                num[k + i] -= q * dc
    if any(num[: len(den) - 1]):
        raise ValueError("inexact polynomial division")
    return quot


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
    gives the int 1.  Fraction-free Bareiss elimination (Bareiss 1968):
    every division is exact and every intermediate entry is a minor of
    the input, so coefficient growth stays polynomial.  A row whose
    head is already zero is only rescaled.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
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
                return m[k][k]  # a zero column: this entry is the zero of the ring
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
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def _reduce(p: list[int], g: list[int]) -> tuple[list[int], int]:
    """Integer pseudo-remainder: (r, k) with k * p = r (mod g) and deg r < deg g.

    Coefficient lists are ascending.  Each step cancels the leading
    term of p after scaling p by |c| / gcd(lead, c), where c is the
    leading coefficient of g, so k divides a power of c and is 1
    whenever c = +-1.  (Knuth, TAOCP vol. 2, 4.6.1.)
    """
    e = len(g) - 1
    c = g[-1]
    p = list(p)
    k = 1
    for top in range(len(p) - 1, e - 1, -1):
        a = p[top]
        if a == 0:
            continue
        h = gcd(a, c) if c > 0 else -gcd(a, c)
        s = c // h
        if s != 1:
            p = [s * x for x in p[:top]]
            k *= s
        q = a // h
        base = top - e
        for i in range(e):
            p[base + i] -= q * g[i]
    r = p[:e]
    while r and r[-1] == 0:
        r.pop()
    return r, k


def _square_mod(a: list[int], g: list[int]) -> tuple[list[int], int]:
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(a):
                out[i + j] += x * y
    return _reduce(out, g)


def resultant_with_cyclotomic(delta: LaurentPoly, d: int) -> int:
    """Res(t^d - 1, delta'), the exact integer product of delta over d-th roots of unity.

    delta' is the unit normalization of delta (min_exp = 0, positive
    constant term) of degree e and leading coefficient c.  A zero value
    signals a root of delta among the d-th roots of unity.

    t^d - 1 is first reduced modulo delta' by square-and-multiply, in
    integers: the remainder is kept as R / D with D dividing a power of
    c.  Then Res(t^d - 1, delta') = (-1)^((d - k)e) c^(d - k)
    Res(R, delta') / D^e with k = deg R, where Res(R, delta') is the
    Bareiss determinant of a Sylvester matrix of size e + k <= 2e - 1.
    The whole costs O(e^2 log d) plus that determinant, instead of the
    (d + e)-square determinant of Res(t^d - 1, delta') itself.  For
    d < e nothing is reduced, R = t^d - 1, and the matrix is that
    (d + e)-square one.
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
            num, scale = _reduce([0] + num, g)
            den *= scale
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
    size = e + k
    g_desc = g[::-1]
    r_desc = num[::-1]
    rows = [[0] * i + r_desc + [0] * (size - k - 1 - i) for i in range(e)]
    rows += [[0] * i + g_desc + [0] * (size - e - 1 - i) for i in range(k)]
    res = c ** (d - k) * laurent_det(rows) // den**e
    return -res if (d - k) * e % 2 else res
