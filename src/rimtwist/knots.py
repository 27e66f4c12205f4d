"""Knot expressions: the AST, the textual grammar, and braid lowerings.

Grammar (whitespace insignificant, ``#`` left-associative)::

    expr := term ('#' term)*
    term := 'unknot'
          | 'T(p,q)'
          | 'mirror(expr)'
          | 'braid(s; w1 w2 ...)'
          | 'pd((a,b,c,d),...)'

``PD`` states the rules of a PD code and refuses a code that breaks one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class KnotError(ValueError):
    """Base class for knot-expression failures."""


class KnotSyntaxError(KnotError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


class KnotSemanticError(KnotError):
    pass


@dataclass(frozen=True)
class Unknot:
    pass


@dataclass(frozen=True)
class TorusKnot:
    """T(p,q), stored canonically with 2 <= p <= q, since T(p,q) = T(q,p)."""

    p: int
    q: int

    def __post_init__(self):
        name = f"T({self.p},{self.q})"
        p, q = sorted((self.p, self.q))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p < 2:
            raise KnotSemanticError(f"{name} needs both parameters >= 2 (T(1,q) is the unknot)")
        if gcd(p, q) != 1:
            raise KnotSemanticError(f"{name} is not a knot (gcd={gcd(p, q)})")


@dataclass(frozen=True)
class Mirror:
    child: "KnotExpr"


@dataclass(frozen=True)
class ConnectedSum:
    left: "KnotExpr"
    right: "KnotExpr"


@dataclass(frozen=True)
class Braid:
    strands: int
    word: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise KnotSemanticError("braid needs at least one strand")
        object.__setattr__(self, "word", tuple(self.word))
        for k in self.word:
            if k == 0 or abs(k) > self.strands - 1:
                raise KnotSemanticError(
                    f"braid letter {k} out of range for {self.strands} strands"
                )
        if braid_closure_components(self.strands, self.word) != 1:
            raise KnotSemanticError(
                "braid closure has more than one component (a link, not a knot)"
            )


@dataclass(frozen=True)
class PD:
    """A PD code, and the one owner of the rules that a valid code meets.

    Each crossing ``(a, b, c, d)`` lists its edge labels counterclockwise
    from the incoming under-strand.  The labels are 1..2n, numbered along
    the knot, each appearing twice, so the under-strand runs a -> c = a + 1
    (mod 2n) and the over-strand b -> d or d -> b (``over_strand``).  Every
    edge enters exactly one crossing, and the crossings glued along their
    labels, in their slots' cyclic order, have n + 2 faces (Euler), so a
    virtual code is refused.  The empty code is the unknot.
    """

    crossings: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        crossings = tuple(tuple(c) for c in self.crossings)
        object.__setattr__(self, "crossings", crossings)
        n = len(crossings)
        if any(len(c) != 4 for c in crossings):
            raise KnotSemanticError("PD crossings must be 4-tuples")
        if sorted(a for c in crossings for a in c) != sorted(2 * list(range(1, 2 * n + 1))):
            raise KnotSemanticError(
                "PD edge labels must be exactly 1..2n, each appearing exactly twice"
            )
        entered = [0] * (2 * n + 1)
        for c in crossings:
            over_in, over_out, _ = self.over_strand(c)
            if c[2] != c[0] % (2 * n) + 1 or over_out != over_in % (2 * n) + 1:
                raise KnotSemanticError(f"PD crossing {c} breaks the orientation along 1..2n")
            entered[c[0]] += 1
            entered[over_in] += 1
        if twice := [e for e in range(1, 2 * n + 1) if entered[e] > 1]:
            raise KnotSemanticError(f"PD edge {twice[0]} enters two crossings, not exactly one")
        # faces: leave a slot along its edge, then turn to the next slot counterclockwise
        slots: dict[int, list[int]] = {}
        for i, c in enumerate(crossings):
            for j, a in enumerate(c):
                slots.setdefault(a, []).append(4 * i + j)
        other = [0] * (4 * n)
        for u, v in slots.values():
            other[u], other[v] = v, u
        seen = [False] * (4 * n)
        faces = 0
        for start in range(4 * n):
            faces += not seen[start]
            k = start
            while not seen[k]:
                seen[k] = True
                k = other[k] - other[k] % 4 + (other[k] + 1) % 4
        if n and faces != n + 2:
            raise KnotSemanticError(
                f"PD code is not planar (a virtual code): {faces} faces, where a diagram "
                f"of {n} crossings has {n + 2}"
            )

    def over_strand(self, crossing: tuple[int, int, int, int]) -> tuple[int, int, int]:
        """(in, out, sign) of the over-strand: b -> d, sign -1, if d follows b.

        Else d -> b, sign +1.  On one crossing b and d follow each other,
        and the over-strand enters at the one that is not a.
        """
        a, b, _, d = crossing
        if d == b % (2 * len(self.crossings)) + 1 and b != a:
            return b, d, -1
        return d, b, 1


KnotExpr = Unknot | TorusKnot | Mirror | ConnectedSum | Braid | PD


def braid_closure_components(strands: int, word: tuple[int, ...]) -> int:
    """Number of components of the braid closure (cycles of the strand permutation)."""
    perm = list(range(strands))
    for k in word:
        i = abs(k) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * strands
    cycles = 0
    for s in range(strands):
        if not seen[s]:
            cycles += 1
            j = s
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def torus_braid(p: int, q: int) -> Braid:
    """The (p,q) torus knot as the closure of (s1 s2 ... s(p-1))^q on p strands."""
    if p < 2:
        raise KnotSemanticError("torus_braid requires p >= 2 (T(1,q) is the unknot)")
    if gcd(p, q) != 1:
        raise KnotSemanticError(f"T({p},{q}) is not a knot (gcd={gcd(p, q)})")
    return Braid(p, tuple(range(1, p)) * q)


def mirror_braid(b: Braid) -> Braid:
    """Mirror image: negate every crossing, same strand count."""
    return Braid(b.strands, tuple(-k for k in b.word))


def mirror_pd(code: PD) -> PD:
    """Mirror image of a PD code: reflect the plane, reversing each tuple's cyclic order."""
    return PD(tuple((a, d, c, b) for (a, b, c, d) in code.crossings))


# -- parser ------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def error(self, message: str):
        offset = len(self.text[: self.pos].encode("utf-8"))
        raise KnotSyntaxError(message, offset)

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def parse_knot(text: str) -> KnotExpr:
    """Parse a knot expression; raises KnotSyntaxError / KnotSemanticError."""
    tok = _Tokenizer(text)
    expr = _parse_expr(tok)
    tok.skip_ws()
    if tok.pos != len(tok.text):
        tok.error("unexpected trailing input")
    return expr


def _parse_expr(tok: _Tokenizer) -> KnotExpr:
    expr = _parse_term(tok)
    while tok.peek() == "#":
        tok.expect("#")
        expr = ConnectedSum(expr, _parse_term(tok))
    return expr


def _parse_term(tok: _Tokenizer) -> KnotExpr:
    tok.skip_ws()
    start = tok.pos
    name = tok.word()
    if name == "unknot":
        return Unknot()
    if name == "T":
        tok.expect("(")
        p = tok.integer()
        tok.expect(",")
        q = tok.integer()
        tok.expect(")")
        if p == 1 or q == 1:
            return Unknot()
        return TorusKnot(p, q)
    if name == "mirror":
        tok.expect("(")
        inner = _parse_expr(tok)
        tok.expect(")")
        return Mirror(inner)
    if name == "braid":
        tok.expect("(")
        strands = tok.integer()
        tok.expect(";")
        letters: list[int] = []
        while tok.peek() != ")":
            letters.append(tok.integer())
        tok.expect(")")
        return Braid(strands, tuple(letters))
    if name == "pd":
        tok.expect("(")
        crossings: list[tuple[int, int, int, int]] = []
        while tok.peek() == "(":
            tok.expect("(")
            a = tok.integer()
            tok.expect(",")
            b = tok.integer()
            tok.expect(",")
            c = tok.integer()
            tok.expect(",")
            d = tok.integer()
            tok.expect(")")
            crossings.append((a, b, c, d))
            if tok.peek() == ",":
                tok.expect(",")
        tok.expect(")")
        return PD(tuple(crossings))
    tok.pos = start
    tok.error("expected unknot, T(p,q), mirror(...), braid(...), or pd(...)")
    raise AssertionError("unreachable")


def render(expr: KnotExpr) -> str:
    """Inverse of parse_knot on left-associated expression trees."""
    if isinstance(expr, Unknot):
        return "unknot"
    if isinstance(expr, TorusKnot):
        return f"T({expr.p},{expr.q})"
    if isinstance(expr, Mirror):
        return f"mirror({render(expr.child)})"
    if isinstance(expr, ConnectedSum):
        return f"{render(expr.left)}#{render(expr.right)}"
    if isinstance(expr, Braid):
        letters = " ".join(str(k) for k in expr.word)
        return f"braid({expr.strands}; {letters})"
    if isinstance(expr, PD):
        tuples = ",".join(f"({a},{b},{c},{d})" for (a, b, c, d) in expr.crossings)
        return f"pd({tuples})"
    raise TypeError(f"not a knot expression: {expr!r}")
