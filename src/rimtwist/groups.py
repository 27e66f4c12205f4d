"""Finitely presented group computations.

Abelianization through integer Smith normal form, bounded Todd-Coxeter
coset enumeration over the trivial subgroup (HLT strategy, in-place
coincidence handling), and Tietze simplification.  Everything is exact
and deterministic; enumeration that hits its coset budget reports
"exhausted" rather than guessing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Sequence

from .wirtinger import GroupPresentation
from .words import Word, canonical_cyclic, cyclic_reduce, invert, substitute

DEFAULT_COSET_BUDGET = 10**6


# -- Smith normal form ---------------------------------------------------


def smith_invariants(matrix: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    Elementary row/column operations with a minimal-absolute-value
    pivot; plain Python integers, so no overflow at any size.
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    for row in m:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    invariants: list[int] = []
    r = 0
    while r < nrows and r < ncols:
        # minimal nonzero pivot in the trailing submatrix
        pivot = None
        for i in range(r, nrows):
            for j in range(r, ncols):
                v = m[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        if i0 != r:
            m[r], m[i0] = m[i0], m[r]
        if j0 != r:
            for row in m:
                row[r], row[j0] = row[j0], row[r]

        while True:
            # clear the pivot column
            dirty = False
            for i in range(nrows):
                if i == r or m[i][r] == 0:
                    continue
                q = m[i][r] // m[r][r]
                if q:
                    for j in range(r, ncols):
                        m[i][j] -= q * m[r][j]
                if m[i][r] != 0:
                    m[r], m[i] = m[i], m[r]
                    dirty = True
                    break
            if dirty:
                continue
            # clear the pivot row
            for j in range(ncols):
                if j == r or m[r][j] == 0:
                    continue
                q = m[r][j] // m[r][r]
                if q:
                    for i in range(r, nrows):
                        m[i][j] -= q * m[i][r]
                if m[r][j] != 0:
                    for row in m:
                        row[r], row[j] = row[j], row[r]
                    dirty = True
                    break
            if dirty:
                continue
            # enforce divisibility of the remaining entries by the pivot
            p = m[r][r]
            fixed = True
            for i in range(r + 1, nrows):
                for j in range(r + 1, ncols):
                    if m[i][j] % p != 0:
                        for j2 in range(r, ncols):
                            m[r][j2] += m[i][j2]
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        invariants.append(abs(m[r][r]))
        r += 1
    return invariants


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group: free rank plus torsion in divisibility order."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion must be in divisibility order")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion entries must exceed 1")

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " ⊕ ".join(parts) if parts else "trivial"


def relator_exponent_matrix(p: GroupPresentation) -> list[list[int]]:
    n = p.generator_count
    rows = []
    for r in p.relators:
        row = [0] * n
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


def abelianization(p: GroupPresentation) -> AbelianInvariants:
    """Invariant factors of the abelianized group, via Smith normal form."""
    inv = smith_invariants(relator_exponent_matrix(p), p.generator_count)
    return AbelianInvariants(
        free_rank=p.generator_count - len(inv),
        torsion=tuple(d for d in inv if d > 1),
    )


# -- Todd-Coxeter coset enumeration --------------------------------------


@dataclass(frozen=True)
class CosetTable:
    """Outcome of a bounded enumeration over the trivial subgroup.

    ``status`` is "complete" or "exhausted"; ``order`` is the group
    order when complete.
    """

    status: str
    budget: int
    order: int | None = None

    @property
    def completed(self) -> bool:
        return self.status == "complete"


class _BudgetExhausted(Exception):
    pass


class _Enumerator:
    def __init__(self, ngens: int, relator_cols: list[list[int]], budget: int):
        self.ngens = ngens
        self.width = 2 * ngens
        self.relators = relator_cols
        self.budget = budget
        self.rows: list[list[int | None]] = [[None] * self.width]
        self.p = [0]

    def rep(self, k: int) -> int:
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def merge(self, a: int, b: int, queue: deque):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            self.p[b] = a
            queue.append(b)

    def coincidence(self, a: int, b: int):
        rows = self.rows
        queue: deque = deque()
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

    def define(self, alpha: int, x: int) -> int:
        if len(self.rows) >= self.budget:
            raise _BudgetExhausted
        beta = len(self.rows)
        self.rows.append([None] * self.width)
        self.p.append(beta)
        self.rows[alpha][x] = beta
        self.rows[beta][x ^ 1] = alpha
        return beta

    def scan_and_fill(self, alpha: int, w: list[int]):
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

    def verify_closed(self) -> bool:
        live = [i for i in range(len(self.rows)) if self.p[i] == i]
        for alpha in live:
            if any(e is None for e in self.rows[alpha]):
                return False
            for w in self.relators:
                c = alpha
                for x in w:
                    nxt = self.rows[c][x]
                    if nxt is None:
                        return False
                    c = self.rep(nxt)
                if c != alpha:
                    return False
        return True


def _word_to_cols(w: Word) -> list[int]:
    return [2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1 for x in w]


def todd_coxeter(p: GroupPresentation, budget: int = DEFAULT_COSET_BUDGET) -> CosetTable:
    """HLT coset enumeration over the trivial subgroup.

    Returns a complete table with the group order when it closes within
    ``budget`` cosets (counting every coset ever defined), otherwise an
    exhausted table carrying no conclusion.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    enum = _Enumerator(
        p.generator_count, [_word_to_cols(r) for r in p.relators], budget
    )
    try:
        enum.run()
    except _BudgetExhausted:
        return CosetTable(status="exhausted", budget=budget)
    if not enum.verify_closed():
        raise RuntimeError("enumeration finished with an unclosed table")
    order = sum(1 for i, root in enumerate(enum.p) if root == i)
    return CosetTable(status="complete", budget=budget, order=order)


# -- Tietze simplification ------------------------------------------------


def _renumber(w: Word, gone: int) -> Word:
    out = []
    for x in w:
        a = abs(x)
        if a > gone:
            a -= 1
        out.append(a if x > 0 else -a)
    return tuple(out)


def tietze_simplify(p: GroupPresentation, budget: int = 100) -> GroupPresentation:
    """Shrink a presentation without changing the group.

    Free/cyclic reduction, duplicate-relator removal, and elimination
    of generators isolated (single occurrence) in some relator.  An
    elimination is applied only if it does not increase the total
    relator length, so generator count, relator count, and total length
    never exceed the input's.  The distinguished meridian is never
    eliminated.
    """
    gens = list(p.generators)
    meridian = p.meridian
    relators = [cyclic_reduce(r) for r in p.relators]
    for _ in range(budget):
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
        if not changed:
            break
    return GroupPresentation(tuple(gens), tuple(relators), meridian)
