"""Finitely presented group computations.

Homology of the index-d kernel by Reidemeister-Schreier and one integer
Smith normal form (the abelianization is the case d = 1), low-index
subgroups, towers of cyclic covers and commutator subgroups over the
point stabilizers of permutation representations and over the kernels
of their images, bounded Todd-Coxeter coset enumeration over the
trivial subgroup (HLT strategy, in-place coincidence handling, the
merged cosets in a ``wirtinger._root`` forest).
Everything is exact and deterministic; enumeration that hits its coset
budget reports "exhausted" rather than guessing.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count, product
from math import gcd, lcm

from .wirtinger import GroupPresentation, _root
from .words import Word, cyclic_reduce, invert

DEFAULT_COSET_BUDGET = 10**6


# -- Smith normal form ---------------------------------------------------


def _split_unit_pivots(
    rows: list[dict[int, int]],
) -> tuple[list[tuple[int, dict[int, int]]], list[list[int]], list[int]]:
    """Eliminate +/-1 pivots from sparse rows, sparsest row first.

    Rows map column to nonzero entry.  A pivot row's unit entry clears
    its column from every other row, after which the row and the column
    split off as one invariant factor 1 without touching the rest.  The
    pivot column is the unit entry's column held by the fewest rows,
    which keeps fill-in low.  Returns ``(pivots, rest, columns)``: each
    pivot's (column, row) in elimination order, and the remaining
    nonzero rows as a dense matrix over the remaining ``columns``.
    """
    live = {i: row for i, row in enumerate(rows) if row}
    holders: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            holders.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in live.items()]
    heapify(heap)
    pivots = []
    while heap:
        size, i = heappop(heap)
        row = live.get(i)
        if row is None or len(row) != size:
            continue  # a stale entry: the row was eliminated or has changed
        units = [j for j, v in row.items() if v == 1 or v == -1]
        if not units:
            continue  # pushed again if an elimination changes it
        c = min(units, key=lambda j: len(holders[j]))
        del live[i]
        for j in row:
            holders[j].discard(i)
        s = row[c]
        for k in holders.pop(c):
            other = live[k]
            f = other.pop(c) * s
            for j, v in row.items():
                if j == c:
                    continue
                w = other.get(j, 0) - f * v
                if w:
                    if j not in other:
                        holders[j].add(k)
                    other[j] = w
                else:
                    del other[j]
                    holders[j].discard(k)
            if other:
                heappush(heap, (len(other), k))
            else:
                del live[k]
        pivots.append((c, row))
    columns = sorted({j for row in live.values() for j in row})
    index = {j: k for k, j in enumerate(columns)}
    rest = []
    for row in live.values():
        dense = [0] * len(columns)
        for j, v in row.items():
            dense[index[j]] = v
        rest.append(dense)
    return pivots, rest, columns


def _dense_smith(m: list[list[int]], basis: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of a dense matrix, reducing it in place.

    Elementary row/column operations with a minimal-absolute-value
    pivot.  ``basis`` holds one vector per column of ``m`` and undergoes
    every column operation, so starting from the identity it ends as V
    with U·m·V diagonal.
    """
    nrows = len(m)
    ncols = len(basis)
    invariants: list[int] = []

    def swap_columns(a: int, b: int):
        for row in m:
            row[a], row[b] = row[b], row[a]
        basis[a], basis[b] = basis[b], basis[a]

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
            swap_columns(r, j0)

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
                    basis[j] = [a - q * b for a, b in zip(basis[j], basis[r])]
                if m[r][j] != 0:
                    swap_columns(r, j)
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


# -- Reidemeister-Schreier --------------------------------------------------


def _homology(
    rows: list[dict[int, int]], ncols: int
) -> tuple[AbelianInvariants, list[tuple[int, ...]] | None]:
    """Z^ncols modulo sparse relation rows, with the image of each basis vector.

    The images are coordinate tuples over the torsion factors, reduced
    modulo each; they are None when the group is infinite.
    """
    pivots, rest, columns = _split_unit_pivots(rows)
    basis = [[int(i == k) for k in range(len(columns))] for i in range(len(columns))]
    factors = _dense_smith(rest, basis)
    group = AbelianInvariants(
        free_rank=ncols - len(pivots) - len(factors),
        torsion=tuple(t for t in factors if t > 1),
    )
    if group.free_rank:
        return group, None
    # U·A·V = D sends dense column k to row k of V, coordinate i modulo D_ii
    coords = [(basis[i], t) for i, t in enumerate(factors) if t > 1]
    images: list = [None] * ncols
    for k, j in enumerate(columns):
        images[j] = tuple(v[k] % t for v, t in coords)
    # a pivot row s·e_c + sum a_j e_j = 0 gives e_c = -s·sum a_j e_j, in
    # columns that were eliminated later or reached the dense loop
    for c, row in reversed(pivots):
        s = row[c]
        acc = [0] * len(coords)
        for j, a in row.items():
            if j != c:
                acc = [x - s * a * y for x, y in zip(acc, images[j])]
        images[c] = tuple(x % t for x, (_, t) in zip(acc, coords))
    return group, images


def _schreier_rows(
    relators: Sequence[Word], action: list[list[int]]
) -> tuple[list[dict[int, int]], int, list[list[int]]]:
    """Abelianized Reidemeister-Schreier presentation of a coset stabilizer.

    ``action[j][c]`` is the coset to which generator j+1 sends coset c,
    a transitive action of the presented group.  A breadth-first tree
    from coset 0 gives the Schreier transversal; every edge (c, j) off
    the tree is a Schreier generator t_c x_j t_(c·x_j)^-1 with its own
    column, numbered in ``column[j][c]`` (-1 on tree edges).  Each
    relator read from each coset gives one row, except that a power x^k
    of one letter gives one row per orbit of x: read from any coset of
    an orbit of length L, it passes each edge (e, x) of the orbit k/L
    times.  Returns ``(rows, ncols, column)``.
    """
    size = len(action[0])
    column = [[0] * size for _ in action]  # 0 until numbered, -1 on the tree
    seen = [False] * size
    seen[0] = True
    queue = [0]
    for c in queue:
        for j, perm in enumerate(action):
            e = perm[c]
            if not seen[e]:
                seen[e] = True
                queue.append(e)
                column[j][c] = -1
    if len(queue) != size:
        raise RuntimeError("coset action is not transitive")
    ncols = 0
    for col in column:
        for c in range(size):
            if col[c] == 0:
                col[c] = ncols
                ncols += 1
    inverse = [[0] * size for _ in action]
    for perm, inv in zip(action, inverse):
        for c, e in enumerate(perm):
            inv[e] = c
    rows = []
    for r in relators:
        if len(set(r)) == 1:
            sign = 1 if r[0] > 0 else -1
            perm, col = action[abs(r[0]) - 1], column[abs(r[0]) - 1]
            covered = [False] * size
            for c in range(size):
                if covered[c]:
                    continue
                orbit = []
                e = c
                while not covered[e]:
                    covered[e] = True
                    orbit.append(e)
                    e = perm[e]
                if len(r) % len(orbit):
                    raise RuntimeError("a relator does not fix the coset it is read from")
                times = sign * (len(r) // len(orbit))
                rows.append({col[e]: times for e in orbit if col[e] >= 0})
            continue
        for start in range(size):
            row: dict[int, int] = {}
            c = start
            for x in r:
                if x > 0:
                    k = column[x - 1][c]
                    c = action[x - 1][c]
                    if k >= 0:
                        row[k] = row.get(k, 0) + 1
                else:
                    c = inverse[-x - 1][c]
                    k = column[-x - 1][c]
                    if k >= 0:
                        row[k] = row.get(k, 0) - 1
            if c != start:
                raise RuntimeError("a relator does not fix the coset it is read from")
            rows.append({k: v for k, v in row.items() if v})
    return rows, ncols, column


def shift_action(p: GroupPresentation, d: int) -> list[list[int]]:
    """The action of G on Z/d in which every generator adds 1.

    It exists when every relator's exponent sum is 0 mod d; the
    stabilizer of 0 is then the kernel K of G -> Z/d.
    """
    return [[(i + 1) % d for i in range(d)]] * p.generator_count


def kernel_h1(p: GroupPresentation, d: int) -> AbelianInvariants:
    """H1 of the kernel K of G -> Z/d that sends every generator to 1.

    The map must exist: every relator's exponent sum is 0 mod d.  The
    Reidemeister-Schreier presentation of K on the d cosets
    (Magnus-Karrass-Solitar, section 2.3) goes through ``_homology``.
    """
    rows, ncols, _ = _schreier_rows(p.relators, shift_action(p, d))
    return _homology(rows, ncols)[0]


def abelianization(p: GroupPresentation) -> AbelianInvariants:
    """H1 of the presented group, as ``kernel_h1(p, 1)``.

    On the one coset of G -> Z/1 every generator is a Schreier generator
    and every relator reads as its exponent-sum row.  A presentation with
    no generators has no coset action, and its group is trivial.
    """
    if not p.generator_count:
        return AbelianInvariants(0)
    return kernel_h1(p, 1)


def _lift_action(
    action: list[list[int]],
    column: list[list[int]],
    images: Sequence[tuple[int, ...]],
    moduli: tuple[int, ...],
) -> list[list[int]]:
    """The action of G on the cosets of the kernel of a map from a stabilizer.

    ``action`` is a transitive action of G, H the stabilizer of point 0,
    and ``column`` numbers H's Schreier generators as ``_schreier_rows``
    does; ``images[k]`` is the image of Schreier generator k in the sum
    of the Z/t for t in ``moduli``, which it must generate.  G acts on
    the pairs (c, v) by x·(c, v) = (c·x, v + image of (c, x)), with no
    image on a tree edge, and the stabilizer of (0, 0) is the kernel.
    Pair (c, v) is numbered c·N plus v's place in lexicographic order,
    where N is the product of ``moduli``.
    """
    elements = list(product(*(range(t) for t in moduli)))
    place = {v: k for k, v in enumerate(elements)}
    size = len(elements)
    zero = (0,) * len(moduli)
    lifted = []
    for perm, col in zip(action, column):
        out = []
        for c, e in enumerate(perm):
            step = images[col[c]] if col[c] >= 0 else zero
            base = e * size
            for v in elements:
                out.append(base + place[tuple((a + b) % t for a, b, t in zip(v, step, moduli))])
        lifted.append(out)
    return lifted


# -- low-index subgroups --------------------------------------------------

# The largest degree of the actions that the pi1 certificates search for,
# and the steps one search of ``low_index_actions`` may spend: one per
# table entry it sets, plus the length of each relator it scans.
LOW_INDEX_DEGREE = 9
LOW_INDEX_STEPS = 200_000


def low_index_actions(p: GroupPresentation, degree: int) -> Iterator[list[list[int]]]:
    """Transitive actions of G on at most ``degree`` points, one per class.

    Sims' backtrack over coset tables (Sims, *Computation with Finitely
    Presented Groups*, ch. 5): the first undefined entry is set to each
    coset whose inverse entry is free, then to a new coset, and every
    new entry is processed Felsch-style, by scanning each rotation of
    each relator and its inverse that starts with it; a scan with one
    letter left deduces it, and one that closes wrongly backtracks.  A
    table that a renumbering from another coset makes lexicographically
    smaller is pruned, so each conjugacy class of subgroups of index at
    most ``degree`` appears once, in its least table.  A power x^e of
    one letter is scanned as x^gcd(e, lcm(1..degree)), which a
    permutation of that degree satisfies exactly when it satisfies x^e,
    and as one rotation.  Yields ``action[j][c]``, the coset to which
    generator j+1 sends coset c; stops early, having yielded what it
    found, once it has spent ``LOW_INDEX_STEPS``.
    """
    if degree < 1:
        return
    width = 2 * p.generator_count
    period = lcm(*range(1, degree + 1))
    table = [[-1] * degree for _ in range(width)]
    # the scans that start with each column: a relator's columns written
    # twice, as in ``_enumerate_cosets`` the table columns they read
    # forward and backward, and the first and last position of a rotation
    scans: list[list[tuple[list[int], list[list[int]], list[list[int]], int, int]]]
    scans = [[] for _ in range(width)]
    for r in filter(None, map(cyclic_reduce, p.relators)):
        if len(set(r)) == 1:
            r = r[: gcd(len(r), period)]
        for w in (r, invert(r)):
            n = len(w)
            rotations = next(k for k in range(1, n + 1) if n % k == 0 and w[k:] + w[:k] == w)
            cols = _word_to_cols(w) * 2
            fwd, bwd = [table[x] for x in cols], [table[x ^ 1] for x in cols]
            for i in range(rotations):
                scans[cols[i]].append((cols, fwd, bwd, i, i + n - 1))
    trail: list[tuple[int, int, int]] = []
    spent = 0

    def assign(alpha: int, x: int, beta: int) -> bool:
        """Set alpha·x = beta and process its deductions; False on a contradiction."""
        nonlocal spent
        spent += 1
        table[x][alpha] = beta
        table[x ^ 1][beta] = alpha
        trail.append((x, alpha, beta))
        queue = [(alpha, x)]
        for c, y in queue:
            for cols, fwd, bwd, i, j in scans[y]:
                spent += j - i + 1
                if spent > LOW_INDEX_STEPS:
                    return False
                f = c
                while i <= j and (nxt := fwd[i][f]) >= 0:
                    f = nxt
                    i += 1
                if i > j:
                    if f != c:
                        return False
                    continue
                b = c
                while j >= i and (nxt := bwd[j][b]) >= 0:
                    b = nxt
                    j -= 1
                if j < i:
                    if f != b:
                        return False
                elif i == j:
                    fwd[i][f] = b
                    bwd[i][b] = f
                    trail.append((cols[i], f, b))
                    queue.append((f, cols[i]))
        return True

    def least(n: int) -> bool:
        """No renumbering from another coset makes the table smaller, as far as it is defined."""
        for gamma in range(1, n):
            new = [-1] * n
            new[gamma] = 0
            order = [gamma]
            for r, old in enumerate(order):
                for col in table:
                    e, t = col[old], col[r]
                    if e < 0 or t < 0:
                        break
                    if new[e] < 0:
                        new[e] = len(order)
                        order.append(e)
                    if new[e] != t:
                        if new[e] < t:
                            return False
                        break
                else:
                    continue
                break
        return True

    # depth first: each stack frame is an entry set on n cosets, the value
    # it was set to, and the trail's length before; a frame's entries are
    # those before the k-th, row-major, and its own
    stack: list[tuple[int, int, int, int]] = []
    n, k, beta = 1, 0, 0
    while spent <= LOW_INDEX_STEPS:
        while k < n * width and table[k % width][k // width] >= 0:
            k += 1
        if k == n * width:
            yield [table[x][:n] for x in range(0, width, 2)]
            top = 0
        else:
            alpha, x = divmod(k, width)
            top = min(n + 1, degree)
            while beta < top and table[x ^ 1][beta] >= 0:
                beta += 1
        if beta < top:
            stack.append((n, k, beta, len(trail)))
            if assign(alpha, x, beta) and least(max(n, beta + 1)):
                n, beta = max(n, beta + 1), 0
                continue
        elif not stack:
            return
        n, k, beta, mark = stack.pop()
        while len(trail) > mark:
            y, a, b = trail.pop()
            table[y][a] = table[y ^ 1][b] = -1
        beta += 1


def _regular_action(action: list[list[int]], limit: int) -> list[list[int]] | None:
    """The image of a permutation representation acting on itself, or None.

    ``action[j]`` is the permutation of generator j+1.  The image is
    built by closing the identity under right multiplication, so element
    k is the k-th one reached breadth-first and the result depends only
    on the kernel: ``regular[j][k]`` is element k times generator j+1.
    None when the image has more than ``limit`` elements.
    """
    # elements are bytes, not tuples: CPython keeps up to 2,000 freed
    # tuples of each short length, and on T(3,4) at d = 5 they held
    # 0.4 MB through the coset enumeration that follows
    identity = bytes(range(len(action[0])))
    place = {identity: 0}
    elements = [identity]
    regular: list[list[int]] = [[] for _ in action]
    for e in elements:
        for perm, row in zip(action, regular):
            h = bytes(perm[i] for i in e)
            k = place.get(h)
            if k is None:
                if len(elements) == limit:
                    return None
                k = place[h] = len(elements)
                elements.append(h)
            row.append(k)
    return regular


# The largest index of the kernels and covers that ``cover_tower`` builds
# (its roots are taken at any index), and how many distinct subgroups it
# takes at most.  The figure-eight's group at d = 5 needs index 330 and
# 33 subgroups, T(3,4)'s at d = 5 index 90 and 44.
TOWER_INDEX = 500
TOWER_SUBGROUPS = 64


def _stabilizer_key(action: list[list[int]]) -> tuple[int, ...]:
    """The action renumbered breadth-first from point 0: equal exactly for equal stabilizers."""
    new = {0: 0}
    order = [0]
    for c in order:
        for perm in action:
            if perm[c] not in new:
                new[perm[c]] = len(order)
                order.append(perm[c])
    return tuple(new[perm[c]] for c in order for perm in action)


def cover_tower(
    p: GroupPresentation, actions: Iterable[list[list[int]]], budget: int
) -> AbelianInvariants | None:
    """H1 of a subgroup in a tower of covers, when it has a free summand.

    Starts from the point stabilizers H of ``actions``, transitive
    actions of G, each at its own index, and from the kernel of each
    one's image, which is the stabilizer of the identity in the image's
    regular action (Sims, *Computation with Finitely Presented Groups*,
    ch. 5).  While H1(H) = sum of Z/t_i is finite, each factor i and
    each prime q dividing t_i give the subgroup ker(H -> Z/t_i -> Z/q)
    of index q in H, and when |H1(H)| is composite, [H, H] =
    ker(H -> H1(H)) is one more; ``_lift_action`` builds their actions
    from the images of H's Schreier generators (Magnus-Karrass-Solitar,
    section 2.3).  Subgroups are taken in order of index, each once, and
    at most ``TOWER_SUBGROUPS`` of them; the kernels and covers it builds
    have index at most min(``TOWER_INDEX``, budget).  ``_schreier_rows``
    reads every relator from every point and checks transitivity, so a
    wrong action raises instead of certifying.  A free summand proves G
    infinite; None when no subgroup shows one.
    """
    limit = min(TOWER_INDEX, budget)
    # (index, order of discovery, action, lift): lift is None for one of
    # ``actions`` and () for the kernel of its image; a cover's action is
    # kept as its parent's and built by ``_lift_action(action, *lift)`` when taken
    found = count()
    heap = [(len(a[0]), next(found), a, None) for a in actions]
    heapify(heap)
    seen: set[tuple[int, ...]] = set()
    while heap and len(seen) < TOWER_SUBGROUPS:
        index, _, action, lift = heappop(heap)
        if lift:
            action = _lift_action(action, *lift)
        # two routes often reach one subgroup: take it once
        if (key := _stabilizer_key(action)) in seen:
            continue
        seen.add(key)
        rows, ncols, column = _schreier_rows(p.relators, action)
        # the rows have checked the action, so its image is a quotient of G;
        # a transitive image of degree n > limit / 2 and at most ``limit``
        # elements has n of them, so its kernel is the stabilizer just taken
        if lift is None and 2 * index <= limit and (regular := _regular_action(action, limit)):
            heappush(heap, (len(regular[0]), next(found), regular, ()))
        h1, images = _homology(rows, ncols)
        if h1.free_rank:
            return h1
        for i, t in enumerate(h1.torsion):
            # trial division finds each prime factor q once
            q = 2
            while t > 1 and index * q <= limit:
                if t % q == 0:
                    lift = (column, [(v[i] % q,) for v in images], (q,))
                    heappush(heap, (index * q, next(found), action, lift))
                    while t % q == 0:
                        t //= q
                q += 1
        # [H, H], unless H1(H) is trivial (H) or of prime order (the cover above)
        order = h1.order()
        if index * order <= limit and any(order % q == 0 for q in range(2, order)):
            heappush(heap, (index * order, next(found), action, (column, images, h1.torsion)))
    return None


# -- Todd-Coxeter coset enumeration --------------------------------------


@dataclass(frozen=True)
class CosetTable:
    """Outcome of a bounded enumeration over the trivial subgroup.

    ``order`` is the group order when the table closed, None when the
    budget ran out.  ``live`` counts the cosets still live when
    enumeration stopped, so it equals ``order`` on a complete table and
    says how far an exhausted one got.
    """

    budget: int
    order: int | None = None
    live: int = 0

    @property
    def completed(self) -> bool:
        return self.order is not None


# Cosets each column holds before its first doubling.
_INITIAL_CAPACITY = 256


def _word_to_cols(w: Word) -> list[int]:
    return [2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1 for x in w]


def _enumerate_cosets(
    ngens: int, relators: list[list[int]], budget: int
) -> tuple[list[list[int]], list[int], int, int, bool]:
    """HLT enumeration over a column-major coset table.

    ``table[x][coset]`` is the image of ``coset`` under signed generator
    column ``x`` (generator g is column 2g-2, its inverse 2g-1), or -1
    while undefined; ``parent`` is the union-find forest over cosets, in
    which the smaller coset of a coincidence survives.  Columns double
    as cosets are defined, never beyond ``budget``.  Returns ``(table,
    parent, defined, live, complete)``: the number of cosets ever
    defined, the number still live, and whether the table closed before
    a definition would have exceeded the budget.
    """
    width = 2 * ngens
    cap = min(budget, _INITIAL_CAPACITY)
    table = [[-1] * cap for _ in range(width)]
    parent = [0]
    pairs = [(table[x], table[x ^ 1]) for x in range(width)]
    # each relator as (forward columns, inverse columns), letter by letter
    scans = [
        ([table[x] for x in w], [table[x ^ 1] for x in w], len(w) - 1)
        for w in relators
    ]
    defined = live = 1

    def grow():
        nonlocal cap
        extra = min(cap, budget - cap)
        pad = [-1] * extra
        for col in table:
            col.extend(pad)
        cap += extra

    def coincidence(a: int, b: int) -> int:
        """Merge cosets a and b and every consequence; return the merges made."""
        a, b = _root(parent, a), _root(parent, b)
        if a == b:
            return 0
        if a > b:
            a, b = b, a
        parent[b] = a
        queue = [b]  # FIFO: the loop below also visits cosets appended to it
        for gamma in queue:
            for col, inv in pairs:
                delta = col[gamma]
                if delta < 0:
                    continue
                inv[delta] = -1
                # roots by path halving, inlined
                mu = gamma
                while parent[mu] != mu:
                    parent[mu] = mu = parent[parent[mu]]
                nu = delta
                while parent[nu] != nu:
                    parent[nu] = nu = parent[parent[nu]]
                if (b := col[mu]) >= 0:
                    a = nu
                elif (b := inv[nu]) >= 0:
                    a = mu
                else:
                    col[mu] = nu
                    inv[nu] = mu
                    continue
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a != b:
                    if a > b:
                        a, b = b, a
                    parent[b] = a
                    queue.append(b)
        return len(queue)

    alpha = 0
    while alpha < defined:
        if parent[alpha] == alpha:
            for fwd, bwd, last in scans:
                # scan the relator from alpha both ways, defining cosets
                # forward until the two scans meet
                f, i = alpha, 0
                b, j = alpha, last
                while True:
                    while i <= j and (nxt := fwd[i][f]) >= 0:
                        f = nxt
                        i += 1
                    if i > j:
                        break
                    while j >= i and (nxt := bwd[j][b]) >= 0:
                        b = nxt
                        j -= 1
                    if j < i:
                        break
                    # define fresh cosets along the gap: after each one
                    # both scans stop again at once, unless the
                    # definition also filled the backward entry or the
                    # next letter cancels this one
                    while j > i:
                        if defined == budget:
                            return table, parent, defined, live, False
                        if defined == cap:
                            grow()
                        col = fwd[i]
                        col[f] = defined
                        bwd[i][defined] = f
                        parent.append(defined)
                        defined += 1
                        live += 1
                        if col is bwd[j] and f == b:
                            break
                        f = col[f]
                        i += 1
                        if fwd[i] is bwd[i - 1]:
                            break
                    else:
                        # one letter left: deduce it
                        fwd[i][f] = b
                        bwd[i][b] = f
                        f = b
                        break
                if f != b:
                    live -= coincidence(f, b)
                    if parent[alpha] != alpha:
                        break
            if parent[alpha] == alpha:
                for col, inv in pairs:
                    if col[alpha] < 0:
                        if defined == budget:
                            return table, parent, defined, live, False
                        if defined == cap:
                            grow()
                        col[alpha] = defined
                        inv[defined] = alpha
                        parent.append(defined)
                        defined += 1
                        live += 1
        alpha += 1
    return table, parent, defined, live, True


def _closed(
    table: list[list[int]], parent: list[int], defined: int, relators: list[list[int]]
) -> bool:
    """Every live coset has every entry, and every relator loops at it."""
    roots = [alpha for alpha in range(defined) if parent[alpha] == alpha]
    if any(col[alpha] < 0 for col in table for alpha in roots):
        return False
    for alpha in roots:
        for w in relators:
            c = alpha
            for x in w:
                c = _root(parent, table[x][c])
            if c != alpha:
                return False
    return True


def todd_coxeter(p: GroupPresentation, budget: int = DEFAULT_COSET_BUDGET) -> CosetTable:
    """HLT coset enumeration over the trivial subgroup.

    Returns a complete table with the group order when it closes within
    ``budget`` cosets (counting every coset ever defined), otherwise an
    exhausted table carrying no conclusion.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    relators = [_word_to_cols(r) for r in p.relators]
    table, parent, defined, live, complete = _enumerate_cosets(
        p.generator_count, relators, budget
    )
    if not complete:
        return CosetTable(budget=budget, live=live)
    if not _closed(table, parent, defined, relators):
        raise RuntimeError("enumeration finished with an unclosed table")
    return CosetTable(budget=budget, order=live, live=live)
