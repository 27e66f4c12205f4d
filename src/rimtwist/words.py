"""Free-group words as tuples of signed generator indices.

A word is a tuple of nonzero integers; ``k`` stands for the k-th
generator and ``-k`` for its inverse.  Indices are 1-based.
"""

from __future__ import annotations

from collections.abc import Sequence

Word = tuple[int, ...]


def invert(w: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(w))


def free_reduce(w: Sequence[int]) -> Word:
    """Cancel adjacent x x^-1 pairs until none remain."""
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(w: Sequence[int]) -> Word:
    """Freely reduce, then cancel inverse pairs across the word ends."""
    out = list(free_reduce(w))
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def substitute(w: Sequence[int], gen: int, image: Sequence[int]) -> Word:
    """Replace every occurrence of generator ``gen`` by ``image``.

    ``gen`` must be positive; occurrences of ``-gen`` get the inverse
    image.  The result is the plain substituted word, not reduced.
    """
    if gen <= 0:
        raise ValueError("gen must be a positive generator index")
    image_inv = invert(image)
    out: list[int] = []
    for x in w:
        if x == gen:
            out.extend(image)
        elif x == -gen:
            out.extend(image_inv)
        else:
            out.append(x)
    return tuple(out)


def total_exponent(w: Sequence[int]) -> int:
    """Image of the word under sending every generator to 1 in Z."""
    return sum(1 if x > 0 else -1 for x in w)


def canonical_cyclic(w: Sequence[int]) -> Word:
    """Least rotation of the cyclically reduced word or of its inverse.

    Two relators define the same normal closure iff their canonical
    forms agree; used for duplicate-relator removal.
    """
    w = cyclic_reduce(w)
    if not w:
        return ()
    best: Word | None = None
    for cand in (w, invert(w)):
        n = len(cand)
        doubled = cand + cand
        for i in range(n):
            rot = doubled[i : i + n]
            if best is None or rot < best:
                best = rot
    assert best is not None
    return best


def power(gen: int, k: int) -> Word:
    """The word gen^k (empty for k = 0, inverses for k < 0)."""
    if gen == 0:
        raise ValueError("gen must be nonzero")
    if k >= 0:
        return (gen,) * k
    return (-gen,) * (-k)
