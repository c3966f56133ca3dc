"""Permutations of {1, ..., n} in one-line notation.

A permutation is a tuple p of length n with p[k-1] = p(k); entries are
1-based. Composition follows operator order: (a * b)(k) = a(b(k)), i.e.
b acts first. This matches how permutation operators multiply when each
permutes the factors of a tensor product.
Every permutation read goes through the one permutation check,
`_checked`; entries follow the integer rule (`exact._integer`), degrees
`exact._nonnegative` and slots the range rule (`exact._in_range`).
"""
from __future__ import annotations

from itertools import permutations as _itertools_permutations
from typing import Iterator, Sequence

from .exact import _in_range, _integer, _nonnegative

Perm = tuple[int, ...]


def _checked(p: Sequence[int], n: int | None = None) -> Perm:
    """p as a tuple of ints after the permutation check: every entry by
    the integer rule, and p a bijection of 1..n, n = len(p) by default;
    a failure raises TypeError or ValueError."""
    p = tuple(_integer(x) for x in p)
    n = len(p) if n is None else n
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p}")
    return p


def identity(n: int) -> Perm:
    return tuple(range(1, _nonnegative(n) + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a*b)(k) = a(b(k)), both of one degree."""
    a = _checked(a)
    return tuple(a[x - 1] for x in _checked(b, len(a)))


def inverse(p: Perm) -> Perm:
    p = _checked(p)
    inv = [0] * len(p)
    for k, x in enumerate(p, start=1):
        inv[x - 1] = k
    return tuple(inv)


def transposition(n: int, i: int, j: int) -> Perm:
    """The permutation of 1..n exchanging i and j, both in 1..n."""
    n = _nonnegative(n)
    i, j = _in_range(i, 1, n, "slot"), _in_range(j, 1, n, "slot")
    p = list(range(1, n + 1))
    p[i - 1], p[j - 1] = j, i
    return tuple(p)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition including fixed points, each cycle led by its
    smallest element, cycles sorted by leading element."""
    p = _checked(p)
    seen = [False] * len(p)
    out = []
    for start in range(1, len(p) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        k = p[start - 1]
        while k != start:
            cyc.append(k)
            seen[k - 1] = True
            k = p[k - 1]
        out.append(tuple(cyc))
    return out


def cycle_count(p: Perm) -> int:
    """Number of cycles, fixed points included (so tr D(p) = N**cycle_count)."""
    return len(cycles(p))


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths in weakly decreasing order."""
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def sign(p: Perm) -> int:
    """Parity: +1 for even, -1 for odd."""
    return -1 if (len(p) - cycle_count(p)) % 2 else 1


def all_permutations(n: int) -> Iterator[Perm]:
    """All n! permutations of 1..n in lexicographic one-line order."""
    return _itertools_permutations(range(1, _nonnegative(n) + 1))

