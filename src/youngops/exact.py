"""Exact rational values and the integer kernels shared by the algebra
and the matrix layers.

Both layers store a rational array as integer numerators over one
positive common denominator, in lowest terms.  Every kernel proves a
bound on the integers it computes, and two rules pick its dtype:
`_integer_dtype`, int64 below 2**63 and Python integers (object dtype)
past that; `_exact_dtype`, float64 below 2**53, where every integer is
exact, else `_integer_dtype`.  `_lowest_terms` is the one cast into
storage, so results are always exact.

`_Exact` is the one value type over that storage.  A subclass supplies
its index space and its canonical constructor, and inherits what acts
elementwise on `num`: sums, differences, negation, scaling by a
`numbers.Rational` (any other scalar raises TypeError), equality,
hashing and truth on the canonical form, and one witness of
inequality, `first_difference`.  Products, traces and views stay with
the subclass.

Everything read from outside follows rules kept here: `_integer`, then
`_nonnegative` (n >= 0), `_tensor_dimension` (N >= 1) or `_in_range`
(an index, digit, slot or cell in lo..hi), and `_scalar`, the one
scalar rule.  None accepts a bool, truncates a float or wraps an index.
`_integer_table` keys the per-degree tables on the integer rule; each
size cap sits beside the structure it guards, raising `SizeLimitError`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Integral, Rational
from operator import is_

import numpy as np

# Integers of magnitude below these are exact in float64 and int64.
_F64_EXACT = 2 ** 53
_I64_EXACT = 2 ** 63


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only in place."""
    a.flags.writeable = False
    return a


def _maxabs(x: np.ndarray) -> int:
    return int(np.abs(x).max()) if x.size else 0


def _integer_dtype(bound: int):
    """int64 when every integer is below `bound` < 2**63, else object."""
    return np.int64 if bound < _I64_EXACT else object


def _exact_dtype(bound: int):
    """Cheapest dtype whose arithmetic is exact on integers below `bound`."""
    return np.float64 if bound < _F64_EXACT else _integer_dtype(bound)


def _lincomb(terms: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Exact sum of k * x over (Python int k, numerator array x), the
    arrays all of one shape, in `_integer_dtype` of the sum of the
    |k| * max|x|, which bounds every partial sum.  A term with
    k * max|x| = 0 is skipped, so every k that is multiplied in is below
    2**63 and never overflows an int64 operand."""
    mags = [abs(k) * _maxabs(x) for k, x in terms]
    dtype = _integer_dtype(sum(mags))
    out = np.zeros(terms[0][1].shape, dtype=dtype)
    for (k, x), mag in zip(terms, mags):
        if mag:
            out += x.astype(dtype) * k
    return out


def _lowest_terms(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """num / den with a positive den, in lowest terms, in the shared
    storage `_integer_dtype(max|num|)`, the one cast into it: only a
    kernel's result is float64, below 2**53, as constructors refuse
    floats.  Zero becomes int64 zeros over 1.  An int64 `num` must not
    hold -2**63, which no bounded int64 path produces."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if num.dtype != np.int64:
        num = num.astype(_integer_dtype(_maxabs(num)), copy=False)
    if not num.any():
        return np.zeros(num.shape, dtype=np.int64), 1
    if den < 0:
        num, den = -num, -den
    g = gcd(den, int(np.gcd.reduce(num, axis=None)))
    if g > 1:
        num = num // g
        den //= g
        if num.dtype == object:
            num = num.astype(_integer_dtype(_maxabs(num)), copy=False)
    return num, den


def _integer(x: object) -> int:
    """x as an int: an int or other numbers.Integral, numpy integers
    included; anything else, a bool included, raises TypeError rather
    than being truncated.  The package's one integer rule; int takes a
    fast path."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise TypeError(f"expected an integer, got {x!r}")
    return int(x)


class SizeLimitError(ValueError):
    """Raised when a requested computation exceeds a size cap."""


def _nonnegative(n: object) -> int:
    """n, a degree, by the integer rule and at least 0."""
    if (n := _integer(n)) < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return n


def _tensor_dimension(N: object) -> int:
    """N, one tensor slot's dimension, by the integer rule and >= 1."""
    if (N := _integer(N)) < 1:
        raise ValueError(f"N must be positive, got {N}")
    return N


def _in_range(x: object, lo: int, hi: int, what: str) -> int:
    """x by the integer rule and in lo..hi, else ValueError "<what> <x>
    outside <lo>..<hi>": the one range rule, so no index wraps."""
    if not lo <= (x := _integer(x)) <= hi:
        raise ValueError(f"{what} {x} outside {lo}..{hi}")
    return x


def _integer_table(build):
    """`build` cached on its integer keys for the life of the process.
    Int keys build the table, other integers get the table of their
    ints, anything else fails the integer rule.  Keys are typed, as
    True == 1 and 2.0 == np.int64(2) would share an entry otherwise."""
    @lru_cache(maxsize=None, typed=True)
    def table(*keys):
        ints = tuple(map(_integer, keys))
        return build(*keys) if all(map(is_, ints, keys)) else table(*ints)
    return table


def _scalar(c) -> Fraction:
    """c as a Fraction of Python integers: exact scalars are the
    numbers.Rational values, numpy integers included, but not bool;
    anything else raises TypeError.  The package's one scalar rule,
    shared with `polynomial`; int and Fraction take a fast path."""
    if type(c) is Fraction:
        return c
    if type(c) is int:
        return Fraction(c)
    if isinstance(c, bool) or not isinstance(c, Rational):
        raise TypeError(f"bad scalar type {type(c).__name__}")
    return Fraction(int(c.numerator), int(c.denominator))


class _Exact:
    """num / den over an index space, canonical and immutable.

    A subclass supplies `_space()`, the tuple that fixes its index
    space, the classmethod `_new(*space, num, den)`, the one
    constructor: it calls `_store` and owns `num` afterwards; and
    `_difference_at(other, i, diff)`, which words a witness that
    self - other = diff != 0 at flat index i.
    """

    __slots__ = ("num", "den")

    def _store(self, num: np.ndarray, den: int) -> None:
        """Set num / den in lowest terms, with `num` read-only."""
        num, self.den = _lowest_terms(num, den)
        self.num = _frozen(num)

    def _check_space(self, other: "_Exact") -> None:
        if self._space() != other._space():
            raise ValueError(f"{type(self).__name__} spaces differ: "
                             f"{self._space()} vs {other._space()}")

    # -- the vector space ----------------------------------------------------

    def _combine(self, other: "_Exact", sign: int):
        self._check_space(other)
        den = lcm(self.den, other.den)
        num = _lincomb([(den // self.den, self.num),
                        (sign * (den // other.den), other.num)])
        return self._new(*self._space(), num, den)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return self._new(*self._space(), -self.num, self.den)

    def scale(self, c):
        f = _scalar(c)
        num = _lincomb([(f.numerator, self.num)])
        return self._new(*self._space(), num, self.den * f.denominator)

    def __mul__(self, c):
        """Scalar multiple.  A subclass's product handles its own type
        first; `__rmul__` stays scalar-only, so factors never swap."""
        if isinstance(c, Rational):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self.scale(1 / _scalar(c))

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.den == other.den and self._space() == other._space()
                and bool((self.num == other.num).all()))

    def __hash__(self) -> int:
        data = (tuple(self.num.flat) if self.num.dtype == object
                else self.num.tobytes())
        return hash((self._space(), self.den, data))

    def __bool__(self) -> bool:
        return bool(self.num.any())

    def is_zero(self) -> bool:
        return not self.num.any()

    def first_difference(self, other: "_Exact") -> str:
        """The empty string when self == other; otherwise a witness
        naming the first index, in canonical (flat) order, where they
        differ, as `_difference_at` words it.  Across spaces raises
        ValueError."""
        diff = self - other
        nonzero = np.flatnonzero(diff.num)
        if not nonzero.size:
            return ""
        i = int(nonzero[0])
        return self._difference_at(other, i,
                                   Fraction(int(diff.num.flat[i]), diff.den))
