"""Exact integer kernels shared by the algebra and the matrix layers.

Both layers store a rational array as integer numerators over one
positive common denominator, in lowest terms: int64 when every entry is
below 2**63 in magnitude, Python integers (object dtype) otherwise.  An
operation on such arrays runs in the cheapest dtype that a bound proved
at its call site allows -- float64 below 2**53, where every integer is
exactly representable, int64 below 2**63, and Python integers past
that -- so results are always exact.
"""
from __future__ import annotations

from math import gcd

import numpy as np

# Integers of magnitude below these are exact in float64 and int64.
_F64_EXACT = 2 ** 53
_I64_EXACT = 2 ** 63


def _maxabs(x: np.ndarray) -> int:
    return int(np.abs(x).max()) if x.size else 0


def _exact_dtype(bound: int):
    """Cheapest dtype whose arithmetic is exact on integers below `bound`."""
    if bound < _F64_EXACT:
        return np.float64
    return np.int64 if bound < _I64_EXACT else object


def _lincomb(terms: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Exact sum of k * x over (Python int k, numerator array x), the
    arrays all of one shape.  int64 when the sum of the |k| * max|x| is
    below 2**63, which bounds every partial sum; else object.  A term
    with k * max|x| = 0 is skipped, so every k that is multiplied in is
    below 2**63 and never overflows an int64 operand."""
    mags = [abs(k) * _maxabs(x) for k, x in terms]
    dtype = np.int64 if sum(mags) < _I64_EXACT else object
    out = np.zeros(terms[0][1].shape, dtype=dtype)
    for (k, x), mag in zip(terms, mags):
        if mag:
            out += x.astype(dtype) * k
    return out


def _lowest_terms(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """num / den with a positive den, in lowest terms, in the shared
    storage: int64 numerators while max|num| < 2**63, else object.  The
    zero array becomes int64 zeros over 1.  An int64 `num` must not hold
    -2**63, which no bounded int64 path produces."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if num.dtype != np.int64:
        num = num.astype(object if _maxabs(num) >= _I64_EXACT else np.int64,
                         copy=False)
    if not num.any():
        return np.zeros(num.shape, dtype=np.int64), 1
    if den < 0:
        num, den = -num, -den
    g = gcd(den, int(np.gcd.reduce(num, axis=None)))
    if g > 1:
        num = num // g
        den //= g
        if num.dtype == object and _maxabs(num) < _I64_EXACT:
            num = num.astype(np.int64)
    return num, den
