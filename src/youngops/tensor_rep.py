"""Exact matrix realization of A(S_n) on (C^N)^(x n).

A permutation sigma acts on the n-fold tensor power of C^N by moving
the vector in slot k to slot sigma(k); extending linearly realizes any
AlgebraElement as an N^n x N^n matrix with rational entries.  This
gives an independent check of every identity proved in the algebra:
products, adjoints, traces and partial traces all commute with the
realization.

Matrices are stored exactly as an integer numpy matrix plus a common
positive denominator, reduced to lowest terms.  Products run through
int64 BLAS-free matmul when a rigorous overflow bound allows it and
fall back to arbitrary-precision objects otherwise, so results are
always exact.

Basis order: a multi-index (a_1, ..., a_n) with digits in 0..N-1 maps
to the integer whose base-N digits it is, slot 1 most significant.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_SIZE_CAP, SizeLimitError
from .permutations import Perm
from .sn_algebra import AlgebraElement, sn_table

_INT64_SAFE = 2 ** 62


def encode(digits: Sequence[int], N: int) -> int:
    """Multi-index -> flat index, slot 1 most significant."""
    out = 0
    for d in digits:
        if not 0 <= d < N:
            raise ValueError(f"digit {d} outside 0..{N - 1}")
        out = out * N + d
    return out


def decode(index: int, N: int, n: int) -> tuple[int, ...]:
    """Flat index -> multi-index of n digits."""
    if not 0 <= index < N ** n:
        raise ValueError(f"index {index} outside 0..{N ** n - 1}")
    digits = []
    for _ in range(n):
        index, d = divmod(index, N)
        digits.append(d)
    return tuple(reversed(digits))


def _check_size(n: int, N: int, size_cap: int | None) -> int:
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    cap = DEFAULT_SIZE_CAP if size_cap is None else size_cap
    dim = N ** n
    if dim > cap:
        raise SizeLimitError(
            f"N^n = {N}^{n} = {dim} exceeds the size cap {cap}; "
            "pass size_cap to override")
    return dim


def _digit_table(n: int, N: int, dim: int) -> np.ndarray:
    """Row i = decode(i); shape (dim, n), int64."""
    table = np.empty((dim, n), dtype=np.int64)
    idx = np.arange(dim)
    for k in range(n - 1, -1, -1):
        idx, table[:, k] = np.divmod(idx, N)
    return table


def _normalize(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num, den = -num, -den
    g = den
    for v in num.flat:
        if v:
            g = gcd(g, abs(int(v)))
            if g == 1:
                return num, den
    if g == den and not num.any():
        return num, 1  # zero matrix
    if g > 1:
        num = num // g
        den //= g
    return num, den


class TensorOperator:
    """Exact rational N^n x N^n matrix acting on (C^N)^(x n).

    Stored as (num, den): an object-dtype integer matrix over a common
    positive denominator, in lowest terms, so equality is structural.
    """

    __slots__ = ("n", "N", "num", "den")

    def __init__(self, n: int, N: int, num: np.ndarray, den: int = 1):
        dim = N ** n
        if num.shape != (dim, dim):
            raise ValueError(f"matrix shape {num.shape} != ({dim}, {dim})")
        if num.dtype != object:
            num = num.astype(object)
        num, den = _normalize(num, int(den))
        self.n = n
        self.N = N
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int, N: int) -> "TensorOperator":
        dim = N ** n
        return cls(n, N, np.identity(dim, dtype=object))

    @classmethod
    def zero(cls, n: int, N: int) -> "TensorOperator":
        dim = N ** n
        return cls(n, N, np.zeros((dim, dim), dtype=object))

    # -- structure ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.N ** self.n

    def entry(self, row: int, col: int) -> Fraction:
        return Fraction(int(self.num[row, col]), self.den)

    def is_zero(self) -> bool:
        return not self.num.any()

    def is_symmetric(self) -> bool:
        return bool((self.num == self.num.T).all())

    def _check_compatible(self, other: "TensorOperator") -> None:
        if (self.n, self.N) != (other.n, other.N):
            raise ValueError(
                f"operator mismatch: (n={self.n}, N={self.N}) vs "
                f"(n={other.n}, N={other.N})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return ((self.n, self.N, self.den) == (other.n, other.N, other.den)
                and bool((self.num == other.num).all()))

    def __repr__(self) -> str:
        return (f"TensorOperator(n={self.n}, N={self.N}, "
                f"den={self.den}, nnz={int(np.count_nonzero(self.num))})")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        if not isinstance(other, TensorOperator):
            return NotImplemented
        self._check_compatible(other)
        L = lcm(self.den, other.den)
        num = self.num * (L // self.den) + other.num * (L // other.den)
        return TensorOperator(self.n, self.N, num, L)

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "TensorOperator":
        c = Fraction(c)
        return TensorOperator(self.n, self.N,
                              self.num * c.numerator, self.den * c.denominator)

    def __mul__(self, other: "TensorOperator | Fraction | int"):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "TensorOperator") -> "TensorOperator":
        if not isinstance(other, TensorOperator):
            return NotImplemented
        self._check_compatible(other)
        num = _exact_matmul(self.num, other.num)
        return TensorOperator(self.n, self.N, num, self.den * other.den)

    def transpose(self) -> "TensorOperator":
        return TensorOperator(self.n, self.N, self.num.T.copy(), self.den)

    # -- invariants of interest ---------------------------------------------------

    def trace(self) -> Fraction:
        return Fraction(int(np.trace(self.num)), self.den)

    def rank(self) -> int:
        """Exact rank by fraction-free integer elimination."""
        return _integer_rank(self.num)

    def partial_trace(self) -> "TensorOperator":
        """Contract the last slot: an N^(n-1)-dimensional operator with
        entries sum_c M[(a, c), (b, c)]."""
        if self.n < 2:
            raise ValueError("partial trace requires n >= 2")
        m = self.N ** (self.n - 1)
        blocks = self.num.reshape(m, self.N, m, self.N)
        acc = np.zeros((m, m), dtype=object)
        for c in range(self.N):
            acc = acc + blocks[:, c, :, c]
        return TensorOperator(self.n - 1, self.N, acc, self.den)

    # -- JSON wire format -----------------------------------------------------------

    def to_dict(self) -> dict:
        """{"n":..., "N":..., "entries":[[row, col, "p/q"], ...]},
        row-major with zero entries omitted."""
        entries = []
        rows, cols = np.nonzero(self.num)
        for r, c in zip(rows.tolist(), cols.tolist()):
            entries.append([r, c, str(Fraction(int(self.num[r, c]), self.den))])
        return {"n": self.n, "N": self.N, "entries": entries}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TensorOperator":
        n, N = int(data["n"]), int(data["N"])
        dim = N ** n
        den = 1
        vals = []
        for r, c, s in data["entries"]:
            f = Fraction(s)
            vals.append((r, c, f))
            den = lcm(den, f.denominator)
        num = np.zeros((dim, dim), dtype=object)
        for r, c, f in vals:
            num[r, c] = int(f * den)
        return cls(n, N, num, den)


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matrix product, exact: int64 when a rigorous bound on the
    largest possible accumulator rules out overflow, else object dtype."""
    max_a = max((abs(int(v)) for v in a.flat), default=0)
    max_b = max((abs(int(v)) for v in b.flat), default=0)
    inner = a.shape[1]
    if max_a and max_b and max_a * max_b * inner < _INT64_SAFE:
        prod = a.astype(np.int64) @ b.astype(np.int64)
        return prod.astype(object)
    return a @ b


def _integer_rank(matrix: np.ndarray) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination.

    Rows are divided by their gcd after each step and pivots are chosen
    with the smallest nonzero magnitude, which keeps entry growth mild
    for the projector matrices this package produces.
    """
    rows = [[int(v) for v in row] for row in matrix if any(row)]
    ncols = matrix.shape[1]
    rank = 0
    col = 0
    while rows and col < ncols:
        pivot_idx = None
        pivot_abs = None
        for i, row in enumerate(rows):
            v = abs(row[col])
            if v and (pivot_abs is None or v < pivot_abs):
                pivot_idx, pivot_abs = i, v
        if pivot_idx is None:
            col += 1
            continue
        pivot_row = rows.pop(pivot_idx)
        pv = pivot_row[col]
        rank += 1
        reduced = []
        for row in rows:
            rv = row[col]
            if rv:
                row = [pv * x - rv * y for x, y in zip(row, pivot_row)]
                g = 0
                for x in row:
                    if x:
                        g = gcd(g, abs(x))
                        if g == 1:
                            break
                if g > 1:
                    row = [x // g for x in row]
            if any(row):
                reduced.append(row)
        rows = reduced
        col += 1
    return rank


def realize(a: AlgebraElement, N: int, *, size_cap: int | None = None) -> TensorOperator:
    """Represent an AlgebraElement as an exact matrix on (C^N)^(x n).

    D(sigma) moves the vector in slot k to slot sigma(k); concretely the
    basis column encode(b) maps to the row whose multi-index a satisfies
    a[sigma(k)] = b[k].  Coefficients must be rational (evaluate any
    polynomial coefficients at a concrete N first).
    """
    n = a.n
    dim = _check_size(n, N, size_cap)
    if a.num.shape[0] > 1:
        raise TypeError("realize needs rational coefficients; "
                        "call .evaluate(N) on polynomial-coefficient elements")
    table = sn_table(n)
    inverses = table.images[table.inverse]
    digits = _digit_table(n, N, dim)
    weights = np.array([N ** (n - 1 - k) for k in range(n)], dtype=np.int64)
    cols = np.arange(dim)
    num = np.zeros((dim, dim), dtype=object)
    for i in np.flatnonzero(a.num[0]):
        rows = digits[:, inverses[i]] @ weights
        num[rows, cols] += int(a.num[0, i])
    return TensorOperator(n, N, num, a.den)


def permutation_matrix(p: Perm, N: int, *, size_cap: int | None = None) -> TensorOperator:
    """D(p) itself: a 0/1 permutation matrix on (C^N)^(x n)."""
    return realize(AlgebraElement.from_perm(p), N, size_cap=size_cap)


def matrix_partial_trace(m: TensorOperator) -> TensorOperator:
    """Functional alias for TensorOperator.partial_trace()."""
    return m.partial_trace()


# -- batch orthogonality checking ------------------------------------------------


@dataclass(frozen=True)
class TensorCheck:
    check_id: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class OrthogonalityReport:
    checks: tuple[TensorCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[TensorCheck]:
        return [c for c in self.checks if not c.passed]


def _first_entry_mismatch(got: TensorOperator, want: TensorOperator) -> str:
    diff = got - want
    rows, cols = np.nonzero(diff.num)
    if len(rows) == 0:
        return ""
    r, c = int(rows[0]), int(cols[0])
    return (f"entry ({r},{c}): got {got.entry(r, c)}, "
            f"want {want.entry(r, c)}")


def orthogonality_report(ops: Sequence[TensorOperator],
                         labels: Iterable[str] | None = None) -> OrthogonalityReport:
    """Check that a family of operators forms a complete orthogonal set
    of symmetric projectors:

      * each operator equals its transpose,
      * M_i M_j = delta_ij M_i for every ordered pair,
      * the family sums to the identity.

    Every check reports pass/fail plus the first violating entry.
    """
    if not ops:
        raise ValueError("need at least one operator")
    first = ops[0]
    for other in ops[1:]:
        first._check_compatible(other)
    names = list(labels) if labels is not None else [str(i) for i in range(len(ops))]
    if len(names) != len(ops):
        raise ValueError("labels length must match ops length")
    checks: list[TensorCheck] = []
    for name, op in zip(names, ops):
        ok = op.is_symmetric()
        witness = "" if ok else _first_entry_mismatch(op, op.transpose())
        checks.append(TensorCheck(f"symmetric:{name}", ok, witness))
    for ni, mi in zip(names, ops):
        for nj, mj in zip(names, ops):
            want = mi if ni == nj else TensorOperator.zero(first.n, first.N)
            got = mi @ mj
            ok = got == want
            witness = "" if ok else _first_entry_mismatch(got, want)
            checks.append(TensorCheck(f"product:{ni}*{nj}", ok, witness))
    total = ops[0]
    for op in ops[1:]:
        total = total + op
    ident = TensorOperator.identity(first.n, first.N)
    ok = total == ident
    witness = "" if ok else _first_entry_mismatch(total, ident)
    checks.append(TensorCheck("sum-to-identity", ok, witness))
    return OrthogonalityReport(tuple(checks))
