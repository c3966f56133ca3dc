"""Exact matrix realization of A(S_n) on (C^N)^(x n).

A permutation sigma acts on the n-fold tensor power of C^N by moving
the vector in slot k to slot sigma(k); extending linearly realizes any
AlgebraElement as an N^n x N^n matrix with rational entries.  This
gives an independent check of every identity proved in the algebra:
products, adjoints, traces and partial traces all commute with the
realization.

Matrices are exact values of the same kind as algebra elements (see
`exact`): an integer numerator matrix over one positive common
denominator, in lowest terms, with the same sums, scaling and equality.

Weight blocks.  D(sigma) only moves slot contents, so it maps a basis
vector to one with the same multiset of digits: its GL(N) weight.
Every realized element is therefore block diagonal over the
C(n+N-1, N-1) weight spaces, whose sizes are the multinomials
n!/(m_0! ... m_{N-1}!), and so is every sum, scaling, product,
transpose and partial trace of one.  A TensorOperator is weight-diagonal
by definition: the constructor refuses a matrix with a nonzero entry
off the weight blocks.  Each operator keeps the entries of its diagonal
blocks as one flat vector, taken to lowest terms at construction, and
products and exact rank run on it block by block: a product is one
batched matmul per block size.  Its inner dimension is the block size
s, so the product runs through float64 BLAS while
max|a| * max|b| * s < 2**53, where every partial sum is an exactly
representable integer, through int64 below 2**63, and on Python
integers past that.  `realize` carries an int64 bound of the same kind
with an object fallback, and the partial trace is a sum of N slices
(`exact._lincomb`), so results are always exact.

Size and keys.  Every entry point reaches `basis_table(n, N)` first.
It reads n >= 0 and N >= 1 by the rules of `exact` and refuses N^n
beyond TENSOR_MAX_DIM (SizeLimitError) before anything is allocated;
every operator takes its ints n and N from it.

Basis order: a multi-index (a_1, ..., a_n) with digits in 0..N-1 maps
to the integer whose base-N digits it is, slot 1 most significant.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from .exact import (_I64_EXACT, SizeLimitError, _Exact, _exact_dtype,
                    _frozen, _in_range, _integer, _integer_dtype,
                    _integer_table, _lincomb, _maxabs, _nonnegative,
                    _tensor_dimension)
from .permutations import Perm
from .sn_algebra import AlgebraElement, sn_table


def encode(digits: Sequence[int], N: int) -> int:
    """Multi-index -> flat index, slot 1 most significant; N by the
    tensor-dimension rule and every digit by the range rule, in 0..N-1."""
    out, N = 0, _tensor_dimension(N)
    for d in digits:
        out = out * N + _in_range(d, 0, N - 1, "digit")
    return out


def decode(index: int, N: int, n: int) -> tuple[int, ...]:
    """Flat index -> multi-index of n digits; N by the tensor-dimension
    rule, n >= 0 and the index by the range rule, in 0..N^n-1."""
    N, n = _tensor_dimension(N), _nonnegative(n)
    index = _in_range(index, 0, N ** n - 1, "index")
    digits = []
    for _ in range(n):
        index, d = divmod(index, N)
        digits.append(d)
    return tuple(reversed(digits))


# Largest N**n for tensor operators (243*16 headroom over N=3, n=5).
TENSOR_MAX_DIM = 4096


class _BasisTable:
    """The basis of (C^N)^(x n) by flat index, and its weight blocks.

    Construction first refuses n < 0, N < 1 and N^n beyond TENSOR_MAX_DIM;
    `dim` is N^n, `digits[i]` decode(i) and `place` each slot's place value.
    `weight[i]` is the index of basis vector i with its digits sorted,
    which labels its digit multiset; the indices of one label form a
    weight block.

    `groups` holds the weight blocks grouped by size: pairs (s, idx),
    sizes ascending, with idx of shape (k, s) listing k blocks of s
    indices each, in ascending order, so groups[-1][0] is the greatest s.
    `entries` picks the diagonal-block entries from num.ravel() of an
    N^n x N^n matrix: group by group, block by block, row-major within
    a block.  Every array is read-only: all later operators read it.
    """

    def __init__(self, n: int, N: int):
        n, N = _nonnegative(n), _tensor_dimension(N)
        dim = N ** n
        if dim > TENSOR_MAX_DIM:
            raise SizeLimitError(
                f"N^n = {N}^{n} = {dim} exceeds the tensor cap "
                f"{TENSOR_MAX_DIM}: operators are N^n x N^n matrices")
        self.n, self.N, self.dim = n, N, dim
        digits = np.empty((dim, n), dtype=np.int64)
        idx = np.arange(dim)
        for k in range(n - 1, -1, -1):
            idx, digits[:, k] = np.divmod(idx, N)
        self.digits = _frozen(digits)
        self.place = _frozen(N ** np.arange(n - 1, -1, -1, dtype=np.int64))
        self.weight = _frozen(np.sort(digits, axis=1) @ self.place)
        members = np.argsort(self.weight, kind="stable")
        sizes = np.bincount(self.weight)
        sizes = sizes[sizes > 0]
        starts = np.cumsum(sizes) - sizes
        self.groups = tuple(
            (s, _frozen(members[starts[sizes == s][:, None] + np.arange(s)]))
            for s in sorted(set(sizes.tolist())))
        self.entries = _frozen(np.concatenate(
            [(idx[:, :, None] * dim + idx[:, None, :]).ravel()
             for _, idx in self.groups]))

    def stacks(self, flat: np.ndarray) -> list[np.ndarray]:
        """A flat vector of block entries as (k, s, s) views, one per
        block size."""
        out, start = [], 0
        for s, idx in self.groups:
            stop = start + idx.size * s
            out.append(flat[start:stop].reshape(-1, s, s))
            start = stop
        return out


# The basis table of (C^N)^(x n), built on first use and kept.
basis_table = _integer_table(_BasisTable)


class TensorOperator(_Exact):
    """Exact rational N^n x N^n matrix acting on (C^N)^(x n), block
    diagonal over the weight spaces.

    Stored as num / den, the integer matrix `num` over a positive
    denominator (see `exact`), with the entries of its diagonal weight
    blocks kept as one flat vector.  The constructor takes `num` of any
    integer dtype but bool, or object dtype holding integers, and `den`
    an integer (`exact._integer`); anything else raises TypeError.
    A nonzero entry off the weight blocks raises ValueError.  It copies
    `num`, so operators are immutable values.
    """

    __slots__ = ("n", "N", "_blocks")

    def __init__(self, n: int, N: int, num: np.ndarray, den: int = 1):
        basis = basis_table(n, N)
        if num.shape != (basis.dim,) * 2:
            raise ValueError(f"matrix shape {num.shape} != {(basis.dim,) * 2}")
        den = _integer(den)
        if num.dtype.kind not in "iuO":
            raise TypeError(f"numerators must be integers, not {num.dtype}")
        if num.dtype == object:
            for v in num.flat:
                _integer(v)
        rows, cols = np.nonzero(num)
        off = np.flatnonzero(basis.weight[rows] != basis.weight[cols])
        if off.size:
            raise ValueError(f"entry ({rows[off[0]]}, {cols[off[0]]}) lies "
                             "off the weight blocks")
        # -2**63 fits int64, but its magnitude does not.
        wide = num.dtype == np.int64 and num.size and num.min() == -_I64_EXACT
        self.n, self.N = basis.n, basis.N
        self._store(num.astype(object) if wide else num, den)

    def _space(self) -> tuple[int, int]:
        return (self.n, self.N)

    @classmethod
    def _new(cls, n: int, N: int, num: np.ndarray, den: int) -> "TensorOperator":
        """The operator num / den, which must vanish off the weight
        blocks; `num` is the dense matrix or, when 1-D, the flat vector
        of its weight-block entries (see `_store`).  Every caller meets
        the rule:
          - realize: D(sigma) keeps weights;
          - identity and zero: diagonal, given as block entries;
          - sums, differences, negation and scaling: entrywise, so an
            entry that is zero in every operand stays zero;
          - products: see `_block_matmul`;
          - transpose: w(a) = w(b) is symmetric in a and b;
          - partial trace: entry ((a, c), (b, c)) is nonzero only if
            w(a) + e_c = w(b) + e_c, that is only if w(a) = w(b).
        """
        op = object.__new__(cls)
        op.n, op.N = n, N
        op._store(num, den)
        return op

    def _store(self, num: np.ndarray, den: int) -> None:
        """Set num / den from the weight-block entries of `num`: gathered
        from the dense matrix, or `num` itself when 1-D.  Lowest terms
        are taken on those entries alone; they are kept as `_blocks`,
        and the read-only dense `num` is scattered from them."""
        basis = basis_table(self.n, self.N)
        super()._store(num if num.ndim == 1 else num.ravel()[basis.entries],
                       den)
        self._blocks = self.num
        dense = np.zeros(self.dim ** 2, dtype=self._blocks.dtype)
        dense[basis.entries] = self._blocks
        self.num = _frozen(dense.reshape(self.dim, self.dim))

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int, N: int) -> "TensorOperator":
        basis = basis_table(n, N)
        row, col = np.divmod(basis.entries, basis.dim)
        return cls._new(basis.n, basis.N, (row == col).astype(np.int64), 1)

    @classmethod
    def zero(cls, n: int, N: int) -> "TensorOperator":
        basis = basis_table(n, N)
        return cls._new(basis.n, basis.N,
                        np.zeros(basis.entries.size, dtype=np.int64), 1)

    # -- structure ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.N ** self.n

    def entry(self, row: int, col: int) -> Fraction:
        """Entry (row, col), both by the range rule, in 0..dim-1."""
        row = _in_range(row, 0, self.dim - 1, "row")
        col = _in_range(col, 0, self.dim - 1, "column")
        return Fraction(int(self.num[row, col]), self.den)

    def _difference_at(self, other: "TensorOperator", i: int,
                       diff: Fraction) -> str:
        r, c = divmod(i, self.dim)
        return (f"entry ({r},{c}): got {self.entry(r, c)}, "
                f"want {other.entry(r, c)}")

    def __repr__(self) -> str:
        return (f"TensorOperator(n={self.n}, N={self.N}, "
                f"den={self.den}, nnz={int(np.count_nonzero(self.num))})")

    # -- the matrix product ------------------------------------------------------

    def __matmul__(self, other: "TensorOperator") -> "TensorOperator":
        if not isinstance(other, TensorOperator):
            return NotImplemented
        self._check_space(other)
        flat = _block_matmul(basis_table(self.n, self.N), self._blocks,
                             other._blocks)
        return self._new(self.n, self.N, flat, self.den * other.den)

    def transpose(self) -> "TensorOperator":
        return self._new(self.n, self.N, self.num.T, self.den)

    # -- invariants of interest ---------------------------------------------------

    def trace(self) -> Fraction:
        # Summed as Python integers: an int64 trace could wrap.
        return Fraction(sum(self.num.diagonal().tolist()), self.den)

    def rank(self) -> int:
        """Exact rank: the sum of the ranks of the diagonal weight
        blocks, each by fraction-free integer elimination."""
        return sum(_integer_rank(block) for stack
                   in basis_table(self.n, self.N).stacks(self._blocks)
                   for block in stack)

    def partial_trace(self) -> "TensorOperator":
        """Contract the last slot: an N^(n-1)-dimensional operator with
        entries sum_c M[(a, c), (b, c)]: a sum of N slices of num."""
        if self.n < 2:
            raise ValueError("partial trace requires n >= 2")
        m = self.N ** (self.n - 1)
        num = self.num.reshape(m, self.N, m, self.N)
        acc = _lincomb([(1, num[:, c, :, c]) for c in range(self.N)])
        return self._new(self.n - 1, self.N, acc, self.den)


def _block_matmul(basis: _BasisTable, x: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """Exact products of matching diagonal weight blocks, given and
    returned as flat vectors of block entries (see `_BasisTable`): one
    batched matmul per block size, in the cheapest dtype that is exact
    below the bound max|a| * max|b| * (greatest block size s).

    Let a and b vanish off the weight blocks.  Entry (i, j) of
    ab is sum_k a[i, k] b[k, j], and a term is nonzero only when k lies
    in the block of i and in the block of j; so (ab)[i, j] vanishes
    unless i and j share a block, and then it is the (i, j) entry of the
    product of the two diagonal blocks: at most s products, each an
    integer of magnitude at most max|a| * max|b|.  Any partial sum of
    them, in any order or blocking and with or without fused
    multiply-adds, is then an integer of magnitude at most the bound.

    While bound < 2**53 every such integer is exact in float64, so BLAS
    computes the blocks exactly; while bound < 2**63 int64 does; past
    that they are computed on Python integers.
    """
    dtype = _exact_dtype(_maxabs(x) * _maxabs(y) * basis.groups[-1][0])
    x, y = x.astype(dtype, copy=False), y.astype(dtype, copy=False)
    out = np.empty(x.shape, dtype=dtype)
    for a, b, z in zip(basis.stacks(x), basis.stacks(y), basis.stacks(out)):
        np.matmul(a, b, out=z)
    return out


def _integer_rank(matrix: np.ndarray) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination:
    each pivot is the smallest nonzero entry of its column, and each
    changed row is divided by its gcd, which keeps entry growth mild."""
    rows = [[int(v) for v in row] for row in matrix if any(row)]
    rank = 0
    for col in range(matrix.shape[1]):
        live = [row for row in rows if row[col]]
        if not live:
            continue
        pivot = min(live, key=lambda row: abs(row[col]))
        rows.remove(pivot)
        rank += 1
        pv, reduced = pivot[col], []
        for row in rows:
            if rv := row[col]:
                row = [pv * x - rv * y for x, y in zip(row, pivot)]
                if not (g := gcd(*row)):
                    continue  # the row vanished
                row = [x // g for x in row]
            reduced.append(row)
        rows = reduced
    return rank


def realize(a: AlgebraElement, N: int) -> TensorOperator:
    """Represent an AlgebraElement as an exact matrix on (C^N)^(x n).

    D(sigma) moves the vector in slot k to slot sigma(k); concretely the
    basis column encode(b) maps to the row whose multi-index a satisfies
    a[sigma(k)] = b[k].  The partial-trace pair (A, B) of an element
    realizes at a concrete N as realize(A.scale(N) + B, N).  N^n beyond
    TENSOR_MAX_DIM raises SizeLimitError before anything is allocated.
    """
    basis = basis_table(a.n, N)
    dim = basis.dim
    table = sn_table(a.n)
    inverses = table.images[table.inverse]
    cols = np.arange(dim)
    # D(sigma) has one 1 per column, so each entry sums at most one
    # coefficient per permutation: at most sum |a_sigma|.
    bound = sum(map(abs, a.num.tolist()))
    num = np.zeros((dim, dim), dtype=_integer_dtype(bound))
    for i in np.flatnonzero(a.num):
        rows = basis.digits[:, inverses[i]] @ basis.place
        num[rows, cols] += int(a.num[i])
    return TensorOperator._new(basis.n, basis.N, num, a.den)


def permutation_matrix(p: Perm, N: int) -> TensorOperator:
    """D(p) itself: a 0/1 permutation matrix on (C^N)^(x n)."""
    return realize(AlgebraElement.from_perm(p), N)
