"""Young diagrams and standard Young tableaux.

A diagram is a partition lambda_1 >= ... >= lambda_r >= 1 drawn as
left-justified rows of boxes; a tableau fills the boxes with 1..n.
Cell coordinates are 1-based: (row j, column k).

Standard tableaux are enumerated in a fixed, documented order:
ascending by row-reading word (rows concatenated top to bottom), ties
broken by shape in descending lexicographic order.  Ties are real --
e.g. for n = 3 the words of 123, 12/3 and 1/2/3 all read (1,2,3) -- so
the shape tie-break puts wider shapes first: 123, 12/3, 1/2/3, 13/2.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from typing import Iterator, Mapping, Sequence

from .config import TABLEAU_MAX_N, SizeLimitError
from .exact import _in_range, _integer
from .permutations import _checked
from .polynomial import Polynomial


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order, e.g.
    partitions(4) -> (4), (3,1), (2,2), (2,1,1), (1,1,1,1)."""
    if (n := _integer(n)) < 0:
        raise ValueError(f"n must be nonnegative, got {n}")

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return rec(n, n)


def _tensor_dimension(N: int) -> int:
    """N, one tensor slot's dimension, by the integer rule and at least
    1: the rule of `YoungDiagram.dimension` and `read_tensor_dims`."""
    if (N := _integer(N)) < 1:
        raise ValueError(f"N must be positive, got {N}")
    return N


class YoungDiagram:
    """A partition shape: weakly decreasing positive row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[int]):
        rs = tuple(_integer(x) for x in rows)
        if not rs:
            raise ValueError("diagram needs at least one row")
        if any(x < 1 for x in rs):
            raise ValueError(f"row lengths must be positive: {rs}")
        if any(rs[j] < rs[j + 1] for j in range(len(rs) - 1)):
            raise ValueError(f"row lengths must be weakly decreasing: {rs}")
        self.rows = rs

    @property
    def n(self) -> int:
        """Total number of boxes."""
        return sum(self.rows)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def column_count(self) -> int:
        return self.rows[0]

    @property
    def columns(self) -> tuple[int, ...]:
        """Conjugate partition: columns[k-1] = number of rows with >= k boxes."""
        return tuple(
            sum(1 for lam in self.rows if lam >= k)
            for k in range(1, self.rows[0] + 1)
        )

    def conjugate(self) -> "YoungDiagram":
        return YoungDiagram(self.columns)

    def cells(self) -> Iterator[tuple[int, int]]:
        """All (row j, column k), row-major, 1-based."""
        for j, lam in enumerate(self.rows, start=1):
            for k in range(1, lam + 1):
                yield (j, k)

    def hook_length(self, j: int, k: int) -> int:
        """1 + boxes to the right in row j + boxes below in column k;
        j and k by the range rule, in the shape."""
        j = _in_range(j, 1, len(self.rows), "row")
        k = _in_range(k, 1, self.rows[j - 1], "column")
        below = sum(1 for lam in self.rows[j:] if lam >= k)
        return (self.rows[j - 1] - k) + below + 1

    def hook_product(self) -> int:
        """Product of all hook lengths; the Young-operator normalization."""
        return prod(self.hook_length(j, k) for j, k in self.cells())

    def syt_count(self) -> int:
        """Number of standard tableaux of this shape: n!/hook_product."""
        fact, hooks = factorial(self.n), self.hook_product()
        count, rem = divmod(fact, hooks)
        assert rem == 0, f"hook product {hooks} does not divide {self.n}!"
        return count

    def dimension_polynomial(self) -> Polynomial:
        """f(N) = prod over cells (j,k) of (N + k - j), expanded.

        f(N)/hook_product is the dimension of the irreducible subspace
        of (C^N)^(x n) cut out by any Young operator of this shape.
        """
        return prod((Polynomial([k - j, 1]) for j, k in self.cells()),
                    start=Polynomial.one())

    def dimension(self, N: int) -> int:
        """f(N)/hook_product at N >= 1 (0 when row_count > N)."""
        return int(_dimension(self)(_tensor_dimension(N)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, YoungDiagram) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(("YoungDiagram", self.rows))

    def __repr__(self) -> str:
        return f"YoungDiagram({list(self.rows)!r})"


@lru_cache(maxsize=None)
def _dimension(shape: YoungDiagram) -> Polynomial:
    """f(N)/hook_product of a shape, in N: the trace and rank of D(Y_T)
    and D(P_T) for its T.  Built once per shape (hashed by its rows)."""
    return shape.dimension_polynomial() / shape.hook_product()


class YoungTableau:
    """A diagram filled bijectively with 1..n, stored as rows of entries.

    The constructor accepts any bijective filling; standardness (rows and
    columns strictly increasing) is a predicate, not a construction
    requirement, so deliberately non-standard fillings can be built too.
    """

    __slots__ = ("rows", "shape")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rs = tuple(tuple(_integer(x) for x in row) for row in rows)
        shape = YoungDiagram([len(row) for row in rs])  # validates the shape
        _checked(sum(rs, ()))  # the entries, a bijection onto 1..n
        self.rows = rs
        self.shape = shape

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The entries of each column, top to bottom; the counterpart of
        `rows`."""
        return tuple(tuple(row[k] for row in self.rows if len(row) > k)
                     for k in range(len(self.rows[0])))

    def cell_of(self, value: int) -> tuple[int, int]:
        """The (row j, column k) holding value, in 1..n by the range rule."""
        value = _in_range(value, 1, self.n, "entry")
        return next((j, row.index(value) + 1)
                    for j, row in enumerate(self.rows, start=1)
                    if value in row)

    def row_word(self) -> tuple[int, ...]:
        """Rows concatenated top to bottom; the enumeration sort key."""
        return tuple(x for row in self.rows for x in row)

    def is_standard(self) -> bool:
        """Strictly increasing along every row and down every column."""
        for line in self.rows + self.columns:
            if any(line[k] >= line[k + 1] for k in range(len(line) - 1)):
                return False
        return True

    def parent(self) -> tuple["YoungTableau", int, int]:
        """Remove the cell containing n.

        Returns (parent tableau, p, q) where p is the column and q the
        row of the removed cell.  In a standard tableau n sits at an
        outer corner, so p is also the length of that cell's row and q
        the length of its column.  The factor (N + p - q) is the removed
        box's contribution to the dimension polynomial.  A single box or
        a non-standard tableau raises ValueError.
        """
        if self.n < 2:
            raise ValueError("parent requires at least two boxes")
        if not self.is_standard():
            raise ValueError(f"tableau {self} is not standard")
        j0, k0 = self.cell_of(self.n)
        rows = [list(row) for row in self.rows]
        rows[j0 - 1].pop()
        if not rows[j0 - 1]:
            rows.pop()
        return (YoungTableau(rows), k0, j0)

    # -- presentation and wire formats ------------------------------------

    def to_string(self) -> str:
        """Compact "123/45" form; digits only, so n <= 9."""
        if self.n > 9:
            raise ValueError("compact string form only supports n <= 9")
        return "/".join("".join(str(x) for x in row) for row in self.rows)

    @classmethod
    def from_string(cls, text: str) -> "YoungTableau":
        """Parse the compact "row/row/..." form, e.g. "123/45"."""
        rows = []
        for part in text.strip().split("/"):
            if not (part.isascii() and part.isdigit()):
                raise ValueError(f"bad tableau string {text!r}")
            rows.append([int(ch) for ch in part])
        return cls(rows)

    def to_dict(self) -> dict:
        return {"shape": list(self.shape.rows), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "YoungTableau":
        t = cls(data["rows"])
        if "shape" in data and YoungDiagram(data["shape"]) != t.shape:
            raise ValueError(f"shape {data['shape']} does not match rows")
        return t

    def __eq__(self, other: object) -> bool:
        return isinstance(other, YoungTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(("YoungTableau", self.rows))

    def __repr__(self) -> str:
        return f"YoungTableau({[list(r) for r in self.rows]!r})"

    def __str__(self) -> str:
        if self.n <= 9:
            return self.to_string()
        return "/".join(".".join(str(x) for x in row) for row in self.rows)


def enumerate_syt(n: int) -> list[YoungTableau]:
    """All standard Young tableaux with n boxes, in the canonical order
    (row word ascending, then shape descending lexicographically).
    n outside 1..TABLEAU_MAX_N raises SizeLimitError before any is grown."""
    if not 1 <= (n := _integer(n)) <= TABLEAU_MAX_N:
        raise SizeLimitError(f"n={n} is outside the supported tableau sizes "
                             f"1..{TABLEAU_MAX_N}")
    # Grow by placing m at every outer corner of each standard tableau
    # with m-1 boxes; every standard tableau arises exactly once since
    # removing the box holding m is the inverse step.
    current: list[tuple[tuple[int, ...], ...]] = [((1,),)]
    for m in range(2, n + 1):
        grown = []
        for rows in current:
            lengths = [len(row) for row in rows]
            for j in range(len(rows)):
                if j == 0 or lengths[j] < lengths[j - 1]:
                    grown.append(rows[:j] + (rows[j] + (m,),) + rows[j + 1:])
            grown.append(rows + ((m,),))
        current = grown
    tableaux = [YoungTableau(rows) for rows in current]
    tableaux.sort(key=lambda t: (t.row_word(), tuple(-len(r) for r in t.rows)))
    return tableaux
