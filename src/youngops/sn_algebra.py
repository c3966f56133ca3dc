"""Exact arithmetic in the group algebra A(S_n).

An AlgebraElement is a formal sum sum_sigma c_sigma * sigma over S_n
with exact rational coefficients.  It is stored densely: one integer
numerator per permutation, indexed by the permutation's lexicographic
rank, over one positive common denominator, in lowest terms.  The
numerators are int64 whenever every entry fits and Python integers
(object dtype) when one does not; sums, scaling and equality are those
of every exact value (`exact._Exact`).  What depends on n alone -- the
permutations in rank order, the composition table, the inverse,
cycle-count and sign vectors, the index map of the partial trace, and
one Young-operator template per shape -- is held by one
read-only table per n, each part built on first use: the composition
table by the first product, its one reader.

A product gathers, for each nonzero a_i, the row of b that sigma_i
maps onto each target permutation (through the composition table
comp[i, j] = rank of sigma_i sigma_j) and sums the rows weighted by a_i.
No partial sum can exceed max|a| * max|b| * min(|supp a|, |supp b|)
(proved at `_convolve`): while that bound is below 2**53 the sum runs in
float64, which is then exact; below 2**63 it runs in int64, and past
that on Python integers.  Every other fast path carries a bound of the
same kind, so results are always exact.

This module builds (anti)symmetrizers from permutation images alone,
Young operators Y_T by relabelling their shape's template (Y_T is
pi Y_T0 pi^-1 when T = pi T0), Hermitian counterparts P_T by products, the
*-involution, trace polynomials in the tensor dimension N, and the
partial trace over the last slot.  That trace is linear in N (a fixed
point of the last slot contributes a factor N), so it returns the pair
(A, B) of rational elements with tr' X = N A + B, and every
coefficient stays rational.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import ALGEBRA_MAX_N, SizeLimitError
from .exact import (_Exact, _common_denominator, _exact_dtype, _frozen,
                    _in_range, _integer_table, _lincomb, _maxabs, _scalar,
                    _wire_scalar)
from .permutations import (Perm, _checked, all_permutations, cycle_count,
                           cycle_type)
from .polynomial import Polynomial
from .tableaux import YoungTableau

__all__ = [
    "AlgebraElement",
    "embed_element",
    "symmetrizer",
    "antisymmetrizer",
    "young_operator",
    "hermitian_young",
    "primitivity_check",
    "inequivalence_check",
]

Scalar = int | Fraction

# Entries gathered per step of a product; bounds its temporaries.
_CHUNK = 1 << 14


# -- the per-degree table ------------------------------------------------------


class _YoungTemplate(NamedTuple):
    """Y_T0 for the row-reading tableau T0 of one shape: the one-line
    images (0-based, int8) of its terms r c, the sign of each c, and the
    hook product, its denominator."""
    images: np.ndarray
    signs: np.ndarray
    den: int


class _SnTable:
    """S_n indexed by lexicographic rank, and the maps the algebra needs.

    `images[i]` is permutation i in one-line form, 0-based: the one copy
    of S_n.  A code is a one-line form read as a base-n number;
    `_rank_of_code` (n**n entries) turns codes back into ranks, so no
    map below needs an n! x n! x n intermediate.  Every array the table
    keeps is read-only once built, since all later operators read it.
    Degrees outside 1..ALGEBRA_MAX_N are refused.
    """

    def __init__(self, n: int):
        if not 1 <= n <= ALGEBRA_MAX_N:
            raise SizeLimitError(
                f"A(S_{n}) is outside the supported degrees 1..{ALGEBRA_MAX_N}: "
                f"elements are stored over all n! permutations")
        self.n = n
        self.images = _frozen(np.array(list(all_permutations(n)),
                                       dtype=np.intp).reshape(-1, n) - 1)
        self.size = len(self.images)
        self._weights = _frozen(n ** np.arange(n - 1, -1, -1))
        rank_of_code = np.zeros(n ** n, dtype=np.int16)
        rank_of_code[self.images @ self._weights] = np.arange(self.size)
        self._rank_of_code = _frozen(rank_of_code)
        self.inverse = _frozen(self.ranks(np.argsort(self.images, axis=1)))
        self.cycles = _frozen(np.array(
            [cycle_count(p) for p in (self.images + 1).tolist()]))
        self.sign = _frozen(np.where((n - self.cycles) % 2, -1, 1))
        self._templates: dict[tuple[int, ...], _YoungTemplate] = {}

    def ranks(self, images: np.ndarray) -> np.ndarray:
        """Ranks of the permutations given as rows of 0-based images."""
        return self._rank_of_code[images @ self._weights]

    def checked_ranks(self, given: Iterable[Sequence[int]]) -> np.ndarray:
        """Ranks of the given permutations of 1..n, after the permutation
        check (`permutations._checked`).  The check comes first, because
        `_rank_of_code` reads 0, the identity, for a code that is no
        permutation; then all are ranked in one `ranks` call."""
        rows = [_checked(p, self.n) for p in given]
        images = np.array(rows, dtype=np.intp).reshape(len(rows), self.n)
        return self.ranks(images - 1)

    @cached_property
    def classes(self) -> np.ndarray:
        """Conjugacy-class id of each permutation: its cycle type,
        numbered in order of first appearance."""
        ids: dict[tuple[int, ...], int] = {}
        return _frozen(np.array([ids.setdefault(cycle_type(p), len(ids))
                                 for p in (self.images + 1).tolist()]))

    @cached_property
    def comp(self) -> np.ndarray:
        """comp[i, j] = rank of sigma_i sigma_j (sigma_j acts first).
        Its code is sum_y sigma_i(y) n**(n-1-sigma_j^-1(y)), so n rows are
        one (n x n) @ (n x n!) product, as many codes as one row took."""
        wt = self._weights[np.argsort(self.images, axis=1)].T
        comp = np.empty((self.size, self.size), dtype=np.int16)
        for lo in range(0, self.size, self.n):
            codes = self.images[lo:lo + self.n] @ wt
            comp[lo:lo + self.n] = self._rank_of_code[codes]
        return _frozen(comp)

    def young_subgroup(self, blocks: Iterable[Sequence[int]]) -> np.ndarray:
        """Ranks of the Young subgroup prod_B Sym(B) of the disjoint
        blocks B of 1..n: the permutations mapping every block onto
        itself.

        Disjoint blocks commute, so the group is the product of each
        block's S_k images written into its slots, g-major and h-minor,
        each element once, ranked in one call.  The single block 1..k
        thus gives S_k fixing k+1, ..., n, in S_k's rank order.
        """
        images = np.arange(self.n)[None]
        for block in blocks:
            slots = np.asarray(block, dtype=np.intp) - 1
            low = sn_table(len(slots)).images
            images = np.repeat(images, len(low), axis=0)
            images[:, slots] = np.tile(slots[low], (len(images) // len(low), 1))
        return self.ranks(images)

    def embedding(self, m: int) -> np.ndarray:
        """Ranks of S_m fixing m+1, ..., n, in S_m's rank order: where
        `embed_element` writes A(S_m) and `partial_trace` reads it."""
        return self.young_subgroup([range(1, m + 1)])

    def young_template(self, shape: tuple[int, ...]) -> _YoungTemplate:
        """Y_T0 for the row-reading tableau T0 of `shape` (its rows filled
        with 1..n, top to bottom), built once per shape.

        With R and C the row and column groups of T0, Y_T0 is sign(c)/|T0|
        on each product r c (c applied first), and these |R| |C| products
        are distinct: rc = r'c' gives r'^-1 r = c' c^-1, which lies in R
        and in C.  A row and a column share exactly one box, so a
        permutation keeping every entry in its row and in its column fixes
        every entry: R n C = {e}, hence r = r' and c = c'.  Every
        numerator is therefore +-1, written once, and there are
        |R| |C| <= n! terms.
        """
        template = self._templates.get(shape)
        if template is None:
            t0 = YoungTableau([range(end - k + 1, end + 1)
                               for k, end in zip(shape, accumulate(shape))])
            rows = self.young_subgroup(t0.rows)
            cols = self.young_subgroup(t0.columns)
            rc = self.images[rows][:, self.images[cols]]  # r_i(c_j(x))
            template = _YoungTemplate(
                _frozen(rc.reshape(-1, self.n).astype(np.int8)),
                _frozen(np.tile(self.sign[cols], len(rows))),
                t0.shape.hook_product())
            self._templates[shape] = template
        return template

    @cached_property
    def splice(self) -> np.ndarray:
        """(n-1) x (n-1)! ranks: column t lists the permutations moving n
        whose partial trace is permutation t of S_{n-1}.

        Removing n from its cycle sends sigma^-1(n) to sigma(n); each
        tau in S_{n-1} arises from the n-1 ways of putting n back.
        """
        last = self.n - 1
        head = self.images[:, :last]
        spliced = np.where(head == last, self.images[:, last:], head)
        target = sn_table(last).ranks(spliced)
        moved = np.flatnonzero(self.images[:, last] != last)
        moved = moved[np.argsort(target[moved], kind="stable")]
        return _frozen(moved.reshape(-1, last).T)


# The table of S_n, built on first use and kept for the process.
sn_table = _integer_table(_SnTable)


# -- exact integer kernels ------------------------------------------------------


def _convolve(table: _SnTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Numerators of (sum_i a_i sigma_i)(sum_j b_j sigma_j), exact.

    The coefficient of sigma_k is sum_i a_i b_j(i) with
    sigma_j(i) = sigma_i^-1 sigma_k, so j(i) = comp[inverse[i], k]: one
    gathered row of b per nonzero a_i, then a dot product.  Since j(i)
    also determines i, sigma_k receives at most min(|supp a|, |supp b|)
    nonzero terms, each at most max|a| * max|b| in magnitude, and any
    partial sum of them, in any order or blocking, is bounded by

        B = max|a| * max|b| * min(|supp a|, |supp b|).

    Every product and partial sum is then an integer of magnitude at most
    B: exact in float64 while B < 2**53 and in int64 while B < 2**63;
    past that the dot runs on Python integers.  The rows go in chunks to
    bound the gathered temporaries, and the factor with the smaller
    support is gathered from, using ab = (b* a*)*.
    """
    rows, cols = np.flatnonzero(a), np.flatnonzero(b)
    if len(cols) < len(rows):
        inv = table.inverse
        return _convolve(table, b[inv], a[inv])[inv]
    out_len = len(a)
    # Not dead: with a zero factor the bound is 0, and the float64 cast
    # below would overflow on the other factor's numerators past 2**1024.
    if not len(rows):
        return np.zeros(out_len, dtype=np.int64)
    dtype = _exact_dtype(_maxabs(a) * _maxabs(b) * len(rows))
    av, bv = a[rows].astype(dtype), b.astype(dtype)
    out = np.zeros(out_len, dtype=dtype)
    step = max(1, _CHUNK // out_len)
    for lo in range(0, len(rows), step):
        gather = table.comp[table.inverse[rows[lo:lo + step]]]
        out += av[lo:lo + step] @ bv[gather]
    return out


# -- elements -----------------------------------------------------------------------


class AlgebraElement(_Exact):
    """Formal sum sum_sigma c_sigma * sigma over S_n, stored densely.

    `num` holds one integer numerator per permutation in rank order; the
    coefficient of permutation i is num[i] / den.  Instances are
    immutable values; `*` of two elements is the algebra product.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, terms: Mapping[Perm, Scalar] = ()):
        table = sn_table(n)
        terms = dict(terms)
        coeffs = [(rank, _scalar(c)) for rank, c in
                  zip(table.checked_ranks(terms).tolist(), terms.values())]
        self.n = table.n
        self._store(*_common_denominator(table.size, coeffs))

    def _space(self) -> tuple[int]:
        return (self.n,)

    @classmethod
    def _new(cls, n: int, num: np.ndarray, den: int) -> "AlgebraElement":
        e = object.__new__(cls)
        e.n = n
        e._store(num, den)
        return e

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "AlgebraElement":
        table = sn_table(n)
        return cls._new(table.n, np.zeros(table.size, dtype=np.int64), 1)

    @classmethod
    def one(cls, n: int) -> "AlgebraElement":
        """The identity permutation, rank 0, with coefficient 1."""
        table = sn_table(n)
        return cls._new(table.n, np.eye(1, table.size, dtype=np.int64)[0], 1)

    @classmethod
    def from_perm(cls, p: Perm, coeff: Scalar = 1) -> "AlgebraElement":
        return cls(len(p), {tuple(p): coeff})

    # -- basic structure ---------------------------------------------------

    def _coeff_at(self, rank: int) -> Fraction:
        return Fraction(int(self.num[rank]), self.den)

    @property
    def terms(self) -> Mapping[Perm, Fraction]:
        """Read-only view {permutation: coefficient} of the nonzero terms,
        in one-line order, built from `num` on each read."""
        ranks = np.flatnonzero(self.num).tolist()
        images = (sn_table(self.n).images[ranks] + 1).tolist()
        return MappingProxyType({tuple(p): self._coeff_at(i)
                                 for p, i in zip(images, ranks)})

    def coefficient(self, p: Perm) -> Fraction:
        """The coefficient of p, which must pass the permutation check
        (`_SnTable.checked_ranks`)."""
        return self._coeff_at(sn_table(self.n).checked_ranks([p])[0])

    def __len__(self) -> int:
        return int(np.count_nonzero(self.num))

    def _difference_at(self, other: "AlgebraElement", i: int,
                       diff: Fraction) -> str:
        p = tuple((sn_table(self.n).images[i] + 1).tolist())
        return f"first differing term {p}: difference {diff}"

    # -- the algebra product ----------------------------------------------

    def __mul__(self, other: "AlgebraElement | Scalar") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return super().__mul__(other)
        self._check_space(other)
        num = _convolve(sn_table(self.n), self.num, other.num)
        return self._new(self.n, num, self.den * other.den)

    def __repr__(self) -> str:
        return f"AlgebraElement({self.n}, {dict(self.terms)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})*{p}" for p, c in self.terms.items())

    # -- involution, traces ---------------------------------------------------

    def involution(self) -> "AlgebraElement":
        """The *-map sum c_sigma sigma -> sum c_sigma sigma^(-1).

        With real (rational) coefficients this realizes the operator
        adjoint, because every permutation acts as a real orthogonal
        matrix on tensor space.
        """
        return self._new(self.n, self.num[sn_table(self.n).inverse], self.den)

    def trace_polynomial(self) -> Polynomial:
        """Trace on (C^N)^(x n) as a polynomial in N.

        A permutation traces to N**(number of cycles, fixed points
        included), so the trace of the element is sum c_sigma N^cycles.
        """
        table = sn_table(self.n)
        by_cycles = table.cycles == np.arange(self.n + 1)[:, None]
        # Each sum has at most |supp num| terms of size max|num|.
        dtype = _exact_dtype(_maxabs(self.num) * int(np.count_nonzero(self.num)))
        sums = by_cycles.astype(dtype) @ self.num.astype(dtype)
        return Polynomial([Fraction(int(v), self.den) for v in sums.tolist()])

    def partial_trace(self) -> tuple["AlgebraElement", "AlgebraElement"]:
        """Contract the last tensor slot: the pair (A, B) in degree n-1
        with tr' X = N A + B.

        Term by term: a permutation fixing n restricts to 1..n-1 and
        picks up a factor N (a closed loop); these terms form A.
        Otherwise n is spliced out of its cycle,
        sigma'(sigma^(-1)(n)) := sigma(n), with no factor; B sums the
        n-1 spliced permutations landing on each target.
        """
        if self.n < 2:
            raise ValueError("partial trace requires degree >= 2")
        table = sn_table(self.n)
        looped = self.num[table.embedding(self.n - 1)]
        spliced = _lincomb([(1, row) for row in self.num[table.splice]])
        return (self._new(self.n - 1, looped, self.den),
                self._new(self.n - 1, spliced, self.den))

    # -- JSON wire format ----------------------------------------------------

    def to_dict(self) -> dict:
        """{"n":3,"terms":[{"perm":[2,1,3],"coeff":"1/3"},...]}, terms
        sorted by one-line form."""
        return {"n": self.n,
                "terms": [{"perm": list(p), "coeff": str(c)}
                          for p, c in self.terms.items()]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "AlgebraElement":
        terms = {}
        for t in data["terms"]:
            perm = tuple(t["perm"])
            if perm in terms:
                raise ValueError(f"permutation {perm} appears twice")
            terms[perm] = _wire_scalar(t["coeff"])
        return cls(data["n"], terms)


def embed_element(a: AlgebraElement, n: int) -> AlgebraElement:
    """Include A(S_m) into A(S_n), m <= n, fixing the trailing slots
    m+1, ..., n (tensoring with the identity on the right)."""
    table = sn_table(n)
    if table.n < a.n:
        raise ValueError(f"cannot embed degree {a.n} into degree {n}")
    num = np.zeros(table.size, dtype=a.num.dtype)
    num[table.embedding(a.n)] = a.num
    return AlgebraElement._new(table.n, num, a.den)


# -- symmetrizers ------------------------------------------------------------


def _subset_sum(slots: Iterable[int], n: int, signed: bool) -> AlgebraElement:
    table = sn_table(n)
    vals = sorted(_in_range(s, 1, table.n, "slot") for s in slots)
    if not vals:
        raise ValueError("slot subset must be nonempty")
    for low, high in zip(vals, vals[1:]):
        if low == high:
            raise ValueError(f"slot {low} appears twice")
    ranks = table.young_subgroup([vals])
    num = np.zeros(table.size, dtype=np.int64)
    num[ranks] = table.sign[ranks] if signed else 1
    return AlgebraElement._new(table.n, num, len(ranks))


def symmetrizer(slots: Iterable[int], n: int) -> AlgebraElement:
    """(1/k!) sum of all permutations of the given k slots inside S_n."""
    return _subset_sum(slots, n, signed=False)


def antisymmetrizer(slots: Iterable[int], n: int) -> AlgebraElement:
    """(1/k!) signed sum of all permutations of the given slots."""
    return _subset_sum(slots, n, signed=True)


# -- Young operators ----------------------------------------------------------


# Only P_T is memoized, on the tableau's row tuple: its sandwich
# recursion reuses the parent P_T', and each level costs two products.
# Y_T needs no earlier result and no product (its shape's template,
# relabelled), so it is rebuilt on every call.  Concurrent inserts are
# idempotent: the same key always maps to the same value.
_HERMITIAN_CACHE: dict[tuple[tuple[int, ...], ...], AlgebraElement] = {}


def young_operator(t: YoungTableau, *,
                   allow_nonstandard: bool = False) -> AlgebraElement:
    """The Young operator Y_T = (1/|T|) s_T a_T.

    s_T sums all permutations preserving each row of T; a_T sums, with
    sign, all permutations preserving each column; |T| is the hook
    product of the shape.  The product convention applies a_T first.
    Y_T is a primitive idempotent of A(S_n).

    No algebra product is formed.  Every filling T of a shape is
    pi T0, where T0 is the shape's row-reading tableau and pi maps each
    entry of T0 to the entry in the same box of T, so pi is T's row
    word.  Then R_T = pi R_T0 pi^-1 and C_T = pi C_T0 pi^-1, and
    Y_T = pi Y_T0 pi^-1: the images of the shape's template
    (`_SnTable.young_template`) are relabelled and ranked in one call,
    and its signs are written in one scatter.  Conjugation is a
    bijection and sign(pi c pi^-1) = sign(c), so the template's proof
    that every term is distinct with numerator +-1 carries over.

    A non-standard (but bijective) filling raises ValueError unless
    allow_nonstandard is set, since nearly every identity in this
    package is about standard tableaux; `hermitian_young` sets it once
    it has tested standardness.
    """
    table = sn_table(t.n)  # refuses n outside 1..ALGEBRA_MAX_N
    if not (allow_nonstandard or t.is_standard()):
        raise ValueError(f"tableau {t} is not standard")
    images, signs, den = table.young_template(t.shape.rows)
    pi = np.array(t.row_word(), dtype=np.intp) - 1
    pi_inv = np.argsort(pi)
    num = np.zeros(table.size, dtype=np.int64)
    num[table.ranks(pi[images[:, pi_inv]])] = signs  # pi rc pi^-1
    return AlgebraElement._new(t.n, num, den)


def hermitian_young(t: YoungTableau) -> AlgebraElement:
    """The Hermitian Young operator P_T.

    Defined recursively: P_T = Y_T for n <= 2, and

        P_T = embed(P_T') * Y_T * embed(P_T')

    for n >= 3, where T' is T with the box containing n removed and the
    embedding fixes slot n.  The one base case is Y_T: for the single
    box it is the identity, and at n = 2 the wings are that identity,
    so the sandwich is Y_T too.  P_T is an idempotent, invariant under
    the *-involution, with the same trace as Y_T, and the P_T over all
    standard tableaux of n boxes are mutually transversal and sum to
    the identity.

    A non-standard T is refused once, by `YoungTableau.parent` for
    n >= 3 and by `young_operator` for n <= 2.
    """
    n = t.n
    key = t.rows
    cached = _HERMITIAN_CACHE.get(key)
    if cached is not None:
        return cached  # only standard tableaux are ever stored
    sn_table(n)  # refuses n outside 1..ALGEBRA_MAX_N before any parent
    if n <= 2:
        result = young_operator(t)
    else:
        parent, _, _ = t.parent()  # refuses a non-standard T
        wings = embed_element(hermitian_young(parent), n)
        result = wings * young_operator(t, allow_nonstandard=True) * wings
    _HERMITIAN_CACHE[key] = result
    return result


# -- idempotent diagnostics ----------------------------------------------------


def _require_idempotent(e: AlgebraElement, name: str) -> None:
    if e.is_zero():
        raise ValueError(f"{name} is zero")
    if e * e != e:
        raise ValueError(f"{name} is not idempotent")


def _ideal_dimension(e1: AlgebraElement, e2: AlgebraElement) -> Fraction:
    """dim e1 A e2 for idempotents e1, e2 of A = A(S_n), by the class-sum
    formula proved at `primitivity_check`.  The sums run on Python
    integers, since a float64 sum would round past 2**53."""
    classes = sn_table(e1.n).classes
    total = 0
    for c in range(classes.max() + 1):
        on_c = classes == c
        total += (len(classes) // int(on_c.sum())
                  * sum(e1.num[on_c].tolist()) * sum(e2.num[on_c].tolist()))
    return Fraction(total, e1.den * e2.den)


def primitivity_check(e: AlgebraElement) -> bool:
    """True iff e*sigma*e is a scalar multiple of e for every sigma.

    By linearity this spans all r in A = A(S_n), which characterizes
    primitive idempotents.  Since e = e*1*e is nonzero, it says
    dim e A e = 1, which is decided by class sums with no scan:

        dim e1 A e2 = sum_C (n!/|C|) e1(C) e2(C)

    for idempotents e1, e2, over the conjugacy classes C of S_n, where
    e(C) is the sum of e's coefficients on C.  Proof: x -> e1 x e2 is an
    idempotent linear map L on A with image e1 A e2, so its rank equals
    its trace.  In the permutation basis, the coefficient of sigma in
    L(sigma) = sum_{tau,rho} e1(tau) e2(rho) tau sigma rho collects the
    pairs with rho = sigma^-1 tau^-1 sigma, so

        tr L = sum_tau e1(tau) sum_sigma e2(sigma^-1 tau^-1 sigma).

    As sigma runs over S_n, sigma^-1 tau^-1 sigma runs over the class of
    tau^-1, which is the class C of tau (inverses share a cycle type),
    hitting each member n!/|C| times, the order of a centralizer.
    Summing over tau in C gives the formula.  It needs L idempotent, so
    an e that is zero or not idempotent raises ValueError.
    """
    _require_idempotent(e, "e")
    return _ideal_dimension(e, e) == 1


def inequivalence_check(e1: AlgebraElement, e2: AlgebraElement) -> bool:
    """True iff e1*sigma*e2 = 0 for every sigma (the idempotents then
    project onto inequivalent representations), that is, iff
    dim e1 A e2 = 0 by the class-sum formula of `primitivity_check`."""
    e1._check_space(e2)
    _require_idempotent(e1, "e1")
    _require_idempotent(e2, "e2")
    return _ideal_dimension(e1, e2) == 0
