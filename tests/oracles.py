"""Independent oracles and shared hypothesis strategies for the tests.

Everything here is deliberately naive: brute-force enumeration and
textbook-definition arithmetic, used to cross-check the optimized
library code paths.
"""
from fractions import Fraction
from functools import cache
from itertools import permutations as it_permutations

import numpy as np
from hypothesis import strategies as st

from youngops import (
    AlgebraElement,
    Polynomial,
    YoungTableau,
    cycle_count,
    decode,
    encode,
    partitions,
    sign,
)


def perms_of(values, n):
    """Permutations of 1..n moving only the given values (all others
    fixed): one per rearrangement of `values` among their own positions,
    the subgroup of S_n supported on that subset."""
    vals = sorted(values)
    base = list(range(1, n + 1))
    for image in it_permutations(vals):
        p = base.copy()
        for v, w in zip(vals, image):
            p[v - 1] = w
        yield tuple(p)


def naive_young_subgroup(blocks, n):
    """The permutations of 1..n mapping every block onto itself, found
    by testing all n! of them."""
    return {p for p in it_permutations(range(1, n + 1))
            if all({p[v - 1] for v in b} == set(b) for b in blocks)}


def all_fillings(n):
    """Every bijective filling of every shape with n boxes, standard or
    not.  Exponential; keep n small."""
    found = []
    for shape in partitions(n):
        for filling in it_permutations(range(1, n + 1)):
            rows = []
            pos = 0
            for lam in shape:
                rows.append(list(filling[pos:pos + lam]))
                pos += lam
            found.append(YoungTableau(rows))
    return found


def brute_force_syt(n):
    """All standard tableaux with n boxes, found by filtering every
    bijective filling of every shape."""
    return [t for t in all_fillings(n) if t.is_standard()]


def naive_subset_sum(slots, n, signed):
    """(1/k!) times the sum of the k! permutations moving only `slots`,
    each weighted by its sign when `signed`, enumerated one by one."""
    perms = list(perms_of(slots, n))
    return AlgebraElement(n, {
        p: Fraction(sign(p) if signed else 1, len(perms)) for p in perms})


def naive_multiply(a, b):
    """Definition-level convolution product with Fraction arithmetic,
    composing so that b acts first."""
    acc = {}
    for pa, ca in a.terms.items():
        for pb, cb in b.terms.items():
            key = tuple(pa[x - 1] for x in pb)
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return AlgebraElement(a.n, acc)


def naive_trace_polynomial(a):
    """sum_sigma c_sigma N**cycles(sigma), one Polynomial add per term."""
    out = Polynomial.zero()
    for p, c in a.terms.items():
        out = out + Polynomial.monomial(cycle_count(p)) * c
    return out


def naive_partial_trace(a):
    """Term-by-term partial trace over slot n, as the pair (A, B) with
    tr' a = N A + B: a fixed point of n restricts into A (the factor N),
    otherwise n is spliced out of its cycle into B."""
    n = a.n
    looped, spliced = {}, {}
    for p, c in a.terms.items():
        if p[-1] == n:
            acc, key = looped, p[:-1]
        else:
            acc = spliced
            key = tuple(p[x - 1] if p[x - 1] != n else p[-1] for x in range(1, n))
        acc[key] = acc.get(key, Fraction(0)) + c
    return AlgebraElement(n - 1, looped), AlgebraElement(n - 1, spliced)


@cache
def naive_comp(n):
    """comp[i, j] = rank of sigma_i sigma_j, sigma_j acting first, from
    the one-line compositions alone.  Permutations are numbered in
    lexicographic order of one-line form, which is checked against the
    order of `num`."""
    perms = list(it_permutations(range(1, n + 1)))
    rank = {p: i for i, p in enumerate(perms)}
    for i, p in enumerate(perms):
        assert np.flatnonzero(AlgebraElement.from_perm(p).num).tolist() == [i]
    return np.array([[rank[tuple(p[x - 1] for x in q)] for q in perms]
                     for p in perms])


@cache
def _regular_gathers(n):
    """Index maps of the regular representation of S_n, built from
    `naive_comp`: column j of L(a) = a.num[left[:, j]] holds the
    numerators of a sigma_j, and column j of R(b) = b.num[right[:, j]]
    those of sigma_j b."""
    comp = naive_comp(n)
    index = np.arange(len(comp))
    left, right = np.empty_like(comp), np.empty_like(comp)
    left[comp, index] = index[:, None]     # a_i sigma_i sigma_j
    right[comp.T, index] = index[:, None]  # sigma_j b_i sigma_i
    return left, right


def _sandwiches(e1, e2):
    """Integer matrix whose column j is e1 sigma_j e2 times
    e1.den * e2.den: the product L(e1) R(e2) of regular representations,
    since column j of R(e2) is sigma_j e2.  It runs in float64 under the
    asserted bound max|L| * max|R| * n!, which every partial sum obeys,
    so it is exact."""
    left, right = _regular_gathers(e1.n)
    lhs, rhs = e1.num[left], e2.num[right]
    bound = int(abs(lhs).max()) * int(abs(rhs).max()) * len(left)
    assert bound < 2 ** 53, bound
    return (lhs.astype(float) @ rhs.astype(float)).astype(np.int64)


def naive_primitive(e):
    """True iff e*sigma*e is a scalar multiple of the nonzero e for each
    of the n! permutations sigma, tested at one point p0 of e's support:
    x = c e exactly when x e(p0) = e x(p0)."""
    x = _sandwiches(e, e).astype(object)
    num = e.num.astype(object)
    p0 = np.flatnonzero(num)[0]
    return bool((x * num[p0] == np.outer(num, x[p0])).all())


def naive_inequivalent(e1, e2):
    """True iff e1*sigma*e2 = 0 for each of the n! permutations sigma."""
    return not _sandwiches(e1, e2).any()


def fraction_matrix(op):
    """A TensorOperator's entries as a list of Fraction rows."""
    return [[Fraction(int(v), op.den) for v in row] for row in op.num]


def naive_matmul(x, y):
    """Row-by-column product of two Fraction matrices."""
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*y)] for row in x]


def naive_matrix_partial_trace(x, N):
    """Contract the last slot of a Fraction matrix on (C^N)^(x n):
    entry (a, b) is sum_c x[(a, c), (b, c)], the last digit least
    significant."""
    m = len(x) // N
    return [[sum((x[a * N + c][b * N + c] for c in range(N)), Fraction(0))
             for b in range(m)] for a in range(m)]


def naive_rank(x):
    """Rank of a Fraction matrix by Gaussian elimination over Q."""
    rows = [list(row) for row in x]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rank += 1
        for r in rows:
            if r[col] != 0:
                f = r[col] / pivot[col]
                r[:] = [a - f * b for a, b in zip(r, pivot)]
    return rank


def naive_realize(a, N):
    """Fraction matrix of a rational element on (C^N)^(x n), from the
    definition: sigma sends the basis vector with digits b to the one
    with digits d, d[sigma(k)] = b[k]."""
    n = a.n
    dim = N ** n
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for p, c in a.terms.items():
        for col in range(dim):
            b = decode(col, N, n)
            d = [0] * n
            for k in range(n):
                d[p[k] - 1] = b[k]
            out[encode(d, N)][col] += c
    return out


def element_from_json(data):
    """The AlgebraElement that `to_dict` wrote as `data`, rebuilt through
    the public constructor, each "p/q" coefficient by Fraction; nothing
    is validated."""
    return AlgebraElement(data["n"], {tuple(t["perm"]): Fraction(t["coeff"])
                                      for t in data["terms"]})


def polynomial_from_json(data):
    """The Polynomial that `to_dict` wrote as `data`, rebuilt through the
    public constructor; the "0" key is always there."""
    coeffs = {int(k): Fraction(c) for k, c in data["coeffs"].items()}
    return Polynomial([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


@st.composite
def permutation_strategy(draw, n):
    return tuple(draw(st.permutations(range(1, n + 1))))


@st.composite
def fraction_strategy(draw, max_num=6, max_den=6):
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    den = draw(st.integers(min_value=1, max_value=max_den))
    return Fraction(num, den)


@st.composite
def element_strategy(draw, n, max_terms=4, max_num=6, max_den=6):
    count = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(count):
        p = draw(permutation_strategy(n))
        terms[p] = draw(fraction_strategy(max_num, max_den))
    return AlgebraElement(n, terms)


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    shape = []
    cap = n
    remaining = n
    while remaining:
        row = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        shape.append(row)
        cap = row
        remaining -= row
    return tuple(shape)
