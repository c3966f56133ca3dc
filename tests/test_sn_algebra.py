import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from youngops import sn_algebra
from youngops import (
    AlgebraElement,
    all_permutations,
    Polynomial,
    SizeLimitError,
    YoungTableau,
    antisymmetrizer,
    embed_element,
    enumerate_syt,
    hermitian_young,
    inequivalence_check,
    primitivity_check,
    symmetrizer,
    transposition,
    young_operator,
)
from youngops.permutations import cycle_count, cycle_type, sign as perm_sign
from oracles import (
    all_fillings,
    element_from_json,
    element_strategy,
    naive_comp,
    naive_inequivalent,
    naive_multiply,
    naive_partial_trace,
    naive_primitive,
    naive_subset_sum,
    naive_trace_polynomial,
    naive_young_subgroup,
)

F = Fraction


def T(text):
    return YoungTableau.from_string(text)


def perm_el(*images):
    return AlgebraElement.from_perm(tuple(images))


# -- element basics -----------------------------------------------------------


def test_zero_coefficients_never_stored():
    e = AlgebraElement(3, {(1, 2, 3): F(0), (2, 1, 3): F(1, 2)})
    assert len(e) == 1
    assert e.coefficient((1, 2, 3)) == 0
    assert (e - e).is_zero()


def test_construction_validation():
    with pytest.raises(ValueError):
        AlgebraElement(3, {(1, 2): F(1)})
    with pytest.raises(ValueError):
        AlgebraElement(3, {(1, 1, 2): F(1)})
    with pytest.raises(SizeLimitError):
        AlgebraElement(0)  # refused by S_0's table, like degrees past 7


def test_coefficient_checks_the_permutation():
    # the coefficient of a permutation outside S_n is an error, not 0
    e = AlgebraElement(2, {(2, 1): F(1, 2)})
    assert e.coefficient((2, 1)) == F(1, 2) and e.coefficient((1, 2)) == 0
    for bad in [(1, 2, 3), (1,), (1, 1), (0, 1), (2, 3)]:
        with pytest.raises(ValueError):
            e.coefficient(bad)
    assert e.coefficient((np.int64(2), np.int64(1))) == F(1, 2)


def test_zero_and_one_match_their_term_forms():
    for n in (1, 3, 5):
        zero, one = AlgebraElement.zero(n), AlgebraElement.one(n)
        assert zero == AlgebraElement(n, {}) and zero.is_zero()
        assert one == AlgebraElement(n, {tuple(range(1, n + 1)): 1})
    for build in (AlgebraElement.zero, AlgebraElement.one):
        assert type(build(np.int64(3)).n) is int
        with pytest.raises(TypeError):
            build(3.0)
        with pytest.raises(SizeLimitError):
            build(8)


def test_degree_mismatch_errors():
    a, b = AlgebraElement.one(3), AlgebraElement.one(4)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError):
            op()


def test_identity_element_is_neutral():
    one = AlgebraElement.one(3)
    b = AlgebraElement(3, {(2, 3, 1): F(5, 7), (1, 3, 2): F(-2)})
    assert one * b == b
    assert b * one == b


def test_single_permutations_multiply_by_composition():
    # (12) * (13) applies (13) first: 1 -> 3, 2 -> 1, 3 -> 2
    prod = perm_el(2, 1, 3) * perm_el(3, 2, 1)
    assert prod.terms == {(3, 1, 2): F(1)}


@settings(max_examples=60)
@given(element_strategy(n=4), element_strategy(n=4))
def test_multiply_matches_naive_convolution(a, b):
    assert a * b == naive_multiply(a, b)


@st.composite
def wide_element_pairs(draw):
    """Two elements of one degree n <= 4, numerators and denominators up
    to 6, 2**30, 2**62 or 2**80, so products take all three exact paths."""
    n = draw(st.integers(min_value=1, max_value=4))
    return tuple(
        draw(element_strategy(n, max_terms=24, max_num=big, max_den=big))
        for big in draw(st.lists(st.sampled_from([6, 2 ** 30, 2 ** 62, 2 ** 80]),
                                 min_size=2, max_size=2)))


@settings(max_examples=60)
@given(wide_element_pairs())
def test_kernels_match_naive_definitions_at_every_magnitude(pair):
    a, b = pair
    assert a * b == naive_multiply(a, b)
    assert (a + b) - b == a
    assert a.trace_polynomial() == naive_trace_polynomial(a)
    if a.n >= 2:
        assert a.partial_trace() == naive_partial_trace(a)


def _kernel_path(monkeypatch, compute, oracle):
    """The dtypes a kernel chose while computing compute(), whose value
    must equal the oracle's."""
    chosen = []
    real = sn_algebra._exact_dtype

    def spy(bound):
        chosen.append(real(bound))
        return chosen[-1]

    monkeypatch.setattr(sn_algebra, "_exact_dtype", spy)
    value = compute()
    monkeypatch.undo()
    assert value == oracle
    return set(chosen)


@pytest.mark.parametrize("limit, below, above", [
    (2 ** 53, np.float64, np.int64),
    (2 ** 63, np.int64, object),
])
def test_product_bound_edges(monkeypatch, limit, below, above):
    # a = A e + (A-2) t and b = B e + (B-1) t with t = (12): each target
    # receives two terms, so the bound is max|a| * max|b| * 2 = 2 A B.
    e, t = (1, 2, 3), (2, 1, 3)
    A = 2 ** (limit.bit_length() // 2 - 1) - 1
    B = (limit - 1) // (2 * A)
    a = AlgebraElement(3, {e: A, t: A - 2})
    for b_max, path in ((B, below), (B + 1, above)):
        assert (2 * A * b_max < limit) == (path is below)
        b = AlgebraElement(3, {e: b_max, t: b_max - 1})
        assert _kernel_path(monkeypatch, lambda: a * b,
                            naive_multiply(a, b)) == {path}


@pytest.mark.parametrize("limit, below, above", [
    (2 ** 53, np.float64, np.int64),
    (2 ** 63, np.int64, object),
])
def test_trace_polynomial_bound_edges(monkeypatch, limit, below, above):
    # a = M (12) + (M-1) (13): both have two cycles, so the N^2
    # coefficient sums both terms, and the bound max|num| * |supp num|
    # is 2 M: limit - 2 just below the edge and limit at it.
    for M, path in ((limit // 2 - 1, below), (limit // 2, above)):
        assert (2 * M < limit) == (path is below)
        a = AlgebraElement(3, {(2, 1, 3): M, (3, 2, 1): M - 1})
        assert _kernel_path(monkeypatch, a.trace_polynomial,
                            naive_trace_polynomial(a)) == {path}


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_partial_trace_bound_edge(offset):
    # Coefficient M on all of S_3: B sums the n-1 = 2 spliced rows, so
    # `_lincomb`'s bound, the sum of their max|.|, is 2 M = 2**63 +
    # 2 offset, and so is each entry of B: the int64 bound sits there.
    # A is a gather and cannot overflow.
    M = 2 ** 62 + offset
    a = AlgebraElement(3, {p: M for p in all_permutations(3)})
    assert (2 * M < 2 ** 63) == (offset < 0)
    looped, spliced = a.partial_trace()
    assert (looped, spliced) == naive_partial_trace(a)
    assert looped.num.dtype == np.int64
    assert spliced.num.dtype == (np.int64 if offset < 0 else object)


def test_zero_product_exact_past_float64():
    # a zero factor has bound 0, yet the other factor's numerators are
    # past float64's range: the product must not cast them
    zero = AlgebraElement.zero(2)
    big = AlgebraElement.from_perm((2, 1), 2 ** 1100)
    assert (zero * big).is_zero() and (big * zero).is_zero()


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("big, path", [
    (7, np.float64), (2 ** 28, np.int64), (2 ** 40, object)],
    ids=["float64", "int64", "object"])
def test_product_bound_paths_past_one_chunk(monkeypatch, n, big, path):
    # A chunk gathers 22 rows at n = 6 and 3 at n = 7, so factors of 30
    # and 41 terms take several chunks, the last one short; b * a
    # gathers from a after the (b* a*)* swap.  Integral coefficients up
    # to `big` in magnitude put the bound big**2 * 30 on each dtype path.
    assert 30 > sn_algebra._CHUNK // factorial(n)
    rng = np.random.default_rng(n)
    perms = list(all_permutations(n))
    picks = rng.choice(len(perms), 71, replace=False).tolist()
    signs = rng.choice([-1, 1], 71).tolist()
    mags = [big] + rng.integers(1, big, 70, endpoint=True).tolist()
    terms = [(perms[i], s * m) for i, s, m in zip(picks, signs, mags)]
    a = AlgebraElement(n, dict(terms[:30]))
    b = AlgebraElement(n, dict(terms[30:]))
    for x, y in ((a, b), (b, a)):
        assert _kernel_path(monkeypatch, lambda: x * y,
                            naive_multiply(x, y)) == {path}


def test_equal_elements_hash_equal():
    as_int = AlgebraElement(2, {(2, 1): 1})
    as_frac = AlgebraElement(2, {(2, 1): F(3, 3)})
    assert as_int == as_frac and hash(as_int) == hash(as_frac)
    big = AlgebraElement(2, {(1, 2): 2 ** 70, (2, 1): F(1, 3)})
    assert hash(big) == hash(AlgebraElement(2, big.terms))
    assert big == (big * 3) / 3 and hash(big) == hash((big * 3) / 3)


def test_repr_rebuilds_and_str_lists_terms():
    a = AlgebraElement(2, {(2, 1): F(-1, 3), (1, 2): 1})
    assert eval(repr(a), {"AlgebraElement": AlgebraElement,
                          "Fraction": F}) == a
    assert str(a) == "(1)*(1, 2) + (-1/3)*(2, 1)"
    assert str(AlgebraElement.zero(2)) == "0"


def test_numpy_integer_scalars_are_exact():
    a = AlgebraElement(3, {(2, 1, 3): F(1, 3), (1, 2, 3): 5})
    assert a.scale(np.int64(3)) == a.scale(3) == np.int64(3) * a
    assert a / np.int64(3) == a / 3
    # the scalar becomes a Python integer, so no int64 product wraps
    big = a.scale(np.int64(2 ** 62))
    assert big.scale(np.int64(4)) == a.scale(2 ** 64)
    for make in (lambda: a.scale(0.5), lambda: a.scale(np.float64(2)),
                 lambda: a / 0.5, lambda: a.scale("2")):
        with pytest.raises(TypeError):
            make()


def test_elements_are_read_only():
    for a in (AlgebraElement(2, {(2, 1): 3}), hermitian_young(T("12/3")),
              AlgebraElement.one(3) * 2, -AlgebraElement.one(3)):
        with pytest.raises(ValueError):
            a.num[0] = 1
        # `terms` is built from `num` on each read: equal, separate and
        # read-only views
        first, second = a.terms, a.terms
        assert first == second and first is not second
        with pytest.raises(TypeError):
            first[(1,) * a.n] = 1


@pytest.mark.parametrize("n", range(1, 6))
def test_composition_table_matches_one_line_composition(n):
    assert np.array_equal(sn_algebra.sn_table(n).comp, naive_comp(n))


@settings(max_examples=40)
@given(element_strategy(n=3), element_strategy(n=3), element_strategy(n=3))
def test_multiplication_associates_and_distributes(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_scaling_and_division():
    y = young_operator(T("12/3"))
    assert (y * 3).coefficient((1, 2, 3)) == 1
    assert (F(1, 2) * y) * 2 == y
    assert (y / 3) * 3 == y


# -- involution --------------------------------------------------------------


def test_involution_examples():
    s = symmetrizer([1, 2, 3], 3)
    assert s.involution() == s
    y = young_operator(T("12/3"))
    assert y.involution() != y
    assert y.involution().terms == {
        (1, 2, 3): F(1, 3), (2, 1, 3): F(1, 3),
        (3, 2, 1): F(-1, 3), (2, 3, 1): F(-1, 3)}


def test_hermitian_operators_are_star_invariant():
    for t in enumerate_syt(4):
        p = hermitian_young(t)
        assert p.involution() == p


@settings(max_examples=40)
@given(element_strategy(n=4), element_strategy(n=4))
def test_involution_is_an_anti_automorphism(a, b):
    assert (a * b).involution() == b.involution() * a.involution()
    assert a.involution().involution() == a


# -- symmetrizers -------------------------------------------------------------


def test_two_slot_symmetrizer():
    assert symmetrizer([1, 2], 2).terms == {
        (1, 2): F(1, 2), (2, 1): F(1, 2)}
    assert antisymmetrizer([1, 2], 2).terms == {
        (1, 2): F(1, 2), (2, 1): F(-1, 2)}


def test_single_slot_is_identity():
    assert symmetrizer([2], 3) == AlgebraElement.one(3)
    assert antisymmetrizer([3], 3) == AlgebraElement.one(3)


def test_empty_subset_rejected():
    with pytest.raises(ValueError):
        symmetrizer([], 3)
    with pytest.raises(ValueError):
        antisymmetrizer([0, 1], 3)
    with pytest.raises(ValueError, match="^slot 1 appears twice$"):
        antisymmetrizer([1, 1, 2], 3)


def test_symmetrizers_idempotent_and_annihilating():
    s = symmetrizer([1, 2], 3)
    a = antisymmetrizer([1, 2, 3], 3)
    assert s * s == s
    assert a * a == a
    # antisymmetric times symmetric over shared slots collapses
    assert (a * s).is_zero()
    assert (s * a).is_zero()


@pytest.mark.parametrize("n", [4, 6])
def test_subset_sums_match_enumeration(n):
    for k in range(1, n + 1):
        for slots in combinations(range(1, n + 1), k):
            assert symmetrizer(slots, n) == naive_subset_sum(slots, n, False)
            assert antisymmetrizer(slots, n) == naive_subset_sum(slots, n, True)


def test_symmetrizer_recursion():
    # S(1..k) = (1/k) S(2..k) + ((k-1)/k) S(2..k) t12 S(2..k), and the
    # same for A(1..k) with the second term negated
    for k in (2, 3, 4):
        rest = range(2, k + 1)
        t12 = AlgebraElement.from_perm(transposition(k, 1, 2))
        for build, sign in ((symmetrizer, 1), (antisymmetrizer, -1)):
            r = build(rest, k)
            assert build(range(1, k + 1), k) == (
                r / k + F(sign * (k - 1), k) * (r * t12 * r))


# -- Young operators -----------------------------------------------------------


def test_single_row_young_operator():
    assert young_operator(T("12")).terms == {
        (1, 2): F(1, 2), (2, 1): F(1, 2)}


def test_young_operator_12_3_expansion():
    assert young_operator(T("12/3")).terms == {
        (1, 2, 3): F(1, 3), (2, 1, 3): F(1, 3),
        (3, 2, 1): F(-1, 3), (3, 1, 2): F(-1, 3)}


def test_young_operator_prefactor_identity():
    # Y_{123/45} = 2 * S{123} S{45} A{14} A{25}
    y = young_operator(T("123/45"))
    s_a = (symmetrizer([1, 2, 3], 5) * symmetrizer([4, 5], 5)
           * antisymmetrizer([1, 4], 5) * antisymmetrizer([2, 5], 5))
    assert y == s_a * 2
    # Every standard tableau up to n = 6 and every non-standard filling up
    # to n = 4: Y_T = prod S(row) prod A(col) (prod row! prod col!)/|T|,
    # built through products, and Y_T has one term per element r c of
    # the row group times the column group.
    cases = [t for n in range(1, 7) for t in enumerate_syt(n)]
    cases += [t for n in range(1, 5) for t in all_fillings(n)
              if not t.is_standard()]
    for t in cases:
        n = t.n
        cols = [[row[k] for row in t.rows if k < len(row)]
                for k in range(len(t.rows[0]))]
        s_a = AlgebraElement.one(n)
        for row in t.rows:
            s_a = s_a * symmetrizer(row, n)
        for col in cols:
            s_a = s_a * antisymmetrizer(col, n)
        norm = prod(factorial(len(b)) for b in (*t.rows, *cols))
        y = young_operator(t, allow_nonstandard=True)
        assert y == s_a * F(norm, t.shape.hook_product()), t
        assert len(y) == norm, t


def test_young_operator_rejects_nonstandard_by_default():
    bad = YoungTableau([[2, 1], [3]])
    with pytest.raises(ValueError):
        young_operator(bad)
    forced = young_operator(bad, allow_nonstandard=True)
    assert not forced.is_zero()
    assert forced != young_operator(T("12/3"))
    # a forced build leaves nothing behind: the default still refuses
    with pytest.raises(ValueError):
        young_operator(bad)
    assert young_operator(T("12/3")) == young_operator(T("12/3"))


def test_young_operators_are_idempotent():
    for n in range(1, 5):
        for t in enumerate_syt(n):
            y = young_operator(t)
            assert y * y == y


def test_littlewood_counterexample():
    a = young_operator(T("135/24"))
    b = young_operator(T("123/45"))
    assert (a * b).is_zero()
    ba = b * a
    assert not ba.is_zero()
    # frozen expansion facts for the surviving order
    assert len(ba) == 48
    values = sorted(ba.terms.values())
    assert values[:24] == [F(-1, 24)] * 24 and values[24:] == [F(1, 24)] * 24
    assert next(iter(ba.terms.items())) == ((1, 4, 2, 5, 3), F(-1, 24))
    assert ba.coefficient((1, 2, 3, 4, 5)) == 0
    assert ba.trace_polynomial() == Polynomial.zero()


# -- Hermitian operators ---------------------------------------------------------


def test_hermitian_equals_young_up_to_two_boxes():
    # the one base case, P_T = Y_T for n <= 2: the identity for one box,
    # and at n = 2 what the sandwich with that identity as wings gives
    assert hermitian_young(T("1")) == AlgebraElement.one(1)
    wings = embed_element(hermitian_young(T("1")), 2)
    for text in ("1", "12", "1/2"):
        assert hermitian_young(T(text)) == young_operator(T(text))
    for text in ("12", "1/2"):
        y = young_operator(T(text))
        assert hermitian_young(T(text)) == wings * y * wings


def test_hermitian_young_refuses_nonstandard_and_memoizes_nothing():
    # n = 2 meets young_operator's check in the base case, n = 3 meets
    # parent()'s; both refuse in the words young_operator uses, and
    # neither leaves a memo entry behind (a forced Y_21 stored as P_21
    # would be returned from then on)
    for text in ("21", "21/3"):
        for build in (young_operator, hermitian_young):
            with pytest.raises(ValueError,
                               match=f"^tableau {text} is not standard$"):
                build(T(text))
        assert T(text).rows not in sn_algebra._HERMITIAN_CACHE


def test_standardness_is_tested_once_per_hermitian_operator(monkeypatch):
    tableaux = enumerate_syt(6)
    calls = []
    is_standard = YoungTableau.is_standard

    def counted(t):
        calls.append(t.rows)
        return is_standard(t)

    monkeypatch.setattr(sn_algebra, "_HERMITIAN_CACHE", {})
    monkeypatch.setattr(YoungTableau, "is_standard", counted)
    for t in tableaux:
        hermitian_young(t)
    # the 76 P_T at n = 6 and their parents down to n = 2, the base case
    assert len(sn_algebra._HERMITIAN_CACHE) == 118
    assert sorted(calls) == sorted(sn_algebra._HERMITIAN_CACHE)


def test_hermitian_12_3_expansion():
    assert hermitian_young(T("12/3")).terms == {
        (1, 2, 3): F(1, 3), (1, 3, 2): F(-1, 6), (2, 1, 3): F(1, 3),
        (2, 3, 1): F(-1, 6), (3, 1, 2): F(-1, 6), (3, 2, 1): F(-1, 6)}


def test_hermitian_pair_sum_identity():
    # the two mixed-symmetry operators sum the same way in both families
    assert (hermitian_young(T("12/3")) + hermitian_young(T("13/2"))
            == young_operator(T("12/3")) + young_operator(T("13/2")))


def test_hermitian_123_45_frozen_expansion():
    p = hermitian_young(T("123/45"))
    assert len(p) == 120
    assert p.coefficient((1, 2, 3, 4, 5)) == F(1, 24)
    assert list(p.terms.items())[:4] == [
        ((1, 2, 3, 4, 5), F(1, 24)), ((1, 2, 3, 5, 4), F(1, 24)),
        ((1, 2, 4, 3, 5), F(-1, 72)), ((1, 2, 4, 5, 3), F(-1, 72))]


def test_hermitian_term_counts_at_five_boxes():
    counts = {len(hermitian_young(t)) for t in enumerate_syt(5)}
    assert counts == {84, 100, 120}


def test_hermitian_completeness_small():
    for n in range(1, 5):
        total = AlgebraElement.zero(n)
        for t in enumerate_syt(n):
            total = total + hermitian_young(t)
        assert total == AlgebraElement.one(n)


def test_leading_young_subgroup_is_s_k_in_rank_order():
    # embed_element and partial_trace read young_subgroup([1..k]) as
    # S_k in its own rank order, each permutation extended to fix
    # k+1, ..., n; the extension here is built from S_k's images alone
    for n in range(1, 7):
        table = sn_algebra.sn_table(n)
        perms = list(all_permutations(n))
        for k in range(1, n + 1):
            fixed = tuple(range(k + 1, n + 1))
            extended = [tuple(int(x) + 1 for x in img) + fixed
                        for img in sn_algebra.sn_table(k).images]
            ranks = table.young_subgroup([range(1, k + 1)])
            assert [perms[r] for r in ranks] == extended
            assert np.array_equal(table.embedding(k), ranks)


def test_permutation_check_message_names_the_degree():
    table = sn_algebra.sn_table(3)
    for p in ((1, 1, 2), (1, 2), (1, 2, 3, 4), (0, 1, 2)):
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
            table.checked_ranks([p])
    with pytest.raises(TypeError):
        table.checked_ranks([(1.0, 2, 3)])


def test_young_subgroup_matches_brute_force():
    # The row and column groups of every filling up to n = 4 and every
    # standard tableau up to n = 6, each permutation listed once.
    cases = [t for n in range(1, 5) for t in all_fillings(n)]
    cases += [t for n in range(5, 7) for t in enumerate_syt(n)]
    for t in cases:
        table = sn_algebra.sn_table(t.n)
        every = list(all_permutations(t.n))
        for blocks in (t.rows, t.columns):
            perms = [every[r] for r in table.young_subgroup(blocks)]
            assert len(set(perms)) == len(perms), (t, blocks)
            assert set(perms) == naive_young_subgroup(blocks, t.n), (t, blocks)


def _column_reading(shape):
    # the reference filling of a shape: 1..n down each column in turn
    word = iter(range(1, shape.n + 1))
    cols = [[next(word) for _ in range(height)] for height in shape.columns]
    return YoungTableau([[col[j] for col in cols if j < len(col)]
                         for j in range(len(shape.rows))])


def test_relabelled_tableau_conjugates_its_young_operator():
    # Y_{pi T} = pi Y_T pi^-1, checked by two algebra products against
    # one reference tableau per shape, for every filling up to n = 4 and
    # every standard tableau up to n = 6
    cases = [t for n in range(1, 5) for t in all_fillings(n)]
    cases += [t for n in range(5, 7) for t in enumerate_syt(n)]
    for t in cases:
        ref = _column_reading(t.shape)
        image = dict(zip(ref.row_word(), t.row_word()))  # pi(ref box) = t box
        pi = tuple(image[x] for x in range(1, t.n + 1))
        pi_inv = tuple(sorted(range(1, t.n + 1), key=lambda x: pi[x - 1]))
        y_ref = young_operator(ref, allow_nonstandard=True)
        want = (AlgebraElement.from_perm(pi) * y_ref
                * AlgebraElement.from_perm(pi_inv))
        assert young_operator(t, allow_nonstandard=True) == want, t


def test_young_subgroups_are_built_once_per_shape(monkeypatch):
    # every Y_T relabels its shape's template, so building all 232 Y_T at
    # n = 7 forms each shape's row and column groups once, and no more
    table = sn_algebra.sn_table(7)
    monkeypatch.setattr(table, "_templates", {})
    calls = []
    young_subgroup = sn_algebra._SnTable.young_subgroup

    def counted(self, blocks):
        calls.append(self.n)
        return young_subgroup(self, blocks)

    monkeypatch.setattr(sn_algebra._SnTable, "young_subgroup", counted)
    tableaux = enumerate_syt(7)
    shapes = {t.shape for t in tableaux}
    assert (len(tableaux), len(shapes)) == (232, 15)
    for t in tableaux:
        young_operator(t)
    assert len(calls) <= 2 * len(shapes)


def test_table_arrays_are_read_only():
    # every later operator reads these, so one stray write would corrupt
    # them all
    table = sn_algebra.sn_table(4)
    template = table.young_template((2, 1, 1))
    arrays = {
        "images": table.images, "inverse": table.inverse,
        "cycles": table.cycles, "sign": table.sign,
        "_rank_of_code": table._rank_of_code, "comp": table.comp,
        "splice": table.splice, "classes": table.classes,
        "template.images": template.images,
        "template.signs": template.signs,
    }
    for name, array in arrays.items():
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[0]
        assert not array.flags.writeable, name


@pytest.mark.parametrize("n", range(1, 8))
def test_table_class_data_matches_the_tuple_helpers(n):
    # classes, cycles and sign come from one cycle-type pass; each must
    # agree with the one-permutation helpers on every permutation
    table = sn_algebra.sn_table(n)
    perms = list(all_permutations(n))
    assert table.cycles.tolist() == [cycle_count(p) for p in perms]
    assert table.sign.tolist() == [perm_sign(p) for p in perms]
    ids = table.classes.tolist()
    first_seen = {}
    for p, i in zip(perms, ids):
        assert first_seen.setdefault(cycle_type(p), i) == i
    # distinct types get distinct ids, numbered 0, 1, ... as they appear
    assert list(first_seen.values()) == list(range(len(first_seen)))


def test_young_operator_builds_no_composition_table():
    # Y_T is a scatter over permutation images; only a product reads
    # comp, the n! x n! table (51 MB at n = 7).  A fresh process, so no
    # earlier test has built it.
    code = ("from youngops import YoungTableau, young_operator\n"
            "from youngops.sn_algebra import sn_table\n"
            "young_operator(YoungTableau.from_string('1234/567'))\n"
            "assert 'comp' not in vars(sn_table(7))\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_sn_table_reads_n_by_the_integer_rule():
    # a cache keys np.int64(3) apart from 3, yet 3.0 and True equal
    # np.int64(3) and np.int64(1) as keys
    assert sn_algebra.sn_table(np.int64(3)) is sn_algebra.sn_table(3)
    assert sn_algebra.sn_table(np.int64(1)) is sn_algebra.sn_table(1)
    for bad in (3.0, True, np.float64(3)):
        with pytest.raises(TypeError):
            sn_algebra.sn_table(bad)
    assert type(AlgebraElement(np.int64(3)).n) is int
    assert type(AlgebraElement(np.int64(3), {(2, 1, 3): 1}).n) is int


def test_embed_element():
    y = young_operator(T("12"))
    e = embed_element(y, 4)
    assert e.n == 4
    assert e.terms == {(1, 2, 3, 4): F(1, 2), (2, 1, 3, 4): F(1, 2)}
    assert embed_element(y, 2) == y
    with pytest.raises(ValueError):
        embed_element(e, 3)


def test_appendix_shortcut_forms():
    p123 = embed_element(hermitian_young(T("123")), 5)
    y = young_operator(T("123/45"))
    assert p123 * y * p123 == hermitian_young(T("123/45"))
    p12 = embed_element(hermitian_young(T("1/2")), 4)
    y2 = young_operator(T("13/24"))
    assert p12 * y2 * p12 == hermitian_young(T("13/24"))


def test_normalization_via_squaring():
    y = young_operator(T("135/24"))
    half = y / 2
    assert half * half == y / 4


# -- traces ----------------------------------------------------------------------


def test_trace_polynomial_examples():
    N = Polynomial.monomial(1)
    for n in (1, 3, 5):
        assert AlgebraElement.one(n).trace_polynomial() == \
            Polynomial.monomial(n)
    y = young_operator(T("12/3"))
    assert y.trace_polynomial() == (N * N * N - N) / 3


def test_trace_equals_dimension_formula():
    for n in range(1, 5):
        for t in enumerate_syt(n):
            shape = t.shape
            want = shape.dimension_polynomial() / shape.hook_product()
            assert young_operator(t).trace_polynomial() == want
            assert hermitian_young(t).trace_polynomial() == want


def test_trace_sum_over_tableaux():
    total = Polynomial.zero()
    for t in enumerate_syt(4):
        total = total + hermitian_young(t).trace_polynomial()
    assert total == Polynomial.monomial(4)


def test_trace_of_hermitian_littlewood_tableau():
    p = hermitian_young(T("123/45"))
    assert p.trace_polynomial() == Polynomial(
        [0, 0, F(-1, 12), F(-1, 24), F(1, 12), F(1, 24)])


# -- partial trace ----------------------------------------------------------------


def test_partial_trace_of_identity():
    looped, spliced = AlgebraElement.one(4).partial_trace()
    assert looped == AlgebraElement.one(3)  # tr' 1 = N * 1
    assert spliced.is_zero()


def test_partial_trace_requires_two_slots():
    with pytest.raises(ValueError, match=r"^partial trace requires n >= 2$"):
        AlgebraElement.one(1).partial_trace()


def test_partial_trace_splice_rule():
    # a 3-cycle through the last slot splices to a transposition
    e = perm_el(3, 1, 2)  # 1 -> 3, 3 -> 2, 2 -> 1
    looped, spliced = e.partial_trace()
    assert looped.is_zero() and spliced.terms == {(2, 1): 1}
    # a fixed last slot restricts and contributes N
    looped, spliced = perm_el(2, 1, 3).partial_trace()
    assert looped.terms == {(2, 1): 1} and spliced.is_zero()


def test_partial_trace_young_example():
    # tr' Y_{12/3} = (N - 1) (2/3) Y_{12}
    looped, spliced = young_operator(T("12/3")).partial_trace()
    assert looped == young_operator(T("12")) * F(2, 3)
    assert spliced == young_operator(T("12")) * F(-2, 3)


def test_partial_trace_hermitian_example():
    looped, spliced = hermitian_young(T("123/45")).partial_trace()
    # removed cell has row and column length 2, so the factor is N itself,
    # and the hook ratio is 8/24 = 1/3
    assert looped == hermitian_young(T("123/4")) * F(8, 24)
    assert spliced.is_zero()


def test_partial_trace_recursion_all_tableaux():
    for n in range(2, 5):
        for t in enumerate_syt(n):
            parent, p, q = t.parent()
            r = F(parent.shape.hook_product(), t.shape.hook_product())
            for build in (young_operator, hermitian_young):
                looped, spliced = build(t).partial_trace()
                assert looped == build(parent) * r
                assert spliced == build(parent) * ((p - q) * r)


def _full_trace(x):
    """tr X = N tr A + tr B with (A, B) = tr' X, down to degree 1."""
    if x.n == 1:
        return x.trace_polynomial()
    looped, spliced = x.partial_trace()
    return Polynomial.monomial(1) * _full_trace(looped) + _full_trace(spliced)


def test_iterated_partial_trace_gives_full_trace():
    # tracing out slots one at a time must reproduce the full trace
    for t in enumerate_syt(4):
        op = hermitian_young(t)
        assert _full_trace(op) == op.trace_polynomial()
    x = AlgebraElement(4, {(4, 3, 2, 1): F(5, 7), (2, 3, 4, 1): -3,
                           (1, 2, 4, 3): 2})
    assert _full_trace(x) == x.trace_polynomial()


# -- primitivity and inequivalence ------------------------------------------------


def test_young_operators_are_primitive():
    for n in range(1, 5):
        for t in enumerate_syt(n):
            assert primitivity_check(young_operator(t))


def test_identity_is_not_primitive():
    assert not primitivity_check(AlgebraElement.one(2))
    assert not primitivity_check(AlgebraElement.one(3))


def test_full_symmetrizer_is_primitive():
    assert primitivity_check(symmetrizer([1, 2, 3], 3))
    assert primitivity_check(antisymmetrizer([1, 2, 3], 3))


def test_primitivity_rejects_bad_input():
    with pytest.raises(ValueError):
        primitivity_check(AlgebraElement.one(2) * 2)  # not idempotent
    with pytest.raises(ValueError):
        primitivity_check(AlgebraElement.zero(2))
    # class sums need no scan, so n = 6 is answered
    assert primitivity_check(symmetrizer(range(1, 7), 6))


def test_inequivalence_of_different_shapes():
    for n in range(2, 5):
        tableaux = enumerate_syt(n)
        for t in tableaux:
            for u in tableaux:
                if t.shape != u.shape:
                    assert inequivalence_check(
                        young_operator(t), young_operator(u))


def test_equivalence_of_equal_idempotents():
    e = young_operator(T("123"))
    assert not inequivalence_check(e, e)


def test_symmetrizer_vs_antisymmetrizer_inequivalent():
    assert inequivalence_check(
        symmetrizer([1, 2, 3], 3), antisymmetrizer([1, 2, 3], 3))


def test_inequivalence_degree_mismatch():
    with pytest.raises(ValueError):
        inequivalence_check(AlgebraElement.one(2), AlgebraElement.one(3))


def _assert_certificate_matches_scans(ops):
    for a in ops:
        assert primitivity_check(a) == naive_primitive(a)
        for b in ops:
            assert inequivalence_check(a, b) == naive_inequivalent(a, b)


def test_class_sum_certificate_matches_scans():
    # every ordered pair of Y_T and of P_T at n <= 4, and of P_T at n = 5
    for n in range(1, 5):
        for build in (young_operator, hermitian_young):
            _assert_certificate_matches_scans(
                [build(t) for t in enumerate_syt(n)])
    _assert_certificate_matches_scans(
        [hermitian_young(t) for t in enumerate_syt(5)])


def test_sum_of_two_shapes_is_not_primitive():
    e = hermitian_young(T("123/45")) + hermitian_young(T("1234/5"))
    assert sn_algebra._ideal_dimension(e, e) == 2
    assert not primitivity_check(e)
    assert not naive_primitive(e)


def test_hermitian_operators_certified_at_six_and_seven():
    tableaux = enumerate_syt(6)
    ops = [hermitian_young(t) for t in tableaux]
    assert all(primitivity_check(p) for p in ops)  # each P_T idempotent
    for t, a in zip(tableaux, ops):
        for u, b in zip(tableaux, ops):
            assert sn_algebra._ideal_dimension(a, b) == (t.shape == u.shape)
    assert primitivity_check(hermitian_young(T("1357/24/6")))


@pytest.mark.parametrize("k, dtype", [(2 ** 30, np.int64), (2 ** 40, object)])
def test_certificate_is_exact_past_float64(k, dtype):
    # x = g P_T g^-1 is a primitive idempotent whose numerators reach
    # about k**2; a float64 class sum rounds them and misses dim = 1
    t13 = AlgebraElement.from_perm((3, 2, 1, 4))
    one = AlgebraElement.one(4)
    g = one + t13.scale(k)
    g_inv = (one - t13.scale(k)).scale(F(1, 1 - k * k))
    x = g * hermitian_young(T("12/34")) * g_inv
    assert x.num.dtype == dtype and int(abs(x.num).max()) > 2 ** 53
    assert primitivity_check(x)


def test_operators_refuse_degrees_past_the_algebra_cap():
    built = dict(sn_algebra._HERMITIAN_CACHE)
    for rows in ([[1, 2, 3, 4], [5, 6, 7, 8]], [list(range(1, 11))]):
        for build in (young_operator, hermitian_young):
            with pytest.raises(SizeLimitError):
                build(YoungTableau(rows))
    assert sn_algebra._HERMITIAN_CACHE == built  # no parent was built


# -- JSON output --------------------------------------------------------------------


def test_element_json_round_trip():
    y = hermitian_young(T("12/3"))
    d = y.to_dict()
    assert d["n"] == 3
    assert d["terms"][0] == {"perm": [1, 2, 3], "coeff": "1/3"}
    perms = [tuple(t["perm"]) for t in d["terms"]]
    assert perms == sorted(perms)
    assert element_from_json(d) == y


def test_polynomial_coefficients_raise_type_error():
    # Coefficients are rational only; tr' returns two rational elements.
    N = Polynomial.monomial(1)
    one = AlgebraElement.one(2)
    for make in (lambda: AlgebraElement(2, {(2, 1): N}),
                 lambda: AlgebraElement(2, {(2, 1): Polynomial([1])}),
                 lambda: AlgebraElement.from_perm((2, 1), N),
                 lambda: one.scale(N),
                 lambda: one * N,
                 lambda: N * one,
                 lambda: one / N):
        with pytest.raises(TypeError):
            make()
