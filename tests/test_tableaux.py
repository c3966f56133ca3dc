from fractions import Fraction
from itertools import zip_longest
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given

from youngops import (
    AlgebraElement,
    Polynomial,
    SizeLimitError,
    TABLEAU_MAX_N,
    TensorOperator,
    YoungDiagram,
    YoungTableau,
    all_permutations,
    antisymmetrizer,
    decode,
    encode,
    enumerate_syt,
    partitions,
    run_verification,
    symmetrizer,
    transposition,
)
from youngops.sn_algebra import sn_table
from youngops.tensor_rep import basis_table
from oracles import all_fillings, brute_force_syt, partition_strategy

# Number of standard tableaux with n boxes, n = 1..7.
SYT_TOTALS = [1, 2, 4, 10, 26, 76, 232]


def test_partitions_descending_lex():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions(1)) == [(1,)]
    assert len(list(partitions(7))) == 15
    assert list(partitions(0)) == [()]
    with pytest.raises(ValueError):
        list(partitions(-1))


def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram([])
    with pytest.raises(ValueError):
        YoungDiagram([2, 3])
    with pytest.raises(ValueError):
        YoungDiagram([2, 0])


def test_conjugate():
    d = YoungDiagram([3, 2])
    assert d.columns == (2, 2, 1)
    assert d.conjugate().rows == (2, 2, 1)
    assert d.conjugate().conjugate() == d
    assert d.n == 5 and d.row_count == 2 and d.column_count == 3


@given(partition_strategy())
def test_conjugate_is_involutive(shape):
    d = YoungDiagram(shape)
    assert d.conjugate().conjugate() == d
    assert d.conjugate().n == d.n


def test_hook_product_known_values():
    assert YoungDiagram([3, 2]).hook_product() == 24
    assert YoungDiagram([1]).hook_product() == 1
    assert YoungDiagram([2, 1]).hook_product() == 3
    assert YoungDiagram([5]).hook_product() == 120
    assert YoungDiagram([2, 2]).hook_product() == 12
    assert YoungDiagram([1, 1, 1]).hook_product() == 6


def test_hook_lengths_cell_by_cell():
    d = YoungDiagram([3, 2])
    assert [[d.hook_length(j, k) for k in range(1, lam + 1)]
            for j, lam in enumerate(d.rows, start=1)] == [[4, 3, 1], [2, 1]]
    with pytest.raises(ValueError):
        d.hook_length(1, 4)


@given(partition_strategy())
def test_hook_product_divides_factorial(shape):
    d = YoungDiagram(shape)
    assert factorial(d.n) % d.hook_product() == 0
    assert d.syt_count() >= 1


def test_syt_counts_per_shape():
    assert YoungDiagram([3, 2]).syt_count() == 5
    assert YoungDiagram([2, 2, 1]).syt_count() == 5
    assert YoungDiagram([4]).syt_count() == 1
    assert YoungDiagram([1, 1, 1, 1]).syt_count() == 1


def test_enumeration_counts():
    for n, total in enumerate(SYT_TOTALS, start=1):
        tableaux = enumerate_syt(n)
        assert len(tableaux) == total
        assert len(set(tableaux)) == total
        assert all(t.is_standard() for t in tableaux)
        assert all(t.n == n for t in tableaux)


def test_enumeration_matches_brute_force():
    for n in range(1, 6):
        assert set(enumerate_syt(n)) == set(brute_force_syt(n))


def test_enumeration_order_fixture():
    assert [t.to_string() for t in enumerate_syt(2)] == ["12", "1/2"]
    assert [t.to_string() for t in enumerate_syt(3)] == \
        ["123", "12/3", "1/2/3", "13/2"]
    # words ascend; equal words resolved by wider shape first
    words = [t.row_word() for t in enumerate_syt(4)]
    assert words == sorted(words)


def test_enumeration_rejects_bad_n():
    # the two edges of the fixed rule: 1..TABLEAU_MAX_N = 1..10
    with pytest.raises(ValueError):
        enumerate_syt(0)
    with pytest.raises(SizeLimitError):
        enumerate_syt(TABLEAU_MAX_N + 1)


def test_regular_representation_count():
    # sum over shapes of (number of SYT)^2 = n!
    for n in range(1, 7):
        total = sum(YoungDiagram(shape).syt_count() ** 2
                    for shape in partitions(n))
        assert total == factorial(n)


def test_tableau_validation():
    with pytest.raises(ValueError):
        YoungTableau([[1, 2], [3, 4, 5]])  # not weakly decreasing
    with pytest.raises(ValueError):
        YoungTableau([[1, 2], [2]])  # not a bijection
    with pytest.raises(ValueError):
        YoungTableau([[1, 2], [4]])  # misses 3
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
        YoungTableau([[0, 1], [2]])  # 0 is no entry
    with pytest.raises(TypeError):
        YoungTableau([[1, 2.0], [3]])


def test_numpy_integer_entries_equal_int_entries():
    rows = [[1, 3, 5], [2, 4]]
    t = YoungTableau(rows)
    t64 = YoungTableau([[np.int64(x) for x in row] for row in rows])
    assert t64 == t and hash(t64) == hash(t)
    assert all(type(x) is int for row in t64.rows for x in row)
    d64 = YoungDiagram([np.int64(3), np.int64(2)])
    assert d64 == t.shape and hash(d64) == hash(t.shape)


# Every reader and constructor of an integer from outside, with the bad
# value in one integer slot: each follows the integer rule.
_INTEGER_SLOTS = {
    "tableau entry": lambda x: YoungTableau([[x]]),
    "diagram row": lambda x: YoungDiagram([x]),
    "enumerate_syt n": enumerate_syt,
    "element perm entry": lambda x: AlgebraElement(2, {(2, x): 1}),
    "coefficient perm entry":
        lambda x: AlgebraElement.one(2).coefficient((2, x)),
    "sn_table n": sn_table,
    "basis_table n": lambda x: basis_table(x, 2),
    "basis_table N": lambda x: basis_table(2, x),
    "symmetrizer slot": lambda x: symmetrizer([x, 2], 3),
    "antisymmetrizer slot": lambda x: antisymmetrizer([x, 2], 3),
    "partitions n": partitions,
    "all_permutations n": all_permutations,
    "monomial degree": Polynomial.monomial,
    "run_verification n": run_verification,
    "run_verification N": lambda x: run_verification(2, tensor_dims=[x]),
    "operator entry row":
        lambda x: TensorOperator.identity(2, 2).entry(x, 0),
    "operator entry column":
        lambda x: TensorOperator.identity(2, 2).entry(0, x),
    "hook_length row": lambda x: YoungDiagram([3, 2]).hook_length(x, 1),
    "hook_length column": lambda x: YoungDiagram([3, 2]).hook_length(1, x),
    "cell_of": lambda x: YoungTableau.from_string("123/45").cell_of(x),
    "dimension N": YoungDiagram([3, 2]).dimension,
    "transposition slot": lambda x: transposition(3, x, 2),
}
# The scalar rule, the package's one, refuses the same values.
_SCALAR_SLOTS = {
    "element coefficient": lambda x: AlgebraElement(2, {(2, 1): x}),
    "polynomial coefficient": lambda x: Polynomial([x]),
}


@pytest.mark.parametrize("bad", [True, 1.0, "1", 2.9, "2", None])
def test_non_integer_entries_are_refused(bad):
    slots = {**_INTEGER_SLOTS, **_SCALAR_SLOTS}
    read = []
    for name, call in slots.items():
        try:
            call(bad)
        except TypeError:
            continue
        read.append(name)
    assert read == []


# Every reader of an index, digit, slot or cell from outside, with the
# value in one slot and its range lo..hi: each follows the range rule.
_RANGE_SLOTS = {
    "encode digit": (lambda x: encode([x], 3), 0, 2),
    "decode index": (lambda x: decode(x, 2, 2), 0, 3),
    "operator entry diagonal":
        (lambda x: TensorOperator.identity(2, 2).entry(x, x), 0, 3),
    "operator entry column":
        (lambda x: TensorOperator.identity(2, 2).entry(0, x), 0, 3),
    "transposition slot i": (lambda x: transposition(3, x, 1), 1, 3),
    "transposition slot j": (lambda x: transposition(3, 1, x), 1, 3),
    "symmetrizer slot": (lambda x: symmetrizer([x], 3), 1, 3),
    "antisymmetrizer slot": (lambda x: antisymmetrizer([x], 3), 1, 3),
    "hook_length row":
        (lambda x: YoungDiagram([3, 2]).hook_length(x, 1), 1, 2),
    "hook_length column":
        (lambda x: YoungDiagram([3, 2]).hook_length(1, x), 1, 3),
    "cell_of": (YoungTableau.from_string("123/45").cell_of, 1, 5),
}


@pytest.mark.parametrize("name", sorted(_RANGE_SLOTS))
def test_range_rule_refuses_one_past_each_end(name):
    # unread, lo - 1 would wrap to the end: -1 to the last row of a
    # 0-based reader, 0 to the last box of a 1-based one
    call, lo, hi = _RANGE_SLOTS[name]
    call(lo)
    call(hi)
    for bad in (lo - 1, hi + 1):
        with pytest.raises(ValueError,
                           match=rf"^\w+ {bad} outside {lo}\.\.{hi}$"):
            call(bad)


def test_dimension_reads_n_by_the_tensor_dimension_rule():
    d = YoungDiagram([1])
    assert d.dimension(1) == 1 and d.dimension(np.int64(3)) == 3
    for bad in (0, -1):
        with pytest.raises(ValueError,
                           match=f"^N must be positive, got {bad}$"):
            d.dimension(bad)
    with pytest.raises(TypeError):
        d.dimension(Fraction(1, 2))


def test_standardness_predicate():
    assert YoungTableau([[1, 2, 3], [4, 5]]).is_standard()
    assert not YoungTableau([[2, 1, 3], [4, 5]]).is_standard()  # row falls
    assert not YoungTableau([[1, 4, 5], [2, 3]]).is_standard()  # column falls
    assert YoungTableau([[1, 3, 5], [2, 4]]).is_standard()


def test_shape_is_the_validated_diagram():
    for t in (YoungTableau.from_string("135/24"), *enumerate_syt(4)):
        assert t.shape is t.shape  # kept, not rebuilt on each access
        assert t.shape == YoungDiagram([len(r) for r in t.rows])


def test_columns_and_parent_match_the_diagram():
    # t.columns against the rows transposed, and parent()'s (p, q)
    # against the removed cell's row length and column length
    fillings = [t for n in range(1, 5) for t in all_fillings(n)]
    standard = [t for n in range(1, 8) for t in enumerate_syt(n)]
    for t in fillings + standard:
        assert t.columns == tuple(tuple(x for x in col if x is not None)
                                  for col in zip_longest(*t.rows))
        if t.n < 2 or not t.is_standard():
            continue
        _, p, q = t.parent()
        j0, k0 = t.cell_of(t.n)
        assert (p, q) == (len(t.rows[j0 - 1]), t.shape.columns[k0 - 1])


def test_entries_and_lookup():
    t = YoungTableau.from_string("135/24")
    assert t.cell_of(4) == (2, 2)
    assert t.row_word() == (1, 3, 5, 2, 4)
    with pytest.raises(ValueError):
        t.cell_of(6)


def test_string_round_trip():
    for text in ["1", "12", "1/2", "123/45", "135/24", "12/34/5"]:
        assert YoungTableau.from_string(text).to_string() == text
    with pytest.raises(ValueError):
        YoungTableau.from_string("12//3")
    # ASCII digits only: "٢" and "²" are Unicode digits, not entries.
    for text in ("1a/2", "1\u0662/3", "1\u00b2/3"):
        with pytest.raises(ValueError, match="^bad tableau string "):
            YoungTableau.from_string(text)
    ten = YoungTableau([list(range(1, 11))])
    with pytest.raises(ValueError):
        ten.to_string()
    assert str(ten) == "1.2.3.4.5.6.7.8.9.10"


def test_reprs_rebuild_the_value():
    t = YoungTableau.from_string("135/24")
    for x in (t, t.shape):
        assert eval(repr(x), {"YoungTableau": YoungTableau,
                              "YoungDiagram": YoungDiagram}) == x
    assert repr(t) == "YoungTableau([[1, 3, 5], [2, 4]])"
    assert repr(t.shape) == "YoungDiagram([3, 2])"


def test_dict_round_trip():
    t = YoungTableau.from_string("123/45")
    d = t.to_dict()
    assert d == {"shape": [3, 2], "rows": [[1, 2, 3], [4, 5]]}
    assert YoungTableau(d["rows"]) == t and YoungDiagram(d["shape"]) == t.shape


def test_parent_examples():
    par, p, q = YoungTableau.from_string("123/45").parent()
    assert (par.to_string(), p, q) == ("123/4", 2, 2)
    par, p, q = YoungTableau.from_string("1/2").parent()
    assert (par.to_string(), p, q) == ("1", 1, 2)
    par, p, q = YoungTableau.from_string("135/24").parent()
    assert (par.to_string(), p, q) == ("13/24", 3, 1)


def test_parent_requirements():
    with pytest.raises(ValueError):
        YoungTableau.from_string("1").parent()
    with pytest.raises(ValueError, match="^tableau 21/3 is not standard$"):
        YoungTableau([[2, 1], [3]]).parent()


def test_parent_partitions_syt():
    # every tableau of n has its parent in SYT_{n-1}; grouping by parent
    # hits every parent and covers SYT_n exactly once
    for n in range(2, 7):
        smaller = set(enumerate_syt(n - 1))
        groups = {}
        for t in enumerate_syt(n):
            par, p, q = t.parent()
            assert par in smaller
            # p, q are the removed cell's row and column lengths
            j0, k0 = t.cell_of(n)
            assert p == t.shape.rows[j0 - 1] == k0
            assert q == t.shape.columns[k0 - 1] == j0
            groups.setdefault(par, []).append(t)
        assert set(groups) == smaller
        assert sum(len(g) for g in groups.values()) == len(enumerate_syt(n))


def test_dimension_polynomial_examples():
    N = Polynomial.monomial(1)
    assert YoungDiagram([1]).dimension_polynomial() == N
    # single column of length N+1 vanishes at that N
    for height in range(2, 6):
        assert YoungDiagram([1] * height).dimension_polynomial()(height - 1) == 0
    d = YoungDiagram([2, 1])
    assert d.dimension_polynomial()(3) == 24
    assert d.dimension(3) == 8
    assert d.dimension_polynomial() == N * (N + 1) * (N - 1)


@given(partition_strategy())
def test_shape_scalars_match_cell_products(shape):
    d = YoungDiagram(shape)
    # f(N) = prod (N + k - j) at the n + 1 points N = 0..n fixes the
    # degree-n polynomial, with no polynomial product in the oracle
    f = d.dimension_polynomial()
    assert f.degree == d.n
    for N in range(d.n + 1):
        assert f(N) == prod(N + k - j for j, k in d.cells())
    assert d.hook_product() == prod(d.hook_length(j, k) for j, k in d.cells())


def test_dimension_polynomial_structure():
    for n in range(1, 7):
        for shape in partitions(n):
            f = YoungDiagram(shape).dimension_polynomial()
            assert f.degree == n
            assert f.coeffs[-1] == 1
            # at N = 1 only the single-row shape survives
            expected = factorial(n) if len(shape) == 1 else 0
            assert f(1) == expected


def test_dimension_values_sum_to_tensor_dimension():
    for n in range(1, 6):
        for N in (1, 2, 3):
            total = sum(t.shape.dimension(N) for t in enumerate_syt(n))
            assert total == N ** n
