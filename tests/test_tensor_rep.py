from fractions import Fraction
from itertools import permutations as it_permutations
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import youngops
from youngops import (
    AlgebraElement,
    SizeLimitError,
    TENSOR_MAX_DIM,
    TensorOperator,
    YoungTableau,
    compose,
    decode,
    encode,
    embed_element,
    enumerate_syt,
    hermitian_young,
    orthogonality_report,
    permutation_matrix,
    realize,
    run_verification,
    symmetrizer,
    young_operator,
)
from youngops import config, tensor_rep
from youngops.sn_algebra import sn_table
from youngops.tensor_rep import basis_table
from oracles import (
    element_strategy,
    fraction_matrix,
    naive_matmul,
    naive_matrix_partial_trace,
    naive_rank,
    naive_realize,
)

F = Fraction


def T(text):
    return YoungTableau.from_string(text)


# -- multi-index codec ---------------------------------------------------------


def test_encode_slot_one_most_significant():
    assert encode((0, 1), 2) == 1
    assert encode((1, 0), 2) == 2
    assert encode((2, 1, 0), 3) == 2 * 9 + 1 * 3


def test_codec_round_trip():
    for N, n in ((2, 3), (3, 2), (4, 1)):
        for i in range(N ** n):
            assert encode(decode(i, N, n), N) == i
    with pytest.raises(ValueError):
        decode(8, 2, 3)
    with pytest.raises(ValueError):
        encode((0, 2), 2)


def test_codec_follows_the_integer_rule():
    for bad in (lambda: encode([1.5], 2), lambda: encode([True, False], 2),
                lambda: encode([1], 2.0), lambda: decode(2.0, 2, 2),
                lambda: decode(True, 2, 1), lambda: decode(1, 2, 1.0)):
        with pytest.raises(TypeError):
            bad()
    assert encode([np.int64(1), np.int8(0)], np.int64(2)) == 2
    assert decode(np.int64(2), np.int32(2), np.uint8(2)) == (1, 0)


# -- the slot-action fixture ---------------------------------------------------


def test_swap_matrix_fixture():
    # n=2, N=2, the transposition: basis order 00, 01, 10, 11
    m = permutation_matrix((2, 1), 2)
    want = np.zeros((4, 4), dtype=object)
    want[0, 0] = want[3, 3] = 1
    want[2, 1] = 1  # column 01 maps to row 10
    want[1, 2] = 1
    assert (m.num == want).all() and m.den == 1


def test_permutation_matrices_are_permutation_matrices():
    for p in [(2, 1, 3), (2, 3, 1), (3, 1, 2)]:
        m = permutation_matrix(p, 2)
        arr = m.num.astype(np.int64)
        assert ((arr == 0) | (arr == 1)).all()
        assert (arr.sum(axis=0) == 1).all()
        assert (arr.sum(axis=1) == 1).all()


perm4 = st.permutations(range(1, 5)).map(tuple)


@settings(max_examples=50)
@given(perm4, perm4, st.sampled_from([2, 3]))
def test_representation_homomorphism_on_permutations(a, b, N):
    assert (permutation_matrix(a, N) @ permutation_matrix(b, N)
            == permutation_matrix(compose(a, b), N))


@settings(max_examples=30)
@given(element_strategy(n=4), element_strategy(n=4), st.sampled_from([2, 3]))
def test_realize_is_an_algebra_homomorphism(a, b, N):
    assert realize(a * b, N) == realize(a, N) @ realize(b, N)


@settings(max_examples=30)
@given(element_strategy(n=4), st.sampled_from([2, 3]))
def test_transpose_realizes_involution(a, N):
    assert realize(a, N).transpose() == realize(a.involution(), N)


@settings(max_examples=30)
@given(element_strategy(n=4), st.sampled_from([1, 2, 3]))
def test_trace_realizes_trace_polynomial(a, N):
    assert realize(a, N).trace() == a.trace_polynomial()(N)


# -- realize examples ------------------------------------------------------------


def test_realize_identity():
    assert realize(AlgebraElement.one(3), 2) == TensorOperator.identity(3, 2)


def test_realize_antisymmetrizer_in_one_dimension():
    assert realize(young_operator(T("1/2")), 1).is_zero()


def test_realize_hermitian_projector_at_three():
    d = realize(hermitian_young(T("12/3")), 3)
    assert d == d.transpose()
    assert d @ d == d
    assert d.trace() == 8
    assert d.rank() == 8


def test_rank_vanishes_when_shape_exceeds_dimension():
    assert realize(hermitian_young(T("1/2/3")), 2).rank() == 0
    assert realize(young_operator(T("1/2/3")), 2).rank() == 0


def test_rank_equals_dimension_formula():
    for n in range(1, 5):
        for t in enumerate_syt(n):
            shape = t.shape
            for N in (2, 3):
                want = Fraction(shape.dimension_polynomial()(N),
                                shape.hook_product())
                assert realize(hermitian_young(t), N).rank() == want


def test_realize_rejects_oversized_space():
    with pytest.raises(SizeLimitError):
        realize(AlgebraElement.one(6), 5)  # 5^6 > 4096
    with pytest.raises(ValueError):
        realize(AlgebraElement.one(2), 0)


def test_tensor_size_rule_edges():
    # The cap has one name; its old name DEFAULT_SIZE_CAP is gone.
    assert TENSOR_MAX_DIM == 4096
    assert not hasattr(youngops, "DEFAULT_SIZE_CAP")
    assert not hasattr(config, "DEFAULT_SIZE_CAP")
    assert basis_table(1, 4096).dim == basis_table(12, 2).dim == 4096
    with pytest.raises(SizeLimitError):
        basis_table(1, 4097)
    for n, N in ((1, 0), (-1, 2)):
        with pytest.raises(ValueError) as info:
            basis_table(n, N)
        assert not isinstance(info.value, SizeLimitError)


def test_warm_tables_still_apply_the_integer_rule():
    # A built table must not let an equal non-int key through: True == 1
    # and 2.0 == 2 would share its cache entry if keys were untyped.
    basis_table(1, 2), basis_table(2, 2)
    a = AlgebraElement.one(2)
    for call in (lambda: TensorOperator.zero(True, 2),
                 lambda: TensorOperator.identity(2, 2.0),
                 lambda: realize(a, 2.0)):
        with pytest.raises(TypeError, match="^expected an integer, got "):
            call()


def test_numpy_keys_give_the_int_table_and_int_values():
    two, three = np.int64(2), np.int64(3)
    assert basis_table(2, two) is basis_table(2, 2)
    assert sn_table(three) is sn_table(3)
    for table in (sn_table, basis_table):  # caches, not plain functions
        assert table.cache_info().currsize
    x = AlgebraElement.one(2)
    op = realize(x, two)
    assert type(op.n) is int and type(op.N) is int
    for value in (embed_element(x, three), symmetrizer([1, 2], three),
                  run_verification(two, suites=["traces"])):
        assert type(value.n) is int
    wire = TensorOperator.from_dict({"n": two, "N": two, "entries": []})
    assert type(wire.n) is int and type(wire.N) is int


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the size check")


# N^n = 4097, one past the cap.  Every entry point must refuse it before
# tensor_rep touches numpy or lays out an N^n x N^n array.
OVERSIZED = {
    "constructor": lambda: TensorOperator(1, 4097, np.zeros((1, 1), int)),
    "from_dict": lambda: TensorOperator.from_dict(
        {"n": 1, "N": 4097, "entries": []}),
    "identity": lambda: TensorOperator.identity(1, 4097),
    "zero": lambda: TensorOperator.zero(1, 4097),
    "realize": lambda: realize(AlgebraElement.one(1), 4097),
    "permutation_matrix": lambda: permutation_matrix((1,), 4097),
}


@pytest.mark.parametrize("entry", sorted(OVERSIZED))
def test_every_tensor_entry_point_refuses_past_the_cap(monkeypatch, entry):
    def no_dense(*args):
        raise AssertionError("dense array built before the size check")
    monkeypatch.setattr(tensor_rep, "_common_denominator", no_dense)
    monkeypatch.setattr(tensor_rep, "np", _NoArrays())
    with pytest.raises(SizeLimitError):
        OVERSIZED[entry]()


def test_realize_partial_trace_pair():
    looped, spliced = AlgebraElement.one(3).partial_trace()
    assert realize(looped.scale(2) + spliced, 2) == TensorOperator.identity(2, 2) * 2


# -- exact arithmetic details ------------------------------------------------------


def test_object_path_preserves_exactness_beyond_int64():
    big = 2 ** 40
    m = TensorOperator.identity(2, 2) * big
    prod = m @ m
    assert prod.entry(0, 0) == big * big  # exceeds int64, still exact
    assert prod.entry(0, 1) == 0


def test_normalization_reduces_to_lowest_terms():
    m = TensorOperator(1, 2, np.array([[2, 0], [0, 2]], dtype=object), 4)
    assert m.den == 2 and m.entry(0, 0) == F(1, 2)
    z = TensorOperator(1, 2, np.zeros((2, 2), dtype=object), 7)
    assert z.den == 1 and z.is_zero()


def test_denominator_sign_zero_and_shape():
    eye = np.eye(2, dtype=np.int64)
    with pytest.raises(ZeroDivisionError):
        TensorOperator(1, 2, eye, 0)
    m = TensorOperator(1, 2, eye, -2)
    assert m == TensorOperator(1, 2, -eye, 2) and m.den == 2
    assert m.entry(0, 0) == F(-1, 2)
    with pytest.raises(ValueError):
        TensorOperator(1, 2, np.eye(3, dtype=np.int64))


@pytest.mark.parametrize("num, den", [
    (np.array([[0.5, 0], [0, 1.0]]), 1),
    (np.array([[1.0, 0], [0, 1.0]]), 1),
    (np.array([[F(1, 2), 0], [0, 1]], dtype=object), 1),
    (np.array([[1, 0], [0, 1]], dtype=object), 2.5),
    (np.array([[1, 0], [0, 1]], dtype=np.int64), F(1, 2)),
    # a bool is no integer, as denominator, dtype or object entry
    (np.eye(2, dtype=np.int64), True),
    (np.eye(2, dtype=bool), 1),
    (np.array([[True, 0], [0, 1]], dtype=object), 1),
])
def test_non_integer_input_is_refused_not_truncated(num, den):
    with pytest.raises(TypeError):
        TensorOperator(1, 2, num, den)


def test_integer_inputs_of_any_integer_kind_are_accepted():
    for num in (np.array([[2, 0], [0, 4]], dtype=np.int8),
                np.array([[2, 0], [0, 4]], dtype=np.uint64),
                np.array([[2, 0], [0, np.int64(4)]], dtype=object)):
        m = TensorOperator(1, 2, num, np.int64(6))
        assert m.den == 3 and m.num.dtype == np.int64
        assert fraction_matrix(m) == [[F(1, 3), 0], [0, F(2, 3)]]


def test_scalar_and_sum_arithmetic():
    i = TensorOperator.identity(1, 3)
    assert (i * F(1, 2)) + (i * F(1, 2)) == i
    assert i - i == TensorOperator.zero(1, 3)
    assert i.scale(np.int64(3)) == 3 * i == i * 3
    with pytest.raises(ValueError):
        i + TensorOperator.identity(2, 3)


def test_inexact_scalars_and_mixed_operands_raise_type_error():
    i = TensorOperator.identity(1, 2)
    a = AlgebraElement.one(1)
    for make in (lambda: i.scale(0.1), lambda: i.scale("1/2"),
                 lambda: i / 0.5, lambda: i * 0.5, lambda: 0.5 * i,
                 lambda: a + i, lambda: i + a, lambda: i - a,
                 lambda: i @ a, lambda: i @ 2):
        with pytest.raises(TypeError):
            make()
    with pytest.raises(ZeroDivisionError):
        i / 0
    # Values of different types are unequal, not an error.
    assert a != i and i != a and a != 1 and i != 1


def test_repr_summarizes_the_matrix():
    assert repr(TensorOperator.identity(2, 2) / 3) == (
        "TensorOperator(n=2, N=2, den=3, nnz=4)")


@pytest.mark.parametrize("n, N", [(1, 1), (2, 2), (2, 3)])
def test_zero_operator_is_false(n, N):
    assert not TensorOperator.zero(n, N)
    assert TensorOperator.identity(n, N)
    assert not TensorOperator.identity(n, N) - TensorOperator.identity(n, N)


def test_equal_operators_hash_equal():
    rows = [[2, 0, 0, 0], [0, 4, 1, 0], [0, 1, 6, 0], [0, 0, 0, 8]]
    as_int = TensorOperator(2, 2, np.array(rows, dtype=np.int64), 2)
    as_obj = TensorOperator(2, 2, np.array(rows, dtype=object) * 3, 6)
    assert as_int == as_obj and hash(as_int) == hash(as_obj)
    big = as_int * 2 ** 70
    assert big.num.dtype == object
    assert big / 2 ** 70 == as_int and hash(big / 2 ** 70) == hash(as_int)
    assert len({as_int, as_obj, big, big / 2 ** 70}) == 2


def test_operator_does_not_share_the_callers_array():
    arr = np.identity(4, dtype=np.int64)
    op = TensorOperator(2, 2, arr)
    arr[0, 1] = 5  # a write by the caller after construction
    assert op == TensorOperator.identity(2, 2)
    assert op @ op == TensorOperator.identity(2, 2)
    for x in (op, op @ op, op + op, op.transpose(), op.partial_trace(),
              realize(hermitian_young(T("12")), 2)):
        with pytest.raises(ValueError):
            x.num[0, 0] = 1


# -- weight blocks ---------------------------------------------------------------


@pytest.mark.parametrize("n, N", [(1, 1), (1, 4), (2, 3), (3, 2), (3, 3),
                                  (4, 3), (5, 2)])
def test_basis_table_weight_blocks(n, N):
    basis = tensor_rep.basis_table(n, N)
    blocks = [row.tolist() for _, idx in basis.groups for row in idx]
    assert len(blocks) == comb(n + N - 1, N - 1)
    assert sorted(i for block in blocks for i in block) == list(range(N ** n))
    for block in blocks:
        counts = [decode(block[0], N, n).count(d) for d in range(N)]
        assert len(block) == factorial(n) // prod(map(factorial, counts))
        assert all(sorted(decode(i, N, n)) == sorted(decode(block[0], N, n))
                   for i in block)


@pytest.mark.parametrize("n, N", [(n, N) for n in (1, 2, 3) for N in (1, 2, 3)])
def test_permutation_matrices_vanish_off_the_weight_blocks(n, N):
    basis = tensor_rep.basis_table(n, N)
    for p in it_permutations(range(1, n + 1)):
        m = permutation_matrix(p, N)
        rows, cols = np.nonzero(m.num)
        assert (basis.weight[rows] == basis.weight[cols]).all()
        _assert_blocks_kept(m)


def _assert_blocks_kept(m):
    """m vanishes off the weight blocks, and its kept block vector is
    that of its dense numerators."""
    basis = tensor_rep.basis_table(m.n, m.N)
    rows, cols = np.nonzero(m.num)
    assert (basis.weight[rows] == basis.weight[cols]).all()
    gathered = m.num.ravel()[basis.entries]
    assert m._blocks.dtype == gathered.dtype
    assert (m._blocks == gathered).all()


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([(n, N) for n in range(1, 5)
                                   for N in (1, 2, 3)]))
def test_every_operation_keeps_operators_weight_diagonal(data, space):
    n, N = space
    a, b = (realize(data.draw(element_strategy(n=n)), N) for _ in range(2))
    ops = [a, b, TensorOperator.identity(n, N), TensorOperator.zero(n, N),
           a + b, a - b, a.scale(F(-3, 7)), -a, a @ b, a.transpose(),
           TensorOperator.from_dict(a.to_dict())]
    if n >= 2:
        ops.append(a.partial_trace())
    for m in ops:
        _assert_blocks_kept(m)


def test_off_block_entry_is_refused():
    num = np.identity(4, dtype=np.int64)
    num[0, 3] = 1  # |00> and |11> have different weights
    with pytest.raises(ValueError, match=r"entry \(0, 3\) lies off"):
        TensorOperator(2, 2, num)
    data = TensorOperator.identity(2, 2).to_dict()
    data["entries"].append([3, 0, "1/2"])
    with pytest.raises(ValueError, match=r"entry \(3, 0\) lies off"):
        TensorOperator.from_dict(data)
    num[0, 3] = 0
    assert TensorOperator(2, 2, num) == TensorOperator.identity(2, 2)


# -- overflow bounds at their edges ------------------------------------------------


def _weight_diagonal(n, N, diagonal, den=1):
    """The operator with `diagonal` (one value or one per index) on the
    diagonal, 1 elsewhere on the weight blocks and 0 off them, over
    `den`."""
    weight = tensor_rep.basis_table(n, N).weight
    num = (weight[:, None] == weight[None, :]).astype(np.int64).astype(object)
    np.fill_diagonal(num, diagonal)
    return TensorOperator(n, N, num, den)


def _entrywise(f, x, y):
    return [[f(a, b) for a, b in zip(r, s)] for r, s in zip(x, y)]


def _matmul_path(monkeypatch, a, b):
    """The dtypes the matrix product chose while computing a @ b."""
    chosen = []
    real = tensor_rep._exact_dtype

    def spy(bound):
        chosen.append(real(bound))
        return chosen[-1]

    monkeypatch.setattr(tensor_rep, "_exact_dtype", spy)
    product = a @ b
    monkeypatch.undo()
    assert fraction_matrix(product) == naive_matmul(fraction_matrix(a),
                                                    fraction_matrix(b))
    return set(chosen)


@pytest.mark.parametrize("limit, below, above", [
    (2 ** 53, np.float64, np.int64),
    (2 ** 63, np.int64, object),
])
def test_matmul_bound_edges(monkeypatch, limit, below, above):
    # At n = 2, N = 2 the weight blocks have sizes 1, 2, 1: the middle
    # one makes [[A, 1], [1, A]] @ [[B, 1], [1, B]], with inner
    # dimension 2, so the bound is max|a| * max|b| * 2 = 2 A B.
    A = 2 ** (limit.bit_length() // 2 - 1) - 1
    B = (limit - 1) // (2 * A)
    a = _weight_diagonal(2, 2, A)
    assert tensor_rep.basis_table(2, 2).groups[-1][0] == 2
    for b_max, path in ((B, below), (B + 1, above)):
        assert (2 * A * b_max < limit) == (path is below)
        b = _weight_diagonal(2, 2, b_max)
        assert _matmul_path(monkeypatch, a, b) == {path}


def test_basis_table_arrays_are_read_only():
    # every operator on (C^N)^(x n) reads the one cached table, so one
    # stray write would corrupt them all
    basis = tensor_rep.basis_table(3, 2)
    arrays = {"digits": basis.digits, "place": basis.place,
              "weight": basis.weight, "entries": basis.entries}
    arrays.update((f"groups[{s}]", idx) for s, idx in basis.groups)
    for name, array in arrays.items():
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[0]
        assert not array.flags.writeable, name


@pytest.mark.parametrize("limit, below, above", [
    (2 ** 53, np.float64, np.int64),
    (2 ** 63, np.int64, object),
])
def test_block_matmul_bound_edges(monkeypatch, limit, below, above):
    # At n = 3, N = 2 the weight blocks have sizes 1, 3, 3, 1, so the
    # inner dimension is 3, not 8, and the bound is 3 A B.
    A = 2 ** (limit.bit_length() // 2 - 1) - 1
    B = (limit - 1) // (3 * A)
    a = _weight_diagonal(3, 2, A)
    assert tensor_rep.basis_table(3, 2).groups[-1][0] == 3
    for b_max, path in ((B, below), (B + 1, above)):
        assert (3 * A * b_max < limit) == (path is below)
        assert 8 * A * b_max >= limit  # the dense bound would not decide it
        b = _weight_diagonal(3, 2, b_max)
        assert _matmul_path(monkeypatch, a, b) == {path}


@pytest.mark.parametrize("t", enumerate_syt(4), ids=lambda t: t.to_string())
def test_block_rank_matches_dense_and_fraction_ranks(t):
    m = realize(hermitian_young(t), 3)
    _assert_blocks_kept(m)
    want = naive_rank(fraction_matrix(m))
    assert m.rank() == tensor_rep._integer_rank(m.num) == want


def test_integer_rank_edge_cases():
    rank = tensor_rep._integer_rank
    assert rank(np.zeros((0, 3), dtype=np.int64)) == 0
    assert rank(np.zeros((2, 3), dtype=np.int64)) == 0
    # the third row vanishes after the first pivot, the last after the
    # second; negative pivots and a zero row throughout
    m = np.array([[-2, 4, 6, 0],
                  [0, 0, 0, 0],
                  [3, -6, -9, 0],
                  [0, -3, 1, 5],
                  [-4, 5, 13, 5]], dtype=object)
    assert rank(m) == naive_rank([[F(v) for v in row] for row in m]) == 2
    assert rank(m * 2 ** 70) == 2
    assert rank(np.array([[0, -5], [-7, 0]])) == 2


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sum_and_scale_bound_edges(offset):
    # The int64 bound of a sum or a scaling is sum |k| * max|x| < 2**63.
    M = 2 ** 62 + offset  # x + y and x - (-y): 2 M = 2**63 + 2 offset
    x = _weight_diagonal(2, 2, M)
    y = _weight_diagonal(2, 2, [M, M - 1, M, M])
    assert (2 * M < 2 ** 63) == (offset < 0)
    want = _entrywise(lambda a, b: a + b,
                      fraction_matrix(x), fraction_matrix(y))
    assert fraction_matrix(x + y) == want
    assert fraction_matrix(x - y.scale(-1)) == want
    Q = 2 ** 61 + offset  # 4 Q = 2**63 + 4 offset
    q = _weight_diagonal(2, 2, Q)
    assert fraction_matrix(q.scale(4)) == [[4 * v for v in row]
                                           for row in fraction_matrix(q)]
    P = 2 ** 60 + offset  # over denominators 3 and 5: 5 P + 3 P = 8 P
    p3 = _weight_diagonal(2, 2, P, 3)
    p5 = _weight_diagonal(2, 2, P, 5)
    assert fraction_matrix(p3 + p5) == _entrywise(
        lambda a, b: a + b, fraction_matrix(p3), fraction_matrix(p5))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_realize_bound_edge(offset):
    # M e + (M + d) (12) at N = 2: both permutations fix |00>, so that
    # entry is sum |a_sigma| = 2 M + d, where the int64 bound sits; d is
    # 1 for an odd sum, 0 at the edge itself.
    d = offset % 2
    M = (2 ** 63 + offset - d) // 2
    a = AlgebraElement(2, {(1, 2): M, (2, 1): M + d})
    assert 2 * M + d == 2 ** 63 + offset
    assert fraction_matrix(realize(a, 2)) == naive_realize(a, 2)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_matrix_partial_trace_bound_edge(offset):
    # Entry (0, 0) of the partial trace at N = 2 sums the entries M at
    # |00> and |01>, 2 M = 2**63 + 2 offset, and so does `_lincomb`'s
    # bound over the N = 2 slices, the sum of their max|.|: the int64
    # bound sits there.
    M = 2 ** 62 + offset
    x = _weight_diagonal(2, 2, [M, M, M - 1, M])
    assert (2 * M < 2 ** 63) == (offset < 0)
    assert fraction_matrix(x.partial_trace()) == naive_matrix_partial_trace(
        fraction_matrix(x), 2)


def test_int64_minimum_input_is_widened():
    # -2**63 fits int64 but its magnitude does not: it is stored as a
    # Python integer, and every bound sees 2**63.
    num = np.identity(4, dtype=np.int64) * 3
    num[0, 0], num[1, 2] = -2 ** 63, 1
    x = TensorOperator(2, 2, num)
    fx = fraction_matrix(x)
    assert x.num.dtype == object and fx[0][0] == -2 ** 63
    assert fraction_matrix(x @ x) == naive_matmul(fx, fx)
    assert fraction_matrix(x + x) == [[2 * v for v in row] for row in fx]


@st.composite
def wide_operators(draw):
    """(n, N, ops, scalar): two operators on (C^N)^(x n) with N^n <= 9,
    numerators and denominators up to 16, 2**26, 2**31 or 2**80 each, so
    products take all three exact paths, and a scalar of either size.
    The numerators are drawn for every entry and kept on the weight
    blocks."""
    n, N = draw(st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]))
    dim = N ** n
    weight = tensor_rep.basis_table(n, N).weight
    on_blocks = (weight[:, None] == weight[None, :]).ravel().tolist()
    ops = []
    for big in draw(st.lists(st.sampled_from([16, 2 ** 26, 2 ** 31, 2 ** 80]),
                             min_size=2, max_size=2)):
        num = draw(st.lists(st.integers(-big, big),
                            min_size=dim * dim, max_size=dim * dim))
        num = [v if keep else 0 for v, keep in zip(num, on_blocks)]
        den = draw(st.integers(1, big))
        ops.append((TensorOperator(n, N, np.array(num, dtype=object)
                                   .reshape(dim, dim), den),
                    [[F(v, den) for v in num[r * dim:(r + 1) * dim]]
                     for r in range(dim)]))
    big = draw(st.sampled_from([16, 2 ** 80]))
    c = F(draw(st.integers(-big, big)), draw(st.integers(1, big)))
    return n, N, ops, c


@settings(max_examples=150, deadline=None)
@given(wide_operators())
def test_operations_match_fraction_oracle_at_every_magnitude(case):
    n, N, ((a, fa), (b, fb)), c = case
    assert fraction_matrix(a) == fa
    assert fraction_matrix(a @ b) == naive_matmul(fa, fb)
    assert fraction_matrix(a + b) == _entrywise(lambda x, y: x + y, fa, fb)
    assert fraction_matrix(a - b) == _entrywise(lambda x, y: x - y, fa, fb)
    assert fraction_matrix(a - a) == _entrywise(lambda x, y: x - y, fa, fa)
    assert fraction_matrix(-a) == [[-x for x in row] for row in fa]
    assert fraction_matrix(a / 2) == [[x / 2 for x in row] for row in fa]
    assert fraction_matrix(a.scale(c)) == [[c * x for x in row] for row in fa]
    if c:
        assert fraction_matrix(a / c) == [[x / c for x in row] for row in fa]
    assert a.trace() == sum(fa[i][i] for i in range(len(fa)))
    assert a.rank() == naive_rank(fa)
    if n >= 2:
        assert (fraction_matrix(a.partial_trace())
                == naive_matrix_partial_trace(fa, N))


@settings(max_examples=60, deadline=None)
@given(element_strategy(n=3, max_terms=6), element_strategy(n=3, max_terms=6),
       st.sampled_from([2, 3]),
       st.lists(st.sampled_from([1, 2 ** 24, 2 ** 31, 2 ** 80]),
                min_size=2, max_size=2))
def test_block_kernel_matches_fraction_oracles(a, b, N, scales):
    # Realized elements are weight-diagonal; scaled up to 2**80 their
    # products take the float64, int64 and object paths.
    x, y = realize(a, N).scale(scales[0]), realize(b, N).scale(scales[1])
    fx, fy = fraction_matrix(x), fraction_matrix(y)
    assert fraction_matrix(x @ y) == naive_matmul(fx, fy)
    assert x.rank() == naive_rank(fx)


@settings(max_examples=30)
@given(element_strategy(n=3, max_terms=6, max_num=2 ** 70, max_den=2 ** 70),
       st.sampled_from([1, 2, 3]))
def test_realize_matches_definition(a, N):
    assert fraction_matrix(realize(a, N)) == naive_realize(a, N)


# -- partial trace -----------------------------------------------------------------


def test_matrix_partial_trace_of_identity():
    got = TensorOperator.identity(3, 2).partial_trace()
    assert got == TensorOperator.identity(2, 2) * 2


def test_matrix_partial_trace_requires_two_slots():
    with pytest.raises(ValueError):
        TensorOperator.identity(1, 2).partial_trace()


def test_matrix_partial_trace_young_recursion():
    # tracing the fifth slot of Y_{123/45} at N=3: content factor 3,
    # hook ratio 8/24, so exactly D(Y_{123/4})
    lhs = realize(young_operator(T("123/45")), 3).partial_trace()
    rhs = realize(young_operator(T("123/4")), 3)
    assert lhs == rhs


def test_matrix_partial_trace_hermitian_recursion():
    # P_{12/3} at N=2: content factor (2+1-2)=1, hook ratio 2/3
    lhs = realize(hermitian_young(T("12/3")), 2).partial_trace()
    rhs = realize(hermitian_young(T("12")), 2) * F(2, 3)
    assert lhs == rhs


def test_matrix_partial_trace_commutes_with_realize():
    for n in (2, 3, 4):
        for t in enumerate_syt(n):
            for op in (young_operator(t), hermitian_young(t)):
                looped, spliced = op.partial_trace()
                for N in (2, 3):
                    assert (realize(op, N).partial_trace()
                            == realize(looped.scale(N) + spliced, N))


# -- orthogonality reports ------------------------------------------------------------


def test_report_passes_for_hermitian_family():
    ts = enumerate_syt(3)
    mats = [realize(hermitian_young(t), 3) for t in ts]
    rep = orthogonality_report(mats, [t.to_string() for t in ts])
    assert all(c.passed and not c.witness for c in rep)
    assert len(rep) == 4 + 4 * 4 + 1
    assert sorted(int(m.trace()) for m in mats) == [1, 8, 8, 10]


def test_report_flags_non_symmetric_conventional_operators():
    mats = [realize(young_operator(T(s)), 3) for s in ("12/3", "13/2")]
    rep = orthogonality_report(mats, ["12/3", "13/2"], prefix="tensor:N=3:")
    assert {c.check_id: c.witness for c in rep if not c.passed} == {
        "tensor:N=3:symmetric:12/3": "entry (1,3): got 0, want -1/3",
        "tensor:N=3:symmetric:13/2": "entry (1,3): got -1/3, want 0",
        "tensor:N=3:sum-to-identity": "entry (0,0): got 0, want 1"}


def test_report_single_identity_passes():
    rep = orthogonality_report([TensorOperator.identity(2, 2)])
    assert [(c.check_id, c.passed) for c in rep] == [
        ("symmetric:0", True), ("product:0*0", True),
        ("sum-to-identity", True)]


def test_report_decides_products_by_position():
    # I I = I, so the off-diagonal products must fail whatever the labels
    ident = TensorOperator.identity(2, 2)
    rep = orthogonality_report([ident, ident])
    assert {c.check_id for c in rep if not c.passed} == {
        "product:0*1", "product:1*0", "sum-to-identity"}
    with pytest.raises(ValueError, match="distinct"):
        orthogonality_report([ident, ident], ["a", "a"])


def test_report_input_validation():
    with pytest.raises(ValueError):
        orthogonality_report([])
    with pytest.raises(ValueError):
        orthogonality_report([TensorOperator.identity(2, 2)], ["a", "b"])
    with pytest.raises(ValueError):
        orthogonality_report([TensorOperator.identity(2, 2),
                              TensorOperator.identity(1, 2)])


# -- wire format -------------------------------------------------------------------


def test_matrix_json_round_trip():
    m = realize(hermitian_young(T("12/3")), 2)
    d = m.to_dict()
    assert d["n"] == 3 and d["N"] == 2
    positions = [(e[0], e[1]) for e in d["entries"]]
    assert positions == sorted(positions)  # row-major
    assert all(e[2] != "0" for e in d["entries"])  # zeros omitted
    assert TensorOperator.from_dict(d) == m


def test_matrix_json_of_swap():
    d = permutation_matrix((2, 1), 2).to_dict()
    assert d["entries"] == [[0, 0, "1"], [1, 2, "1"], [2, 1, "1"], [3, 3, "1"]]


def test_matrix_from_dict_refuses_a_float_coefficient():
    # Fraction(0.1) would keep the binary value 3602879701896397/2**55.
    with pytest.raises(TypeError):
        TensorOperator.from_dict({"n": 2, "N": 2, "entries": [[0, 0, 0.1]]})
    m = TensorOperator.from_dict({"n": 2, "N": 2, "entries": [[0, 0, 3]]})
    assert m.entry(0, 0) == 3


def test_matrix_from_dict_refuses_a_negative_index():
    # numpy would wrap -1 to the last row and column, entry (3, 3)
    with pytest.raises(ValueError, match=r"^row -1 outside 0\.\.3$"):
        TensorOperator.from_dict({"n": 2, "N": 2, "entries": [[-1, -1, "1"]]})


@pytest.mark.parametrize("index", [4, 2 ** 70, 1.0, "1", True, None])
def test_matrix_from_dict_refuses_an_index_outside_the_basis(index):
    # numpy indexing would raise IndexError, or spread True and None over
    # whole rows; a non-integer fails the integer rule first
    error, match = ((ValueError, rf"^row {index} outside 0\.\.3$")
                    if type(index) is int else
                    (TypeError, "expected an integer"))
    with pytest.raises(error, match=match):
        TensorOperator.from_dict({"n": 2, "N": 2,
                                  "entries": [[index, index, "1"]]})


def test_matrix_from_dict_refuses_a_repeated_entry():
    d = {"n": 2, "N": 2, "entries": [[1, 2, "1"], [1, 2, "2"]]}
    with pytest.raises(ValueError, match=r"entry \(1, 2\) appears twice"):
        TensorOperator.from_dict(d)
