from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from youngops import Polynomial


coeff_lists = st.lists(
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    max_size=6)
points = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def test_trailing_zeros_trimmed():
    assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([0, 0]).coeffs == ()
    assert Polynomial().degree == -1
    assert Polynomial([5]).degree == 0


def test_zero_one_monomial():
    assert not Polynomial.zero()
    assert Polynomial.one()(Fraction(7)) == 1
    N = Polynomial.monomial(1)
    assert N(5) == 5
    assert Polynomial.monomial(3, 2)(2) == 16


def test_known_product():
    N = Polynomial.monomial(1)
    assert (N - 1) * (N + 1) == N * N - 1
    assert (N + 1) * (N + 1) == Polynomial([1, 2, 1])


def test_scalar_interop():
    N = Polynomial.monomial(1)
    assert 2 * N == N + N
    assert N - Fraction(1, 2) == Polynomial([Fraction(-1, 2), 1])
    assert (2 - N) == -(N - 2)
    assert N / 2 == Polynomial([0, Fraction(1, 2)])
    assert Polynomial([3]) == 3
    assert Polynomial([3]) == Fraction(3)


def test_str_forms():
    N = Polynomial.monomial(1)
    assert str(Polynomial.zero()) == "0"
    assert str(N) == "N"
    assert str(N * N - N) == "N^2 - N"
    assert str(Polynomial([Fraction(-1, 3), 0, 0, Fraction(1, 3)])) \
        == "1/3*N^3 - 1/3"


def test_json_round_trip():
    p = Polynomial([0, Fraction(-1, 3), 0, Fraction(1, 3)])
    d = p.to_dict()
    assert d == {"coeffs": {"0": "0", "1": "-1/3", "3": "1/3"}}
    assert Polynomial.from_dict(d) == p


def test_json_constant_always_present():
    assert Polynomial.zero().to_dict() == {"coeffs": {"0": "0"}}
    assert Polynomial.monomial(2).to_dict() == {"coeffs": {"0": "0", "2": "1"}}
    assert Polynomial.from_dict({"coeffs": {}}) == Polynomial.zero()


def test_from_dict_refuses_a_float_coefficient():
    # Fraction(0.1) would keep the binary value 3602879701896397/2**55.
    with pytest.raises(TypeError):
        Polynomial.from_dict({"coeffs": {"0": 0.1}})
    assert (Polynomial.from_dict({"coeffs": {"0": 2, "1": "1/10"}})
            == Polynomial([2, Fraction(1, 10)]))


def test_from_dict_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="negative degree '-1'"):
        Polynomial.from_dict({"coeffs": {"-1": "5"}})


@pytest.mark.parametrize("key", [" 3", "+3", "03", "\u0663", "3.0", "", 3])
def test_from_dict_refuses_a_non_canonical_degree(key):
    # int() would read the first four as 3 ("\u0663" is Arabic-Indic
    # three), so "3" and "03" could name one degree twice
    with pytest.raises(ValueError, match="non-canonical or negative degree"):
        Polynomial.from_dict({"coeffs": {key: "5"}})
    assert Polynomial.from_dict({"coeffs": {"3": "5"}}) == Polynomial.monomial(3, 5)


@given(coeff_lists, coeff_lists, points)
def test_addition_matches_pointwise(a, b, x):
    p, q = Polynomial(a), Polynomial(b)
    assert (p + q)(x) == p(x) + q(x)


@given(coeff_lists, coeff_lists, points)
def test_product_matches_pointwise(a, b, x):
    p, q = Polynomial(a), Polynomial(b)
    assert (p * q)(x) == p(x) * q(x)


@given(coeff_lists)
def test_round_trip_any(a):
    p = Polynomial(a)
    assert Polynomial.from_dict(p.to_dict()) == p


def test_constant_hashes_like_its_fraction():
    assert Polynomial([3]) == 3 and hash(Polynomial([3])) == hash(3)
    assert hash(Polynomial([Fraction(1, 2)])) == hash(Fraction(1, 2))
    assert hash(Polynomial.zero()) == hash(0)
    assert Polynomial([1]) != True  # a bool is no scalar, so never equal


def test_numpy_integers_are_exact_scalars():
    N = Polynomial.monomial(1)
    two = np.int64(2)
    p = Polynomial([two, two])
    assert p == Polynomial([2, 2])
    assert all(type(c.numerator) is int for c in p.coeffs)
    assert N / two == Polynomial([0, Fraction(1, 2)])
    assert N * two == N - np.int64(0) + N
    assert Polynomial([3]) == np.int64(3)
    value = (N * N)(two)
    assert value == 4 and type(value) is Fraction
    assert type(value.numerator) is int


INEXACT = {
    "coefficient": lambda p: Polynomial([0.5]),
    "evaluation": lambda p: p(0.5),
    "add": lambda p: p + 0.5,
    "sub": lambda p: p - 0.5,
    "mul": lambda p: p * 0.5,
    "div": lambda p: p / 0.5,
}


@pytest.mark.parametrize("op", sorted(INEXACT))
def test_inexact_scalars_are_refused(op):
    with pytest.raises(TypeError):
        INEXACT[op](Polynomial([1, 2]))
