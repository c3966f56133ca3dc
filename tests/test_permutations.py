from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from youngops.permutations import (
    all_permutations,
    compose,
    cycle_count,
    cycle_type,
    cycles,
    identity,
    inverse,
    sign,
    transposition,
)
from oracles import perms_of

perm3 = st.permutations(range(1, 4)).map(tuple)
perm5 = st.permutations(range(1, 6)).map(tuple)


def test_compose_applies_right_factor_first():
    # (12) after (13): 1 -> 3, 2 -> 1, 3 -> 2.
    t12 = transposition(3, 1, 2)
    t13 = transposition(3, 1, 3)
    assert compose(t12, t13) == (3, 1, 2)
    # and the other order gives the other 3-cycle
    assert compose(t13, t12) == (2, 3, 1)


def test_compose_identity_and_inverse():
    p = (3, 1, 4, 2)
    assert compose(p, identity(4)) == p
    assert compose(identity(4), p) == p
    assert compose(p, inverse(p)) == identity(4)
    assert compose(inverse(p), p) == identity(4)


def _matrix(p):
    m = np.zeros((len(p), len(p)), dtype=int)
    for k, image in enumerate(p, start=1):
        m[image - 1, k - 1] = 1
    return m


@given(perm3, perm3)
def test_compose_matches_matrix_product(a, b):
    assert (_matrix(compose(a, b)) == _matrix(a) @ _matrix(b)).all()


def test_cycles_and_counts():
    assert cycles((2, 1, 3)) == [(1, 2), (3,)]
    assert cycles((2, 3, 1)) == [(1, 2, 3)]
    assert cycle_count(identity(5)) == 5
    assert cycle_type((2, 1, 4, 3)) == (2, 2)
    assert cycle_type((3, 1, 2, 4)) == (3, 1)


def test_sign_known_values():
    assert sign(identity(4)) == 1
    assert sign(transposition(4, 2, 4)) == -1
    assert sign((2, 3, 1)) == 1


@given(perm5, perm5)
def test_sign_is_multiplicative(a, b):
    assert sign(compose(a, b)) == sign(a) * sign(b)


@given(perm5)
def test_inverse_is_involutive(p):
    assert inverse(inverse(p)) == p
    assert sign(inverse(p)) == sign(p)


def test_all_permutations_counts():
    for n in range(1, 6):
        seen = list(all_permutations(n))
        assert len(seen) == factorial(n)
        assert len(set(seen)) == factorial(n)


def test_perms_of_is_the_subgroup_on_the_subset():
    # perms_of is the test oracle behind naive_subset_sum
    moved = list(perms_of([2, 4], 4))
    assert sorted(moved) == [(1, 2, 3, 4), (1, 4, 3, 2)]
    assert len(list(perms_of([1, 3, 5], 5))) == 6
    for p in perms_of([1, 3, 5], 5):
        assert p[1] == 2 and p[3] == 4


@pytest.mark.parametrize("bad", [(1, 1), (2, 2), (0, 1), (1, 3), (2, 0, 1)])
def test_non_permutations_are_refused(bad):
    # each of these once looped forever or returned garbage
    for f in (cycles, cycle_count, cycle_type, sign, inverse):
        with pytest.raises(ValueError, match="not a permutation"):
            f(bad)
    with pytest.raises(ValueError, match="not a permutation"):
        compose(bad, identity(len(bad)))
    with pytest.raises(ValueError, match="not a permutation"):
        compose(identity(len(bad)), bad)


def test_permutation_entries_follow_the_integer_rule():
    for bad in ((1.0, 2), (True, 2), ("1", "2")):
        with pytest.raises(TypeError):
            cycles(bad)
    assert cycles((np.int64(2), np.int8(1))) == [(1, 2)]
    with pytest.raises(TypeError):
        identity(2.0)


def test_compose_refuses_two_degrees():
    with pytest.raises(ValueError, match=r"1\.\.2"):
        compose((2, 1), (1, 2, 3))
    with pytest.raises(ValueError, match=r"1\.\.3"):
        compose((1, 2, 3), (2, 1))


def test_transposition_slots_lie_in_one_to_n():
    assert transposition(3, 3, 1) == (3, 2, 1)
    assert transposition(np.int64(2), np.int8(1), 2) == (2, 1)
    for args in ((3, 0, 1), (3, 1, 4), (0, 1, 1)):
        with pytest.raises(ValueError):
            transposition(*args)
    for args in ((3.0, 1, 2), (3, True, 2), (3, 1, 2.0)):
        with pytest.raises(TypeError):
            transposition(*args)
