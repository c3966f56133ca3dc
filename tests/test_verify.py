from fractions import Fraction

import numpy as np
import pytest

from youngops import (
    AlgebraElement,
    TensorOperator,
    YoungTableau,
    realize,
    run_verification,
    young_operator,
)
from youngops import verify
from youngops.verify import (
    _SUITES,
    OPT_IN_SUITES,
    SUITE_NAMES,
    UnknownSuiteError,
    _equality_check,
    _value_check,
    default_suites,
    read_tensor_dims,
)


def test_small_n_full_run_passes():
    rep = run_verification(2)
    assert rep.passed
    assert rep.failed_count == 0
    assert rep.passed_count == sum(s.passed_count for s in rep.suites)
    assert [s.suite for s in rep.suites] == sorted(s.suite for s in rep.suites)


def test_default_suites_exclude_the_known_failure():
    for n in (1, 2, 5):
        names = default_suites(n)
        assert "conventional-transversality" not in names
        assert "idempotency" in names and "completeness" in names
    assert "littlewood" not in default_suites(4)
    assert "littlewood" in default_suites(5)
    assert "partial-trace" not in default_suites(1)


def test_default_suites_follow_the_flags():
    assert OPT_IN_SUITES == ("conventional-transversality",)
    for n in range(1, 8):
        expected = set(SUITE_NAMES) - set(OPT_IN_SUITES)
        if n < 2:
            expected.discard("partial-trace")
        if n != 5:
            expected -= {"littlewood", "appendix-shortcut"}
        flagged = {name for name, suite in _SUITES.items()
                   if suite.default and suite.applies(n)}
        assert default_suites(n) == sorted(expected) == sorted(flagged)


def test_opt_in_suite_runs_when_named():
    for name in OPT_IN_SUITES:
        rep = run_verification(3, tensor_dims=[2], suites=[name])
        assert [s.suite for s in rep.suites] == [name]
        assert rep.passed_count > 0


def test_checks_are_sorted_and_counted():
    rep = run_verification(3, tensor_dims=[2])
    for suite in rep.suites:
        ids = [c.check_id for c in suite.checks]
        assert ids == sorted(ids)
        assert suite.passed_count + suite.failed_count == len(suite.checks)
        assert suite.wall_time_ms >= 0.0


def test_conventional_transversality_window():
    for n in (2, 3, 4):
        rep = run_verification(n, tensor_dims=[2],
                               suites=["conventional-transversality"])
        assert rep.passed, f"unexpected failure at n={n}"


def test_conventional_transversality_fails_at_five():
    rep = run_verification(5, tensor_dims=[2],
                           suites=["conventional-transversality"])
    assert not rep.passed
    failing = [c for s in rep.suites for c in s.checks if not c.passed]
    assert {c.check_id for c in failing} == {
        "conventional-transversality:123/45*135/24",
        "conventional-transversality:12/34/5*14/25/3",
    }
    for c in failing:
        assert c.witness  # a failing check must carry a witness
        assert c.anchor == "Y_T Y_U = delta_TU Y_T"


def test_littlewood_suite_at_five():
    rep = run_verification(5, tensor_dims=[2], suites=["littlewood"])
    assert rep.passed
    ids = [c.check_id for s in rep.suites for c in s.checks]
    assert ids == ["littlewood:nonzero-order", "littlewood:zero-order"]


def test_appendix_suite_at_five():
    rep = run_verification(5, tensor_dims=[2], suites=["appendix-shortcut"])
    assert rep.passed
    assert rep.passed_count == 3


def test_requested_inapplicable_suite_is_skipped():
    rep = run_verification(3, tensor_dims=[2], suites=["littlewood"])
    assert rep.passed
    checks = rep.suites[0].checks
    assert len(checks) == 1
    assert checks[0].check_id == "littlewood:skipped"
    assert "n=3" in checks[0].witness


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuiteError):
        run_verification(3, suites=["no-such-suite"])


def test_bad_tensor_dimension_rejected():
    with pytest.raises(ValueError):
        run_verification(2, tensor_dims=[0])


def test_read_tensor_dims():
    assert read_tensor_dims([3, 2, np.int64(3), 2, 1]) == (3, 2, 1)
    assert type(read_tensor_dims([np.int64(4)])[0]) is int
    for bad in ([2, 0], [-1]):
        with pytest.raises(ValueError, match="^N must be positive"):
            read_tensor_dims(bad)
    for bad in ([2.0], [True], ["2"]):
        with pytest.raises(TypeError):
            read_tensor_dims(bad)


def test_report_dict_shape():
    rep = run_verification(2, tensor_dims=[2], suites=["traces", "completeness"])
    d = rep.to_dict()
    assert d["n"] == 2 and d["N"] == [2] and d["passed"] is True
    assert [s["suite"] for s in d["suites"]] == ["completeness", "traces"]
    for s in d["suites"]:
        assert s["counts"]["passed"] == sum(c["passed"] for c in s["checks"])
        assert "wall_time_ms" not in s  # timings never serialize
        for c in s["checks"]:
            assert set(c) == {"id", "anchor", "passed", "witness"}
    assert d["counts"]["passed"] == rep.passed_count


def test_repeated_tensor_dimensions_run_once_in_order():
    rep = run_verification(2, tensor_dims=[3, 2, 3], suites=["tensor"])
    assert rep.tensor_dims == (3, 2)


def test_check_ids_are_unique_across_every_suite():
    rep = run_verification(4, tensor_dims=[2, 3, 2], suites=SUITE_NAMES)
    ids = [c.check_id for s in rep.suites for c in s.checks]
    assert len(ids) == len(set(ids))


def test_suites_call_the_builder_bound_at_call_time(monkeypatch):
    # A rebound verify.young_operator (a tracer, a spy) is what the
    # family suites call: traces builds Y_T once per standard tableau.
    calls = []

    def counting(t):
        calls.append(t)
        return young_operator(t)

    monkeypatch.setattr(verify, "young_operator", counting)
    assert run_verification(3, suites=["traces"]).passed
    assert len(calls) == 4


def test_duplicate_suite_requests_run_once():
    rep = run_verification(2, tensor_dims=[2],
                           suites=["completeness", "completeness"])
    assert len(rep.suites) == 1


# -- witnesses ------------------------------------------------------------------


def _Y(text):
    return young_operator(YoungTableau.from_string(text))


def test_algebra_witness_text():
    # the classical defect: Y_{123/45} Y_{135/24} != 0
    got = _Y("123/45") * _Y("135/24")
    assert (got.first_difference(AlgebraElement.zero(5))
            == "first differing term (1, 4, 2, 5, 3): difference -1/24")


def test_matrix_witness_text():
    m = realize(_Y("12/3"), 3)
    assert (m.first_difference(m.transpose())
            == "entry (1,3): got 0, want -1/3")


def test_value_witness_text():
    assert _value_check("x", "a", Fraction(1, 2), 1).witness == (
        "got 1/2, want 1")
    assert _value_check("x", "a", 8, Fraction(8)).witness == ""


def test_equal_values_have_no_witness():
    y = _Y("12/3")
    m = realize(y, 2)
    assert y.first_difference(y.scale(1)) == ""
    assert m.first_difference(m @ TensorOperator.identity(3, 2)) == ""


def test_witness_across_spaces_raises():
    with pytest.raises(ValueError):
        AlgebraElement.one(2).first_difference(AlgebraElement.one(3))
    with pytest.raises(ValueError):
        TensorOperator.identity(2, 2).first_difference(
            TensorOperator.identity(2, 3))


def test_witness_text_is_the_same_on_object_numerators():
    # a numerator past 2**63 at a later index leaves the first
    # difference where it was
    big = 2 ** 64
    got = _Y("123/45") * _Y("135/24")
    last = AlgebraElement.from_perm((5, 4, 3, 2, 1), big)
    wide = got + last
    assert wide.num.dtype == object
    assert (wide.first_difference(last)
            == got.first_difference(AlgebraElement.zero(5)))
    m = realize(_Y("12/3"), 3)
    num = np.zeros((27, 27), dtype=object)
    num[26, 26] = big  # the weight block of (2, 2, 2), of size 1
    corner = TensorOperator(3, 3, num)
    wide = m + corner
    assert wide.num.dtype == object
    assert (wide.first_difference(m.transpose() + corner)
            == m.first_difference(m.transpose()))


def test_equality_check_can_want_a_difference():
    one, zero = AlgebraElement.one(3), AlgebraElement.zero(3)
    assert _equality_check("x", "a", one, zero, equal=False) == (
        verify.CheckResult("x", "a", True, ""))
    assert _equality_check("x", "a", zero, zero, equal=False) == (
        verify.CheckResult("x", "a", False, "equal, want a difference"))
    failed = _equality_check("x", "a", one, zero)
    assert not failed.passed and failed.witness == one.first_difference(zero)
