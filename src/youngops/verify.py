"""Verification suites: every identity the operators are supposed to
satisfy, run exhaustively at a given n and reported check by check.

Each check carries a stable id, the equation it tests (the "anchor"),
a pass/fail flag, and on failure a witness (the offending tableau pair,
term, or matrix entry).  Reports are assembled in sorted order so the
rendered output is byte-stable across runs; wall-clock timings are kept
on the report objects but never serialized.
"""
from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .exact import SizeLimitError, _Exact, _tensor_dimension
from .sn_algebra import (
    AlgebraElement,
    embed_element,
    hermitian_young,
    sn_table,
    young_operator,
)
from .tableaux import (YoungDiagram, YoungTableau, _dimension, enumerate_syt,
                       partitions)
from .tensor_rep import TensorOperator, basis_table, realize

DEFAULT_TENSOR_DIMS = (2, 3)


def read_tensor_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """The N of `verify` and `dims`, at least one, each by
    `_tensor_dimension`; a repeated N runs once, at its first place."""
    if not (dims := tuple(dict.fromkeys(map(_tensor_dimension, dims)))):
        raise ValueError("need at least one N")
    return dims


class UnknownSuiteError(ValueError):
    """Raised when a requested suite name is not registered."""


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    passed: bool
    witness: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult]
    wall_time_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed_count(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "counts": {"passed": self.passed_count, "failed": self.failed_count},
            "checks": [
                {
                    "id": c.check_id,
                    "anchor": c.anchor,
                    "passed": c.passed,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
        }


@dataclass
class VerificationReport:
    n: int
    tensor_dims: tuple[int, ...]
    suites: list[SuiteReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    @property
    def passed_count(self) -> int:
        return sum(s.passed_count for s in self.suites)

    @property
    def failed_count(self) -> int:
        return sum(s.failed_count for s in self.suites)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "N": list(self.tensor_dims),
            "passed": self.passed,
            "counts": {"passed": self.passed_count, "failed": self.failed_count},
            "suites": [s.to_dict() for s in self.suites],
        }


class _Context:
    """The degree, tensor dimensions and standard tableaux of one
    verification run.  P_T comes from hermitian_young's memo, and Y_T
    is rebuilt by young_operator's scatter."""

    def __init__(self, n: int, tensor_dims: Sequence[int]):
        self.n = n
        self.tensor_dims = tuple(tensor_dims)
        self.tableaux = enumerate_syt(n)


def _equality_check(check_id: str, anchor: str, lhs: _Exact, rhs: _Exact,
                    equal: bool = True) -> CheckResult:
    """Passes when (lhs == rhs) == equal.  A failure's witness is the
    first difference, or `equal, want a difference`."""
    ok = (lhs == rhs) == equal
    return CheckResult(check_id, anchor, ok,
                       "" if ok else lhs.first_difference(rhs) if equal
                       else "equal, want a difference")


def _value_check(check_id: str, anchor: str,
                 got: object, want: object) -> CheckResult:
    ok = got == want
    return CheckResult(check_id, anchor, ok,
                       "" if ok else f"got {got}, want {want}")


def _pair_checks(prefix: str, anchor: str, pairs: list[tuple[str, _Exact]],
                 product: Callable[[_Exact, _Exact], _Exact],
                 zero: _Exact) -> list[CheckResult]:
    """X_i X_j = delta_ij X_i over the ordered pairs of the distinctly
    labelled (label, X) `pairs`, row-major, as `<prefix><label>*<label>`."""
    return [_equality_check(f"{prefix}{s}*{t}", anchor, product(a, b),
                            a if s == t else zero)
            for s, a in pairs for t, b in pairs]


# The two operator families, by the letter their check ids carry.
_FAMILIES = ("Y", "P")


def _build(kind: str, t: YoungTableau) -> AlgebraElement:
    """Y_T or P_T by family letter, looked up when called."""
    return young_operator(t) if kind == "Y" else hermitian_young(t)


# -- individual suites --------------------------------------------------------


def _suite_idempotency(ctx: _Context) -> list[CheckResult]:
    out = []
    for t in ctx.tableaux:
        for kind in _FAMILIES:
            x = _build(kind, t)
            out.append(_equality_check(f"idempotency:{kind}:{t.to_string()}",
                                       f"{kind}_T {kind}_T = {kind}_T",
                                       x * x, x))
    return out


def _transversality(ctx: _Context, kind: str, suite: str) -> list[CheckResult]:
    ops = [(t.to_string(), _build(kind, t)) for t in ctx.tableaux]
    return _pair_checks(f"{suite}:", f"{kind}_T {kind}_U = delta_TU {kind}_T",
                        ops, operator.mul, AlgebraElement.zero(ctx.n))


def _suite_hermiticity(ctx: _Context) -> list[CheckResult]:
    out = []
    for t in ctx.tableaux:
        p = hermitian_young(t)
        out.append(_equality_check(f"hermiticity:{t.to_string()}",
                                   "P_T* = P_T", p.involution(), p))
    return out


def _suite_completeness(ctx: _Context) -> list[CheckResult]:
    total = AlgebraElement.zero(ctx.n)
    for t in ctx.tableaux:
        total = total + hermitian_young(t)
    return [_equality_check("completeness:sum", "sum_T P_T = 1",
                            total, AlgebraElement.one(ctx.n))]


def _suite_traces(ctx: _Context) -> list[CheckResult]:
    out = []
    for t in ctx.tableaux:
        want = _dimension(t.shape)
        for kind in _FAMILIES:
            out.append(_value_check(f"traces:{kind}:{t.to_string()}",
                                    "tr Y_T = tr P_T = f_T(N)/|T|",
                                    _build(kind, t).trace_polynomial(), want))
    return out


def _suite_partial_trace(ctx: _Context) -> list[CheckResult]:
    # tr' X_T = N A + B, and the recursion (N+p-q) r X_T' is linear in N:
    # it holds iff A = r X_T' and B = (p-q) r X_T', with r = |T'|/|T|.
    out = []
    for t in ctx.tableaux:
        name = t.to_string()
        parent, p, q = t.parent()
        ratio = Fraction(parent.shape.hook_product(), t.shape.hook_product())
        for kind in _FAMILIES:
            check_id = f"partial-trace:{kind}:{name}"
            anchor = f"tr' {kind}_T = (N+p-q) (|T'|/|T|) {kind}_T'"
            looped, spliced = _build(kind, t).partial_trace()
            want = _build(kind, parent).scale(ratio)
            check = _equality_check(check_id, anchor, looped, want)
            if check.passed:
                check = _equality_check(check_id, anchor,
                                        spliced, want.scale(p - q))
            out.append(check)
    return out


def _suite_littlewood(ctx: _Context) -> list[CheckResult]:
    a = young_operator(YoungTableau.from_string("135/24"))
    b = young_operator(YoungTableau.from_string("123/45"))
    zero = AlgebraElement.zero(5)
    return [_equality_check("littlewood:zero-order",
                            "Y_{135/24} Y_{123/45} = 0", a * b, zero),
            _equality_check("littlewood:nonzero-order",
                            "Y_{123/45} Y_{135/24} != 0", b * a, zero,
                            equal=False)]


def _suite_appendix_shortcut(ctx: _Context) -> list[CheckResult]:
    out = []
    # Sandwiching Y_T between the Hermitian operator of the first rows'
    # sub-tableau reproduces the full recursion in one step when the
    # remaining boxes fill a single row/column pattern.
    for sub, full in (("123", "123/45"), ("1/2", "13/24")):
        t = YoungTableau.from_string(full)
        p = embed_element(hermitian_young(YoungTableau.from_string(sub)), t.n)
        out.append(_equality_check(
            f"appendix-shortcut:{full}",
            f"embed(P_{{{sub}}}) Y_{{{full}}} embed(P_{{{sub}}}) = P_{{{full}}}",
            p * young_operator(t) * p, hermitian_young(t)))
    y135 = young_operator(YoungTableau.from_string("135/24"))
    out.append(_equality_check(
        "appendix-shortcut:squaring",
        "((1/2) Y_{135/24})^2 = (1/4) Y_{135/24}",
        (y135 / 2) * (y135 / 2), y135 / 4))
    return out


_ORTHOGONALITY = "D(P_T) symmetric; D(P_T) D(P_U) = delta_TU D(P_T); sum = 1"


def orthogonality_report(ops: Sequence[TensorOperator],
                         labels: Sequence[str] | None = None,
                         prefix: str = "") -> list[CheckResult]:
    """Check that a family of operators forms a complete orthogonal set
    of symmetric projectors:

      * each operator equals its transpose,
      * M_i M_j = delta_ij M_i for every ordered pair,
      * the family sums to the identity.

    Check ids are `prefix` followed by "symmetric:<label>",
    "product:<label>*<label>" or "sum-to-identity"; labels default to
    the positions and must be distinct.  A failing check's witness is
    its first wrong entry.
    """
    if not ops:
        raise ValueError("need at least one operator")
    first = ops[0]
    for other in ops[1:]:
        first._check_space(other)
    names = ([str(i) for i in range(len(ops))] if labels is None
             else list(labels))
    if len(names) != len(ops):
        raise ValueError("labels length must match ops length")
    if len(set(names)) != len(names):
        raise ValueError("labels must be distinct")
    pairs = list(zip(names, ops))
    return ([_equality_check(f"{prefix}symmetric:{name}", _ORTHOGONALITY,
                             op, op.transpose()) for name, op in pairs]
            + _pair_checks(f"{prefix}product:", _ORTHOGONALITY, pairs,
                           operator.matmul,
                           TensorOperator.zero(first.n, first.N))
            + [_equality_check(f"{prefix}sum-to-identity", _ORTHOGONALITY,
                               sum(ops[1:], first),
                               TensorOperator.identity(first.n, first.N))])


# Dense int64 entries of all P_T the tensor suite holds for one N: 2 GiB.
_TENSOR_SUITE_MAX_ENTRIES = 2 ** 28


def _suite_tensor(ctx: _Context) -> list[CheckResult]:
    out = []
    names = [t.to_string() for t in ctx.tableaux]
    dims = [_dimension(t.shape) for t in ctx.tableaux]
    for N in ctx.tensor_dims:
        prefix = f"tensor:N={N}:"
        mats = [realize(hermitian_young(t), N) for t in ctx.tableaux]
        out.extend(orthogonality_report(mats, names, prefix))
        for name, dim, mat in zip(names, dims, mats):
            want = dim(N)
            out.append(_value_check(f"{prefix}trace:{name}",
                                    "tr D(P_T) = f_T(N)/|T|",
                                    mat.trace(), want))
            out.append(_value_check(f"{prefix}rank:{name}",
                                    "rank D(P_T) = f_T(N)/|T|",
                                    mat.rank(), want))
        if ctx.n >= 2:
            for t, name, p_mat in zip(ctx.tableaux, names, mats):
                y = young_operator(t)
                for kind, op, op_mat in (
                        ("Y", y, realize(y, N)),
                        ("P", hermitian_young(t), p_mat)):
                    looped, spliced = op.partial_trace()
                    out.append(_equality_check(
                        f"{prefix}ptrace:{kind}:{name}",
                        "tr'(D(A)) = D(tr' A)", op_mat.partial_trace(),
                        realize(looped.scale(N) + spliced, N)))
    return out


_SuiteFn = Callable[[_Context], "list[CheckResult]"]


class _Suite(NamedTuple):
    run: _SuiteFn
    applies: Callable[[int], bool] = lambda n: True
    default: bool = True  # runs when no suite is named


# A default run is expected to pass at every n, so a suite that fails
# by design is opt-in: conventional-transversality documents the
# classical defect at n = 5.
_SUITES: dict[str, _Suite] = {
    "idempotency": _Suite(_suite_idempotency),
    "conventional-transversality": _Suite(
        partial(_transversality, kind="Y", suite="conventional-transversality"),
        default=False),
    "transversality": _Suite(
        partial(_transversality, kind="P", suite="transversality")),
    "hermiticity": _Suite(_suite_hermiticity),
    "completeness": _Suite(_suite_completeness),
    "traces": _Suite(_suite_traces),
    "partial-trace": _Suite(_suite_partial_trace, lambda n: n >= 2),
    "littlewood": _Suite(_suite_littlewood, lambda n: n == 5),
    "appendix-shortcut": _Suite(_suite_appendix_shortcut, lambda n: n == 5),
    "tensor": _Suite(_suite_tensor),
}

SUITE_NAMES = tuple(sorted(_SUITES))
OPT_IN_SUITES = tuple(name for name in SUITE_NAMES
                      if not _SUITES[name].default)


def default_suites(n: int) -> list[str]:
    """The suites that run when none is named: every default suite that
    applies at n."""
    return [name for name in SUITE_NAMES
            if _SUITES[name].default and _SUITES[name].applies(n)]


def run_verification(n: int, tensor_dims: Sequence[int] | None = None,
                     suites: Sequence[str] | None = None) -> VerificationReport:
    """Run the requested suites (default: `default_suites(n)`) and
    return a fully sorted report.  Every input is refused before any
    suite runs: n by `sn_table`, then a suite name that is unknown or
    not defined at n, the N by `read_tensor_dims` (None:
    DEFAULT_TENSOR_DIMS) and, with the tensor suite, each N**n by
    `basis_table` and the suite's size by its cap."""
    n = sn_table(n).n
    if suites is None:
        chosen = default_suites(n)
    else:
        chosen = list(suites)
        for name in chosen:
            if name not in _SUITES:
                raise UnknownSuiteError(
                    f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
            if not _SUITES[name].applies(n):
                raise ValueError(f"suite {name!r} is not defined at n={n}")
    dims = read_tensor_dims(DEFAULT_TENSOR_DIMS if tensor_dims is None
                            else tensor_dims)
    if "tensor" in chosen:
        syt = sum(YoungDiagram(p).syt_count() for p in partitions(n))
        for N in dims:
            size = syt * basis_table(n, N).dim ** 2
            if size > _TENSOR_SUITE_MAX_ENTRIES:
                raise SizeLimitError(
                    f"tensor suite at n={n}, N={N} would hold {size} "
                    f"entries, past {_TENSOR_SUITE_MAX_ENTRIES}")
    ctx = _Context(n, dims)
    report = VerificationReport(n=n, tensor_dims=dims)
    for name in sorted(set(chosen)):
        start = time.perf_counter()
        checks = _SUITES[name].run(ctx)
        checks.sort(key=lambda c: c.check_id)
        report.suites.append(SuiteReport(
            suite=name, checks=checks,
            wall_time_ms=(time.perf_counter() - start) * 1000.0))
    return report
