"""Verification suites: every identity the operators are supposed to
satisfy, run exhaustively at a given n and reported check by check.

Each check carries a stable id, the equation it tests (the "anchor"),
a pass/fail flag, and on failure a witness (the offending tableau pair,
term, or matrix entry).  Reports are assembled in sorted order so the
rendered output is byte-stable across runs; wall-clock timings are kept
on the report objects but never serialized.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .config import check_algebra_size, check_tensor_size
from .sn_algebra import (
    AlgebraElement,
    embed_element,
    hermitian_young,
    young_operator,
)
from .tableaux import YoungTableau, enumerate_syt
from .tensor_rep import orthogonality_report, realize

DEFAULT_TENSOR_DIMS = (2, 3)


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
    verification run.  Operators come from the module memos of
    young_operator and hermitian_young."""

    def __init__(self, n: int, tensor_dims: Sequence[int]):
        self.n = n
        self.tensor_dims = tuple(tensor_dims)
        self.tableaux = enumerate_syt(n)


def _diff_witness(lhs: AlgebraElement, rhs: AlgebraElement) -> str:
    diff = lhs - rhs
    if diff.is_zero():
        return ""
    p, c = diff.sorted_terms()[0]
    return f"first differing term {p}: difference {c}"


def _equality_check(check_id: str, anchor: str,
                    lhs: AlgebraElement, rhs: AlgebraElement) -> CheckResult:
    ok = lhs == rhs
    return CheckResult(check_id, anchor, ok,
                       "" if ok else _diff_witness(lhs, rhs))


# -- individual suites --------------------------------------------------------


def _suite_idempotency(ctx: _Context) -> list[CheckResult]:
    out = []
    for t in ctx.tableaux:
        name = t.to_string()
        y = young_operator(t)
        out.append(_equality_check(f"idempotency:Y:{name}",
                                   "Y_T Y_T = Y_T", y * y, y))
        p = hermitian_young(t)
        out.append(_equality_check(f"idempotency:P:{name}",
                                   "P_T P_T = P_T", p * p, p))
    return out


def _transversality(ctx: _Context, kind: str, suite: str) -> list[CheckResult]:
    build = young_operator if kind == "Y" else hermitian_young
    ops = {t.to_string(): build(t) for t in ctx.tableaux}
    anchor = f"{kind}_T {kind}_U = delta_TU {kind}_T"
    out = []
    for t, a in ops.items():
        for u, b in ops.items():
            want = a if t == u else AlgebraElement.zero(ctx.n)
            out.append(_equality_check(f"{suite}:{t}*{u}", anchor, a * b, want))
    return out


def _suite_conventional_transversality(ctx: _Context) -> list[CheckResult]:
    return _transversality(ctx, "Y", "conventional-transversality")


def _suite_transversality(ctx: _Context) -> list[CheckResult]:
    return _transversality(ctx, "P", "transversality")


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
        name = t.to_string()
        shape = t.shape
        want = shape.dimension_polynomial() / shape.hook_product()
        for kind, op in (("Y", young_operator(t)), ("P", hermitian_young(t))):
            got = op.trace_polynomial()
            ok = got == want
            out.append(CheckResult(
                f"traces:{kind}:{name}", "tr Y_T = tr P_T = f_T(N)/|T|", ok,
                "" if ok else f"got {got}, want {want}"))
    return out


def _suite_partial_trace(ctx: _Context) -> list[CheckResult]:
    # tr' X_T = N A + B, and the recursion (N+p-q) r X_T' is linear in N:
    # it holds iff A = r X_T' and B = (p-q) r X_T', with r = |T'|/|T|.
    out = []
    for t in ctx.tableaux:
        name = t.to_string()
        parent, p, q = t.parent()
        ratio = Fraction(parent.shape.hook_product(), t.shape.hook_product())
        for kind, build in (("Y", young_operator), ("P", hermitian_young)):
            check_id = f"partial-trace:{kind}:{name}"
            anchor = f"tr' {kind}_T = (N+p-q) (|T'|/|T|) {kind}_T'"
            looped, spliced = build(t).partial_trace()
            want = build(parent).scale(ratio)
            check = _equality_check(check_id, anchor, looped, want)
            if check.passed:
                check = _equality_check(check_id, anchor,
                                        spliced, want.scale(p - q))
            out.append(check)
    return out


def _suite_littlewood(ctx: _Context) -> list[CheckResult]:
    a = young_operator(YoungTableau.from_string("135/24"))
    b = young_operator(YoungTableau.from_string("123/45"))
    out = []
    ab = a * b
    out.append(CheckResult(
        "littlewood:zero-order", "Y_{135/24} Y_{123/45} = 0", ab.is_zero(),
        "" if ab.is_zero() else _diff_witness(ab, AlgebraElement.zero(5))))
    ba = b * a
    out.append(CheckResult(
        "littlewood:nonzero-order", "Y_{123/45} Y_{135/24} != 0",
        not ba.is_zero(),
        "" if not ba.is_zero() else "product collapsed to 0"))
    return out


def _suite_appendix_shortcut(ctx: _Context) -> list[CheckResult]:
    out = []
    # Sandwiching Y_T between the Hermitian operator of the first rows'
    # sub-tableau reproduces the full recursion in one step when the
    # remaining boxes fill a single row/column pattern.
    p123 = embed_element(hermitian_young(YoungTableau.from_string("123")), 5)
    y = young_operator(YoungTableau.from_string("123/45"))
    out.append(_equality_check(
        "appendix-shortcut:123/45",
        "embed(P_{123}) Y_{123/45} embed(P_{123}) = P_{123/45}",
        p123 * y * p123,
        hermitian_young(YoungTableau.from_string("123/45"))))
    p12 = embed_element(hermitian_young(YoungTableau.from_string("1/2")), 4)
    y2 = young_operator(YoungTableau.from_string("13/24"))
    out.append(_equality_check(
        "appendix-shortcut:13/24",
        "embed(P_{1/2}) Y_{13/24} embed(P_{1/2}) = P_{13/24}",
        p12 * y2 * p12,
        hermitian_young(YoungTableau.from_string("13/24"))))
    y135 = young_operator(YoungTableau.from_string("135/24"))
    out.append(_equality_check(
        "appendix-shortcut:squaring",
        "((1/2) Y_{135/24})^2 = (1/4) Y_{135/24}",
        (y135 / 2) * (y135 / 2), y135 / 4))
    return out


def _suite_tensor(ctx: _Context) -> list[CheckResult]:
    out = []
    for N in ctx.tensor_dims:
        prefix = f"tensor:N={N}"
        names = [t.to_string() for t in ctx.tableaux]
        mats = [realize(hermitian_young(t), N) for t in ctx.tableaux]
        rep = orthogonality_report(mats, names)
        for c in rep.checks:
            out.append(CheckResult(
                f"{prefix}:{c.check_id}",
                "D(P_T) symmetric; D(P_T) D(P_U) = delta_TU D(P_T); sum = 1",
                c.passed, c.witness))
        for t, name, mat in zip(ctx.tableaux, names, mats):
            shape = t.shape
            want = Fraction(shape.dimension_polynomial()(N),
                            shape.hook_product())
            got_trace = mat.trace()
            out.append(CheckResult(
                f"{prefix}:trace:{name}", "tr D(P_T) = f_T(N)/|T|",
                got_trace == want,
                "" if got_trace == want else f"got {got_trace}, want {want}"))
            got_rank = mat.rank()
            out.append(CheckResult(
                f"{prefix}:rank:{name}", "rank D(P_T) = f_T(N)/|T|",
                got_rank == want,
                "" if got_rank == want else f"got {got_rank}, want {want}"))
        if ctx.n >= 2:
            for t, name, p_mat in zip(ctx.tableaux, names, mats):
                y = young_operator(t)
                for kind, op, op_mat in (
                        ("Y", y, realize(y, N)),
                        ("P", hermitian_young(t), p_mat)):
                    looped, spliced = op.partial_trace()
                    left = op_mat.partial_trace()
                    right = realize(looped.scale(N) + spliced, N)
                    ok = left == right
                    out.append(CheckResult(
                        f"{prefix}:ptrace:{kind}:{name}",
                        "tr'(D(A)) = D(tr' A)", ok,
                        "" if ok else "matrix and algebra partial traces differ"))
    return out


_SuiteFn = Callable[[_Context], "list[CheckResult]"]

# name -> (runner, predicate on n for applicability)
_SUITES: dict[str, tuple[_SuiteFn, Callable[[int], bool]]] = {
    "idempotency": (_suite_idempotency, lambda n: True),
    "conventional-transversality": (_suite_conventional_transversality,
                                    lambda n: True),
    "transversality": (_suite_transversality, lambda n: True),
    "hermiticity": (_suite_hermiticity, lambda n: True),
    "completeness": (_suite_completeness, lambda n: True),
    "traces": (_suite_traces, lambda n: True),
    "partial-trace": (_suite_partial_trace, lambda n: n >= 2),
    "littlewood": (_suite_littlewood, lambda n: n == 5),
    "appendix-shortcut": (_suite_appendix_shortcut, lambda n: n == 5),
    "tensor": (_suite_tensor, lambda n: True),
}

SUITE_NAMES = tuple(sorted(_SUITES))

# The default run covers every suite that proves something at this n,
# except the deliberately failing conventional-transversality scan
# (which documents the classical defect at n = 5 and must be opted
# into), so that a full default run is expected to pass at every n.
def default_suites(n: int) -> list[str]:
    return [name for name in sorted(_SUITES)
            if name != "conventional-transversality" and _SUITES[name][1](n)]


def run_verification(n: int, tensor_dims: Sequence[int] | None = None,
                     suites: Sequence[str] | None = None) -> VerificationReport:
    """Run the requested suites (default: all applicable, minus the
    deliberately failing conventional-transversality scan) and return a
    fully sorted report.  Size caps are checked before any work: n
    against ALGEBRA_MAX_N and, with the tensor suite, each N**n by
    `check_tensor_size`."""
    check_algebra_size(n)
    if suites is None:
        chosen = default_suites(n)
    else:
        chosen = list(suites)
        for name in chosen:
            if name not in _SUITES:
                raise UnknownSuiteError(
                    f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    dims = tuple(tensor_dims) if tensor_dims else DEFAULT_TENSOR_DIMS
    for N in dims:
        if N < 1:
            raise ValueError(f"N must be positive, got {N}")
        if "tensor" in chosen:
            check_tensor_size(n, N)
    ctx = _Context(n, dims)
    report = VerificationReport(n=n, tensor_dims=dims)
    for name in sorted(set(chosen)):
        runner, applies = _SUITES[name]
        start = time.perf_counter()
        if applies(n):
            checks = runner(ctx)
        else:
            checks = [CheckResult(f"{name}:skipped", "(not applicable)", True,
                                  f"suite not defined at n={n}")]
        checks.sort(key=lambda c: c.check_id)
        report.suites.append(SuiteReport(
            suite=name, checks=checks,
            wall_time_ms=(time.perf_counter() - start) * 1000.0))
    return report
