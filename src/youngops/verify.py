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

from .polynomial import Polynomial
from .sn_algebra import (
    AlgebraElement,
    embed_element,
    hermitian_young,
    young_operator,
)
from .tableaux import YoungTableau, enumerate_syt
from .tensor_rep import TensorOperator, orthogonality_report, realize

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
    """Shared tableaux and memoized operators for one verification run."""

    def __init__(self, n: int, tensor_dims: Sequence[int], max_n: int | None):
        self.n = n
        self.tensor_dims = tuple(tensor_dims)
        self.max_n = max_n
        self.tableaux = enumerate_syt(n, max_n)
        self._young: dict[YoungTableau, AlgebraElement] = {}

    def name(self, t: YoungTableau) -> str:
        return t.to_string()

    def Y(self, t: YoungTableau) -> AlgebraElement:
        if t not in self._young:
            self._young[t] = young_operator(t, max_n=self.max_n)
        return self._young[t]

    def P(self, t: YoungTableau) -> AlgebraElement:
        return hermitian_young(t, max_n=self.max_n)


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
        name = ctx.name(t)
        y = ctx.Y(t)
        out.append(_equality_check(f"idempotency:Y:{name}",
                                   "Y_T Y_T = Y_T", y * y, y))
        p = ctx.P(t)
        out.append(_equality_check(f"idempotency:P:{name}",
                                   "P_T P_T = P_T", p * p, p))
    return out


def _transversality(ctx: _Context, kind: str, suite: str) -> list[CheckResult]:
    get = ctx.Y if kind == "Y" else ctx.P
    anchor = f"{kind}_T {kind}_U = delta_TU {kind}_T"
    out = []
    for t in ctx.tableaux:
        for u in ctx.tableaux:
            want = get(t) if t == u else AlgebraElement.zero(ctx.n)
            out.append(_equality_check(
                f"{suite}:{ctx.name(t)}*{ctx.name(u)}", anchor,
                get(t) * get(u), want))
    return out


def _suite_conventional_transversality(ctx: _Context) -> list[CheckResult]:
    return _transversality(ctx, "Y", "conventional-transversality")


def _suite_transversality(ctx: _Context) -> list[CheckResult]:
    return _transversality(ctx, "P", "transversality")


def _suite_hermiticity(ctx: _Context) -> list[CheckResult]:
    return [_equality_check(f"hermiticity:{ctx.name(t)}", "P_T* = P_T",
                            ctx.P(t).involution(), ctx.P(t))
            for t in ctx.tableaux]


def _suite_completeness(ctx: _Context) -> list[CheckResult]:
    total = AlgebraElement.zero(ctx.n)
    for t in ctx.tableaux:
        total = total + ctx.P(t)
    return [_equality_check("completeness:sum", "sum_T P_T = 1",
                            total, AlgebraElement.one(ctx.n))]


def _suite_traces(ctx: _Context) -> list[CheckResult]:
    out = []
    for t in ctx.tableaux:
        name = ctx.name(t)
        shape = t.shape
        want = shape.dimension_polynomial() / shape.hook_product()
        for kind, op in (("Y", ctx.Y(t)), ("P", ctx.P(t))):
            got = op.trace_polynomial()
            ok = got == want
            out.append(CheckResult(
                f"traces:{kind}:{name}", "tr Y_T = tr P_T = f_T(N)/|T|", ok,
                "" if ok else f"got {got}, want {want}"))
    return out


def _suite_partial_trace(ctx: _Context) -> list[CheckResult]:
    out = []
    for t in ctx.tableaux:
        name = ctx.name(t)
        parent, p, q = t.parent()
        content = Polynomial([p - q, 1])  # N + p - q
        ratio = Fraction(parent.shape.hook_product(), t.shape.hook_product())
        for kind, op, parent_op in (
            ("Y", ctx.Y(t), young_operator(parent, max_n=ctx.max_n)),
            ("P", ctx.P(t), hermitian_young(parent, max_n=ctx.max_n)),
        ):
            anchor = (f"tr' {kind}_T = (N+p-q) (|T'|/|T|) {kind}_T'")
            out.append(_equality_check(
                f"partial-trace:{kind}:{name}", anchor,
                op.partial_trace(), parent_op.scale(content * ratio)))
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
        names = [ctx.name(t) for t in ctx.tableaux]
        mats = [realize(ctx.P(t), N) for t in ctx.tableaux]
        rep = orthogonality_report(mats, names)
        for c in rep.checks:
            out.append(CheckResult(
                f"{prefix}:{c.check_id}",
                "D(P_T) symmetric; D(P_T) D(P_U) = delta_TU D(P_T); sum = 1",
                c.passed, c.witness))
        for t, mat in zip(ctx.tableaux, mats):
            shape = t.shape
            want = Fraction(shape.dimension_polynomial()(N),
                            shape.hook_product())
            got_trace = mat.trace()
            out.append(CheckResult(
                f"{prefix}:trace:{ctx.name(t)}", "tr D(P_T) = f_T(N)/|T|",
                got_trace == want,
                "" if got_trace == want else f"got {got_trace}, want {want}"))
            got_rank = mat.rank()
            out.append(CheckResult(
                f"{prefix}:rank:{ctx.name(t)}", "rank D(P_T) = f_T(N)/|T|",
                got_rank == want,
                "" if got_rank == want else f"got {got_rank}, want {want}"))
        if ctx.n >= 2:
            for t, p_mat in zip(ctx.tableaux, mats):
                y = ctx.Y(t)
                for kind, op, op_mat in (("Y", y, realize(y, N)),
                                         ("P", ctx.P(t), p_mat)):
                    left = op_mat.partial_trace()
                    right = realize(op.partial_trace().evaluate(N), N)
                    ok = left == right
                    out.append(CheckResult(
                        f"{prefix}:ptrace:{kind}:{ctx.name(t)}",
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
                     suites: Sequence[str] | None = None,
                     max_n: int | None = None) -> VerificationReport:
    """Run the requested suites (default: all applicable, minus the
    deliberately failing conventional-transversality scan) and return a
    fully sorted report."""
    dims = tuple(tensor_dims) if tensor_dims else DEFAULT_TENSOR_DIMS
    for N in dims:
        if N < 1:
            raise ValueError(f"N must be positive, got {N}")
    if suites is None:
        chosen = default_suites(n)
    else:
        chosen = list(suites)
        for name in chosen:
            if name not in _SUITES:
                raise UnknownSuiteError(
                    f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    ctx = _Context(n, dims, max_n)
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
