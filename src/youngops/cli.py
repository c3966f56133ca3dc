"""Command-line interface.

Subcommands:
  tableaux   enumerate standard Young tableaux as JSON
  operator   construct a (conventional or Hermitian) Young operator
  trace      trace polynomial of such an operator
  dims       dimension table f_T(N), |T|, f_T(N)/|T| for all T at n
  verify     run verification suites and report pass/fail per check

Exit codes: 0 all requested work passed, 1 at least one verification
check failed, 2 usage error (bad arguments, unknown suite, size cap).

All stdout output is byte-stable across runs; per-suite timings go to
stderr only.  A --json-out path is opened before any work starts, as a
shell redirection would be, so an unwritable path exits 2 at once.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import IO, Sequence

from .config import TABLEAU_MAX_N
from .sn_algebra import hermitian_young, young_operator
from .tableaux import YoungTableau, enumerate_syt
from .verify import (
    DEFAULT_TENSOR_DIMS,
    OPT_IN_SUITES,
    SUITE_NAMES,
    VerificationReport,
    read_tensor_dims,
    run_verification,
)


def _parse_tableau(text: str) -> YoungTableau:
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"bad tableau JSON: {exc}") from None
        try:
            return YoungTableau.from_dict(data)
        except KeyError as exc:
            raise ValueError(f"bad tableau JSON: missing key {exc}") from None
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"bad tableau JSON: {exc}") from None
    return YoungTableau.from_string(text)


def _open_json_out(path: str | None):
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _emit(payload: dict | list, json_out: IO[str] | None, *,
          also_stdout: bool = True) -> None:
    text = json.dumps(payload, separators=(",", ":")) + "\n"
    if also_stdout:
        sys.stdout.write(text)
    if json_out is not None:
        # Closing here, even when the write fails, leaves nothing
        # buffered for main's `with` to flush again.
        try:
            with json_out:
                json_out.write(text)
        except OSError as exc:
            raise ValueError(
                f"cannot write {json_out.name}: {exc.strerror}") from None


def _operator_for(args: argparse.Namespace):
    t = _parse_tableau(args.tableau)
    if args.kind == "hermitian":
        return hermitian_young(t)
    return young_operator(t)


def _cmd_tableaux(args: argparse.Namespace) -> int:
    tableaux = enumerate_syt(args.n)
    _emit([t.to_dict() for t in tableaux], args.json_out)
    return 0


def _cmd_operator(args: argparse.Namespace) -> int:
    _emit(_operator_for(args).to_dict(), args.json_out)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    _emit(_operator_for(args).trace_polynomial().to_dict(), args.json_out)
    return 0


def _cmd_dims(args: argparse.Namespace) -> int:
    labelled = [(str(t), t.shape) for t in enumerate_syt(args.n)]
    hooks = {s: s.hook_product() for s in {s for _, s in labelled}}
    tables = []
    for N in read_tensor_dims(args.N):
        dims = {s: s.dimension(N) for s in hooks}
        rows = [{"tableau": label, "f": dims[s] * hooks[s], "hook": hooks[s],
                 "dim": dims[s]} for label, s in labelled]
        total = sum(r["dim"] for r in rows)
        tables.append({"N": N, "rows": rows, "dim_sum": total,
                       "n_power": N ** args.n, "ok": total == N ** args.n})
    for table in tables:
        print(f"n={args.n} N={table['N']}")
        width = max(len("tableau"),
                    max(len(r["tableau"]) for r in table["rows"]))
        print(f"{'tableau':<{width}}  {'f_T(N)':>10}  {'|T|':>6}  {'dim':>8}")
        for r in table["rows"]:
            print(f"{r['tableau']:<{width}}  {r['f']:>10}  "
                  f"{r['hook']:>6}  {r['dim']:>8}")
        status = "ok" if table["ok"] else "MISMATCH"
        print(f"sum(dim) = {table['dim_sum']}, "
              f"N^n = {table['n_power']}: {status}")
        print()
    if args.json_out:
        _emit({"n": args.n, "tables": tables}, args.json_out,
              also_stdout=False)
    return 0 if all(t["ok"] for t in tables) else 1


def _render_report(report: VerificationReport) -> str:
    lines = []
    header_dims = ",".join(str(N) for N in report.tensor_dims)
    lines.append(f"verify n={report.n} N={header_dims}")
    for suite in report.suites:
        for c in suite.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {c.check_id}  [{c.anchor}]"
            if c.witness and not c.passed:
                line += f"  witness: {c.witness}"
            lines.append(line)
        lines.append(f"suite {suite.suite}: {suite.passed_count} passed, "
                     f"{suite.failed_count} failed")
    lines.append(f"overall: {report.passed_count} passed, "
                 f"{report.failed_count} failed")
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(args.n, tensor_dims=args.N, suites=args.suite)
    sys.stdout.write(_render_report(report))
    for suite in report.suites:
        print(f"# timing suite={suite.suite} ms={suite.wall_time_ms:.1f}",
              file=sys.stderr)
    if args.json_out:
        _emit(report.to_dict(), args.json_out, also_stdout=False)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youngops",
        description="Exact Young projection operators for S_n and their "
                    "tensor-space realization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json-out", metavar="PATH", default=None,
                       help="also write JSON output to PATH")

    n_help = f"number of boxes (1..{TABLEAU_MAX_N})"
    p = sub.add_parser("tableaux",
                       help="enumerate standard Young tableaux")
    p.add_argument("--n", type=int, required=True, help=n_help)
    add_common(p)
    p.set_defaults(func=_cmd_tableaux)

    for name, helptext, func in (
        ("operator", "construct a Young operator as a JSON formal sum",
         _cmd_operator),
        ("trace", "trace polynomial in N of a Young operator", _cmd_trace),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("tableau",
                       help="tableau, compact (123/45) or JSON")
        p.add_argument("--kind", choices=("conventional", "hermitian"),
                       default="conventional",
                       help="operator family (default: conventional)")
        add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("dims", help="dimension table for all tableaux at n")
    p.add_argument("--n", type=int, required=True, help=n_help)
    p.add_argument("--N", type=int, action="append", required=True,
                   help="tensor-slot dimension (repeatable)")
    add_common(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--n", type=int, required=True, help="number of boxes")
    p.add_argument("--N", type=int, action="append", default=None,
                   help="tensor dimension for the tensor suite "
                        f"(repeatable; default {DEFAULT_TENSOR_DIMS})")
    p.add_argument("--suite", action="append", default=None,
                   metavar="NAME",
                   help="suite to run (repeatable; default: all applicable "
                        f"except {', '.join(OPT_IN_SUITES)}); known: "
                        + ", ".join(SUITE_NAMES))
    add_common(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _open_json_out(args.json_out) as json_out:
            args.json_out = json_out
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
