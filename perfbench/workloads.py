"""The benchmark's workloads: one `youngops verify` invocation each.

Every workload is an exhaustive enumeration (all standard tableaux at a
given n), so its input is fixed; the benchmark seed only permutes the
order in which repetitions run.  The expected check count and the
SHA-256 of stdout were recorded from the program's byte-stable output
and form the correctness gate.  Why each workload was chosen, and which
workloads were left out, is written down in README.md beside this file.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    expected_checks: int
    stdout_sha256: str


def _verify(n: int, suites: tuple[str, ...],
            tensor_dims: tuple[int, ...] = ()) -> tuple[str, ...]:
    argv = ["verify", "--n", str(n)]
    for N in tensor_dims:
        argv += ["--N", str(N)]
    for suite in suites:
        argv += ["--suite", suite]
    return tuple(argv)


# Every default suite at n = 5 except `tensor`.
_SCAN_SUITES = ("appendix-shortcut", "completeness", "hermiticity",
                "idempotency", "littlewood", "partial-trace", "traces",
                "transversality")
_BUILD_SUITES = ("completeness", "traces", "hermiticity")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="algebra-scan-n5",
        argv=_verify(5, _SCAN_SUITES),
        expected_checks=864,
        stdout_sha256="568cb580326af031825408236c3b609964bbc25b"
                      "49f907c156f96adaafdf6745",
    ),
    Workload(
        name="tensor-scan-n4",
        argv=_verify(4, ("tensor",), tensor_dims=(3, 4)),
        expected_checks=302,
        stdout_sha256="53d8ab331116a03746118cc7724d7bde206bc65c"
                      "393249851cdd9e04df78603b",
    ),
    Workload(
        name="build-n6",
        argv=_verify(6, _BUILD_SUITES),
        expected_checks=229,
        stdout_sha256="e2bc0e92bdd0f4f6e34f302c809f9773e4a9ca30"
                      "bfc370ef1f828bee1949a919",
    ),
)}

# Suites whose wall time the traced run reports; a suite a workload
# does not run reads 0.
REPORTED_SUITES = tuple(sorted(set(_SCAN_SUITES) | {"tensor"}))
