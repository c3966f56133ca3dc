"""Correctness gate applied to every repetition of a workload."""
from __future__ import annotations

import hashlib

from workloads import Workload


def gate_problems(workload: Workload, returncode: int, stdout: bytes) -> list[str]:
    """Why one repetition's result is not the recorded correct one.

    An empty list means the repetition passed: exit code 0, the expected
    number of checks passed and none failed, and stdout byte-identical
    to the reference (compared by SHA-256).
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}, want 0")
    want = f"overall: {workload.expected_checks} passed, 0 failed"
    lines = stdout.decode("utf-8", "replace").splitlines()
    last = lines[-1] if lines else ""
    if last != want:
        problems.append(f"summary {last!r}, want {want!r}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != workload.stdout_sha256:
        problems.append(f"stdout sha256 {digest}, want {workload.stdout_sha256}")
    return problems


def checks_failed(workload: Workload, problems: list[str]) -> int:
    """Checks counted as failed or missing: all of them once the gate
    fails, since a wrong exit code or stdout proves nothing per check."""
    return workload.expected_checks if problems else 0
