import hashlib

from gate import checks_failed, gate_problems
from workloads import Workload

GOOD = b"verify n=2 N=2\nPASS a:1  [x]\nPASS a:2  [x]\noverall: 2 passed, 0 failed\n"
WORKLOAD = Workload(name="tiny", argv=(), expected_checks=2,
                    stdout_sha256=hashlib.sha256(GOOD).hexdigest())


def test_gate_accepts_reference_output():
    assert gate_problems(WORKLOAD, 0, GOOD) == []
    assert checks_failed(WORKLOAD, []) == 0


def test_gate_rejects_tampered_stdout():
    tampered = GOOD.replace(b"PASS a:2", b"PASS a:3")
    problems = gate_problems(WORKLOAD, 0, tampered)
    assert len(problems) == 1 and "sha256" in problems[0]
    assert checks_failed(WORKLOAD, problems) == 2


def test_gate_rejects_nonzero_exit():
    problems = gate_problems(WORKLOAD, 1, GOOD)
    assert problems == ["exit code 1, want 0"]
    assert checks_failed(WORKLOAD, problems) == 2


def test_gate_rejects_wrong_counts():
    bad = GOOD.replace(b"2 passed, 0 failed", b"1 passed, 1 failed")
    problems = gate_problems(WORKLOAD, 0, bad)
    assert any("summary" in p for p in problems)
