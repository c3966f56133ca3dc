import importlib
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import youngops
from youngops import exact, sn_algebra, tableaux, tensor_rep

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_every_size_cap_imports_from_the_package():
    from youngops import (ALGEBRA_MAX_N, TABLEAU_MAX_N, TENSOR_MAX_DIM,
                          SizeLimitError)
    # Each cap is declared in the module of the structure that applies
    # it, and the error beside the other rules on outside input.
    assert (ALGEBRA_MAX_N, TABLEAU_MAX_N, TENSOR_MAX_DIM, SizeLimitError) == (
        sn_algebra.ALGEBRA_MAX_N, tableaux.TABLEAU_MAX_N,
        tensor_rep.TENSOR_MAX_DIM, exact.SizeLimitError)
    for name in ("ALGEBRA_MAX_N", "TABLEAU_MAX_N", "TENSOR_MAX_DIM",
                 "SizeLimitError"):
        assert name in youngops.__all__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("youngops.config")


def test_readme_python_examples_run(tmp_path):
    # The README's ```python blocks, in order, as one script in a fresh
    # interpreter; every line it prints must appear in the README as a
    # `# <line>` comment.
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) >= 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", "\n".join(blocks)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        assert f"# {line}" in readme, line


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # Hypothesis reports a failure through libcst, whose import warns;
    # under the suite's warnings-as-errors filters that warning must
    # not abort the run before the next test.
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert re.search(r"\b1 failed, 1 passed\b", proc.stdout), proc.stdout


def test_cli_timing_runs_both_sides(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "cli_timing.py"), str(REPO),
         str(REPO), "--pairs", "1", "--", "verify", "--n", "2"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for side in ("parent", "change"):
        assert re.search(rf"^{side}: .*median", proc.stdout, re.M), proc.stdout
