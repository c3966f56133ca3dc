"""Mutation gate for the overflow bounds of the exact kernels.

Each mutant below weakens one dtype threshold, proved bound or guard in a
fresh copy of `src/`; the bound-edge tests, run against that copy, must
fail on every one.  A mutant that no test catches is a bound that no
test hits at its edge.

    python tools/bound_mutants.py

Prints one line per mutant and exits 0 when every mutant is caught, 1
when one survives, its text is no longer found once in its file, or
the unmutated copy already fails.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_sn_algebra.py", "tests/test_tensor_rep.py",
         "tests/test_polynomial.py"]
SELECT = "bound or exact_past or widened"

# (file under src/youngops, old text, new text); the old text must occur
# exactly once in its file.
MUTANTS = [
    # the two thresholds
    ("exact.py", "bound < _I64_EXACT", "bound <= _I64_EXACT"),
    ("exact.py", "bound < _F64_EXACT", "bound <= _F64_EXACT"),
    # max|x|, the magnitude every bound is built from
    ("exact.py", "int(np.abs(x).max())", "int(x.max())"),
    # sums and scaling: sum |k| * max|x|
    ("exact.py", "_integer_dtype(sum(mags))", "_integer_dtype(max(mags))"),
    # the algebra product: max|a| * max|b| * min(|supp a|, |supp b|)
    ("sn_algebra.py", "_maxabs(a) * _maxabs(b) * len(rows)",
     "_maxabs(a) * _maxabs(b)"),
    ("sn_algebra.py", "_maxabs(a) * _maxabs(b) * len(rows)",
     "_maxabs(a) * len(rows)"),
    # the product's zero-support return: with a zero factor the bound
    # is 0, and a float64 cast of the other factor would overflow
    ("sn_algebra.py",
     "    if not len(rows):\n        return np.zeros(out_len, dtype=np.int64)\n",
     ""),
    # the trace polynomial: max|num| * |supp num|
    ("sn_algebra.py", "_maxabs(self.num) * int(np.count_nonzero(self.num))",
     "_maxabs(self.num)"),
    # the matrix product: max|a| * max|b| * greatest block size
    ("tensor_rep.py", "_maxabs(x) * _maxabs(y) * basis.groups[-1][0]",
     "_maxabs(y) * basis.groups[-1][0]"),
    ("tensor_rep.py", "_maxabs(x) * _maxabs(y) * basis.groups[-1][0]",
     "_maxabs(x) * basis.groups[-1][0]"),
    ("tensor_rep.py", "_maxabs(x) * _maxabs(y) * basis.groups[-1][0]",
     "_maxabs(x) * _maxabs(y) * basis.groups[0][0]"),
    # realize: sum |a_sigma|
    ("tensor_rep.py", "bound = sum(map(abs, a.num.tolist()))",
     "bound = max(map(abs, a.num.tolist()))"),
    # int64 input holding -2**63, whose magnitude is 2**63
    ("tensor_rep.py", "num.min() == -_I64_EXACT", "num.min() < -_I64_EXACT"),
]


def run_tests(src: Path) -> int:
    """pytest's exit status on the bound-edge subset, importing youngops
    from `src` (ahead of any installed copy)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *TESTS, "-k", SELECT],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def fresh_copy(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        status = run_tests(fresh_copy(tmp))
        if status != 0:
            print(f"FAIL unmutated copy: pytest exit {status}")
            return 1
        for file, old, new in MUTANTS:
            path = fresh_copy(tmp) / "youngops" / file
            text = path.read_text()
            if text.count(old) != 1:
                verdict = "MISSING"
            else:
                path.write_text(text.replace(old, new))
                # Exit 1 is "tests ran and failed"; a mutant that stops
                # the package importing proves nothing about the bound.
                failed = run_tests(path.parent.parent) == 1
                verdict = "caught" if failed else "SURVIVED"
            bad += verdict != "caught"
            print(f"{verdict:8} {file}: {old!r} -> {new!r}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
