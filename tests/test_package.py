import inspect
import os
import pathlib
import re
import subprocess
import sys

import youngops
from youngops import config

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_every_size_cap_imports_from_the_package():
    from youngops import ALGEBRA_MAX_N, TABLEAU_MAX_N, TENSOR_MAX_DIM
    assert (ALGEBRA_MAX_N, TABLEAU_MAX_N, TENSOR_MAX_DIM) == (
        config.ALGEBRA_MAX_N, config.TABLEAU_MAX_N, config.TENSOR_MAX_DIM)
    for name in ("ALGEBRA_MAX_N", "TABLEAU_MAX_N", "TENSOR_MAX_DIM"):
        assert name in youngops.__all__
    # Only the caps: each is applied by the structure it guards.
    assert not [name for name, value in vars(config).items()
                if inspect.isfunction(value)]


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
