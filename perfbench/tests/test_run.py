import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans as spanlib
import traced_child
import youngops.cli

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent


def _child(wall_s, stderr=""):
    return run.ChildRun(returncode=0, wall_s=wall_s, cpu_s=wall_s,
                        peak_rss_mb=30.0, stdout=b"", stderr=stderr)


def test_layer_metrics_match_declared_per_layer(tmp_path, capsys):
    rec = spanlib.SpanRecorder(rep=1)
    uninstall = traced_child.install(rec)
    try:
        assert youngops.cli.main(["verify", "--n", "3", "--N", "2"]) == 0
    finally:
        uninstall()
    capsys.readouterr()
    path = tmp_path / "spans.bin"
    rec.dump(str(path))
    plain = run.Repetition(False, _child(1.0, "# timing suite=tensor ms=250.0\n"),
                           [], 0)
    traced = run.Repetition(True, _child(1.5), [], 0, spanlib.load(str(path)))
    metrics = run.layer_metrics(plain, traced)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    assert metrics["verify.suite.tensor.wall_s"] == 0.25
    assert metrics["trace.overhead_s"] == 0.5
    assert metrics["tensor_rep.matmul.calls"] > 0
    assert metrics["sn_algebra.mul.term_pairs"] > 0


def test_refuses_to_run_without_program(tmp_path):
    """With only the benchmark's own files present, the run fails
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-n6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
